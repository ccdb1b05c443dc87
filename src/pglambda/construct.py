"""Constructive span-|G| witnesses for p-groups.

For a p-group that is neither cyclic nor generalized quaternion, a
Hamiltonian path of the reduced power-graph complement can be written
down instead of searched for: within one element order, cyclic classes
are pairwise non-adjacent (or equal), so interleaving the classes of
each order level column by column gives a complement path, and the
levels chain together because each class is adjacent to at most one
class of the level below it.  Dihedral groups get a direct alternation,
semidihedral groups a short seed segment followed by an alternation,
and generalized quaternion groups an alternation of ⟨x⟩ ∖ {1, z} with
the coset ⟨x⟩y, a path on G ∖ {1, z} that yields span |G|+1 (the unique
involution z is universal, so |G| is impossible).  Every path is read
off the group's elements; nothing is searched for.  The dispatcher picks
the branch from the group itself and re-validates every witness against
the actual power graph.
"""

from __future__ import annotations

from typing import Sequence

from .errors import ConstructionFailedError
from .groups import FiniteGroup, order_table, prime_power
from .labelling import (
    ConstructionInfo,
    Evidence,
    Labelling,
    LambdaCertificate,
    certificate_problems,
    path_to_labelling,
)
from .powergraph import (
    ClassPartition,
    CyclicClass,
    Graph,
    PowerGraph,
    build_power_graph,
    cyclic_classes,
    iter_bits,
)

__all__ = [
    "build_interleaved_path",
    "order_classes_for_descent",
    "recognize_family",
    "lambda_p_group",
]

Path = tuple[int, ...]
Joints = tuple[tuple[int, int], ...]


def build_interleaved_path(graph: Graph, classes: Sequence[Sequence[int]]) -> Path:
    """Column-major interleaving of the classes: w11, w21, .., w_rN.

    Consecutive vertices always come from different classes, so the
    segment is a complement path as soon as cross-class pairs are
    non-adjacent; that and the size conditions are verified here.
    Members of each class are taken in ascending index order.
    """
    classes = [tuple(sorted(c)) for c in classes]
    if len(classes) < 2:
        raise ValueError(f"interleaving needs at least 2 classes, got {len(classes)}")
    sizes = {len(c) for c in classes}
    if len(sizes) != 1:
        raise ValueError(f"class sizes differ: {sorted(sizes)}")
    size = sizes.pop()
    if size == 0:
        raise ValueError("classes must be non-empty")

    masks = [sum(1 << v for v in c) for c in classes]
    hoods = []
    for c in classes:
        acc = 0
        for v in c:
            acc |= graph.neighbors[v]
        hoods.append(acc)
    for a in range(len(classes)):
        for b in range(a + 1, len(classes)):
            if masks[a] & masks[b]:
                raise ValueError(f"classes {a} and {b} share a vertex")
            overlap = hoods[a] & masks[b]
            if overlap:
                v = next(iter_bits(overlap))
                u = next(u for u in classes[a] if graph.adjacent(u, v))
                raise ValueError(
                    f"vertex {u} of class {a} is adjacent to vertex {v} of class {b}")

    return tuple(classes[r][col] for col in range(size) for r in range(len(classes)))


def order_classes_for_descent(partition: ClassPartition,
                              graph: PowerGraph) -> list[tuple[tuple[int, ...], ...]]:
    """Class members per order level, top order first, joinable in sequence.

    Each level is a tuple of classes (each a tuple of members), ready for
    build_interleaved_path.  Levels are reordered so the last class of
    each level is non-adjacent to the first class of the level below.  A
    class has at most one adjacent class per lower level (its cyclic
    subgroup contains a unique subgroup of each order), so with at least
    two classes per level a non-adjacent choice always exists; fewer than
    two raise ValueError.
    """
    group = graph.group
    pp = prime_power(group.order)
    if pp is None:
        raise ValueError(f"order {group.order} is not a prime power")
    p = pp[0]
    _, e = prime_power(max(partition.orders))

    levels = []
    prev_last: CyclicClass | None = None
    for i in range(e, 0, -1):
        level = list(partition.by_order.get(p ** i, ()))
        if len(level) < 2:
            raise ValueError(
                f"{len(level)} class(es) of order {p ** i}; interleaving needs >= 2")
        if prev_last is not None:
            pick = next((idx for idx, c in enumerate(level)
                         if not graph.adjacent(prev_last.representative,
                                               c.representative)), None)
            if pick is None:
                raise ConstructionFailedError(
                    f"every class of order {p ** i} is adjacent to the level above")
            level = [level[pick]] + level[:pick] + level[pick + 1:]
        levels.append(tuple(c.members for c in level))
        prev_last = level[-1]
    return levels


def _descent_path(graph: PowerGraph) -> tuple[Path, Joints]:
    vertices: list[int] = []
    joints: list[tuple[int, int]] = []
    for level in order_classes_for_descent(cyclic_classes(graph.group), graph):
        segment = build_interleaved_path(graph, level)
        if vertices:
            joints.append((vertices[-1], segment[0]))
        vertices.extend(segment)
    return tuple(vertices), tuple(joints)


# ---------------------------------------------------------------------------
# the three 2-group families


def _alternate(first: Sequence[int], second: Sequence[int]) -> Path:
    """first[0], second[0], first[1], second[1], .., then the rest of the longer."""
    short = min(len(first), len(second))
    pairs = tuple(v for pair in zip(first, second) for v in pair)
    return pairs + tuple(first[short:]) + tuple(second[short:])


def _involution_alternation_path(group: FiniteGroup, x: int) -> Path:
    """Dihedral path: outside involutions alternated with ⟨x⟩ ∖ {1}.

    Each outside element w generates only {1, w}, so it is non-adjacent
    to all of ⟨x⟩; with 2^e outside elements against 2^e − 1 inside ones
    the alternation starts and ends outside.
    """
    m = group.element_order(x)
    inside = [group.power(x, k) for k in range(1, m)]
    in_set = group.cyclic_subgroup(x)
    outside = [g for g in range(group.order) if g not in in_set]
    return _alternate(outside, inside)


def _seed_alternation_path(group: FiniteGroup, x: int, y: int) -> tuple[Path, Joints]:
    """Semidihedral path: a 6-vertex seed, then outside/high-order alternation.

    The seed pairs the three outside elements y, x²y, x⁴y with the three
    ⟨x⟩-elements of order ≤ 4; the tail alternates the remaining 2^e − 3
    outside elements (ascending k in x^k y) with the 2^e − 4 elements of
    ⟨x⟩ of order ≥ 8, starting and ending outside.
    """
    m = group.element_order(x)

    def xk(k: int) -> int:
        return group.power(x, k)

    def xky(k: int) -> int:
        return group.compose(xk(k), y)

    seed = (xky(0), xk(m // 2), xky(2), xk(m // 4), xky(4), xk(3 * m // 4))
    small = {xk(0), xk(m // 4), xk(m // 2), xk(3 * m // 4)}
    tail_outside = [xky(k) for k in range(m) if k not in (0, 2, 4)]
    tail_inside = [xk(k) for k in range(m) if xk(k) not in small]
    return seed + _alternate(tail_outside, tail_inside), ((seed[-1], tail_outside[0]),)


def _quaternion_path(group: FiniteGroup, x: int, y: int) -> Path:
    """Generalized quaternion path on G ∖ {1, z}, z = x^(m/2) the involution.

    Each x^k y generates {1, x^k y, z, x^(k+m/2) y}, so it is non-adjacent
    to ⟨x⟩ ∖ {1, z} and to x^(k±1) y: the m − 2 elements of ⟨x⟩ ∖ {1, z}
    (ascending k in x^k) alternate with the m elements x^k y (ascending
    k), starting inside, and the last two x^k y end the path.
    """
    m = group.element_order(x)
    inside = [group.power(x, k) for k in range(1, m) if k != m // 2]
    outside = [group.compose(group.power(x, k), y) for k in range(m)]
    return _alternate(inside, outside)


# ---------------------------------------------------------------------------
# recognition and the dispatcher


def _locate_generators(group: FiniteGroup, family: str) -> tuple[int, int] | None:
    """Find (x, y) realizing a dihedral, semidihedral or quaternion presentation.

    x is the smallest-index element of order |G|/2; y is the
    smallest-index element outside ⟨x⟩ of order 2 (order 4 for the
    quaternion family).  The relation y⁻¹xy = x^twist is then verified
    on the table; None if any step fails.
    """
    ot = order_table(group)
    m = group.order // 2
    xs = [g for g in range(group.order) if ot.orders[g] == m]
    if not xs:
        return None
    x = xs[0]
    inside = group.cyclic_subgroup(x)
    y_order = 4 if family == "quaternion" else 2
    outside = [g for g in range(group.order)
               if g not in inside and ot.orders[g] == y_order]
    if not outside:
        return None
    y = outside[0]
    twist = m // 2 - 1 if family == "semidihedral" else m - 1
    conjugate = group.compose(group.compose(group.inverse(y), x), y)
    if conjugate != group.power(x, twist):
        return None
    return x, y


def recognize_family(group: FiniteGroup) -> str:
    """Which constructive branch a p-group dispatches to.

    One of 'cyclic', 'quaternion', 'dihedral', 'semidihedral', 'general'.
    The decision is structural (element orders and class numbers with the
    presentation relations verified), never the family_tag, so ingested
    tables classify the same as built ones.
    """
    n = group.order
    if n == 1:
        return "cyclic"
    ot = order_table(group)
    if ot.p_group_prime is None:
        raise ValueError(f"order {n} is not a prime power")
    if ot.exponent == n:
        return "cyclic"
    partition = cyclic_classes(group)
    if partition.class_number(2) == 1:
        # non-cyclic with a unique involution: generalized quaternion
        return "quaternion"
    if (n >= 8 and ot.exponent == n // 2
            and partition.class_number(2) == 1 + n // 2
            and _locate_generators(group, "dihedral") is not None):
        return "dihedral"
    if (n >= 16 and ot.exponent == n // 2
            and partition.class_number(2) == 1 + n // 4
            and partition.class_number(4) == 1 + n // 8
            and _locate_generators(group, "semidihedral") is not None):
        return "semidihedral"
    return "general"


def lambda_p_group(group: FiniteGroup) -> LambdaCertificate:
    """λ of the power graph of any p-group, with witness and evidence.

    Dispatch on recognize_family: cyclic → even labels 0,2,.. on the
    complete power graph (λ = 2(p^e − 1)); generalized quaternion → its
    unique involution is a universal non-identity vertex, so a restricted
    path gives λ = |G|+1; dihedral/semidihedral → their explicit
    alternations; every other p-group → level descent; the last three all
    achieve λ = |G|.  The trivial group is allowed as a degenerate cyclic
    case with λ = 0.  The certificate is checked against the power graph
    before it is returned.
    """
    family = recognize_family(group)
    n = group.order
    if n == 1:
        return LambdaCertificate(
            value=0, witness=Labelling((0,)),
            evidence=Evidence(kind="degenerate", bound=0),
            method="constructive",
            construction=ConstructionInfo("degenerate", (), ()))
    graph = build_power_graph(group)

    if family == "cyclic":
        # cyclic p-group: subgroups are totally ordered, the graph is complete
        if not all(graph.degree(v) == n - 1 for v in range(n)):
            raise ConstructionFailedError(
                "exponent equals the order but the power graph is not complete")
        cert = LambdaCertificate(
            value=2 * (n - 1), witness=Labelling(tuple(2 * v for v in range(n))),
            evidence=Evidence(kind="complete-graph-bound", bound=2 * (n - 1)),
            method="constructive",
            construction=ConstructionInfo("cyclic-even-spacing", (), ()))
    elif family == "quaternion":
        # the involution z is universal, so |G| is impossible: identity at
        # −2, the path on G ∖ {1, z} at 0..|G|−3, z at |G|−1 (gap ≥ 2 to all)
        x, y = _locate_generators(group, family)
        z = group.power(x, n // 4)
        path = _quaternion_path(group, x, y)
        labels = [n - 1] * n
        labels[group.identity] = -2
        for i, v in enumerate(path):
            labels[v] = i
        cert = LambdaCertificate(
            value=n + 1, witness=Labelling(tuple(labels)),
            evidence=Evidence(kind="universal-nonidentity-vertex", bound=n + 1,
                              vertex=z),
            method="constructive",
            construction=ConstructionInfo("restricted-complement-path", path, ()))
    else:
        joints: Joints = ()
        if family == "dihedral":
            x, _ = _locate_generators(group, family)
            path = _involution_alternation_path(group, x)
            kind = "involution-alternation"
        elif family == "semidihedral":
            path, joints = _seed_alternation_path(group, *_locate_generators(group, family))
            kind = "seed-alternation"
        else:
            path, joints = _descent_path(graph)
            kind = "class-interleaving-descent"
        cert = LambdaCertificate(
            value=n, witness=path_to_labelling(graph, path),
            evidence=Evidence(kind="power-graph-bound", bound=n),
            method="constructive",
            construction=ConstructionInfo(kind, path, joints))

    problems = certificate_problems(graph, cert)
    if problems:
        raise ConstructionFailedError(f"constructive certificate fails its check: "
                                      f"{problems[0]}")
    return cert
