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
the branch from the group itself; certificate_problems, not the
construction, checks each witness and path against the power graph, and
a failed check raises ConstructionFailedError (exit 2).

:func:`certify` is the one place that decides which methods run on a
group, this construction or the exact search, and checks what they
return: every command and suite gets its certificates from it.
"""

from __future__ import annotations

from typing import Sequence

from .errors import ConstructionFailedError
from .groups import FiniteGroup, prime_power
from .labelling import (
    DEFAULT_SEARCH_CAP,
    DEFAULT_TIME_BUDGET,
    ConstructionInfo,
    Evidence,
    LambdaCertificate,
    certificate_problems,
    exact_lambda,
    path_to_labelling,
)
from .powergraph import PowerGraph, build_power_graph

__all__ = [
    "build_interleaved_path",
    "order_classes_for_descent",
    "recognize_family",
    "lambda_p_group",
    "certify",
]

Path = tuple[int, ...]
Joints = tuple[tuple[int, int], ...]


def build_interleaved_path(classes: Sequence[Sequence[int]]) -> Path:
    """Column-major interleaving of the classes: w11, w21, .., w_rN.

    Members are taken in ascending order and columns stop at the shortest
    class.  Unchecked: certificate_problems checks the whole path.
    """
    columns = zip(*(sorted(c) for c in classes))
    return tuple(v for column in columns for v in column)


def order_classes_for_descent(graph: PowerGraph) -> list[tuple[tuple[int, ...], ...]]:
    """Class members per order level, top order first, joinable in sequence.

    Each level is a tuple of cyclic classes of ``graph.group`` (each a
    tuple of members), ready for build_interleaved_path.  Levels are
    reordered so the last class of each level is non-adjacent to the first
    class of the level below.  A class has at most one adjacent class per
    lower level (its cyclic subgroup contains a unique subgroup of each
    order), so with at least two classes per level a non-adjacent choice
    always exists; a level with fewer than two raises
    ConstructionFailedError.
    """
    group = graph.group
    pp = prime_power(group.order)
    if pp is None:
        raise ValueError(f"order {group.order} is not a prime power")
    p = pp[0]
    sub = group.cyclic_subgroups()
    _, e = prime_power(max(sub.by_order))

    levels = []
    prev_last: int | None = None
    for i in range(e, 0, -1):
        level = [sub.generators[c] for c in sub.by_order.get(p ** i, ())]
        if len(level) < 2:
            raise ConstructionFailedError(
                f"{len(level)} class(es) of order {p ** i}; interleaving needs >= 2")
        if prev_last is not None:
            pick = next((idx for idx, members in enumerate(level)
                         if not graph.adjacent(prev_last, members[0])), None)
            if pick is None:
                raise ConstructionFailedError(
                    f"every class of order {p ** i} is adjacent to the level above")
            level = [level[pick]] + level[:pick] + level[pick + 1:]
        levels.append(tuple(level))
        prev_last = level[-1][0]
    return levels


def _descent_path(graph: PowerGraph) -> tuple[Path, Joints]:
    vertices: list[int] = []
    joints: list[tuple[int, int]] = []
    for level in order_classes_for_descent(graph):
        segment = build_interleaved_path(level)
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
    m = group.cyclic_subgroups().orders[x]
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
    m = group.cyclic_subgroups().orders[x]

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
    m = group.cyclic_subgroups().orders[x]
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
    orders = group.cyclic_subgroups().orders
    m = group.order // 2
    xs = [g for g in range(group.order) if orders[g] == m]
    if not xs:
        return None
    x = xs[0]
    inside = group.cyclic_subgroup(x)
    y_order = 4 if family == "quaternion" else 2
    outside = [g for g in range(group.order)
               if g not in inside and orders[g] == y_order]
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
    if prime_power(n) is None:
        raise ValueError(f"order {n} is not a prime power")
    sub = group.cyclic_subgroups()
    exponent = max(sub.by_order)
    if exponent == n:
        return "cyclic"
    if sub.class_number(2) == 1:
        # non-cyclic with a unique involution: generalized quaternion
        return "quaternion"
    if (n >= 8 and exponent == n // 2
            and sub.class_number(2) == 1 + n // 2
            and _locate_generators(group, "dihedral") is not None):
        return "dihedral"
    if (n >= 16 and exponent == n // 2
            and sub.class_number(2) == 1 + n // 4
            and sub.class_number(4) == 1 + n // 8
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
    case with λ = 0.  The certificate is checked by certificate_problems
    before it is returned; a failed check raises ConstructionFailedError.
    """
    family = recognize_family(group)
    n = group.order
    if n == 1:
        return LambdaCertificate(
            value=0, witness=(0,),
            evidence=Evidence(kind="degenerate", bound=0),
            method="constructive",
            construction=ConstructionInfo("degenerate", (), ()))
    graph = build_power_graph(group)

    if family == "cyclic":
        # cyclic p-group: subgroups are totally ordered, the graph is complete
        cert = LambdaCertificate(
            value=2 * (n - 1), witness=tuple(2 * v for v in range(n)),
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
            value=n + 1, witness=tuple(labels),
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


def certify(group: FiniteGroup, method: str = "auto", *,
            cap: int = DEFAULT_SEARCH_CAP,
            budget: float = DEFAULT_TIME_BUDGET) -> list[LambdaCertificate]:
    """The checked certificates ``method`` yields, constructive first.

    ``method`` is 'constructive', 'exact', 'both' or 'auto'.  'auto' runs
    both on a p-group (or the trivial group) of order at most ``cap`` and
    the construction above it; on any other group it runs the exact
    search within the cap and nothing, returning [], beyond it.  The
    exact search is limited to ``cap`` vertices and ``budget`` seconds,
    and its certificate is checked here (lambda_p_group checks its own).
    A failed check, or two methods that disagree, raise
    ConstructionFailedError.
    """
    if method == "auto":
        if group.order == 1 or prime_power(group.order) is not None:
            method = "both" if group.order <= cap else "constructive"
        elif group.order <= cap:
            method = "exact"
        else:
            return []
    if method not in ("constructive", "exact", "both"):
        raise ValueError(f"unknown method {method!r}")
    certs = []
    if method != "exact":
        certs.append(lambda_p_group(group))
    if method != "constructive":
        graph = build_power_graph(group)
        cert = exact_lambda(graph, max_vertices=cap, time_budget=budget)
        problems = certificate_problems(graph, cert)
        if problems:
            raise ConstructionFailedError(
                "\n".join(f"consistency failure: {p}" for p in problems))
        certs.append(cert)
    if len(certs) == 2 and certs[0].value != certs[1].value:
        raise ConstructionFailedError(
            f"disagreement: constructive lambda {certs[0].value} != "
            f"exact-search lambda {certs[1].value} for order {group.order}")
    return certs
