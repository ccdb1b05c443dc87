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
    LambdaCertificate,
    certificate_problems,
    exact_lambda,
    path_to_labelling,
    power_graph_lower_bound,
    span,
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
    ConstructionFailedError.  A p-group realises every order p^i up to its
    exponent, so the levels are the realised orders above 1.
    """
    group = graph.group
    if prime_power(group.order) is None:
        raise ValueError(f"order {group.order} is not a prime power")
    sub = group.cyclic_subgroups()

    levels = []
    prev_last: int | None = None
    for order in reversed(tuple(sub.by_order)[1:]):
        level = [sub.generators[c] for c in sub.by_order[order]]
        if len(level) < 2:
            raise ConstructionFailedError(
                f"{len(level)} class(es) of order {order}; interleaving needs >= 2")
        if prev_last is not None:
            pick = next((idx for idx, members in enumerate(level)
                         if not graph.adjacent(prev_last, members[0])), None)
            if pick is None:
                raise ConstructionFailedError(
                    f"every class of order {order} is adjacent to the level above")
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
# the three 2-group families: xs = (x⁰, .., x^(m−1)) lists ⟨x⟩, |x| = m = |G|/2


def _alternate(first: Sequence[int], second: Sequence[int]) -> Path:
    """first[0], second[0], first[1], second[1], .., then the rest of the longer."""
    short = min(len(first), len(second))
    pairs = tuple(v for pair in zip(first, second) for v in pair)
    return pairs + tuple(first[short:]) + tuple(second[short:])


def _involution_alternation_path(group: FiniteGroup, xs: Sequence[int]) -> Path:
    """Dihedral path: outside involutions alternated with ⟨x⟩ ∖ {1}.

    Each outside element w generates only {1, w}, so it is non-adjacent
    to all of ⟨x⟩; with 2^e outside elements against 2^e − 1 inside ones
    the alternation starts and ends outside.
    """
    outside = sorted(set(range(group.order)).difference(xs))
    return _alternate(outside, xs[1:])


def _seed_alternation_path(group: FiniteGroup, xs: Sequence[int],
                           y: int) -> tuple[Path, Joints]:
    """Semidihedral path: a 6-vertex seed, then outside/high-order alternation.

    The seed pairs the three outside elements y, x²y, x⁴y with the three
    ⟨x⟩-elements of order ≤ 4; the tail alternates the remaining 2^e − 3
    outside elements (ascending k in x^k y) with the 2^e − 4 elements of
    ⟨x⟩ of order ≥ 8, starting and ending outside.
    """
    m = len(xs)
    xys = [group.mul[xk][y] for xk in xs]
    seed = (xys[0], xs[m // 2], xys[2], xs[m // 4], xys[4], xs[3 * m // 4])
    tail_outside = [xky for k, xky in enumerate(xys) if k not in (0, 2, 4)]
    tail_inside = [xk for k, xk in enumerate(xs) if k % (m // 4)]
    return seed + _alternate(tail_outside, tail_inside), ((seed[-1], tail_outside[0]),)


def _quaternion_path(group: FiniteGroup, xs: Sequence[int], y: int) -> Path:
    """Generalized quaternion path on G ∖ {1, z}, z = x^(m/2) the involution.

    Each x^k y generates {1, x^k y, z, x^(k+m/2) y}, so it is non-adjacent
    to ⟨x⟩ ∖ {1, z} and to x^(k±1) y: the m − 2 elements of ⟨x⟩ ∖ {1, z}
    (ascending k in x^k) alternate with the m elements x^k y (ascending
    k), starting inside, and the last two x^k y end the path.
    """
    m = len(xs)
    inside = [xk for k, xk in enumerate(xs) if k % (m // 2)]
    outside = [group.mul[xk][y] for xk in xs]
    return _alternate(inside, outside)


# ---------------------------------------------------------------------------
# recognition and the dispatcher


def _locate_generators(group: FiniteGroup,
                       family: str) -> tuple[tuple[int, ...], int] | None:
    """Find (xs, y) realizing a dihedral, semidihedral or quaternion presentation.

    x is the smallest-index element of order |G|/2, hence the least
    generator of ⟨x⟩, whose record in the cyclic subgroups lists its
    powers xs = (x⁰, .., x^(m−1)).  y is the smallest-index element outside
    ⟨x⟩ of order 2 (order 4 for the quaternion family).  The relation
    y⁻¹xy = x^twist is then verified on the table; None if any step fails.
    """
    sub = group.cyclic_subgroups()
    m = group.order // 2
    x = next((g for g, d in enumerate(sub.orders) if d == m), None)
    if x is None:
        return None
    xs = sub.elements[sub.index[x]]
    y_order = 4 if family == "quaternion" else 2
    y = next((g for g, d in enumerate(sub.orders) if d == y_order and g not in xs), None)
    if y is None:
        return None
    twist = m // 2 - 1 if family == "semidihedral" else m - 1
    mul = group.mul
    return (xs, y) if mul[mul[group.inverses[y]][x]][y] == xs[twist] else None


def recognize_family(group: FiniteGroup) -> str:
    """Which constructive branch a p-group dispatches to.

    One of 'cyclic', 'quaternion', 'dihedral', 'semidihedral', 'general'.
    The decision is structural (the exponent, the number of involutions,
    and the presentation relations verified on the table), never the
    family_tag, so ingested tables classify the same as built ones.
    """
    n = group.order
    if n == 1:
        return "cyclic"
    if prime_power(n) is None:
        raise ValueError(f"order {n} is not a prime power")
    sub = group.cyclic_subgroups()
    if max(sub.by_order) == n:
        return "cyclic"
    if sub.class_number(2) == 1:
        # non-cyclic with a unique involution: generalized quaternion
        return "quaternion"
    # ⟨x⟩ has index 2, so x, y and y⁻¹xy = x^twist present the whole group
    if n >= 8 and _locate_generators(group, "dihedral") is not None:
        return "dihedral"
    if n >= 16 and _locate_generators(group, "semidihedral") is not None:
        return "semidihedral"
    return "general"


def _construction(graph: PowerGraph, family: str) -> tuple[str, Path, Joints,
                                                           tuple[int, ...]]:
    """(kind, path, joints, witness) of the branch ``family`` dispatches to."""
    group, n = graph.group, graph.n
    if n == 1:
        return "degenerate", (), (), (0,)
    if family == "cyclic":
        # cyclic p-group: subgroups are totally ordered, the graph is complete
        return "cyclic-even-spacing", (), (), tuple(range(0, 2 * n, 2))
    if family == "quaternion":
        # the involution z is universal, so |G| is impossible: identity at
        # −2, the path on G ∖ {1, z} at 0..|G|−3, z at |G|−1 (gap ≥ 2 to all)
        xs, y = _locate_generators(group, family)
        path = _quaternion_path(group, xs, y)
        labels = list(path_to_labelling(graph, path))
        labels[xs[n // 4]] = n - 1
        return "restricted-complement-path", path, (), tuple(labels)
    joints: Joints = ()
    if family == "dihedral":
        xs, _ = _locate_generators(group, family)
        path, kind = _involution_alternation_path(group, xs), "involution-alternation"
    elif family == "semidihedral":
        path, joints = _seed_alternation_path(group, *_locate_generators(group, family))
        kind = "seed-alternation"
    else:
        path, joints = _descent_path(graph)
        kind = "class-interleaving-descent"
    return kind, path, joints, path_to_labelling(graph, path)


def lambda_p_group(group: FiniteGroup) -> LambdaCertificate:
    """λ of the power graph of any p-group, with witness and evidence.

    Dispatch on recognize_family: cyclic → even labels 0,2,.. on the
    complete power graph (λ = 2(p^e − 1)); generalized quaternion → its
    unique involution is a universal non-identity vertex, so a restricted
    path gives λ = |G|+1; dihedral/semidihedral → their explicit
    alternations; every other p-group → level descent; the last three all
    achieve λ = |G|.  The trivial group is a degenerate cyclic case with
    λ = 0.  The branches only build the witness: λ is its span and the
    evidence is power_graph_lower_bound.  certificate_problems checks the
    certificate before it is returned; a failure raises
    ConstructionFailedError.
    """
    family = recognize_family(group)
    graph = build_power_graph(group)
    kind, path, joints, witness = _construction(graph, family)
    cert = LambdaCertificate(
        value=span(witness), witness=witness,
        evidence=power_graph_lower_bound(graph), method="constructive",
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
