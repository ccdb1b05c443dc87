"""Constructive span-|G| witnesses for p-groups.

For a p-group that is neither cyclic nor generalized quaternion, a
Hamiltonian path of the reduced power-graph complement can be written
down instead of searched for: within one element order, cyclic classes
are pairwise non-adjacent (or equal), so interleaving the classes of
each order level column by column gives a complement path, and the
levels chain together because each class is adjacent to at most one
class of the level below it.  The dihedral, semidihedral and
generalized quaternion groups have a cyclic ⟨x⟩ of index 2 and a single
class of each order from 8 up, so one coset alternation of ⟨x⟩ with
⟨x⟩y builds their paths instead; the quaternion involution z is
universal, so that path leaves z out and yields span |G|+1.  Every path
is read off the group's elements, and the witness labels the identity
−2, the i-th path vertex i and z |G|−1; nothing is searched for.  A
certificate holds λ only as its witness's span, and its evidence is the
clique of universal vertices.  :func:`recognize_family` picks the branch
from the group's exponent and number of involutions, not from a
presentation checked on its table, and answers 'not-a-p-group', no
branch, for every order that is neither 1 nor a prime power.  The
constructions only construct: nothing here but :func:`certify` checks a
certificate.

:func:`certify` is the one place that decides which methods run on a
group, this construction or the exact search, and the one place that
checks what they return: it runs certificate_problems on each
certificate as it is made, and a failed check, or two methods that
disagree, raise ConstructionFailedError (exit 2).  Every command and
suite gets its certificates from it.
"""

from __future__ import annotations

from .errors import ConstructionFailedError, TooLargeError
from .groups import DEFAULT_TIME_BUDGET, FiniteGroup, max_group_order, prime_power
from .labelling import (
    ConstructionInfo,
    LambdaCertificate,
    certificate_problems,
    exact_lambda,
    path_to_labelling,
    power_graph_lower_bound,
)
from .powergraph import build_power_graph

__all__ = [
    "recognize_family",
    "lambda_p_group",
    "certify",
]

Path = tuple[int, ...]
Joints = tuple[tuple[int, int], ...]


def _descent_path(group: FiniteGroup) -> tuple[Path, Joints]:
    """The class-interleaving descent and its level joints.

    The order levels run top order first.  Each level moves to its front a
    class non-adjacent to the path so far, records that joint, and extends
    the path column by column over its classes (w11, w21, .., w_rN, members
    ascending, columns stopping at the shortest class).  A class has at
    most one adjacent class per lower level (its cyclic subgroup contains a
    unique subgroup of each order), so with at least two classes per level
    a non-adjacent choice always exists; a level without one keeps its
    first class first.  A p-group realises every order p^i up to its
    exponent, so the levels are the realised orders above 1.  Unchecked:
    certify checks the whole path.
    """
    graph, sub = build_power_graph(group), group.cyclic_subgroups()
    path: list[int] = []
    joints: list[tuple[int, int]] = []
    for order in reversed(tuple(sub.by_order)[1:]):
        level = [sub.generators[c] for c in sub.by_order[order]]
        if path:
            pick = next((i for i, members in enumerate(level)
                         if not graph.adjacent(path[-1], members[0])), 0)
            level.insert(0, level.pop(pick))
            joints.append((path[-1], level[0][0]))
        path.extend(v for column in zip(*level) for v in column)
    return tuple(path), tuple(joints)


# ---------------------------------------------------------------------------
# the three 2-group families: a cyclic ⟨x⟩ of order m = |G|/2 and its coset ⟨x⟩y


def _coset_alternation(group: FiniteGroup) -> Path:
    """⟨x⟩ less its universal vertices alternated with the coset ⟨x⟩y.

    ⟨x⟩ is the first cyclic subgroup of order m = |G|/2, its record the
    powers x⁰, .., x^(m−1); y is the first element of least order outside
    it, 2 in D and SD and 4 in Q.  Inside, ascending k in x^k; outside,
    the coset's involutions first, ascending k in x^k y within each part;
    the path starts inside.  With z = x^(m/2):

    - each x^k y generates {1, x^k y} or {1, x^k y, z, x^(k+m/2) y}, so
      in ⟨x⟩ ∖ {1} it is adjacent only to z, and in the coset only to
      x^(k+m/2) y;
    - dihedral and semidihedral: z is inside position m/2 − 1, between
      coset positions m/2 − 2 and m/2 − 1, both involutions;
    - generalized quaternion: z is universal, so the path leaves it out;
    - the path ends on two coset elements whose k differ by 1 or 2, never
      by m/2, since m ≥ 8 in the semidihedral family.
    """
    graph, sub = build_power_graph(group), group.cyclic_subgroups()
    xs = sub.elements[sub.by_order[group.order // 2][0]]
    members = set(xs)
    _, y = min((d, g) for g, d in enumerate(sub.orders) if g not in members)
    inside = [xk for xk in xs if not graph.is_universal(xk)]
    outside = sorted((group.product(xk, y) for xk in xs), key=lambda g: sub.orders[g] != 2)
    # the coset outnumbers inside by 1 (D, SD) or 2 (Q); its last elements close the path
    return tuple(v for pair in zip(inside, outside) for v in pair) + tuple(outside[len(inside):])


# ---------------------------------------------------------------------------
# recognition and the dispatcher


def recognize_family(group: FiniteGroup) -> str:
    """Which of the paper's cases a group is, and so which constructive
    branch it dispatches to: 'cyclic', 'quaternion', 'dihedral',
    'semidihedral' or 'general' for a p-group or the trivial group, and
    'not-a-p-group' for every other order, which gets no construction.

    This is the one dispatch decision: certify's 'auto', lambda_p_group,
    analyze and the suites all read it.  A p-group's family is read off
    the exponent e and the involution count i = m(2), so ingested tables
    classify the same as built ones: e = |G| is cyclic, and i = 1
    generalized quaternion.  With 2e = |G|, Burnside's classification of
    2-groups with a cyclic subgroup of index 2 leaves C_{|G|/2}×C2 and the
    modular group, both with i = 3, dihedral (i = |G|/2 + 1) and
    semidihedral (i = |G|/4 + 1); the order guards keep out C2×C2 and
    C4×C2, whose i = 3 meets those counts.
    """
    n = group.order
    if n > 1 and prime_power(n) is None:
        return "not-a-p-group"
    sub = group.cyclic_subgroups()
    exponent, involutions = sub.exponent(), sub.class_number(2)
    if exponent == n:
        return "cyclic"
    if involutions == 1:
        return "quaternion"
    if 2 * exponent == n:
        if n >= 8 and involutions == n // 2 + 1:
            return "dihedral"
        if n >= 16 and involutions == n // 4 + 1:
            return "semidihedral"
    return "general"


def lambda_p_group(group: FiniteGroup) -> LambdaCertificate:
    """λ of the power graph of any p-group, with witness and evidence.

    Dispatch on recognize_family: cyclic → even labels 0,2,.. on the
    complete power graph (λ = 2(p^e − 1)); dihedral, semidihedral and
    generalized quaternion → the coset alternation; every other p-group
    → level descent.  A path's witness is path_to_labelling of it: span
    |G|, or |G| + 1 in the quaternion family, whose path leaves out the
    universal z.  The trivial group is cyclic, with witness (0,) and
    λ = 0.  The branches only build the witness, whose span is λ; the
    evidence is power_graph_lower_bound, the clique of universal vertices
    (all of G, {1, z} or {1}).  The answer 'not-a-p-group' raises
    ValueError: no branch covers it.  Unchecked: certify checks the
    certificate.
    """
    family = recognize_family(group)
    if family == "not-a-p-group":
        raise ValueError(f"order {group.order} is not a prime power")
    graph, n = build_power_graph(group), group.order
    joints: Joints = ()
    if family == "cyclic":
        # cyclic p-group: subgroups are totally ordered, the graph is complete
        kind, path, witness = "cyclic-even-spacing", (), tuple(range(0, 2 * n, 2))
    else:
        if family == "general":
            path, joints = _descent_path(group)
            kind = "class-interleaving-descent"
        else:
            path = _coset_alternation(group)
            kind = "restricted-complement-path" if family == "quaternion" else "coset-alternation"
        witness = path_to_labelling(graph, path)
    return LambdaCertificate(witness, power_graph_lower_bound(graph), "constructive",
                             ConstructionInfo(kind, path, joints))


def certify(group: FiniteGroup, method: str = "auto", *,
            cap: int | None = None,
            budget: float = DEFAULT_TIME_BUDGET) -> list[LambdaCertificate]:
    """The checked certificates ``method`` yields, constructive first.

    ``method`` is 'constructive', 'exact', 'both' or 'auto'.  'auto' reads
    recognize_family: the answer 'not-a-p-group' runs the exact search
    alone, which decides at its floor on every power graph tried; any
    other answer runs both methods on a group of order at most ``cap``
    and the construction alone on a larger one.  The one cap on the exact
    search is here: a group of more than ``cap`` elements,
    LAMBDA_MAX_ORDER unless given, raises TooLargeError where the search
    would start; ``budget`` bounds its seconds.
    This is the one place that checks a certificate: each is checked
    with certificate_problems as it is made, so a failed construction
    ends the call before any search runs or is refused.  A failed check,
    or two methods that disagree, raise ConstructionFailedError.
    """
    cap = max_group_order() if cap is None else cap
    if method == "auto":
        method = ("exact" if recognize_family(group) == "not-a-p-group"
                  else "both" if group.order <= cap else "constructive")
    if method not in ("constructive", "exact", "both"):
        raise ValueError(f"unknown method {method!r}")

    def checked(cert: LambdaCertificate) -> LambdaCertificate:
        problems = certificate_problems(build_power_graph(group), cert)
        if problems:
            raise ConstructionFailedError(
                f"{cert.method} certificate fails its check: {problems[0]}")
        return cert

    certs = []
    if method != "exact":
        certs.append(checked(lambda_p_group(group)))
    if method != "constructive":
        if group.order > cap:
            raise TooLargeError(f"exact search capped at {cap} vertices, graph has {group.order}")
        certs.append(checked(exact_lambda(build_power_graph(group), time_budget=budget)))
    if len(certs) == 2 and certs[0].value != certs[1].value:
        raise ConstructionFailedError(
            f"disagreement: {certs[0].method} lambda {certs[0].value} != "
            f"{certs[1].method} lambda {certs[1].value} for order {group.order}")
    return certs
