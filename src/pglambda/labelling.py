"""L(2,1)-labellings: validation, span, path conversions, and exact search.

A labelling is valid when labels differ by ≥ j across edges and by ≥ k
across distance-2 pairs (defaults j=2, k=1).  On a power graph every
distinct pair is within distance 2, so a valid L(2,1)-labelling has all
labels distinct; a span-|G| labelling is then the same data as a
Hamiltonian path in the complement of the power graph minus the
identity, and the two conversions here are mutually inverse.

The exact oracle is independent of all group theory: ascending-span
backtracking over one label domain per twin module with forward
checking, ascending labels among twins, a clique-packing prune, and an
all-distinct pigeonhole prune, started at a proven floor (the clique
bound, and on graphs of diameter ≤ 2 a path-cover bound read off the
closed-twin classes).
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import SearchTimeoutError, TooLargeError
from .powergraph import Graph, PowerGraph, complement, delete_vertex, iter_bits

__all__ = [
    "DEFAULT_SEARCH_CAP",
    "DEFAULT_TIME_BUDGET",
    "Labelling",
    "HamPath",
    "Violation",
    "Evidence",
    "LambdaCertificate",
    "ConstructionInfo",
    "certificate_problems",
    "validate_labelling",
    "span",
    "check_ham_path",
    "path_to_labelling",
    "labelling_to_path",
    "find_hamiltonian_path",
    "reduced_complement",
    "find_group_ham_path",
    "power_graph_lower_bound",
    "LowerBound",
    "exact_lambda",
    "certificate_doc",
    "certificate_to_json",
    "format_labelling_csv",
    "parse_labelling_csv",
]

DEFAULT_SEARCH_CAP = 32
DEFAULT_TIME_BUDGET = 60.0


# ---------------------------------------------------------------------------
# labellings


@dataclass(frozen=True)
class Labelling:
    """Integer labels indexed by vertex."""

    labels: tuple[int, ...]

    @property
    def span(self) -> int:
        return span(self.labels)

    def __getitem__(self, v: int) -> int:
        return self.labels[v]

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class HamPath:
    """Ordering of all non-identity elements, consecutive pairs non-adjacent.

    ``excluded`` is the identity vertex, the one element left out of the
    sequence.  Validity is relative to a power graph; see check_ham_path.
    """

    vertices: tuple[int, ...]
    excluded: int


@dataclass(frozen=True)
class Violation:
    """One labelled pair breaking a separation constraint."""

    u: int
    v: int
    distance: int
    gap: int
    required: int

    def __str__(self) -> str:
        return (f"vertices ({self.u}, {self.v}) at distance {self.distance}: "
                f"|gap| = {self.gap} < {self.required}")


def _normalize_labels(n: int, labels) -> list[int]:
    """Flatten any accepted labels form to a dense list; ValueError if short."""
    if isinstance(labels, Labelling):
        labels = labels.labels
    if isinstance(labels, Mapping):
        missing = [v for v in range(n) if v not in labels]
        if missing:
            raise ValueError(f"no label for vertex {missing[0]}")
        return [int(labels[v]) for v in range(n)]
    out = [int(v) for v in labels]
    if len(out) != n:
        raise ValueError(f"expected {n} labels, got {len(out)}")
    return out


def validate_labelling(graph: Graph, labels, j: int = 2, k: int = 1) -> list[Violation]:
    """Every violating pair with its distance; empty list means valid.

    Distances beyond 2 are unconstrained; d = 2 means non-adjacent with a
    common neighbour.  Violations come in ascending (u, v) order, u < v.
    Only pairs whose labels differ by less than max(j, k) can violate, so
    the vertices are sorted by label and only pairs inside that window are
    tested.
    """
    lab = _normalize_labels(graph.n, labels)
    neigh = graph.neighbors
    window = max(j, k)
    n = graph.n
    by_label = sorted(range(n), key=lab.__getitem__)
    out = []
    for i, x in enumerate(by_label):
        for t in range(i + 1, n):
            y = by_label[t]
            gap = lab[y] - lab[x]
            if gap >= window:
                break
            u, v = min(x, y), max(x, y)
            if (neigh[u] >> v) & 1:
                distance, required = 1, j
            elif neigh[u] & neigh[v]:
                distance, required = 2, k
            else:
                continue
            if gap < required:
                out.append(Violation(u, v, distance, gap, required))
    out.sort(key=lambda w: (w.u, w.v))
    return out


def span(labels) -> int:
    """max − min of the labels; ValueError when there are none."""
    if isinstance(labels, Labelling):
        values = labels.labels
    elif isinstance(labels, Mapping):
        values = tuple(labels.values())
    else:
        values = tuple(labels)
    if not values:
        raise ValueError("span of an empty labelling is undefined")
    return max(values) - min(values)


# ---------------------------------------------------------------------------
# Hamiltonian paths in the reduced complement


def _as_ham_path(graph: PowerGraph, path) -> HamPath:
    if isinstance(path, HamPath):
        return path
    return HamPath(tuple(path), graph.group.identity)


def check_ham_path(graph: PowerGraph, path: HamPath | Sequence[int]) -> None:
    """Raise ValueError unless the path covers G minus the identity exactly
    once with every consecutive pair NON-adjacent in the power graph."""
    identity = graph.group.identity
    path = _as_ham_path(graph, path)
    if path.excluded != identity:
        raise ValueError(f"excluded vertex {path.excluded} is not the identity {identity}")
    expected = set(range(graph.n)) - {identity}
    got = list(path.vertices)
    if len(got) != len(set(got)) or set(got) != expected:
        raise ValueError("path does not cover the non-identity elements exactly once")
    for a, b in zip(got, got[1:]):
        if graph.adjacent(a, b):
            raise ValueError(f"consecutive pair ({a}, {b}) is adjacent in the power graph")


def path_to_labelling(graph: PowerGraph, path: HamPath | Sequence[int]) -> Labelling:
    """Identity ↦ −2 and the i-th path vertex ↦ i: valid with span |G|."""
    path = _as_ham_path(graph, path)
    check_ham_path(graph, path)
    labels = [0] * graph.n
    labels[path.excluded] = -2
    for i, v in enumerate(path.vertices):
        labels[v] = i
    return Labelling(tuple(labels))


def labelling_to_path(graph: PowerGraph, labels) -> HamPath:
    """Invert path_to_labelling for any valid span-|G| labelling.

    Valid span-|G| labels occupy an interval of |G|+1 integers with one
    interior hole, and the identity label sits at one end with the hole
    beside it; the remaining labels are consecutive, and ordering their
    preimages ascending gives the path.  Re-anchoring the identity below
    the rest and translating yields the canonical image {−2, 0, .., |G|−2},
    so label translations of the input produce the same path.
    """
    n = graph.n
    lab = _normalize_labels(n, labels)
    violations = validate_labelling(graph, lab)
    if violations:
        raise ValueError(
            f"not a valid L(2,1)-labelling: {len(violations)} violations, "
            f"first: {violations[0]}")
    got = span(lab)
    if got != n:
        raise ValueError(f"conversion needs span exactly {n}, got {got}")
    identity = graph.group.identity
    rest = sorted((lab[v], v) for v in range(n) if v != identity)
    if not (lab[identity] < rest[0][0] or lab[identity] > rest[-1][0]):
        raise ValueError(
            "identity label is interior; the graph cannot be a power graph")
    base = rest[0][0]
    for offset, (value, _) in enumerate(rest):
        if value != base + offset:
            raise ValueError(
                "non-identity labels are not consecutive; the graph cannot "
                "be a power graph")
    path = HamPath(tuple(v for _, v in rest), identity)
    check_ham_path(graph, path)
    return path


# ---------------------------------------------------------------------------
# Hamiltonian path search (exhaustive, with sound pruning)


def _connected(neigh: Sequence[int], domain: int, start: int) -> bool:
    seen = frontier = 1 << start
    while frontier:
        grow = 0
        for v in iter_bits(frontier):
            grow |= neigh[v]
        frontier = grow & domain & ~seen
        seen |= frontier
    return seen == domain


def _next_candidates(neigh: Sequence[int], full: int, cur: int, visited: int) -> list[int]:
    """Unvisited neighbours of cur worth trying, best candidate last.

    Sound prunes: the rest of the path is a Hamiltonian path of
    rem ∪ {cur} starting at cur, so that set must be connected and can
    hold at most one further degree-1 vertex (the far endpoint).
    """
    rem = full & ~visited
    cand = neigh[cur] & rem
    if not cand:
        return []
    domain = rem | (1 << cur)
    if not _connected(neigh, domain, cur):
        return []
    pendants = 0
    for v in iter_bits(rem):
        if (neigh[v] & domain).bit_count() <= 1:
            pendants += 1
            if pendants > 1:
                return []
    ordered = sorted(iter_bits(cand),
                     key=lambda v: ((neigh[v] & rem).bit_count(), v))
    ordered.reverse()  # the stack pops from the end
    return ordered


def _ham_from(neigh: Sequence[int], full: int, start: int,
              deadline: float) -> tuple[int, ...] | None:
    path = [start]
    visited = 1 << start
    frames = [_next_candidates(neigh, full, start, visited)]
    while frames:
        if visited == full:
            return tuple(path)
        frame = frames[-1]
        if not frame:
            frames.pop()
            visited &= ~(1 << path.pop())
            continue
        if time.monotonic() > deadline:
            raise SearchTimeoutError(f"Hamiltonian path search on {full.bit_count()} "
                                     "vertices ran out of its time budget")
        v = frame.pop()
        path.append(v)
        visited |= 1 << v
        if visited == full:
            return tuple(path)
        frames.append(_next_candidates(neigh, full, v, visited))
    return None


def find_hamiltonian_path(graph: Graph, max_vertices: int | None = None, *,
                          time_budget: float = DEFAULT_TIME_BUDGET
                          ) -> tuple[int, ...] | None:
    """A Hamiltonian path of the graph, or None as exhaustive proof of absence.

    Deterministic: start vertices ascend by (degree, index) and the search
    prefers low-degree continuations.  A graph with more than two degree-1
    vertices, an isolated vertex (n ≥ 2), or a disconnected vertex set is
    rejected immediately.  Raises Timeout once ``time_budget`` runs out.
    """
    from .groups import max_group_order

    cap = max_vertices if max_vertices is not None else max_group_order()
    n = graph.n
    if n > cap:
        raise TooLargeError(f"Hamiltonian search capped at {cap} vertices, graph has {n}")
    if n == 0:
        return ()
    if n == 1:
        return (0,)
    neigh = graph.neighbors
    full = (1 << n) - 1
    degrees = [neigh[v].bit_count() for v in range(n)]
    if any(d == 0 for d in degrees):
        return None
    if sum(1 for d in degrees if d == 1) > 2:
        return None
    if not _connected(neigh, full, 0):
        return None
    by_degree = sorted(range(n), key=lambda v: (degrees[v], v))
    # a degree-1 vertex must be an endpoint, so starting there is complete
    pendant_starts = [v for v in by_degree if degrees[v] == 1]
    deadline = time.monotonic() + time_budget
    for start in pendant_starts or by_degree:
        found = _ham_from(neigh, full, start, deadline)
        if found is not None:
            return found
    return None


def reduced_complement(graph: PowerGraph) -> tuple[Graph, tuple[int, ...]]:
    """Complement of the power graph minus the identity; kept[new] = old."""
    reduced, kept = delete_vertex(graph, graph.group.identity)
    return complement(reduced), kept


def find_group_ham_path(graph: PowerGraph, *,
                        time_budget: float = DEFAULT_TIME_BUDGET) -> HamPath | None:
    """Search the reduced complement; None is an exhaustive absence proof."""
    comp, kept = reduced_complement(graph)
    found = find_hamiltonian_path(comp, time_budget=time_budget)
    if found is None:
        return None
    return HamPath(tuple(kept[v] for v in found), graph.group.identity)


# ---------------------------------------------------------------------------
# lower bounds and the exact oracle


@dataclass(frozen=True)
class LowerBound:
    """A proven lower bound on λ with the reason it holds."""

    value: int
    kind: str
    vertex: int | None = None


def power_graph_lower_bound(graph: PowerGraph) -> LowerBound:
    """λ ≥ |G| for any power graph; ≥ |G|+1 with a universal non-identity.

    All labels are distinct (diameter ≤ 2) and the universal identity
    forces a further gap of 2, giving |G|.  A universal non-identity
    vertex is isolated in the reduced complement, so for |G| ≥ 3 no
    Hamiltonian path exists there and the bound tightens by one.
    """
    n = graph.n
    if n <= 1:
        return LowerBound(0, "degenerate")
    if n >= 3:
        for v in range(n):
            if v != graph.group.identity and graph.is_universal(v):
                return LowerBound(n + 1, "universal-nonidentity-vertex", vertex=v)
    return LowerBound(n, "power-graph-bound")


@dataclass(frozen=True)
class Evidence:
    """Why λ−1 is impossible: the lower-bound side of a certificate."""

    kind: str
    bound: int
    span: int | None = None
    vertex: int | None = None


@dataclass(frozen=True)
class ConstructionInfo:
    """How a constructive witness was assembled."""

    kind: str
    path: tuple[int, ...]
    joints: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class LambdaCertificate:
    """λ value with a witness labelling and lower-bound evidence."""

    value: int
    witness: Labelling
    evidence: Evidence
    method: str
    construction: ConstructionInfo | None = None


def certificate_problems(graph: PowerGraph, cert: LambdaCertificate) -> list[str]:
    """What is wrong with a certificate; empty when it checks out.

    The witness must be a valid labelling of the graph, its span must be
    the certified λ, and λ may not fall below power_graph_lower_bound.
    """
    problems = []
    violations = validate_labelling(graph, cert.witness)
    if violations:
        problems.append(f"witness violates labelling constraints: {violations[0]}")
    if cert.witness.span != cert.value:
        problems.append(f"witness span {cert.witness.span} != lambda {cert.value}")
    lower = power_graph_lower_bound(graph)
    if cert.value < lower.value:
        problems.append(f"lambda {cert.value} below the {lower.kind} bound {lower.value}")
    return problems


class _TimeUp(Exception):
    pass


def _greedy_clique(graph: Graph) -> int:
    """Bitmask of a maximal clique found greedily by descending degree."""
    mask = 0
    for v in sorted(range(graph.n), key=lambda u: (-graph.degree(u), u)):
        if graph.neighbors[v] & mask == mask:
            mask |= 1 << v
    return mask


def _gap2_packing(mask: int, evens: int) -> int:
    """Max count of pairwise-≥2-separated values in the bitmask.

    Greedy is optimal (taking the smallest value never hurts), and on a
    run of L consecutive values it takes the values at even offsets from
    the run's start, ⌈L/2⌉ of them.  Adding the even-position run starts
    carries through exactly the runs they begin, so ``from_even`` is the
    union of those runs; ``evens`` holds bits 0, 2, 4, … past the top bit.
    """
    starts = mask & ~(mask << 1)
    from_even = mask & ~(mask + (starts & evens))
    return ((from_even & evens) | (mask & ~from_even & ~evens)).bit_count()


def _closed_twin_classes(d1: Sequence[int]) -> dict[int, int]:
    """Closed neighbourhood N[v] = d1[v] | {v} ↦ bitmask of the vertices
    sharing it, in order of each class's smallest vertex."""
    classes: dict[int, int] = {}
    for v, mask in enumerate(d1):
        closed = mask | 1 << v
        classes[closed] = classes.get(closed, 0) | 1 << v
    return classes


def _distance_two(d1: Sequence[int], classes: dict[int, int]) -> list[int]:
    """d2[v]: the vertices outside N[v] that share a neighbour with v.

    A closed-twin class lies wholly inside N[v] or wholly outside it, and
    its members' d1 masks differ only in members, which lie in N[v] when
    the class does; so the union of d1 over one representative of each
    class inside N[v], less N[v], is d2[v] for the whole class of v.
    """
    reps = 0
    for members in classes.values():
        reps |= members & -members
    d2 = [0] * len(d1)
    for closed, members in classes.items():
        reach = 0
        for w in iter_bits(closed & reps):
            reach |= d1[w]
        reach &= ~closed
        for v in iter_bits(members):
            d2[v] = reach
    return d2


def _path_cover_floor(n: int, classes: dict[int, int]) -> int:
    """A proven floor on the span of a graph whose labels are all distinct.

    Sorted by label, the vertices fall into runs of consecutive labels;
    a run is a path in the complement, and each gap between runs is ≥ 2,
    so span ≥ n − 2 + c, c being the fewest complement paths covering
    all vertices (Georges, Mauro & Whittlesey 1994).  Universal vertices
    are isolated in the complement, one path each.  For a class T of the
    rest R, with complement neighbourhood N: T is independent there and
    every path neighbour of a T vertex lies in N, so a path holds at
    most one more T vertex than N vertices, and when it holds exactly
    one more it is T N T … N T and nothing else.  Hence c counts at
    least |T| − |N| paths through T, plus one when R ⊄ T ∪ N.
    """
    everyone = (1 << n) - 1
    universal = classes.get(everyone, 0)
    rest = everyone & ~universal
    paths = 1 if rest else 0
    for closed, members in classes.items():
        if closed == everyone:
            continue
        away = everyone & ~closed
        excess = members.bit_count() - away.bit_count()
        if excess > 0:
            paths = max(paths, excess + (1 if rest & ~(members | away) else 0))
    return n - 2 + universal.bit_count() + paths


def _twin_modules(d1: Sequence[int], classes: dict[int, int]) -> dict[int, int]:
    """Twin modules, each named by its least member: least member ↦ members.

    The closed-twin classes of two or more vertices, then the vertices
    left over grouped by open neighbourhood.  This partitions the
    vertices: an open twin w of a vertex u with a closed twin v would be
    adjacent to v, so lie in N[v] = N[u], which an open twin cannot.
    Every vertex outside a module is adjacent to all of its members or to
    none, and so lies at the same distance from each of them.
    """
    modules = []
    by_open: dict[int, int] = {}
    for members in classes.values():
        if members & (members - 1):
            modules.append(members)
        else:
            nbrs = d1[members.bit_length() - 1]
            by_open[nbrs] = by_open.get(nbrs, 0) | members
    modules.extend(by_open.values())
    return {(members & -members).bit_length() - 1: members for members in modules}


@dataclass(frozen=True)
class _Quotient:
    """The graph as the exact search walks it, built once per graph.

    Modules are named by their least member; ``near`` and ``far`` map a
    module to the bitmask of the modules (as bits of their names) at
    distance 1 and 2 from its members, itself included when its members
    are mutually adjacent or at distance 2.
    """

    order: tuple[int, ...]             # vertex order of the search
    home: tuple[int, ...]              # vertex ↦ its module
    members: dict[int, int]            # module ↦ bitmask of its members
    names: int                         # bitmask of the module names
    near: dict[int, int]
    far: dict[int, int]
    clique: tuple[tuple[int, int], ...]  # (module, its greedy-clique members)
    floor: int                         # spans below this are refuted
    all_distinct: bool                 # diameter ≤ 2: labels pairwise distinct


def _narrow(domain: dict[int, int], modules: int, keep: int,
            changed: list[tuple[int, int]]) -> bool:
    """Keep only ``keep``'s labels in each module's domain, logging the old
    domains in ``changed``; False as soon as one is left empty."""
    for r in iter_bits(modules):
        old = domain[r]
        new = old & keep
        if new != old:
            domain[r] = new
            changed.append((r, old))
            if not new:
                return False
    return True


def _span_feasible(q: _Quotient, s: int, deadline: float) -> list[int] | None:
    """One exhaustive feasibility probe: labels ⊆ {0..s} or None.

    A fixed vertex order (descending degree), ascending label choice, with
    forward checking; the first vertex is capped at s/2 to break the
    reflection symmetry.  The unassigned members of a twin module share
    one domain, so an assignment narrows one domain per module it meets,
    and the wipeout, pigeonhole and clique-packing tests read one domain
    per live module.  Twins are interchangeable, so each module's members
    take ascending labels in search order (non-decreasing for twins with
    no neighbours, which may share a label).  Swapping two twins' labels
    keeps a labelling valid, so the lexicographically least labelling in
    search order, the one this search returns, already has ascending
    twins: the cut keeps every witness and refutation.  Raises _TimeUp
    past the deadline.
    """
    order, home, members, near, far = q.order, q.home, q.members, q.near, q.far
    n = len(order)
    full = (1 << (s + 1)) - 1
    evens = ((1 << 2 * (s // 2 + 1)) - 1) // 3  # bits 0, 2, …, ≥ s − 1
    domain = dict.fromkeys(members, full)
    live = q.names  # modules with an unassigned member
    labels = [-1] * n
    unassigned = (1 << n) - 1

    # Depth-first over positions i of `order`, with an explicit stack so the
    # depth is not bounded by the interpreter's recursion limit: untried[i]
    # holds the labels still to try at position i, undo[i] the module
    # domains the label now placed there narrowed, oldest first (None while
    # none is placed).
    untried = [0] * n
    undo: list[list[tuple[int, int]] | None] = [None] * n
    untried[0] = (1 << (s // 2 + 1)) - 1
    ticks = 0
    i = 0
    while True:
        u = order[i]
        if undo[i] is not None:
            for r, old in reversed(undo[i]):
                domain[r] = old
            undo[i] = None
            unassigned |= 1 << u
            live |= 1 << home[u]
        mask = untried[i]
        if not mask:
            if i == 0:
                return None
            i -= 1
            continue
        low = mask & -mask
        untried[i] = mask ^ low
        lab = low.bit_length() - 1
        labels[u] = lab
        unassigned ^= 1 << u
        own = home[u]
        changed = [(own, domain[own])]
        undo[i] = changed
        if members[own] & unassigned:
            domain[own] &= -1 << lab  # twin symmetry: the rest take labels ≥ lab
        else:
            live ^= 1 << own
        ok = (_narrow(domain, near[own] & live, ~((0b111 << lab) >> 1), changed)
              and _narrow(domain, far[own] & live, ~low, changed))
        if ok and q.all_distinct:
            union = 0
            for r in iter_bits(live):
                union |= domain[r]
            ok = union.bit_count() >= n - 1 - i
        if ok:
            union = need = 0
            for r, part in q.clique:
                part &= unassigned
                if part:
                    union |= domain[r]
                    need += part.bit_count()
            ok = not need or _gap2_packing(union, evens) >= need
        if ok:
            i += 1
            if i == n:
                return labels[:]
            ticks += 1
            if ticks >= 1024:
                ticks = 0
                if time.monotonic() > deadline:
                    raise _TimeUp
            untried[i] = domain[home[order[i]]]


def _quotient(graph: Graph) -> _Quotient:
    """Twin modules, distance masks, search order and floor of the graph."""
    n = graph.n
    d1 = list(graph.neighbors)
    everyone = (1 << n) - 1
    classes = _closed_twin_classes(d1)
    d2 = _distance_two(d1, classes)
    all_distinct = all((d1[u] | d2[u]) == everyone ^ (1 << u) for u in range(n))
    clique = _greedy_clique(graph)
    floor = 2 * (clique.bit_count() - 1)
    if all_distinct:
        floor = max(floor, _path_cover_floor(n, classes))

    modules = _twin_modules(d1, classes)
    names = 0
    home = [0] * n
    for r, members in modules.items():
        names |= 1 << r
        for v in iter_bits(members):
            home[v] = r

    def reach(masks: Sequence[int]) -> dict[int, int]:
        return {r: masks[r] & names | (1 << r if masks[r] & members else 0)
                for r, members in modules.items()}

    return _Quotient(
        order=tuple(sorted(range(n), key=lambda v: (-d1[v].bit_count(),
                                                    -d2[v].bit_count(), v))),
        home=tuple(home),
        members=modules,
        names=names,
        near=reach(d1),
        far=reach(d2),
        clique=tuple((r, members & clique) for r, members in modules.items()
                     if members & clique),
        floor=floor,
        all_distinct=all_distinct,
    )


def exact_lambda(graph: Graph, *, max_vertices: int = DEFAULT_SEARCH_CAP,
                 time_budget: float = DEFAULT_TIME_BUDGET) -> LambdaCertificate:
    """Minimum L(2,1) span by ascending-span exhaustive search.

    Knows nothing about groups: works on the bare graph, which is what
    makes it an independent oracle.  The graph's twin modules, their
    distance-1 and distance-2 modules, the search order and the proven
    floor are worked out once (``_quotient``); each span probe then
    searches that quotient, from the floor up.  The certificate's witness
    achieves the span and the evidence records the refutation of span−1:
    searched, or below the floor.

    Raises SearchTimeoutError with the proven bound when the budget runs
    out, and TooLargeError above ``max_vertices``.
    """
    n = graph.n
    if n == 0:
        raise ValueError("graph has no vertices")
    if n > max_vertices:
        raise TooLargeError(f"exact search capped at {max_vertices} vertices, "
                            f"graph has {n}")
    if n == 1:
        return LambdaCertificate(
            value=0, witness=Labelling((0,)),
            evidence=Evidence(kind="degenerate", bound=0), method="exact-search")

    deadline = time.monotonic() + time_budget
    q = _quotient(graph)
    s = q.floor  # spans below s are impossible: by the bounds, then refuted
    try:
        while (found := _span_feasible(q, s, deadline)) is None:
            s += 1
    except _TimeUp:
        raise SearchTimeoutError(
            f"no result within {time_budget:.1f}s; proven lambda >= {s}",
            lower_bound=s) from None

    low = min(found)
    labels = [lab - low for lab in found]
    sigma = max(labels)
    witness = Labelling(tuple(labels))
    if sigma == 0:
        evidence = Evidence(kind="degenerate", bound=0)
    else:
        evidence = Evidence(kind="exhaustive-search-at-span", span=sigma - 1,
                            bound=sigma)
    return LambdaCertificate(value=sigma, witness=witness, evidence=evidence,
                             method="exact-search")


# ---------------------------------------------------------------------------
# serialization


def certificate_doc(cert: LambdaCertificate) -> dict:
    """Certificate as a plain JSON-ready dict: {lambda, method, evidence, labels}."""
    evidence: dict[str, object] = {"kind": cert.evidence.kind,
                                   "bound": cert.evidence.bound}
    if cert.evidence.span is not None:
        evidence["span"] = cert.evidence.span
    if cert.evidence.vertex is not None:
        evidence["vertex"] = cert.evidence.vertex
    doc: dict[str, object] = {
        "lambda": cert.value,
        "method": cert.method,
        "evidence": evidence,
        "labels": list(cert.witness.labels),
    }
    if cert.construction is not None:
        doc["construction"] = {
            "kind": cert.construction.kind,
            "path": list(cert.construction.path),
            "joints": [list(j) for j in cert.construction.joints],
        }
    return doc


def certificate_to_json(cert: LambdaCertificate, *, indent: int | None = None) -> str:
    """Deterministic JSON rendering (sorted keys, no volatile fields)."""
    return json.dumps(certificate_doc(cert), sort_keys=True, indent=indent)


def format_labelling_csv(labels) -> str:
    """CSV with header element,label; elements written as indices."""
    if isinstance(labels, Labelling):
        labels = labels.labels
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["element", "label"])
    if isinstance(labels, Mapping):
        rows: Iterable[tuple[int, int]] = sorted(labels.items())
    else:
        rows = enumerate(labels)
    for element, label in rows:
        writer.writerow([element, label])
    return buf.getvalue()


def parse_labelling_csv(text: str, n: int,
                        names: Sequence[str] | None = None) -> dict[int, int]:
    """Read a labelling CSV; elements may be indices or element names.

    Returns {vertex: label}.  A numeric element column is always read as
    an index (names like "1" cannot shadow it); anything else must match
    a known element name.  Malformed rows, unknown elements, and
    duplicates raise ValueError; coverage is left to validate_labelling.
    """
    name_index = {name: i for i, name in enumerate(names)} if names else {}
    try:
        rows = [row for row in csv.reader(io.StringIO(text)) if row]
    except csv.Error as exc:  # e.g. a field over the csv module's size limit
        raise ValueError(f"labelling CSV is malformed: {exc}") from None
    if not rows or [cell.strip() for cell in rows[0]] != ["element", "label"]:
        raise ValueError("labelling CSV must start with the header 'element,label'")
    out: dict[int, int] = {}
    for row in rows[1:]:
        if len(row) != 2:
            raise ValueError(f"labelling row {row!r} must have 2 columns")
        key, value = row[0].strip(), row[1].strip()
        try:
            vertex = int(key)
        except ValueError:
            if key not in name_index:
                raise ValueError(f"unknown element {key!r}") from None
            vertex = name_index[key]
        if not 0 <= vertex < n:
            raise ValueError(f"element index {vertex} out of range 0..{n - 1}")
        try:
            label = int(value)
        except ValueError as exc:
            raise ValueError(f"label {value!r} is not an integer") from exc
        if vertex in out:
            raise ValueError(f"element {key!r} labelled twice")
        out[vertex] = label
    return out
