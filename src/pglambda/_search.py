"""The search of labelling.exact_lambda, which imports this module on
first call: a command that does not search does not compile it.  The
search reads the clock only here."""

from __future__ import annotations

import time
from typing import NamedTuple, Sequence

from .errors import SearchTimeoutError
from .powergraph import Graph, iter_bits


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


class _Quotient(NamedTuple):
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


def _span_feasible(q: _Quotient, s: int, deadline: float, budget: float) -> list[int] | None:
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
    twins: the cut keeps every witness and refutation.  Past the deadline
    raises SearchTimeoutError: every span below s is refuted.
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
                    raise SearchTimeoutError(f"no result within {budget:.1f}s; "
                                             f"proven lambda >= {s}", lower_bound=s)
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


def least_span_labels(graph: Graph, time_budget: float) -> list[int]:
    """exact_lambda's search: labels of least span, probed from the floor up."""
    deadline = time.monotonic() + time_budget
    q = _quotient(graph)
    s = q.floor  # spans below s are impossible: by the bounds, then refuted
    while (found := _span_feasible(q, s, deadline, time_budget)) is None:
        s += 1
    return found
