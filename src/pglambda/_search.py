"""The search of labelling.exact_lambda, which imports this module on
first call: a command that does not search does not compile it.  The
search reads the clock only here: in the set-up, which finds the floor
first and then reads the deadline every 1,024 neighbour steps of the
diameter check and the module walk, and in the search loop.  Past the
deadline it raises SearchTimeoutError with the bound proven so far: the
floor during the diameter check, the larger of it and n − 1 after it.

On a graph of diameter ≤ 2 every two labels differ, so listing the
vertices by label gives an ordering in which consecutive labels are 1
apart across a non-adjacent pair and 2 apart across an adjacent pair, a
*bump*: λ = n − 1 + the fewest bumps over all orderings (Georges, Mauro
& Whittlesey 1994).  The members of a twin module are interchangeable,
so the search orders modules, not vertices, and never meets a label.
It starts at the larger of n − 1 and the best deficiency, which
labelling.clique_deficiency proves, of a clique made of closed-twin
classes; on every power graph tried, that floor is λ.
"""

from __future__ import annotations

import math
import time
from itertools import chain, compress
from typing import NamedTuple, Sequence

from .errors import SearchTimeoutError
from .labelling import _deficiency, clique_deficiency
from .powergraph import Graph, iter_bits


# Cliques _twin_clique visits at most.  No power graph of order ≤ 512 tried
# needs more than 512, but a dense graph without twins can need exponentially
# many: there the floor is the best clique found within the budget, or by
# the search's deadline, which the enumeration reads every 1,024 visits.
_CLIQUE_NODES = 20_000


def _twin_clique(classes: dict[int, int], everyone: int, deadline: float) -> int:
    """The first union of closed-twin classes of most clique deficiency,
    depth first in class order.  A class joins K when it lies in C, the
    intersection of K's closed neighbourhoods (K ∪ R), and a branch stops
    when 2|C| − 2 cannot beat the best.  A closed twin of K lies in R, and
    moving it into K adds 1 to the deficiency, or 0 when it is all of R,
    so these unions reach the most deficiency of any clique.
    """
    order = list(classes.items())
    best, found, visits = -1, 0, 0
    stack = [(0, 0, everyone)]  # (first class left to try, K, C)
    while stack and visits < _CLIQUE_NODES:
        start, k, common = stack.pop()
        if 2 * common.bit_count() - 2 <= best:
            continue
        visits += 1
        if k and (bound := _deficiency(k, common)) > best:
            best, found = bound, k
        for i in range(len(order) - 1, start - 1, -1):  # pushed last, visited first
            closed, members = order[i]
            if members & common == members:
                stack.append((i + 1, k | members, common & closed))
        if visits % 1024 == 0 and time.monotonic() > deadline:
            break  # as at _CLIQUE_NODES, with the best clique so far
    return found


def _twin_modules(d1: Sequence[int], classes: dict[int, int]) -> list[int]:
    """Twin modules, as bitmasks of their members, in least-member order.

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
    return sorted(modules + list(by_open.values()), key=lambda members: members & -members)


class _Quotient(NamedTuple):
    """The graph as the search walks it, built once per graph.

    Modules are numbered in the order of their least members.  ``near[m]``
    holds the modules, as bits, whose members are adjacent to m's (m's own
    when they are pairwise adjacent, which makes m *tight*, as a single
    vertex is): moving from m to one of them is a bump.  ``covers[m]``
    lists the modules of near[m] and m itself, ascending.
    """

    members: tuple[int, ...]                 # module ↦ bitmask of its vertices
    near: tuple[int, ...]
    covers: tuple[tuple[int, ...], ...]
    floor: int                               # spans below this are refuted
    clique: tuple[int, ...]                  # the clique whose deficiency is the floor


def _timeout(time_budget: float, bound: int) -> SearchTimeoutError:
    """The error past the deadline, when λ ≥ ``bound`` is proven."""
    return SearchTimeoutError(f"no result within {time_budget:.1f}s; "
                              f"proven lambda >= {bound}", lower_bound=bound)


def _quotient(graph: Graph, deadline: float = math.inf,
              time_budget: float = math.inf) -> _Quotient:
    """Twin modules, their adjacency, and the floor of a graph of
    diameter ≤ 2, from the cliques visited by ``deadline`` (of
    time.monotonic); ValueError on any other graph.  The floor comes
    first, as it bounds λ on any graph; then the diameter check and the
    module walk read the clock every 1,024 neighbour steps, and past the
    deadline raise SearchTimeoutError: λ ≥ the floor, and ≥ n − 1 too
    once the diameter is known to be at most 2."""
    d1 = list(graph.neighbors)
    everyone = (1 << graph.n) - 1
    classes: dict[int, int] = {}  # N[v] ↦ the vertices sharing it, by least vertex
    for v, mask in enumerate(d1):
        classes[mask | 1 << v] = classes.get(mask | 1 << v, 0) | 1 << v
    clique = tuple(iter_bits(_twin_clique(classes, everyone, deadline)))
    floor = clique_deficiency(graph, clique)
    steps = 0

    def step(bound: int) -> None:
        nonlocal steps
        steps += 1
        if steps % 1024 == 0 and time.monotonic() > deadline:
            raise _timeout(time_budget, bound)

    # a universal vertex puts every pair within 2 steps; else check each reach
    if everyone not in classes:
        for v in range(graph.n):
            reach = d1[v] | 1 << v
            for u in iter_bits(d1[v]):
                reach |= d1[u]
                step(floor)
            if reach != everyone:
                raise ValueError("the exact search needs a graph of diameter at most 2")

    members = tuple(_twin_modules(d1, classes))
    home = {v: m for m, mask in enumerate(members) for v in iter_bits(mask)}
    near, covers = [], []
    for m, mask in enumerate(members):
        # a single vertex is tight, so it starts beside itself
        beside, todo = (0 if mask & (mask - 1) else 1 << m), d1[mask.bit_length() - 1]
        while todo:  # one step per neighbouring module
            other = home[(todo & -todo).bit_length() - 1]
            beside |= 1 << other
            todo &= ~members[other]
            step(max(floor, graph.n - 1))
        near.append(beside)
        covers.append(tuple(iter_bits(beside | 1 << m)))
    return _Quotient(members, tuple(near), tuple(covers), floor, clique)


def least_span_labels(graph: Graph, time_budget: float
                      ) -> tuple[list[int], tuple[int, ...] | None]:
    """exact_lambda's search: labels of least span from 0, and the clique
    whose deficiency, the floor, is that span, or None when it is less.

    Depth first over module sequences, for bump allowances from the floor's
    (0 when the floor is below n − 1) up.  From the last module, moves
    without a bump come first.  Within either kind, tight modules come
    first, since each of their members needs a vertex apart from it next
    to it, and the members of the other modules are kept to be those
    separators; then the module of highest rank (members left, plus the
    vertices left in it or beside it), ties to the lower number.  Only the
    top frame's moves are held, so the frames cost O(n + k) memory for k
    modules: the search restores its state before a frame resumes, and the
    frame re-derives its order from that state and goes on after the
    module it undid.  ``failed`` maps a (members left per module, last
    module) state to the most bumps its rest was shown not to fit in.  One
    bound prunes: the members left of a tight module follow distinct
    vertices, each a bump unless it is left apart from the module (or is
    the last one placed, and apart), so a tight module's rank less the
    vertices left, less one when the last is apart, counts bumps into it;
    the counts add up.  Past the deadline raises SearchTimeoutError: λ ≥
    the span probed.
    """
    deadline = time.monotonic() + time_budget
    q = _quotient(graph, deadline, time_budget)
    members, near, covers, k = q.members, q.near, q.covers, len(q.members)
    weight, radix = [], 1  # members left per module, as one mixed-radix key
    for mask in members:
        weight.append(radix)
        radix *= mask.bit_count() + 1
    left, rank = [0] * k, [0] * k
    is_tight = [near[m] >> m & 1 for m in range(k)]
    key = rest = used = 0
    seq, failed = [], {}  # the modules placed, and the failed states

    def moves(after: int = -1):
        """The top frame's moves, in order, read from the search state:
        every one, or those after module ``after`` when the frame resumes."""
        bumping = near[seq[-1]] if seq else 0
        live = sorted(compress(range(k), left), key=rank.__getitem__, reverse=True)
        live.sort(key=is_tight.__getitem__, reverse=True)  # stable: by rank within each
        order = chain((m for m in live if not bumping >> m & 1),
                      (m for m in live if bumping >> m & 1) if used < allowance else ())
        if after >= 0:  # the moves up to it were tried before the frame was left
            next(m for m in order if m == after)
        return order

    def shift(m: int, step: int) -> None:
        """Put back (step > 0) or take (step < 0) |step| members of module m."""
        nonlocal key, rest
        left[m] += step
        rank[m] += step
        for t in covers[m]:
            rank[t] += step
        key += step * weight[m]
        rest += step

    for m, mask in enumerate(members):
        shift(m, mask.bit_count())
    # the tight modules as (module, near, its first rank), by that rank
    tight = sorted(((m, near[m], rank[m]) for m in range(k) if is_tight[m]),
                   key=lambda t: -t[2])
    allowance = max(q.floor - (graph.n - 1), 0)  # n labels span at least n − 1
    top = moves()
    ticks = 0
    while rest:
        ticks += 1
        if ticks % 1024 == 0 and time.monotonic() > deadline:
            raise _timeout(time_budget, graph.n - 1 + allowance)
        m = next(top, -1)
        if m < 0:  # every move from here fails
            if not seq:  # every sequence: allow one more bump
                allowance += 1
                top = moves()
                continue
            last = seq.pop()
            failed[key * k + last] = allowance - used
            used -= near[seq[-1]] >> last & 1 if seq else 0
            shift(last, 1)
            top = moves(last)
            continue
        bump = near[seq[-1]] >> m & 1 if seq else 0
        shift(m, -1)
        spare = allowance - used - bump
        need = 0
        for t, reach, most in tight:
            if most <= rest:
                break
            need += max(rank[t] - rest - (reach >> m & 1 ^ 1), 0)
        if rest and (need > spare or failed.get(key * k + m, -1) >= spare):
            shift(m, 1)
            continue
        seq.append(m)
        used += bump
        top = moves()

    unused = list(members)  # steps of 1, and of 2 across a bump
    labels = [0] * graph.n
    label = -1
    for i, m in enumerate(seq):
        v = (unused[m] & -unused[m]).bit_length() - 1
        unused[m] ^= 1 << v
        label += 1 + (i > 0 and near[seq[i - 1]] >> m & 1)
        labels[v] = label
    return labels, q.clique if graph.n - 1 + allowance == q.floor else None
