"""Power graphs of finite groups and the lower-hook check on cyclic classes.

The power graph joins two distinct elements when one is a power of the
other, which makes the identity universal and keeps every pair of
vertices within distance 2.  Elements generating the same cyclic
subgroup form a cyclic class, a clique of the graph; the classes, their
orders and their class numbers are read off
``FiniteGroup.cyclic_subgroups()``, where class i generates subgroup i.
A power graph is a plain :class:`Graph` on the group's element indices,
so vertex 0 is the identity; code that needs element names or classes
takes the group itself.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, Sequence

from .groups import FiniteGroup

__all__ = [
    "Graph",
    "build_power_graph",
    "check_lower_hook",
    "to_dot",
    "to_edge_list",
]


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Undirected simple graph on vertices 0..n-1 with bitset adjacency.

    ``neighbors[v]`` is an int whose bit u says u ~ v.  Immutable.
    """

    __slots__ = ("n", "neighbors")

    def __init__(self, neighbors: Sequence[int]) -> None:
        self.neighbors = tuple(neighbors)
        self.n = len(self.neighbors)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, edges={self.edge_count()})"

    def adjacent(self, u: int, v: int) -> bool:
        return bool((self.neighbors[u] >> v) & 1)

    def degree(self, v: int) -> int:
        return self.neighbors[v].bit_count()

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.neighbors) // 2

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, lexicographically sorted."""
        out = []
        for u in range(self.n):
            high = self.neighbors[u] >> (u + 1)
            out.extend((u, u + 1 + w) for w in iter_bits(high))
        return out

    def is_universal(self, v: int) -> bool:
        """True when v is adjacent to every other vertex."""
        return self.degree(v) == self.n - 1


def build_power_graph(group: FiniteGroup) -> Graph:
    """Join distinct a, b whenever a ∈ ⟨b⟩ or b ∈ ⟨a⟩; cached on the group.

    Each generator of a cyclic subgroup is joined to the whole subgroup,
    so the graph comes from one pass over the distinct subgroups.
    """
    if group._power_graph is None:
        sub = group.cyclic_subgroups()
        neighbors = [0] * group.order
        for elements, gens in zip(sub.elements, sub.generators):
            inside = sum(1 << h for h in elements)
            gens_mask = sum(1 << g for g in gens)
            for g in gens:
                neighbors[g] |= inside
            for h in elements:
                neighbors[h] |= gens_mask
        neighbors = [mask & ~(1 << v) for v, mask in enumerate(neighbors)]
        group._power_graph = Graph(neighbors)
    return group._power_graph


# ---------------------------------------------------------------------------
# the lower-hook property


def check_lower_hook(group: FiniteGroup) -> tuple[int, int, int] | None:
    """The first counterexample (U, V₁, V₂) to the lower-hook property, or None.

    The property: whenever a cyclic class U is adjacent to classes V₁ and
    V₂ whose orders do not exceed U's, then V₁ and V₂ are adjacent — and
    V₁ = V₂ is forced when their orders are equal.  It holds in every
    p-group but can fail elsewhere.  Classes are named by their index in
    ``group.cyclic_subgroups()`` and checked in that order.

    Class order ascends in order, and two distinct cyclic subgroups of one
    order are never comparable, so never adjacent: the classes U hooks are
    the classes before U that U's representative is adjacent to, and two
    of them of one order are a counterexample as a non-adjacent pair.
    """
    graph = build_power_graph(group)
    reps = [gens[0] for gens in group.cyclic_subgroups().generators]
    index = {rep: c for c, rep in enumerate(reps)}
    rep_mask = sum(1 << rep for rep in reps)
    for u, rep in enumerate(reps):
        joined = map(index.get, iter_bits(graph.neighbors[rep] & rep_mask))
        for v1, v2 in combinations(sorted(c for c in joined if c < u), 2):
            if not graph.adjacent(reps[v1], reps[v2]):
                return u, v1, v2
    return None


# ---------------------------------------------------------------------------
# export formats


def _dot_escape(label: str) -> str:
    return label.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(group: FiniteGroup) -> str:
    """DOT rendering of the power graph, with element names as vertex labels."""
    graph = build_power_graph(group)
    lines = ["graph power {"]
    for v in range(graph.n):
        lines.append(f'  v{v} [label="{_dot_escape(group.name(v))}"];')
    for u, v in graph.edges():
        lines.append(f"  v{u} -- v{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_edge_list(graph: Graph) -> str:
    """Vertex count on line 1, then one sorted `u v` pair per line."""
    lines = [str(graph.n)]
    lines.extend(f"{u} {v}" for u, v in graph.edges())
    return "\n".join(lines) + "\n"
