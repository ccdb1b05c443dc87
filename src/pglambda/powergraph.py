"""Power graphs of finite groups, cyclic classes, and class adjacency.

The power graph joins two distinct elements when one is a power of the
other, which makes the identity universal and keeps every pair of
vertices within distance 2.  Elements generating the same cyclic
subgroup form a cyclic class; most of the structure used elsewhere in
the package lives at the level of these classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterator, Mapping, Sequence

from .groups import FiniteGroup, prime_power

__all__ = [
    "Graph",
    "PowerGraph",
    "CyclicClass",
    "ClassPartition",
    "LowerHookReport",
    "build_power_graph",
    "complement",
    "delete_vertex",
    "euler_phi",
    "cyclic_classes",
    "classes_adjacent",
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

    __slots__ = ("n", "neighbors", "names")

    def __init__(self, n: int, neighbors: Sequence[int],
                 names: Sequence[str] | None = None) -> None:
        self.n = n
        self.neighbors = tuple(neighbors)
        self.names = tuple(names) if names is not None else None

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, edges={self.edge_count()})"

    def name(self, v: int) -> str:
        return self.names[v] if self.names else str(v)

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


class PowerGraph(Graph):
    """Graph subclass that remembers the group it was built from."""

    __slots__ = ("group",)

    def __init__(self, n: int, neighbors: Sequence[int], group: FiniteGroup,
                 names: Sequence[str] | None = None) -> None:
        super().__init__(n, neighbors, names=names)
        self.group = group


def build_power_graph(group: FiniteGroup) -> PowerGraph:
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
        group._power_graph = PowerGraph(group.order, neighbors, group,
                                        names=group.names)
    return group._power_graph


def complement(graph: Graph) -> Graph:
    """Same vertices, exactly the non-edges (always a plain Graph)."""
    full = (1 << graph.n) - 1
    neighbors = [full & ~(graph.neighbors[v] | (1 << v)) for v in range(graph.n)]
    return Graph(graph.n, neighbors, names=graph.names)


def delete_vertex(graph: Graph, v: int) -> tuple[Graph, tuple[int, ...]]:
    """Remove one vertex; returns (subgraph, kept) with kept[new] = old."""
    if not 0 <= v < graph.n:
        raise ValueError(f"vertex {v} out of range 0..{graph.n - 1}")
    low = (1 << v) - 1
    kept = tuple(u for u in range(graph.n) if u != v)
    neighbors = []
    for u in kept:
        m = graph.neighbors[u]
        neighbors.append((m & low) | ((m >> (v + 1)) << v))
    names = tuple(graph.name(u) for u in kept) if graph.names else None
    return Graph(graph.n - 1, neighbors, names=names), kept


def euler_phi(n: int) -> int:
    """Count of 1 ≤ k ≤ n coprime to n."""
    if n < 1:
        raise ValueError(f"euler_phi needs n >= 1, got {n}")
    result, m, d = n, n, 2
    while d * d <= m:
        if m % d == 0:
            while m % d == 0:
                m //= d
            result -= result // d
        d += 1
    if m > 1:
        result -= result // m
    return result


# ---------------------------------------------------------------------------
# cyclic classes


@dataclass(frozen=True)
class CyclicClass:
    """All elements generating one cyclic subgroup.

    ``order`` is the common element order; nontrivial classes have
    exactly euler_phi(order) members.
    """

    order: int
    members: tuple[int, ...]

    @property
    def representative(self) -> int:
        return self.members[0]

    def __contains__(self, g: int) -> bool:
        return g in self.members


@dataclass(frozen=True)
class ClassPartition:
    """Cyclic classes of a group, canonically ordered.

    Classes are sorted by (order, representative); ``class_number(n)``
    is the number of cyclic subgroups of order n, 0 when the order is
    not realized.
    """

    classes: tuple[CyclicClass, ...]
    by_order: Mapping[int, tuple[CyclicClass, ...]] = field(repr=False)

    def class_number(self, n: int) -> int:
        return len(self.by_order.get(n, ()))

    @property
    def orders(self) -> tuple[int, ...]:
        return tuple(sorted(self.by_order))

    def class_numbers(self) -> dict[int, int]:
        """{order: class count} for every realized order."""
        return {n: len(self.by_order[n]) for n in self.orders}

    def __iter__(self) -> Iterator[CyclicClass]:
        return iter(self.classes)

    def __len__(self) -> int:
        return len(self.classes)


def cyclic_classes(group: FiniteGroup) -> ClassPartition:
    """Partition by the relation ⟨g₁⟩ = ⟨g₂⟩; cached on the group."""
    if group._classes is None:
        sub = group.cyclic_subgroups()
        classes = sorted(
            (CyclicClass(order=len(elements), members=gens)
             for elements, gens in zip(sub.elements, sub.generators)),
            key=lambda c: (c.order, c.members[0]),
        )
        by_order: dict[int, list[CyclicClass]] = {}
        for c in classes:
            by_order.setdefault(c.order, []).append(c)
        group._classes = ClassPartition(
            classes=tuple(classes),
            by_order={n: tuple(cs) for n, cs in by_order.items()},
        )
    return group._classes


def classes_adjacent(partition: ClassPartition, c1: CyclicClass,
                     c2: CyclicClass, graph: Graph) -> bool:
    """Whether two distinct cyclic classes are joined in the power graph.

    Adjacency between elements depends only on their generated subgroups,
    so one cross pair decides the whole class pair.
    """
    if c1.members == c2.members:
        raise ValueError(f"class of {c1.representative} given twice")
    if c1 not in partition.classes or c2 not in partition.classes:
        raise ValueError("classes do not belong to the given partition")
    return graph.adjacent(c1.representative, c2.representative)


# ---------------------------------------------------------------------------
# the lower-hook property


@dataclass(frozen=True)
class LowerHookReport:
    """Outcome of the class-triple adjacency check.

    The property: whenever a class U is adjacent to classes V₁ and V₂
    whose orders do not exceed U's, then V₁ and V₂ are adjacent — and
    V₁ = V₂ is forced when their orders are equal.  It holds in every
    p-group but can fail elsewhere.
    """

    is_p_group: bool
    holds: bool
    counterexample: tuple[CyclicClass, CyclicClass, CyclicClass] | None

    def __bool__(self) -> bool:
        return self.holds


def check_lower_hook(group: FiniteGroup) -> LowerHookReport:
    """Exhaustively check the lower-hook property over all class triples.

    Returns the first counterexample triple (U, V₁, V₂) in canonical
    class order, or a passing report.
    """
    graph = build_power_graph(group)
    partition = cyclic_classes(group)
    classes = partition.classes
    m = len(classes)
    is_p = prime_power(group.order) is not None

    class_adj = [0] * m
    for i in range(m):
        for j in range(i + 1, m):
            if graph.adjacent(classes[i].representative, classes[j].representative):
                class_adj[i] |= 1 << j
                class_adj[j] |= 1 << i

    for u in range(m):
        below = [v for v in iter_bits(class_adj[u])
                 if classes[v].order <= classes[u].order]
        for v1, v2 in combinations(below, 2):
            same_order = classes[v1].order == classes[v2].order
            if same_order or not (class_adj[v1] >> v2) & 1:
                return LowerHookReport(
                    is_p_group=is_p, holds=False,
                    counterexample=(classes[u], classes[v1], classes[v2]))
    return LowerHookReport(is_p_group=is_p, holds=True, counterexample=None)


# ---------------------------------------------------------------------------
# export formats


def _dot_escape(label: str) -> str:
    return label.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(graph: Graph, graph_name: str = "power") -> str:
    """DOT rendering with element names as vertex labels."""
    lines = [f"graph {graph_name} {{"]
    for v in range(graph.n):
        lines.append(f'  v{v} [label="{_dot_escape(graph.name(v))}"];')
    for u, v in graph.edges():
        lines.append(f"  v{u} -- v{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_edge_list(graph: Graph) -> str:
    """Vertex count on line 1, then one sorted `u v` pair per line."""
    lines = [str(graph.n)]
    lines.extend(f"{u} {v}" for u, v in graph.edges())
    return "\n".join(lines) + "\n"
