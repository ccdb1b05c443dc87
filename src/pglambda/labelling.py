"""L(2,1)-labellings: validation, span, path conversions, and exact search.

A labelling is a tuple of labels indexed by vertex, valid when labels
differ by ≥ j across edges and by ≥ k across distance-2 pairs
(defaults j=2, k=1).  On a power graph every
distinct pair is within distance 2, so a valid L(2,1)-labelling has all
labels distinct; a span-|G| labelling is then the same data as a
Hamiltonian path in the complement of the power graph minus the
identity, and the two conversions here are mutually inverse.

A certificate is a witness plus lower-bound evidence, and
:func:`certificate_problems` is its one checker.

The exact oracle is independent of all group theory.  On a graph of
diameter ≤ 2, λ = n − 1 + the fewest bumps (adjacent consecutive
vertices) over orderings of the vertices, and ``_search``, loaded on
first use, searches sequences of twin modules for them, from a proven
floor (the clique bound or a path-cover bound) up.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .errors import TooLargeError
from .powergraph import Graph, PowerGraph, iter_bits

__all__ = [
    "DEFAULT_SEARCH_CAP",
    "DEFAULT_TIME_BUDGET",
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
    "power_graph_lower_bound",
    "exact_lambda",
    "certificate_doc",
    "format_labelling_csv",
    "parse_labelling_csv",
]

DEFAULT_SEARCH_CAP = 32
DEFAULT_TIME_BUDGET = 60.0


# ---------------------------------------------------------------------------
# labellings


class Violation(NamedTuple):
    """One labelled pair breaking a separation constraint."""

    u: int
    v: int
    distance: int
    gap: int
    required: int

    def __str__(self) -> str:
        return (f"vertices ({self.u}, {self.v}) at distance {self.distance}: "
                f"|gap| = {self.gap} < {self.required}")


def validate_labelling(graph: Graph, labels, j: int = 2, k: int = 1) -> list[Violation]:
    """Every violating pair with its distance; empty list means valid.

    Distances beyond 2 are unconstrained; d = 2 means non-adjacent with a
    common neighbour.  Violations come in ascending (u, v) order, u < v.
    Only pairs whose labels differ by less than max(j, k) can violate, so
    the vertices are sorted by label and only pairs inside that window are
    tested.
    """
    n = graph.n
    lab = [int(v) for v in labels]
    if len(lab) != n:
        raise ValueError(f"expected {n} labels, got {len(lab)}")
    neigh = graph.neighbors
    window = max(j, k)
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


def span(labels: Sequence[int]) -> int:
    """max − min of the labels; ValueError when there are none."""
    if not labels:
        raise ValueError("span of an empty labelling is undefined")
    return max(labels) - min(labels)


# ---------------------------------------------------------------------------
# Hamiltonian paths in the reduced complement


def check_ham_path(graph: PowerGraph, path: Sequence[int]) -> None:
    """Raise ValueError unless the path covers G minus the identity exactly
    once with every consecutive pair NON-adjacent in the power graph."""
    expected = set(range(graph.n)) - {graph.group.identity}
    got = list(path)
    if len(got) != len(set(got)) or set(got) != expected:
        raise ValueError("path does not cover the non-identity elements exactly once")
    for a, b in zip(got, got[1:]):
        if graph.adjacent(a, b):
            raise ValueError(f"consecutive pair ({a}, {b}) is adjacent in the power graph")


def path_to_labelling(graph: PowerGraph, path: Sequence[int]) -> tuple[int, ...]:
    """Identity ↦ −2 and the i-th path vertex ↦ i: span |G|, and valid
    when check_ham_path accepts the path, which is not checked here."""
    labels = [0] * graph.n
    labels[graph.group.identity] = -2
    for i, v in enumerate(path):
        labels[v] = i
    return tuple(labels)


def labelling_to_path(graph: PowerGraph, labels: Sequence[int]) -> tuple[int, ...]:
    """Invert path_to_labelling for any valid span-|G| labelling.

    Valid span-|G| labels occupy an interval of |G|+1 integers with one
    interior hole, and the identity label sits at one end with the hole
    beside it; the remaining labels are consecutive, and ordering their
    preimages ascending gives the path.  Consecutive path vertices carry
    labels 1 apart, so validity makes them non-adjacent: the path is a
    Hamiltonian path of the reduced complement by this argument, and is
    not checked again.  Re-anchoring the identity below the rest and
    translating yields the canonical image {−2, 0, .., |G|−2}, so label
    translations of the input produce the same path.
    """
    n = graph.n
    violations = validate_labelling(graph, labels)
    if violations:
        raise ValueError(
            f"not a valid L(2,1)-labelling: {len(violations)} violations, "
            f"first: {violations[0]}")
    got = span(labels)
    if got != n:
        raise ValueError(f"conversion needs span exactly {n}, got {got}")
    identity = graph.group.identity
    return tuple(sorted((v for v in range(n) if v != identity), key=labels.__getitem__))


# ---------------------------------------------------------------------------
# lower bounds and the exact oracle


class Evidence(NamedTuple):
    """Why λ−1 is impossible: the lower-bound side of a certificate."""

    kind: str
    bound: int
    span: int | None = None
    vertex: int | None = None
    vertices: tuple[int, ...] | None = None


def power_graph_lower_bound(graph: PowerGraph) -> Evidence:
    """The one derivation of a lower bound on λ: the first case that applies.

    0 on at most one vertex.  2(|G| − 1) when every vertex is universal:
    a complete graph needs its labels 2 apart.  Otherwise all labels are
    distinct (diameter ≤ 2) and the universal identity forces a further
    gap of 2, giving |G|; a universal non-identity ``vertex`` is isolated
    in the reduced complement, so for |G| ≥ 3 no Hamiltonian path exists
    there and the bound is |G| + 1.  On a p-group the bound is λ.
    """
    n = graph.n
    if n <= 1:
        return Evidence("degenerate", 0)
    if all(map(graph.is_universal, range(n))):
        return Evidence("complete-graph-bound", 2 * (n - 1))
    if n >= 3:
        for v in range(n):
            if v != graph.group.identity and graph.is_universal(v):
                return Evidence("universal-nonidentity-vertex", n + 1, vertex=v)
    return Evidence("power-graph-bound", n)


class ConstructionInfo(NamedTuple):
    """How a constructive witness was assembled."""

    kind: str
    path: tuple[int, ...]
    joints: tuple[tuple[int, int], ...]


class LambdaCertificate(NamedTuple):
    """λ value with a witness labelling and lower-bound evidence."""

    value: int
    witness: tuple[int, ...]
    evidence: Evidence
    method: str
    construction: ConstructionInfo | None = None


def _floor_evidence(graph: Graph, ev: Evidence) -> Evidence | None:
    """ev's floor re-derived from the bare graph; None when ev is none.

    ``clique-packing``: pairwise adjacent vertices C take labels 2 apart,
    so λ ≥ 2(|C| − 1).  ``path-cover-floor``: a universal vertex makes all
    labels differ, and then λ ≥ n − 2 + u + |T| − |N| + [R ⊄ T ∪ N] for u
    universal vertices, the rest R, and closed twins T (none, or the ones
    given) with complement neighbourhood N (``_search._path_cover_floor``).
    """
    n, nbrs, everyone = graph.n, graph.neighbors, (1 << graph.n) - 1
    vertices = ev.vertices or ()
    mask = sum({1 << v for v in vertices if 0 <= v < n})
    if tuple(iter_bits(mask)) != tuple(vertices):  # ascending, distinct, in range
        return None
    closed = {nbrs[v] | 1 << v for v in vertices}
    if ev.kind == "clique-packing" and all(c & mask == mask for c in closed):
        bound = 2 * (len(vertices) - 1)
    elif (ev.kind == "path-cover-floor" and len(closed) <= 1 and everyone not in closed
          and (universal := sum(1 << v for v in range(n) if graph.is_universal(v)))):
        away = everyone & ~closed.pop() if closed else 0
        bound = (n - 2 + universal.bit_count() + len(vertices) - away.bit_count()
                 + (1 if everyone & ~(universal | mask | away) else 0))
    else:
        return None
    return Evidence(ev.kind, bound, vertices=ev.vertices)


def certificate_problems(graph: PowerGraph, cert: LambdaCertificate) -> list[str]:
    """What is wrong with a certificate; empty when it checks out.

    The witness must be a valid labelling of the graph, its span must be
    the certified λ, and λ may not fall below power_graph_lower_bound.
    The evidence must prove λ: its bound is λ, and it is a searched
    refutation of span λ − 1 (of which only that span is checked), or
    exactly what power_graph_lower_bound or the exact search's floor
    derive from the graph.  A constructive path at λ = |G| must pass
    check_ham_path.
    """
    if len(cert.witness) != graph.n:
        return [f"witness has {len(cert.witness)} labels for {graph.n} vertices"]
    problems = []
    violations = validate_labelling(graph, cert.witness)
    if violations:
        problems.append(f"witness violates labelling constraints: {violations[0]}")
    if span(cert.witness) != cert.value:
        problems.append(f"witness span {span(cert.witness)} != lambda {cert.value}")
    lower = power_graph_lower_bound(graph)
    if cert.value < lower.bound:
        problems.append(f"lambda {cert.value} below the {lower.kind} bound {lower.bound}")
    ev = cert.evidence
    proved = (ev.span == ev.bound - 1 if ev.kind == "exhaustive-search-at-span"
              else ev == lower or ev == _floor_evidence(graph, ev))
    if ev.bound != cert.value or not proved:
        problems.append(f"{ev.kind} evidence does not prove lambda {cert.value}")
    if cert.construction and cert.construction.path and cert.value == graph.n:
        try:
            check_ham_path(graph, cert.construction.path)
        except ValueError as exc:
            problems.append(f"construction path: {exc}")
    return problems


def exact_lambda(graph: Graph, *, max_vertices: int = DEFAULT_SEARCH_CAP,
                 time_budget: float = DEFAULT_TIME_BUDGET) -> LambdaCertificate:
    """Minimum L(2,1) span of a graph of diameter ≤ 2, by exhaustive search.

    Knows nothing about groups: works on the bare graph, which is what
    makes it an independent oracle.  Every power graph has diameter ≤ 2;
    any other graph raises ValueError.  The evidence is the floor when
    the first bump allowance probed succeeds (``path-cover-floor`` or
    ``clique-packing``), and the refutation of span λ − 1 when a probe
    searched and failed.

    Raises SearchTimeoutError with the proven bound when the budget runs
    out, and TooLargeError above ``max_vertices``.
    """
    n = graph.n
    if n == 0:
        raise ValueError("graph has no vertices")
    if n > max_vertices:
        raise TooLargeError(f"exact search capped at {max_vertices} vertices, "
                            f"graph has {n}")
    from ._search import least_span_labels
    labels, floor = least_span_labels(graph, time_budget)
    sigma = max(labels)
    if sigma == 0:
        evidence = Evidence(kind="degenerate", bound=0)
    elif floor is None:
        evidence = Evidence(kind="exhaustive-search-at-span", span=sigma - 1,
                            bound=sigma)
    else:
        evidence = Evidence(kind=floor[0], bound=sigma, vertices=floor[1])
    return LambdaCertificate(value=sigma, witness=tuple(labels), evidence=evidence,
                             method="exact-search")


# ---------------------------------------------------------------------------
# serialization


def certificate_doc(cert: LambdaCertificate) -> dict:
    """Certificate as a plain JSON-ready dict: {lambda, method, evidence, labels}."""
    doc: dict[str, object] = {
        "lambda": cert.value,
        "method": cert.method,
        "evidence": {key: list(value) if isinstance(value, tuple) else value
                     for key, value in cert.evidence._asdict().items()
                     if value is not None},
        "labels": list(cert.witness),
    }
    if cert.construction is not None:
        doc["construction"] = {
            "kind": cert.construction.kind,
            "path": list(cert.construction.path),
            "joints": [list(j) for j in cert.construction.joints],
        }
    return doc


def format_labelling_csv(labels: Sequence[int]) -> str:
    """CSV with header element,label; elements written as indices."""
    import csv  # only the two CSV functions use csv and io
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["element", "label"])
    writer.writerows(enumerate(labels))
    return buf.getvalue()


def parse_labelling_csv(text: str, n: int,
                        names: Sequence[str] | None = None) -> tuple[int, ...]:
    """Read a labelling CSV; elements may be indices or element names.

    Returns the labels indexed by vertex.  A numeric element column is
    always read as an index (names like "1" cannot shadow it); anything
    else must match a known element name.  Malformed rows, unknown
    elements, duplicates and missing elements raise ValueError.
    """
    import csv
    import io

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
    if len(out) != n:
        missing = next(v for v in range(n) if v not in out)
        raise ValueError(f"labelling covers {len(out)} of {n} elements "
                         f"(first missing index: {missing})")
    return tuple(out[v] for v in range(n))
