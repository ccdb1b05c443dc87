"""L(2,1)-labellings: validation, span, path conversion, and exact search.

A labelling is a tuple of labels indexed by vertex, valid when labels
differ by ≥ 2 across edges and by ≥ 1 across distance-2 pairs: the
L(2,1) rule, the only one checked.  On a power graph, vertex 0 is the
identity and universal, so every distinct pair is within distance 2 and
a valid labelling has all labels distinct.  At span |G| the identity's
label then sits 2 from all others, which are consecutive, so the other
vertices in label order are a Hamiltonian path in the complement of the
power graph minus the identity: the same data as the labelling.

A certificate is a witness and lower-bound evidence, and holds λ only
as the witness's span and the evidence's bound;
:func:`certificate_problems` is its one checker.  Every bound that no
search proves is the deficiency of a clique, which
:func:`clique_deficiency` alone derives and re-checks.

The exact oracle is independent of all group theory.  On a graph of
diameter ≤ 2, λ = n − 1 + the fewest bumps (adjacent consecutive
vertices) over orderings of the vertices, and ``_search``, loaded on
first use, searches sequences of twin modules for them, from a floor
that a clique proves up.
"""

from __future__ import annotations

from operator import index
from typing import NamedTuple, Sequence

from .groups import DEFAULT_TIME_BUDGET, _quote, _spec_digits
from .powergraph import Graph, iter_bits

__all__ = [
    "Violation",
    "Evidence",
    "LambdaCertificate",
    "ConstructionInfo",
    "certificate_problems",
    "validate_labelling",
    "span",
    "path_to_labelling",
    "clique_deficiency",
    "power_graph_lower_bound",
    "exact_lambda",
    "certificate_doc",
    "format_labelling_csv",
    "parse_labelling_csv",
]


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


def validate_labelling(graph: Graph, labels: Sequence[int]) -> list[Violation]:
    """Every pair breaking the L(2,1) rule, with its distance; [] if valid.

    Distances beyond 2 are unconstrained; d = 2 means non-adjacent with a
    common neighbour.  Violations come in ascending (u, v) order, u < v.
    Only pairs whose labels differ by less than 2 can violate, so the
    vertices are sorted by label and only pairs inside that window are
    tested.  A label that is not an integer raises ValueError.
    """
    n = graph.n
    try:
        lab = list(map(index, labels))
    except TypeError:
        v, label = next((v, x) for v, x in enumerate(labels) if not hasattr(x, "__index__"))
        raise ValueError(f"label of vertex {v} is {label!r}, not an integer") from None
    if len(lab) != n:
        raise ValueError(f"expected {n} labels, got {len(lab)}")
    neigh = graph.neighbors
    by_label = sorted(range(n), key=lab.__getitem__)
    out = []
    for i, x in enumerate(by_label):
        for t in range(i + 1, n):
            y = by_label[t]
            gap = lab[y] - lab[x]
            if gap >= 2:
                break
            u, v = min(x, y), max(x, y)
            if (neigh[u] >> v) & 1:
                distance, required = 1, 2
            elif neigh[u] & neigh[v]:
                distance, required = 2, 1
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


def path_to_labelling(graph: Graph, path: Sequence[int]) -> tuple[int, ...]:
    """Identity 0 ↦ −2, the i-th path vertex ↦ i, and any vertex off the
    path ↦ len(path) + 1, 2 above the rest.  Valid (unchecked) when the
    path is a Hamiltonian path of the complement of the power graph minus
    the identity and at most one other universal vertex."""
    labels = [len(path) + 1] * graph.n
    labels[0] = -2
    for i, v in enumerate(path):
        labels[v] = i
    return tuple(labels)


# ---------------------------------------------------------------------------
# lower bounds and the exact oracle


class Evidence(NamedTuple):
    """Why λ−1 is impossible: the lower-bound side of a certificate.

    ``clique-deficiency`` names a clique as ``vertices``;
    ``exhaustive-search-at-span`` names none: a search refuted span
    ``bound`` − 1.
    """

    kind: str
    bound: int
    vertices: tuple[int, ...] | None = None


def clique_deficiency(graph: Graph, clique: Sequence[int]) -> int | None:
    """The lower bound on λ that a clique K proves, on any graph; None
    unless K is a non-empty, strictly ascending clique of vertices in range.

    Let R be the vertices outside K adjacent to all of K.  Two vertices of
    K ∪ R are within distance 2 through K, and a labelling of a graph
    labels each induced subgraph, so λ ≥ λ(G[K ∪ R]).  There each K
    vertex is isolated in the complement and R needs one more path, so
    Georges, Mauro & Whittlesey (1994) give λ ≥ 2|K| − 2 + |R| + [R ≠ ∅].
    """
    n, nbrs = graph.n, graph.neighbors
    mask = sum({1 << v for v in clique if 0 <= v < n})
    if not clique or tuple(iter_bits(mask)) != tuple(clique):
        return None
    common = (1 << n) - 1  # K ∪ R: the closed neighbourhoods of K, ANDed
    for v in clique:
        common &= nbrs[v] | 1 << v
    if common & mask != mask:
        return None
    return _deficiency(mask, common)


def _deficiency(k: int, common: int) -> int:
    """2|K| − 2 + |R| + [R ≠ ∅] for a non-empty clique K, given as a
    bitmask inside ``common``, the mask of K ∪ R."""
    rest = (common & ~k).bit_count()
    return 2 * k.bit_count() - 2 + rest + (rest > 0)


def power_graph_lower_bound(graph: Graph) -> Evidence:
    """The clique deficiency of the universal vertices U, the identity
    among them on a power graph: 0 on one vertex, 2(|G| − 1) when U is all
    of G, |G| when U = {e}, |G| + 1 when U = {e, z}, and λ on a p-group.
    """
    universal = tuple(v for v in range(graph.n) if graph.is_universal(v))
    return Evidence("clique-deficiency", clique_deficiency(graph, universal),
                    vertices=universal)


class ConstructionInfo(NamedTuple):
    """How a constructive witness was assembled."""

    kind: str
    path: tuple[int, ...]
    joints: tuple[tuple[int, int], ...]


class LambdaCertificate(NamedTuple):
    """A witness labelling, whose span is λ, and lower-bound evidence."""

    witness: tuple[int, ...]
    evidence: Evidence
    method: str
    construction: ConstructionInfo | None = None

    @property
    def value(self) -> int:
        """λ: the span of the witness."""
        return span(self.witness)


def certificate_problems(graph: Graph, cert: LambdaCertificate) -> list[str]:
    """What is wrong with a power graph's certificate; empty when it checks out.

    λ is the witness's span, so the witness need only be a valid
    labelling of the graph: then it lies above every proven bound,
    power_graph_lower_bound's included.  The evidence must prove λ: its
    bound is λ, and it is a searched refutation of span λ − 1, taken on
    trust and naming no clique, or a clique whose clique_deficiency is λ.
    A constructive path at λ = |G| must be the non-identity vertices in
    label order, a complement path when the witness is valid (see the
    module docstring).  Each rule rejects some certificate that the
    others pass.
    """
    if len(cert.witness) != graph.n:
        return [f"witness has {len(cert.witness)} labels for {graph.n} vertices"]
    problems = []
    violations = validate_labelling(graph, cert.witness)
    if violations:
        problems.append(f"witness violates labelling constraints: {violations[0]}")
    ev, value = cert.evidence, cert.value
    proved = (ev.vertices is None if ev.kind == "exhaustive-search-at-span"
              else ev.kind == "clique-deficiency"
              and clique_deficiency(graph, ev.vertices or ()) == ev.bound)
    if ev.bound != value or not proved:
        problems.append(f"{ev.kind} evidence does not prove lambda {value}")
    path = cert.construction.path if cert.construction else ()
    if path and value == graph.n and (
            list(path) != sorted(range(1, graph.n), key=cert.witness.__getitem__)):
        problems.append("construction path is not the witness's label order")
    return problems


def exact_lambda(graph: Graph, *, time_budget: float = DEFAULT_TIME_BUDGET) -> LambdaCertificate:
    """Minimum L(2,1) span of a graph of diameter ≤ 2, by exhaustive search.

    Knows nothing about groups: works on the bare graph, which is what
    makes it an independent oracle.  Every power graph has diameter ≤ 2;
    any other graph raises ValueError.  The evidence is the clique whose
    deficiency sets the floor when that is λ, and otherwise the
    refutation of span λ − 1: by a probe that searched and failed, or, at
    λ = n − 1, by the n distinct labels.

    Raises SearchTimeoutError with the proven bound when the budget runs
    out.  It has no size cap: certify decides what is small enough to search.
    """
    if graph.n == 0:
        raise ValueError("graph has no vertices")
    from ._search import least_span_labels
    labels, clique = least_span_labels(graph, time_budget)
    evidence = Evidence("clique-deficiency" if clique else "exhaustive-search-at-span",
                        max(labels), clique)
    return LambdaCertificate(tuple(labels), evidence, "exact-search")


# ---------------------------------------------------------------------------
# serialization


def certificate_doc(cert: LambdaCertificate) -> dict:
    """Certificate as a JSON-ready dict: {lambda, method, evidence, labels},
    and the construction when there is one.  The records' tuples stay
    tuples, which json.dumps writes as lists."""
    doc = {
        "lambda": cert.value,
        "method": cert.method,
        "evidence": {k: v for k, v in cert.evidence._asdict().items() if v is not None},
        "labels": cert.witness,
    }
    if cert.construction is not None:
        doc["construction"] = cert.construction._asdict()
    return doc


def format_labelling_csv(labels: Sequence[int]) -> str:
    """CSV with header element,label; elements written as indices.

    Integers need no quoting, so plain joins write what ``csv`` would.
    """
    return "element,label\n" + "".join(f"{v},{label}\n" for v, label in enumerate(labels))


def parse_labelling_csv(text: str, n: int,
                        names: Sequence[str] | None = None) -> tuple[int, ...]:
    """Read a labelling CSV; elements may be indices or element names.

    Returns the labels indexed by vertex.  An element written in ASCII
    digits is always read as an index (names like "1" cannot shadow it);
    anything else, "+1", "1_0" and "١" included, must match a known
    element name.  A label is an optional "-" and ASCII digits, at most
    4,300 characters.  Malformed rows, unknown elements, other labels,
    duplicates and missing elements raise ValueError, which quotes a
    long cell by its first 64 characters (``groups._quote``) and a row of
    more than 8 cells by its first 8 and its cell count.
    """
    import csv  # only reading untrusted CSV input needs csv and io
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
            cells = ", ".join(map(_quote, row[:8]))
            shown = (f"[{cells}]" if len(row) <= 8 else
                     f"[{cells}, ...] (the first 8 of {len(row)} cells)")
            raise ValueError(f"labelling row {shown} must have 2 columns")
        key, value = row[0].strip(), row[1].strip()
        if _spec_digits(key) and len(key) <= 4300:  # int() refuses longer ones
            vertex = int(key)
        elif key in name_index:
            vertex = name_index[key]
        else:
            raise ValueError(f"unknown element {_quote(key)}")
        if not 0 <= vertex < n:
            raise ValueError(f"element index {vertex} out of range 0..{n - 1}")
        if not _spec_digits(value.removeprefix("-")) or len(value) > 4300:
            raise ValueError(f"label {_quote(value)} is not an integer")
        label = int(value)
        if vertex in out:
            raise ValueError(f"element {_quote(key)} labelled twice")
        out[vertex] = label
    if len(out) != n:
        missing = next(v for v in range(n) if v not in out)
        raise ValueError(f"labelling covers {len(out)} of {n} elements "
                         f"(first missing index: {missing})")
    return tuple(out[v] for v in range(n))
