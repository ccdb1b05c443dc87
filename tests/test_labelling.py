"""Labelling validation, path conversions, and the exact-search oracle."""

from __future__ import annotations

import inspect
import itertools
import json
import random
import sys

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from pglambda import (
    Graph,
    HamPath,
    Labelling,
    SearchTimeoutError,
    TooLargeError,
    build_power_graph,
    certificate_to_json,
    check_ham_path,
    exact_lambda,
    find_group_ham_path,
    find_hamiltonian_path,
    format_labelling_csv,
    labelling_to_path,
    make_cyclic,
    make_dihedral,
    make_elementary_abelian,
    make_quaternion,
    parse_labelling_csv,
    path_to_labelling,
    power_graph_lower_bound,
    reduced_complement,
    span,
    validate_labelling,
)
import pglambda.labelling as labelling_module


def _complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, [full ^ (1 << v) for v in range(n)])


# ---------------------------------------------------------------------------
# validation and span


def test_k3_labels_0_2_4_are_valid():
    assert validate_labelling(_complete_graph(3), (0, 2, 4)) == []


def test_k3_labels_0_1_3_violate_on_the_tight_pair():
    violations = validate_labelling(_complete_graph(3), (0, 1, 3))
    assert len(violations) == 1
    v = violations[0]
    assert (v.u, v.v, v.distance, v.gap, v.required) == (0, 1, 1, 1, 2)


def test_distance_two_pairs_must_differ():
    # path a–b–c: a and c are at distance 2
    graph = Graph(3, [0b010, 0b101, 0b010])
    bad = validate_labelling(graph, (0, 3, 0))
    assert [(v.u, v.v, v.distance, v.required) for v in bad] == [(0, 2, 2, 1)]
    assert validate_labelling(graph, (0, 2, 4)) == []
    assert validate_labelling(graph, (0, 3, 1)) == []  # gap 1 is fine at distance 2


def test_far_apart_vertices_are_unconstrained():
    # two disjoint edges: distance 1 within, infinite across
    graph = Graph(4, [0b0010, 0b0001, 0b1000, 0b0100])
    assert validate_labelling(graph, (0, 2, 0, 2)) == []


def test_labels_accept_mapping_and_labelling_forms():
    graph = _complete_graph(2)
    assert validate_labelling(graph, {0: 0, 1: 2}) == []
    assert validate_labelling(graph, Labelling((0, 2))) == []
    with pytest.raises(ValueError, match="no label for vertex 1"):
        validate_labelling(graph, {0: 0})


def _all_pairs_violations(graph, labels, j, k):
    """The definition, pair by pair: the reference for validate_labelling."""
    neigh = graph.neighbors
    out = []
    for u in range(graph.n):
        for v in range(u + 1, graph.n):
            if (neigh[u] >> v) & 1:
                distance, required = 1, j
            elif neigh[u] & neigh[v]:
                distance, required = 2, k
            else:
                continue
            gap = abs(labels[u] - labels[v])
            if gap < required:
                out.append((u, v, distance, gap, required))
    return out


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=14), st.randoms(use_true_random=False),
       st.integers(min_value=-1, max_value=4), st.integers(min_value=-1, max_value=4))
def test_validate_labelling_matches_the_all_pairs_definition(n, rnd, j, k):
    neigh = [0] * n
    for u, v in itertools.combinations(range(n), 2):
        if rnd.random() < 0.4:
            neigh[u] |= 1 << v
            neigh[v] |= 1 << u
    graph = Graph(n, neigh)
    labels = [rnd.randrange(-3, n + 3) for _ in range(n)]
    got = [(w.u, w.v, w.distance, w.gap, w.required)
           for w in validate_labelling(graph, labels, j, k)]
    assert got == _all_pairs_violations(graph, labels, j, k)


def test_span_examples():
    assert span((0,)) == 0
    assert span((-2, 0, 1)) == 3
    assert span({0: 5, 1: 11}) == 6
    with pytest.raises(ValueError, match="span of an empty labelling is undefined"):
        span(())


# ---------------------------------------------------------------------------
# path ↔ labelling


def test_path_to_labelling_on_the_involution_star():
    group = make_elementary_abelian(2, 2)
    graph = build_power_graph(group)
    labels = path_to_labelling(graph, (1, 2, 3))
    assert labels.labels == (-2, 0, 1, 2)
    assert labels.span == 4
    assert validate_labelling(graph, labels) == []


def test_labelling_to_path_inverts_and_ignores_translation():
    group = make_dihedral(8)
    graph = build_power_graph(group)
    path = find_group_ham_path(graph)
    labels = path_to_labelling(graph, path)
    assert labelling_to_path(graph, labels).vertices == path.vertices
    shifted = [v + 17 for v in labels.labels]
    assert labelling_to_path(graph, shifted).vertices == path.vertices


def test_labelling_to_path_rejects_wrong_span():
    group = make_cyclic(4)
    graph = build_power_graph(group)
    with pytest.raises(ValueError, match="conversion needs span exactly 4, got 6"):
        labelling_to_path(graph, (0, 2, 4, 6))  # valid but span 6, not 4


def test_labelling_to_path_rejects_invalid_labelling():
    group = make_elementary_abelian(2, 2)
    graph = build_power_graph(group)
    with pytest.raises(ValueError, match=r"not a valid L\(2,1\)-labelling"):
        labelling_to_path(graph, (0, 1, 2, 4))  # identity gap 1


def test_check_ham_path_rejects_wrong_cover_and_adjacent_steps():
    group = make_elementary_abelian(2, 2)
    graph = build_power_graph(group)
    check_ham_path(graph, (1, 2, 3))
    cover = "does not cover the non-identity elements exactly once"
    with pytest.raises(ValueError, match=cover):
        check_ham_path(graph, (1, 2))  # missing a vertex
    with pytest.raises(ValueError, match=cover):
        check_ham_path(graph, (1, 2, 2))  # repeat
    with pytest.raises(ValueError, match="excluded vertex 1 is not the identity 0"):
        check_ham_path(graph, HamPath((1, 2, 3), excluded=1))
    cyclic = build_power_graph(make_cyclic(4))
    with pytest.raises(ValueError, match=r"consecutive pair \(1, 2\) is adjacent"):
        check_ham_path(cyclic, (1, 2, 3))  # all pairs adjacent in C4


# ---------------------------------------------------------------------------
# Hamiltonian path search


def test_ham_path_on_triangle_and_line():
    triangle = _complete_graph(3)
    assert find_hamiltonian_path(triangle) is not None
    line = Graph(3, [0b010, 0b101, 0b010])
    assert find_hamiltonian_path(line) == (0, 1, 2)


def test_ham_path_absent_in_star_with_three_leaves():
    star = Graph(4, [0b1110, 0b0001, 0b0001, 0b0001])
    assert find_hamiltonian_path(star) is None


def test_ham_path_absent_in_disconnected_graph():
    assert find_hamiltonian_path(Graph(2, [0, 0])) is None


def test_ham_path_degenerate_sizes():
    assert find_hamiltonian_path(Graph(0, [])) == ()
    assert find_hamiltonian_path(Graph(1, [0])) == (0,)


def test_ham_path_respects_vertex_cap():
    with pytest.raises(TooLargeError):
        find_hamiltonian_path(_complete_graph(6), max_vertices=5)


def test_ham_path_result_is_a_real_path():
    # 3-cube graph: bit-flip adjacency, Hamiltonian by Gray code
    n = 8
    masks = [sum(1 << (v ^ (1 << b)) for b in range(3)) for v in range(n)]
    cube = Graph(n, masks)
    path = find_hamiltonian_path(cube)
    assert sorted(path) == list(range(n))
    assert all(cube.adjacent(a, b) for a, b in itertools.pairwise(path))


def test_reduced_complement_drops_identity():
    graph = build_power_graph(make_quaternion(8))
    reduced, kept = reduced_complement(graph)
    assert reduced.n == 7
    assert kept == tuple(range(1, 8))


def test_group_ham_path_exists_for_dihedral_but_not_quaternion():
    d8 = build_power_graph(make_dihedral(8))
    path = find_group_ham_path(d8)
    check_ham_path(d8, path)

    q8 = build_power_graph(make_quaternion(8))
    assert find_group_ham_path(q8) is None


# ---------------------------------------------------------------------------
# lower bounds


def test_lower_bound_kinds():
    assert power_graph_lower_bound(build_power_graph(make_cyclic(1))).kind == "degenerate"

    plain = power_graph_lower_bound(build_power_graph(make_dihedral(8)))
    assert (plain.value, plain.kind) == (8, "power-graph-bound")

    q8 = power_graph_lower_bound(build_power_graph(make_quaternion(8)))
    assert (q8.value, q8.kind) == (9, "universal-nonidentity-vertex")
    assert q8.vertex == 2  # x², the unique involution

    # order 2 stays at the plain bound: labels {0, 2} already realize it
    c2 = power_graph_lower_bound(build_power_graph(make_cyclic(2)))
    assert (c2.value, c2.kind) == (2, "power-graph-bound")


# ---------------------------------------------------------------------------
# the exact oracle


@pytest.mark.parametrize("n", range(2, 8))
def test_exact_lambda_of_complete_graphs(n):
    cert = exact_lambda(_complete_graph(n))
    assert cert.value == 2 * (n - 1)
    assert sorted(cert.witness.labels) == [2 * k for k in range(n)]


def test_exact_lambda_certificate_shape():
    cert = exact_lambda(build_power_graph(make_quaternion(8)))
    assert cert.value == 9
    assert cert.method == "exact-search"
    assert cert.evidence.kind == "exhaustive-search-at-span"
    assert cert.evidence.span == 8
    assert cert.evidence.bound == 9
    assert min(cert.witness.labels) == 0
    assert validate_labelling(build_power_graph(make_quaternion(8)), cert.witness) == []


def test_exact_lambda_invariant_under_relabelling():
    group = make_dihedral(16)
    graph = build_power_graph(group)
    base = exact_lambda(graph).value
    rng = random.Random(7)
    for _ in range(5):
        perm = list(range(graph.n))
        rng.shuffle(perm)
        masks = [0] * graph.n
        for u in range(graph.n):
            for v in range(graph.n):
                if graph.adjacent(u, v):
                    masks[perm[u]] |= 1 << perm[v]
        assert exact_lambda(Graph(graph.n, masks)).value == base


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=9), st.randoms(use_true_random=False))
def test_exact_lambda_witness_always_validates(n, rnd):
    masks = [0] * n
    for a in range(n):
        for b in range(a + 1, n):
            if rnd.random() < 0.4:
                masks[a] |= 1 << b
                masks[b] |= 1 << a
    graph = Graph(n, masks)
    cert = exact_lambda(graph)
    assert validate_labelling(graph, cert.witness) == []
    assert cert.witness.span == cert.value


def test_exact_lambda_size_and_argument_errors():
    with pytest.raises(TooLargeError):
        exact_lambda(_complete_graph(5), max_vertices=4)
    with pytest.raises(ValueError):
        exact_lambda(Graph(0, []))


def test_exact_search_depth_is_not_bounded_by_the_recursion_limit():
    # the search goes one level deeper per vertex: 81 levels here, under a
    # limit that leaves room for 40 more nested calls
    graph = build_power_graph(make_elementary_abelian(3, 4))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 40)
    try:
        cert = exact_lambda(graph, max_vertices=graph.n)
    finally:
        sys.setrecursionlimit(limit)
    assert cert.value == graph.n
    assert validate_labelling(graph, cert.witness) == []


def test_exact_lambda_trivial_graph():
    cert = exact_lambda(Graph(1, [0]))
    assert cert.value == 0
    assert cert.evidence.kind == "degenerate"


def _random_graph(rnd: random.Random, n: int, density: float) -> list[int]:
    masks = [0] * n
    for a in range(n):
        for b in range(a + 1, n):
            if rnd.random() < density:
                masks[a] |= 1 << b
                masks[b] |= 1 << a
    return masks


def _blow_up(base: list[int], sizes: list[int]) -> list[int]:
    """Replace base vertex i by a clique of sizes[i] closed twins."""
    first = [sum(sizes[:i]) for i in range(len(sizes))]
    block = [((1 << size) - 1) << start for size, start in zip(sizes, first)]
    masks = []
    for i, size in enumerate(sizes):
        around = block[i]
        for j in range(len(base)):
            if (base[i] >> j) & 1:
                around |= block[j]
        masks.extend(around & ~(1 << (first[i] + t)) for t in range(size))
    return masks


@st.composite
def _graphs_with_twins(draw, max_base: int, max_size: int) -> Graph:
    rnd = draw(st.randoms(use_true_random=False))
    m = draw(st.integers(min_value=1, max_value=max_base))
    sizes = [draw(st.integers(min_value=1, max_value=max_size)) for _ in range(m)]
    base = _random_graph(rnd, m, draw(st.floats(min_value=0.2, max_value=0.9)))
    masks = _blow_up(base, sizes)
    return Graph(len(masks), masks)


def _all_pairs_distance_two(d1: list[int]) -> list[int]:
    """Reference: v ≠ u, not adjacent, with a common neighbour."""
    n = len(d1)
    d2 = []
    for u in range(n):
        mask = 0
        for v in range(n):
            if v != u and not (d1[u] >> v) & 1 and d1[u] & d1[v]:
                mask |= 1 << v
        d2.append(mask)
    return d2


@settings(max_examples=60, deadline=None)
@given(_graphs_with_twins(max_base=8, max_size=4))
def test_distance_two_masks_match_the_all_pairs_definition(graph):
    d1 = list(graph.neighbors)
    classes = labelling_module._closed_twin_classes(d1)
    assert labelling_module._distance_two(d1, classes) == _all_pairs_distance_two(d1)


def _diameter_at_most_two(d1: list[int]) -> bool:
    n = len(d1)
    d2 = _all_pairs_distance_two(d1)
    return all(d1[u] | d2[u] | 1 << u == (1 << n) - 1 for u in range(n))


def _brute_force_lambda(d1: list[int]) -> int:
    """λ of a graph of diameter ≤ 2, over every order of the vertices.

    Labels are pairwise distinct there; listed by label, a vertex clashes
    only with its label neighbours, which need gap 2 when adjacent and 1
    otherwise.  best[S][v] is the least span of the vertex set S ending
    at v (a Held–Karp table).
    """
    n = len(d1)
    inf = 4 * n
    best = [[inf] * n for _ in range(1 << n)]
    for v in range(n):
        best[1 << v][v] = 0
    for seen in range(1, 1 << n):
        for v in range(n):
            here = best[seen][v]
            if here == inf:
                continue
            for w in range(n):
                if not (seen >> w) & 1:
                    step = 2 if (d1[v] >> w) & 1 else 1
                    grown = seen | 1 << w
                    best[grown][w] = min(best[grown][w], here + step)
    return min(best[(1 << n) - 1])


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    st.builds(lambda n, d, rnd: Graph(n, _random_graph(rnd, n, d)),
              st.integers(min_value=1, max_value=7),
              st.floats(min_value=0.3, max_value=1.0),
              st.randoms(use_true_random=False)),
    _graphs_with_twins(max_base=4, max_size=3).filter(lambda g: g.n <= 7)))
def test_exact_floor_never_exceeds_brute_force_lambda(graph):
    d1 = list(graph.neighbors)
    assume(_diameter_at_most_two(d1))
    truth = _brute_force_lambda(d1)
    classes = labelling_module._closed_twin_classes(d1)
    assert labelling_module._path_cover_floor(graph.n, classes) <= truth
    assert exact_lambda(graph).value == truth


def _brute_force_span(d1: list[int]) -> int:
    """λ of any graph: the least s such that some vector of labels in
    {0..s} keeps gap 2 on edges and 1 at distance 2, found by trying the
    vectors in order, vertex by vertex (most neighbours first), dropping a
    prefix once it clashes."""
    n = len(d1)
    d2 = _all_pairs_distance_two(d1)
    order = sorted(range(n), key=lambda v: -d1[v].bit_count())
    need = [[(t, 2 if (d1[v] >> w) & 1 else 1) for t, w in enumerate(order[:i])
             if ((d1[v] | d2[v]) >> w) & 1] for i, v in enumerate(order)]

    def fits(labels: list[int], s: int) -> bool:
        i = len(labels)
        if i == n:
            return True
        return any(all(abs(lab - labels[t]) >= gap for t, gap in need[i])
                   and fits(labels + [lab], s) for lab in range(s + 1))

    s = 0
    while not fits([], s):
        s += 1
    return s


@st.composite
def _graphs_with_loose_twins(draw) -> Graph:
    """Up to 7 vertices: a random base graph, then isolated vertices, open
    twins and closed twins of earlier vertices, all shuffled."""
    rnd = draw(st.randoms(use_true_random=False))
    m = draw(st.integers(min_value=1, max_value=7))
    masks = _random_graph(rnd, m, draw(st.floats(min_value=0.0, max_value=1.0)))
    for kind in draw(st.lists(st.sampled_from(["isolated", "open", "closed"]),
                              max_size=7 - m)):
        v = len(masks)
        masks.append(0)
        if kind == "isolated":
            continue
        w = rnd.randrange(v)
        masks[v] = masks[w]
        for x in range(v):
            if (masks[w] >> x) & 1:
                masks[x] |= 1 << v
        if kind == "closed":
            masks[v] |= 1 << w
            masks[w] |= 1 << v
    perm = list(range(len(masks)))
    rnd.shuffle(perm)
    shuffled = [0] * len(masks)
    for v, mask in enumerate(masks):
        for x in range(len(masks)):
            if (mask >> x) & 1:
                shuffled[perm[v]] |= 1 << perm[x]
    return Graph(len(masks), shuffled)


@settings(max_examples=200, deadline=None)
@given(_graphs_with_loose_twins())
@example(Graph(4, [0, 0, 0, 0]))  # isolated twins may share a label: λ = 0
@example(Graph(5, [0b00010, 0b00001, 0, 0, 0]))
def test_exact_lambda_is_minimal_on_any_graph(graph):
    cert = exact_lambda(graph)
    assert validate_labelling(graph, cert.witness) == []
    assert cert.witness.span == cert.value
    assert cert.value == _brute_force_span(list(graph.neighbors))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=300),
       st.integers(min_value=0, max_value=(1 << 301) - 1))
def test_gap2_packing_matches_the_greedy_walk(s, mask):
    mask &= (1 << (s + 1)) - 1
    evens = ((1 << 2 * (s // 2 + 1)) - 1) // 3
    count, rest = 0, mask
    while rest:
        low = rest & -rest
        count += 1
        rest &= -1 << (low.bit_length() + 1)
    assert labelling_module._gap2_packing(mask, evens) == count


def test_exact_lambda_timeout_reports_proven_bound(monkeypatch):
    class LeapClock:
        """monotonic() that jumps far past any deadline after the first call."""

        def __init__(self):
            self.calls = 0

        def monotonic(self):
            self.calls += 1
            return 0.0 if self.calls == 1 else 1e9

    # a seeded random graph whose first span refutation needs many steps,
    # so the search is guaranteed to consult the clock at least once
    rnd = random.Random(1)
    n = 14
    masks = [0] * n
    for a in range(n):
        for b in range(a + 1, n):
            if rnd.random() < 0.35:
                masks[a] |= 1 << b
                masks[b] |= 1 << a
    graph = Graph(n, masks)

    monkeypatch.setattr(labelling_module, "time", LeapClock())
    with pytest.raises(SearchTimeoutError) as info:
        exact_lambda(graph, time_budget=1.0)
    assert info.value.lower_bound is not None
    assert info.value.lower_bound >= 0


# ---------------------------------------------------------------------------
# serialization


def test_certificate_json_schema_keys():
    cert = exact_lambda(build_power_graph(make_cyclic(4)))
    doc = json.loads(certificate_to_json(cert))
    assert set(doc) == {"lambda", "method", "evidence", "labels"}
    assert doc["lambda"] == 6
    assert len(doc["labels"]) == 4


def test_certificate_json_is_deterministic():
    cert = exact_lambda(build_power_graph(make_cyclic(4)))
    assert certificate_to_json(cert) == certificate_to_json(cert)


def test_labelling_csv_round_trip():
    text = format_labelling_csv((-2, 0, 4, 2))
    assert text == "element,label\n0,-2\n1,0\n2,4\n3,2\n"
    parsed = parse_labelling_csv(text, 4)
    assert parsed == {0: -2, 1: 0, 2: 4, 3: 2}


def test_labelling_csv_accepts_names_with_numeric_indices_priority():
    names = ("1", "x", "x^2", "x^3")
    text = "element,label\n0,-2\nx,0\nx^2,2\n3,4\n"
    parsed = parse_labelling_csv(text, 4, names)
    assert parsed == {0: -2, 1: 0, 2: 2, 3: 4}


@pytest.mark.parametrize("text", [
    "element\n0\n",                       # wrong header
    "element,label\n0,1,2\n",             # extra column
    "element,label\nnosuch,0\n",          # unknown name
    "element,label\n9,0\n",               # out of range
    "element,label\n0,x\n",               # non-integer label
    "element,label\n0,1\n0,2\n",          # duplicate
])
def test_labelling_csv_rejects_malformed_rows(text):
    with pytest.raises(ValueError):
        parse_labelling_csv(text, 4, ("1", "x", "x^2", "x^3"))
