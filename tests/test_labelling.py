"""Labelling validation, path conversion, and the exact-search oracle."""

from __future__ import annotations

import copy
import hashlib
import inspect
import itertools
import pickle
import random
import re
import sys
import time
import tracemalloc
import types

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from pglambda import (
    Evidence,
    Graph,
    SearchTimeoutError,
    TooLargeError,
    build_power_graph,
    catalogue,
    certificate_doc,
    certificate_problems,
    certify,
    clique_deficiency,
    exact_lambda,
    format_labelling_csv,
    lambda_p_group,
    make_cyclic,
    make_dihedral,
    make_elementary_abelian,
    make_quaternion,
    parse_group_spec,
    parse_labelling_csv,
    path_to_labelling,
    power_graph_lower_bound,
    run_suites,
    span,
    validate_labelling,
)
from pglambda.groups import _two_generator_group
from pglambda.powergraph import iter_bits
import pglambda._search as search_module


def _complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph([full ^ (1 << v) for v in range(n)])


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
    graph = Graph([0b010, 0b101, 0b010])
    bad = validate_labelling(graph, (0, 3, 0))
    assert [(v.u, v.v, v.distance, v.required) for v in bad] == [(0, 2, 2, 1)]
    assert validate_labelling(graph, (0, 2, 4)) == []
    assert validate_labelling(graph, (0, 3, 1)) == []  # gap 1 is fine at distance 2


def test_far_apart_vertices_are_unconstrained():
    # two disjoint edges: distance 1 within, infinite across
    graph = Graph([0b0010, 0b0001, 0b1000, 0b0100])
    assert validate_labelling(graph, (0, 2, 0, 2)) == []


def test_a_labelling_is_one_label_per_vertex_in_any_sequence():
    graph = _complete_graph(2)
    assert validate_labelling(graph, (0, 2)) == []
    assert validate_labelling(graph, [0, 2]) == []
    with pytest.raises(ValueError, match="expected 2 labels, got 1"):
        validate_labelling(graph, (0,))


def test_a_label_that_is_not_an_integer_is_named():
    # int() would truncate 0.9 and 2.1 to a valid labelling of K2 with gap 1.2 < 2
    graph = _complete_graph(2)
    with pytest.raises(ValueError, match="label of vertex 0 is 0.9, not an integer"):
        validate_labelling(graph, (0.9, 2.1))
    with pytest.raises(ValueError, match="label of vertex 1 is '2', not an integer"):
        validate_labelling(graph, [0, "2"])


def test_a_labelling_iterates_indexes_and_measures_its_labels():
    labelling = path_to_labelling(build_power_graph(make_elementary_abelian(2, 2)), (3, 1, 2))
    assert type(labelling) is tuple and labelling[3] == 0 and list(labelling) == [-2, 1, 2, 0]
    assert span(labelling) == 4
    assert format_labelling_csv(labelling) == "element,label\n0,-2\n1,1\n2,2\n3,0\n"


def test_records_are_read_only_and_copy_whole():
    group = make_cyclic(8)
    graph = build_power_graph(group)
    subgroups = group.cyclic_subgroups()
    cert = lambda_p_group(group)
    records = [
        subgroups, cert, cert.evidence, cert.construction,
        validate_labelling(graph, (0,) * 8)[0],
        power_graph_lower_bound(graph), search_module._quotient(graph),
        run_suites(catalogue(2), exact_cap=32, time_budget=60.0)[0],
    ]
    for record in records:
        for field in type(record)._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, None)
        assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps((cert, subgroups))) == (cert, subgroups)


def _all_pairs_violations(graph, labels):
    """The L(2,1) definition, pair by pair: the reference for validate_labelling."""
    neigh = graph.neighbors
    out = []
    for u in range(graph.n):
        for v in range(u + 1, graph.n):
            if (neigh[u] >> v) & 1:
                distance, required = 1, 2
            elif neigh[u] & neigh[v]:
                distance, required = 2, 1
            else:
                continue
            gap = abs(labels[u] - labels[v])
            if gap < required:
                out.append((u, v, distance, gap, required))
    return out


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=14), st.randoms(use_true_random=False))
def test_validate_labelling_matches_the_all_pairs_definition(n, rnd):
    neigh = [0] * n
    for u, v in itertools.combinations(range(n), 2):
        if rnd.random() < 0.4:
            neigh[u] |= 1 << v
            neigh[v] |= 1 << u
    graph = Graph(neigh)
    labels = [rnd.randrange(-3, n + 3) for _ in range(n)]
    got = [(w.u, w.v, w.distance, w.gap, w.required)
           for w in validate_labelling(graph, labels)]
    assert got == _all_pairs_violations(graph, labels)


def test_span_examples():
    assert span((0,)) == 0
    assert span((-2, 0, 1)) == 3
    assert span([5, 11]) == 6
    with pytest.raises(ValueError, match="span of an empty labelling is undefined"):
        span(())


# ---------------------------------------------------------------------------
# path ↔ labelling


def test_path_to_labelling_on_the_involution_star():
    group = make_elementary_abelian(2, 2)
    graph = build_power_graph(group)
    labels = path_to_labelling(graph, (1, 2, 3))
    assert labels == (-2, 0, 1, 2)
    assert span(labels) == 4
    assert validate_labelling(graph, labels) == []


def test_path_helpers_take_a_ham_path_or_a_vertex_sequence(assert_complement_path):
    # a path is a plain vertex tuple, and any sequence of vertices will do
    graph = build_power_graph(make_elementary_abelian(2, 2))
    path = (1, 2, 3)
    assert_complement_path(graph, path)
    assert path_to_labelling(graph, path) == path_to_labelling(graph, [1, 2, 3])
    assert path_to_labelling(graph, path) == path_to_labelling(graph, range(1, 4))


# ---------------------------------------------------------------------------
# Hamiltonian paths: a reference search for the equivalence test below


def _held_karp_path(neigh: list[int]) -> tuple[int, ...] | None:
    """A Hamiltonian path of the graph, or None when it has none.

    ends[S] is the bitmask of the vertices at which some path through
    exactly the vertex set S ends (a Held–Karp table); a path through all
    vertices is read back from the full set, one predecessor at a time.
    """
    n = len(neigh)
    if n == 0:
        return ()
    ends = [0] * (1 << n)
    for v in range(n):
        ends[1 << v] = 1 << v
    for seen in range(1, 1 << n):
        for v in range(n):
            if (ends[seen] >> v) & 1:
                for w in range(n):
                    if (neigh[v] >> w) & 1 and not (seen >> w) & 1:
                        ends[seen | 1 << w] |= 1 << w
    seen = (1 << n) - 1
    if not ends[seen]:
        return None
    v = (ends[seen] & -ends[seen]).bit_length() - 1
    path = [v]
    while seen != 1 << v:
        seen &= ~(1 << v)
        before = ends[seen] & neigh[v]
        v = (before & -before).bit_length() - 1
        path.append(v)
    return tuple(path)


def test_ham_path_on_triangle_and_line():
    triangle = _complete_graph(3)
    assert sorted(_held_karp_path(list(triangle.neighbors))) == [0, 1, 2]
    line = [0b010, 0b101, 0b010]
    assert _held_karp_path(line) in {(0, 1, 2), (2, 1, 0)}


def test_ham_path_absent_in_star_with_three_leaves():
    assert _held_karp_path([0b1110, 0b0001, 0b0001, 0b0001]) is None


def test_ham_path_absent_in_disconnected_graph():
    assert _held_karp_path([0, 0]) is None


def test_ham_path_degenerate_sizes():
    assert _held_karp_path([]) == ()
    assert _held_karp_path([0]) == (0,)


def test_ham_path_result_is_a_real_path():
    # 3-cube graph: bit-flip adjacency, Hamiltonian by Gray code
    n = 8
    masks = [sum(1 << (v ^ (1 << b)) for b in range(3)) for v in range(n)]
    cube = Graph(masks)
    path = _held_karp_path(masks)
    assert sorted(path) == list(range(n))
    assert all(cube.adjacent(a, b) for a, b in itertools.pairwise(path))


def test_group_ham_path_exists_for_dihedral_but_not_quaternion(assert_complement_path):
    # D8: the exact witness has span |G|, and its non-identity vertices,
    # listed by label, make a complement path
    d8 = build_power_graph(make_dihedral(8))
    cert = exact_lambda(d8)
    assert cert.value == 8
    assert_complement_path(d8, sorted(range(1, 8), key=cert.witness.__getitem__))

    # Q8: its involution is universal, so isolated in the reduced complement
    q8 = build_power_graph(make_quaternion(8))
    assert power_graph_lower_bound(q8) == Evidence("clique-deficiency", 9, vertices=(0, 2))
    assert exact_lambda(q8).value == 9


# ---------------------------------------------------------------------------
# lower bounds


# The clique that sets the exact search's floor, which is λ on each, and
# its deficiency: the universal vertices U (every vertex of C8; the
# identity and the four generators of C12; the identity alone; the
# identity and x² in Q8), or U with more classes of closed twins.
# Together they give every bound the power graph and the floor have
# proved: 2(n − 1), n + φ(n), n, n + 1 and larger twin-class cliques.
_CLIQUES = [
    ("cyclic:8", Evidence("clique-deficiency", 14, vertices=tuple(range(8)))),
    ("cyclic:12", Evidence("clique-deficiency", 16, vertices=(0, 1, 5, 7, 11))),
    # the four elements of order 5 are closed twins whose only complement
    # neighbours are the three involutions
    ("product:cyclic:2,cyclic:10",
     Evidence("clique-deficiency", 21, vertices=(0, 2, 4, 6, 8))),
    ("cyclic:1", Evidence("clique-deficiency", 0, vertices=(0,))),
    ("dihedral:8", Evidence("clique-deficiency", 8, vertices=(0,))),
    ("quaternion:8", Evidence("clique-deficiency", 9, vertices=(0, 2))),
    ("cyclic:30", Evidence("clique-deficiency", 40, vertices=(
        0, 1, 2, 4, 6, 7, 8, 11, 12, 13, 14, 16, 17, 18, 19, 22, 23, 24, 26, 28, 29))),
]


def test_lower_bound_kinds():
    for spec, evidence in _CLIQUES:
        graph = build_power_graph(parse_group_spec(spec))
        assert clique_deficiency(graph, evidence.vertices) == evidence.bound, spec
        lower = power_graph_lower_bound(graph)
        assert lower.vertices == tuple(v for v in range(graph.n) if graph.is_universal(v))
        if lower.vertices == evidence.vertices:  # the universal vertices U
            assert lower == evidence, spec
        else:  # a floor that beats U
            assert lower.bound < evidence.bound, spec


# ---------------------------------------------------------------------------
# the exact oracle


@pytest.mark.parametrize("n", range(2, 8))
def test_exact_lambda_of_complete_graphs(n):
    cert = exact_lambda(_complete_graph(n))
    assert cert.value == 2 * (n - 1)
    assert sorted(cert.witness) == [2 * k for k in range(n)]


def test_certificate_problems_re_derive_every_evidence_kind_but_the_search():
    # a clique's deficiency is re-derived (test_cli corrupts it); a search
    # is taken on trust when its bound is λ and it names no clique.  Each
    # certificate below fails one rule alone.
    graph = build_power_graph(make_quaternion(8))
    cert = exact_lambda(graph)
    assert cert.evidence == Evidence("clique-deficiency", 9, vertices=(0, 2))
    assert certificate_problems(graph, cert) == []
    searched = Evidence("exhaustive-search-at-span", 9)
    assert certificate_problems(graph, cert._replace(evidence=searched)) == []
    for evidence in (Evidence("exhaustive-search-at-span", 10),
                     Evidence("exhaustive-search-at-span", 9, vertices=(0, 2)),
                     Evidence("no-such-kind", 9, vertices=(0, 2))):
        assert certificate_problems(graph, cert._replace(evidence=evidence)) == [
            f"{evidence.kind} evidence does not prove lambda 9"], evidence
    assert certificate_problems(graph, cert._replace(witness=cert.witness[:7])) == [
        "witness has 7 labels for 8 vertices"]
    # λ = 8 falls below the universal-vertex bound 9, and the witness of
    # span 8 that claims it is invalid: no separate check of that bound
    top = cert.witness.index(9)
    low = cert._replace(witness=cert.witness[:top] + (8,) + cert.witness[top + 1:],
                        evidence=Evidence("exhaustive-search-at-span", 8))
    problems = certificate_problems(graph, low)
    assert len(problems) == 1
    assert problems[0].startswith("witness violates labelling constraints: ")


def test_a_constructive_path_must_be_the_witness_label_order():
    # D8's alternation ends on two reflections; swapped, it is still a
    # complement path (the reflections are pairwise non-adjacent), but no
    # longer the path the witness labels
    group = make_dihedral(8)
    graph = build_power_graph(group)
    cert = lambda_p_group(group)
    assert cert.value == 8 and certificate_problems(graph, cert) == []
    path = cert.construction.path
    swapped = path[:-2] + (path[-1], path[-2])
    assert not any(graph.adjacent(a, b) for a, b in itertools.pairwise(swapped))
    bad = cert._replace(construction=cert.construction._replace(path=swapped))
    assert certificate_problems(graph, bad) == [
        "construction path is not the witness's label order"]


@pytest.mark.parametrize("spec,evidence", _CLIQUES)
def test_exact_floor_evidence_is_re_derived_from_the_graph(spec, evidence):
    graph = build_power_graph(parse_group_spec(spec))
    cert = exact_lambda(graph)
    assert cert.evidence == evidence
    assert certificate_problems(graph, cert) == []
    assert certificate_doc(cert)["evidence"] == {
        "kind": "clique-deficiency", "bound": evidence.bound,
        "vertices": evidence.vertices}


def test_exact_lambda_certificate_shape():
    cert = exact_lambda(build_power_graph(make_quaternion(8)))
    assert cert.value == 9
    assert cert.method == "exact-search"
    assert cert.evidence == Evidence("clique-deficiency", 9, vertices=(0, 2))
    assert min(cert.witness) == 0
    assert validate_labelling(build_power_graph(make_quaternion(8)), cert.witness) == []


def test_exact_lambda_searches_when_the_floor_falls_short():
    # the 4-cycle: floors 2 (an edge) and 3 (a vertex and its two
    # neighbours), but its complement is two disjoint edges, so every
    # ordering of it has a bump
    graph = Graph([0b0110, 0b1001, 0b1001, 0b0110])
    cert = exact_lambda(graph)
    assert cert.value == 4 == _brute_force_lambda(list(graph.neighbors))
    assert cert.evidence == Evidence("exhaustive-search-at-span", 4)
    assert certificate_problems(graph, cert) == []


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
        assert exact_lambda(Graph(masks)).value == base


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=9), st.randoms(use_true_random=False))
def test_exact_lambda_witness_always_validates(n, rnd):
    # a random graph on n − 1 vertices, and a universal vertex
    masks = _random_graph(rnd, n - 1, 0.4)
    graph = Graph([mask | 1 << (n - 1) for mask in masks] + [(1 << (n - 1)) - 1])
    cert = exact_lambda(graph)
    assert validate_labelling(graph, cert.witness) == []
    assert span(cert.witness) == cert.value


def test_exact_lambda_size_and_argument_errors():
    # certify caps the search; exact_lambda itself refuses only an empty graph
    with pytest.raises(TooLargeError, match="exact search capped at 16 vertices, graph has 24"):
        certify(make_cyclic(24), "exact", cap=16)
    with pytest.raises(ValueError):
        exact_lambda(Graph([]))


@pytest.mark.parametrize("graph", [
    Graph([0b0010, 0b0101, 0b1010, 0b0100]),  # the path P4
    Graph([0, 0]),                            # two isolated vertices
])
def test_exact_lambda_refuses_a_graph_of_diameter_above_two(graph):
    with pytest.raises(ValueError, match="diameter at most 2"):
        exact_lambda(graph)


def test_exact_search_depth_is_not_bounded_by_the_recursion_limit():
    # the search goes one level deeper per vertex: 81 levels here, under a
    # limit that leaves room for 40 more nested calls
    graph = build_power_graph(make_elementary_abelian(3, 4))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 40)
    try:
        cert = exact_lambda(graph)
    finally:
        sys.setrecursionlimit(limit)
    assert cert.value == graph.n
    assert validate_labelling(graph, cert.witness) == []


def test_exact_lambda_trivial_graph():
    cert = exact_lambda(Graph([0]))
    assert cert.value == 0
    assert cert.evidence == Evidence("clique-deficiency", 0, vertices=(0,))


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
    return Graph(masks)


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


def _diameter_at_most_two(d1: list[int]) -> bool:
    n = len(d1)
    d2 = _all_pairs_distance_two(d1)
    return all(d1[u] | d2[u] | 1 << u == (1 << n) - 1 for u in range(n))


@settings(max_examples=60, deadline=None)
@given(_graphs_with_twins(max_base=8, max_size=4))
@example(Graph([0b1010, 0b0101, 0b1010, 0b0101]))  # C4: no universal vertex
def test_the_search_refuses_exactly_the_graphs_of_diameter_above_two(graph):
    d1 = list(graph.neighbors)
    if _diameter_at_most_two(d1):
        search_module._quotient(graph)
    else:
        with pytest.raises(ValueError, match="diameter at most 2"):
            search_module._quotient(graph)
    # a universal vertex added puts every pair within 2 steps
    hub = graph.n
    search_module._quotient(Graph([mask | 1 << hub for mask in d1] + [(1 << hub) - 1]))


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
    st.builds(lambda n, d, rnd: Graph(_random_graph(rnd, n, d)),
              st.integers(min_value=1, max_value=7),
              st.floats(min_value=0.3, max_value=1.0),
              st.randoms(use_true_random=False)),
    _graphs_with_twins(max_base=4, max_size=3).filter(lambda g: g.n <= 7)))
def test_exact_floor_never_exceeds_brute_force_lambda(graph):
    d1 = list(graph.neighbors)
    assume(_diameter_at_most_two(d1))
    truth = _brute_force_lambda(d1)
    _assert_clique_bounds_are_sound(graph, truth)
    assert exact_lambda(graph).value == truth


def _assert_clique_bounds_are_sound(graph: Graph, truth: int) -> None:
    """Every non-empty clique's deficiency, and the search's floor when the
    diameter is at most 2, are at most λ = truth; a non-clique has none."""
    for mask in range(1, 1 << graph.n):
        vertices = tuple(v for v in range(graph.n) if mask >> v & 1)
        bound = clique_deficiency(graph, vertices)
        if all(graph.adjacent(u, v) for u, v in itertools.combinations(vertices, 2)):
            assert bound is not None and bound <= truth, vertices
        else:
            assert bound is None, vertices
    if _diameter_at_most_two(list(graph.neighbors)):
        assert search_module._quotient(graph).floor <= truth


@settings(max_examples=200, deadline=None)
@given(st.builds(lambda n, d, rnd: Graph(_random_graph(rnd, n, d)),
                 st.integers(min_value=1, max_value=6),
                 st.floats(min_value=0.0, max_value=1.0),
                 st.randoms(use_true_random=False)))
@example(Graph([0b0010, 0b0101, 0b1010, 0b0100]))  # the path P4, of diameter 3
@example(Graph([0, 0]))                            # two isolated vertices
def test_clique_deficiency_never_exceeds_lambda_on_any_graph(graph):
    # no diameter or universal vertex is needed: λ by brute force over labels
    _assert_clique_bounds_are_sound(graph, _brute_force_span(list(graph.neighbors)))


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.floats(min_value=0.0, max_value=1.0),
       st.randoms(use_true_random=False))
def test_lambda_is_n_iff_the_reduced_complement_has_a_path(n, density, rnd):
    # the paper's equivalence (λ = n exactly when the reduced complement
    # has a Hamiltonian path), on any graph with a universal vertex 0
    # (diameter ≤ 2)
    rest = _random_graph(rnd, n - 1, density)
    d1 = [(1 << n) - 2] + [(mask << 1) | 1 for mask in rest]
    complement = [((1 << (n - 1)) - 1) & ~(mask | 1 << v) for v, mask in enumerate(rest)]
    has_path = _held_karp_path(complement) is not None
    assert has_path == (_brute_force_lambda(d1) == n)


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
def _graphs_with_a_universal_vertex(draw, max_n: int) -> Graph:
    """Up to max_n vertices: a random base graph, then open twins and
    closed twins of earlier vertices, then a universal vertex, all
    shuffled; so the diameter is at most 2."""
    rnd = draw(st.randoms(use_true_random=False))
    m = draw(st.integers(min_value=1, max_value=max_n - 1))
    masks = _random_graph(rnd, m, draw(st.floats(min_value=0.0, max_value=1.0)))
    for kind in draw(st.lists(st.sampled_from(["open", "closed"]), max_size=max_n - 1 - m)):
        v = len(masks)
        w = rnd.randrange(v)
        masks.append(masks[w])
        for x in range(v):
            if (masks[w] >> x) & 1:
                masks[x] |= 1 << v
        if kind == "closed":
            masks[v] |= 1 << w
            masks[w] |= 1 << v
    n = len(masks) + 1
    masks = [mask | 1 << (n - 1) for mask in masks] + [(1 << (n - 1)) - 1]
    perm = list(range(n))
    rnd.shuffle(perm)
    shuffled = [0] * n
    for v, mask in enumerate(masks):
        for x in range(n):
            if (mask >> x) & 1:
                shuffled[perm[v]] |= 1 << perm[x]
    return Graph(shuffled)


@settings(max_examples=200, deadline=None)
@given(_graphs_with_a_universal_vertex(max_n=7))
@example(Graph([0]))
@example(Graph([0b110, 0b101, 0b011]))
def test_exact_lambda_is_minimal_on_any_graph_of_diameter_two(graph):
    cert = exact_lambda(graph)
    assert validate_labelling(graph, cert.witness) == []
    assert span(cert.witness) == cert.value
    assert cert.value == _brute_force_span(list(graph.neighbors))


@settings(max_examples=200, deadline=None)
@given(_graphs_with_a_universal_vertex(max_n=9))
def test_module_search_finds_the_fewest_bumps(graph):
    # λ = n − 1 + the fewest bumps, by Held–Karp over every ordering.  This
    # generator is what shows a gap bound charged to open twins as wrong.
    cert = exact_lambda(graph)
    assert cert.value == _brute_force_lambda(list(graph.neighbors))
    assert validate_labelling(graph, cert.witness) == []
    searched = cert.evidence.kind == "exhaustive-search-at-span"
    assert searched == (cert.value > search_module._quotient(graph).floor)


def test_exact_lambda_timeout_reports_proven_bound(monkeypatch):
    class LeapClock:
        """monotonic() that jumps far past any deadline after the first call."""

        def __init__(self):
            self.calls = 0

        def monotonic(self):
            self.calls += 1
            return 0.0 if self.calls == 1 else 1e9

    # a dense random graph with a universal vertex backtracks for seconds
    # at its floor, so the search is guaranteed to consult the clock
    masks = _random_graph(random.Random(1), 19, 0.85)
    graph = Graph([mask | 1 << 19 for mask in masks] + [(1 << 19) - 1])

    monkeypatch.setattr(search_module, "time", LeapClock())
    with pytest.raises(SearchTimeoutError) as info:
        exact_lambda(graph, time_budget=1.0)
    assert info.value.lower_bound == search_module._quotient(graph).floor == 25


@pytest.mark.parametrize("index", [1, 10])
def test_the_memo_and_the_tight_module_prune_decide_within_a_step_budget(
        monkeypatch, index):
    # a step clock, whose reads are 1, 2, 3, …: the search reads it once per
    # 1,024 steps of its loop and once per 1,024 cliques visited, so the
    # budget counts steps on any machine.  Graphs 1 and 10 of a seeded run of
    # dense graphs take 46 and 63 reads; without the failed-state memo they
    # take 228 and 513, and without the tight-module prune 596 and 410
    rnd = random.Random(1)
    for _ in range(index + 1):
        masks = _random_graph(rnd, 15, 0.85)
    graph = Graph([mask | 1 << 15 for mask in masks] + [(1 << 15) - 1])
    clock = types.SimpleNamespace(monotonic=itertools.count(1).__next__)
    monkeypatch.setattr(search_module, "time", clock)
    assert exact_lambda(graph, time_budget=100).value == 20


def test_the_search_memory_is_linear_in_the_group(monkeypatch):
    # 768 vertices in 512 modules, decided at the floor: holding the top
    # frame's moves alone traces about 0.4 MB, and a search that kept a
    # sorted copy of the live modules in every frame would trace over 8 MB
    monkeypatch.setenv("LAMBDA_MAX_ORDER", "768")
    graph = build_power_graph(parse_group_spec("product:cyclic:3,elemab:2,8"))
    tracemalloc.start()
    try:
        cert = exact_lambda(graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.value == 768
    assert peak < 2_000_000


def test_exact_lambda_refutes_the_floor_of_a_graph_that_backtracks():
    # λ = 14 lies above the floor 11 of this graph on 10 vertices (one of
    # test_golden's random graphs), so the search must backtrack through
    # every sequence at spans 11, 12 and 13 before it finds one at 14
    graph = Graph([1018, 893, 1018, 983, 1007, 983, 959, 893, 255, 255])
    assert search_module._quotient(graph).floor == 11
    cert = exact_lambda(graph)
    assert cert.value == 14 == _brute_force_lambda(list(graph.neighbors))
    assert cert.evidence == Evidence("exhaustive-search-at-span", 14)
    assert certificate_problems(graph, cert) == []


def _petersen() -> Graph:
    masks = [0] * 10
    for i in range(5):
        for u, v in ((i, (i + 1) % 5), (5 + i, 5 + (i + 2) % 5), (i, 5 + i)):
            masks[u] |= 1 << v
            masks[v] |= 1 << u
    return Graph(masks)


def test_a_floor_below_n_minus_1_is_not_evidence():
    # the Petersen graph has diameter 2 and no universal vertex: its best
    # clique, a vertex and its three neighbours, proves 4, while distinct
    # labels prove 9 = λ.  The search starts at 9, and the evidence is not
    # the clique; λ and witness are those of the search that started at 4.
    graph = _petersen()
    assert search_module._quotient(graph).floor == 4
    cert = exact_lambda(graph)
    assert cert.witness == (0, 6, 1, 3, 7, 4, 2, 8, 9, 5)
    assert cert.evidence == Evidence("exhaustive-search-at-span", 9)
    assert certificate_problems(graph, cert) == []


@settings(max_examples=100, deadline=None)
@given(_graphs_with_a_universal_vertex(max_n=9))
@example(_petersen())
@example(build_power_graph(parse_group_spec("dihedral:16")))
def test_a_module_is_near_itself_exactly_when_it_is_tight(graph):
    # tight: its members pairwise adjacent, which a single vertex's are
    q = search_module._quotient(graph)
    for m, mask in enumerate(q.members):
        tight = all((graph.neighbors[v] | 1 << v) & mask == mask for v in iter_bits(mask))
        assert q.near[m] >> m & 1 == tight


def test_graphs_without_a_universal_vertex_keep_lambda_and_witness():
    # 200 seeded graphs of diameter 2 without a universal vertex: the sha256
    # of their (λ, witness) pairs, captured again when tight modules came
    # first among the search's moves, and of their λ alone, as the search
    # computed it before; and every clique named as evidence proves λ
    rng = random.Random(9)
    digest, values, count = hashlib.sha256(), hashlib.sha256(), 0
    while count < 200:
        n = rng.randint(5, 12)
        masks = _random_graph(rng, n, rng.uniform(0.4, 0.8))
        if any(m.bit_count() == n - 1 for m in masks) or not _diameter_at_most_two(masks):
            continue
        count += 1
        graph = Graph(masks)
        cert = exact_lambda(graph)
        digest.update(repr((cert.value, cert.witness)).encode())
        values.update(repr(cert.value).encode())
        if cert.evidence.kind == "clique-deficiency":
            assert clique_deficiency(graph, cert.evidence.vertices) == cert.value
    assert digest.hexdigest() == (
        "7fad572c351af8c194dac123a3d3260ae9bb663128a930033da56f464b2e0f2f")
    assert values.hexdigest() == (
        "badb02b2e40aed62ad18aa73a2954eb886b4998adfed9cd4c612df69d2a71fef")


@settings(max_examples=200, deadline=None)
@given(st.one_of(_graphs_with_a_universal_vertex(max_n=9),
                 _graphs_with_twins(max_base=5, max_size=3).filter(
                     lambda g: g.n <= 9 and _diameter_at_most_two(list(g.neighbors)))))
@example(Graph([0b0110, 0b1001, 0b1001, 0b0110]))  # C4
@example(_petersen())
def test_the_floor_is_the_best_clique_deficiency(graph):
    # over every clique, not only unions of closed-twin classes
    best = max(bound for mask in range(1, 1 << graph.n)
               if (bound := clique_deficiency(graph, tuple(
                   v for v in range(graph.n) if mask >> v & 1))) is not None)
    q = search_module._quotient(graph)
    assert q.floor == best == clique_deficiency(graph, q.clique)


def test_the_floor_enumeration_stops_at_its_node_budget():
    # G(40, 0.9) has no twins, so every clique is a union of classes; the
    # enumeration would take seconds, and the budget ends it with a clique
    # that still proves its floor
    rng = random.Random(0)
    graph = Graph(_random_graph(rng, 40, 0.9))
    assert len(set(m | 1 << v for v, m in enumerate(graph.neighbors))) == 40
    started = time.monotonic()
    q = search_module._quotient(graph)
    assert time.monotonic() - started < 1.0
    assert clique_deficiency(graph, q.clique) == q.floor


def test_the_floor_enumeration_stops_at_the_deadline(monkeypatch):
    # it reads the clock every 1,024 visits; past the deadline the first
    # read stops it as a node budget of 1,024 would, with a clique in hand,
    # and the diameter check's first read, at its 1,024th neighbour step,
    # raises with that clique's deficiency as the bound
    graph = Graph(_random_graph(random.Random(0), 40, 0.9))
    reads = []
    clock = types.SimpleNamespace(monotonic=lambda: reads.append(1) or time.monotonic())
    monkeypatch.setattr(search_module, "time", clock)
    with pytest.raises(SearchTimeoutError) as info:
        search_module._quotient(graph, deadline=0)
    assert len(reads) == 2
    monkeypatch.setattr(search_module, "_CLIQUE_NODES", 1024)
    reads.clear()
    stopped = search_module._quotient(graph)
    assert info.value.lower_bound == stopped.floor == clique_deficiency(graph, stopped.clique)
    at_1024 = len(reads)
    monkeypatch.setattr(search_module, "_CLIQUE_NODES", 2048)  # it had more to visit
    reads.clear()
    search_module._quotient(graph)
    assert len(reads) == at_1024 + 1


def test_the_set_up_stops_at_the_deadline_with_the_bound_it_has_proven(monkeypatch):
    # G(500, 0.95) stops in its diameter check, where λ ≥ the floor alone
    # is proven, long before its whole set-up (0.35–0.43 s on a 2-vCPU VM)
    # would end
    graph = Graph(_random_graph(random.Random(1), 500, 0.95))
    started = time.monotonic()
    with pytest.raises(SearchTimeoutError) as info:
        exact_lambda(graph, time_budget=0)
    assert time.monotonic() - started < 0.25
    monkeypatch.setattr(search_module, "_CLIQUE_NODES", 1024)  # where the deadline stopped it
    q = search_module._quotient(graph)
    assert info.value.lower_bound == clique_deficiency(graph, q.clique) == q.floor == 471
    # G(40, 0.5) passes its diameter check within 1,024 neighbour steps and
    # stops in the module walk, where λ ≥ n − 1 = 39 > the floor 26 is proven;
    # the step clock is read once for the deadline and once in the walk
    graph = Graph(_random_graph(random.Random(0), 40, 0.5))
    clock = types.SimpleNamespace(monotonic=itertools.count(1).__next__)
    monkeypatch.setattr(search_module, "time", clock)
    with pytest.raises(SearchTimeoutError, match=r"^no result within 0\.0s; proven lambda >= 39$"):
        exact_lambda(graph, time_budget=0)
    assert clock.monotonic() == 3
    assert search_module._quotient(graph).floor == 26


@pytest.mark.parametrize("spec,value", [
    ("cyclic:36", 52), ("cyclic:45", 72), ("cyclic:56", 96), ("cyclic:63", 108),
    ("cyclic:112", 192), ("cyclic:504", 648),
    ("product:cyclic:2,product:cyclic:2,cyclic:25", 109),
    ("product:cyclic:6,cyclic:7", 60),
])
def test_groups_the_search_once_backtracked_on_are_decided_at_their_floor(spec, value):
    graph = build_power_graph(parse_group_spec(spec))
    cert = exact_lambda(graph)
    assert cert.value == value
    assert cert.evidence.kind == "clique-deficiency"
    assert certificate_problems(graph, cert) == []


def test_every_dihedral_group_up_to_order_300_is_decided_at_its_floor():
    # no spec builds D_2m when m is not a power of 2, so its presentation
    # does.  Its reflections form one module that is not tight; taken first
    # by rank, they left the rotations without separators, and 41 of these
    # searches ran past half a second, D_88's for 8.5 s, until tight modules
    # came first.  The clique {e} proves λ ≥ 2m.
    started = time.monotonic()
    for m in range(2, 151):
        cert, = certify(_two_generator_group(2 * m, -1, 0), "exact", budget=2.0)
        assert (cert.value, cert.evidence.kind) == (2 * m, "clique-deficiency")
    assert time.monotonic() - started < 2.0


# ---------------------------------------------------------------------------
# serialization


def test_certificate_json_schema_keys():
    cert = exact_lambda(build_power_graph(make_cyclic(4)))
    doc = certificate_doc(cert)
    assert set(doc) == {"lambda", "method", "evidence", "labels"}
    assert doc["lambda"] == 6
    assert len(doc["labels"]) == 4


def test_labelling_csv_round_trip():
    text = format_labelling_csv((-2, 0, 4, 2))
    assert text == "element,label\n0,-2\n1,0\n2,4\n3,2\n"
    parsed = parse_labelling_csv(text, 4)
    assert parsed == (-2, 0, 4, 2)


def test_labelling_csv_accepts_names_with_numeric_indices_priority():
    names = ("1", "x", "x^2", "x^3")
    text = "element,label\n0,-2\nx,0\nx^2,2\n3,4\n"
    parsed = parse_labelling_csv(text, 4, names)
    assert parsed == (-2, 0, 2, 4)


def test_labelling_csv_in_any_row_order_gives_a_dense_tuple():
    parsed = parse_labelling_csv("element,label\n2,7\n0,5\n1,6\n", 3)
    assert parsed == (5, 6, 7) and type(parsed) is tuple


@pytest.mark.parametrize("text,covered,missing", [
    ("element,label\n", 0, 0),
    ("element,label\n0,0\n1,2\n3,4\n", 3, 2),
])
def test_labelling_csv_rejects_partial_coverage(text, covered, missing):
    with pytest.raises(ValueError, match=re.escape(
            f"labelling covers {covered} of 4 elements (first missing index: {missing})")):
        parse_labelling_csv(text, 4)


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
