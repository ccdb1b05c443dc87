"""Power graph construction, cyclic classes, and the lower-hook check."""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given, strategies as st

from pglambda import (
    Graph,
    build_power_graph,
    check_lower_hook,
    euler_phi,
    make_cyclic,
    make_dihedral,
    make_direct_product,
    make_elementary_abelian,
    make_heisenberg,
    make_quaternion,
    make_semidihedral,
    parse_group_spec,
    to_dot,
    to_edge_list,
)
from pglambda.suites import _ENTRIES


def _is_power_of(group, a: int, b: int) -> bool:
    """Brute-force oracle: does some b^k equal a?"""
    acc = group.identity
    for _ in range(group.order):
        if acc == a:
            return True
        acc = group.product(acc, b)
    return False


@pytest.mark.parametrize("build", [
    lambda: make_cyclic(12),
    lambda: make_dihedral(16),
    lambda: make_quaternion(16),
    lambda: make_semidihedral(16),
    lambda: make_heisenberg(3),
    lambda: make_direct_product(make_cyclic(2), make_cyclic(6)),
])
def test_adjacency_matches_power_relation_oracle(build):
    group = build()
    graph = build_power_graph(group)
    for a in range(group.order):
        assert not graph.adjacent(a, a)
        for b in range(a + 1, group.order):
            expected = _is_power_of(group, a, b) or _is_power_of(group, b, a)
            assert graph.adjacent(a, b) == expected
            assert graph.adjacent(b, a) == expected


def test_cyclic_6_has_exactly_two_non_edges():
    graph = build_power_graph(make_cyclic(6))
    non_edges = [(a, b) for a in range(6) for b in range(a + 1, 6)
                 if not graph.adjacent(a, b)]
    # x^2 (order 3) and x^4 against x^3 (order 2): neither generates the other
    assert non_edges == [(2, 3), (3, 4)]
    assert graph.edge_count() == 13


def test_identity_is_universal():
    for group in (make_quaternion(8), make_elementary_abelian(2, 3)):
        graph = build_power_graph(group)
        assert graph.is_universal(group.identity)


# ---------------------------------------------------------------------------
# Euler phi and cyclic classes


@given(st.integers(min_value=1, max_value=2000))
def test_euler_phi_matches_gcd_count(n):
    assert euler_phi(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def test_euler_phi_rejects_n_below_1():
    with pytest.raises(ValueError, match="euler_phi needs n >= 1, got 0"):
        euler_phi(0)


def test_cyclic_classes_of_c12_one_class_per_divisor():
    sub = make_cyclic(12).cyclic_subgroups()
    assert tuple(sub.by_order) == (1, 2, 3, 4, 6, 12)
    assert [sub.class_number(d) for d in sub.by_order] == [1] * 6
    assert len(sub.generators) == 6
    for elements, members in zip(sub.elements, sub.generators):
        assert len(members) == euler_phi(len(elements))


def test_cyclic_classes_of_semidihedral_16():
    sub = make_semidihedral(16).cyclic_subgroups()
    assert [(d, sub.class_number(d)) for d in sub.by_order] == [
        (1, 1), (2, 5), (4, 3), (8, 1)]


def test_class_number_of_absent_order_is_zero():
    assert make_cyclic(4).cyclic_subgroups().class_number(3) == 0


def test_classes_cover_the_group_exactly():
    for group in (make_quaternion(32), make_heisenberg(3), make_cyclic(15)):
        seen = sorted(v for members in group.cyclic_subgroups().generators for v in members)
        assert seen == list(range(group.order))


def test_classes_adjacent_on_c6():
    group = make_cyclic(6)
    graph = build_power_graph(group)
    sub = group.cyclic_subgroups()
    by_order = {len(elements): members
                for elements, members in zip(sub.elements, sub.generators)}
    c2, c3, c6 = by_order[2], by_order[3], by_order[6]
    # every cross pair of two classes agrees
    for a, b, joined in ((c2, c3, False), (c2, c6, True), (c3, c6, True)):
        assert {graph.adjacent(u, v) for u in a for v in b} == {joined}


# ---------------------------------------------------------------------------
# the lower-hook condition


@pytest.mark.parametrize("build", [
    lambda: make_dihedral(16),
    lambda: make_quaternion(32),
    lambda: make_semidihedral(16),
    lambda: make_heisenberg(3),
    lambda: make_direct_product(make_cyclic(3), make_cyclic(9)),
])
def test_lower_hook_holds_on_p_groups(build):
    assert check_lower_hook(build()) is None


def test_lower_hook_counterexample_in_c6():
    group = make_cyclic(6)
    sub = group.cyclic_subgroups()
    u, v1, v2 = check_lower_hook(group)
    assert tuple(len(sub.elements[c]) for c in (u, v1, v2)) == (6, 2, 3)
    # double-check the triple: u hooks both, but the pair is not adjacent
    graph = build_power_graph(group)
    rep_u, rep_v1, rep_v2 = (sub.generators[c][0] for c in (u, v1, v2))
    assert graph.adjacent(rep_u, rep_v1)
    assert graph.adjacent(rep_u, rep_v2)
    assert not graph.adjacent(rep_v1, rep_v2)


def test_lower_hook_vacuous_on_symmetric_group(s3_group):
    # no element order divides a larger one here, so nothing to hook
    assert check_lower_hook(s3_group) is None


def _all_pairs_lower_hook(group):
    """The reference lower-hook check: a class-adjacency matrix over all
    pairs of classes, then, for each class U in class order, every pair of
    classes adjacent to U of order at most U's."""
    graph = build_power_graph(group)
    sub = group.cyclic_subgroups()
    reps = [gens[0] for gens in sub.generators]
    sizes = [len(elements) for elements in sub.elements]
    m = len(reps)
    class_adj = [0] * m
    for i in range(m):
        for j in range(i + 1, m):
            if graph.adjacent(reps[i], reps[j]):
                class_adj[i] |= 1 << j
                class_adj[j] |= 1 << i
    for u in range(m):
        below = [v for v in range(m) if (class_adj[u] >> v) & 1 and sizes[v] <= sizes[u]]
        for v1, v2 in itertools.combinations(below, 2):
            if sizes[v1] == sizes[v2] or not (class_adj[v1] >> v2) & 1:
                return u, v1, v2
    return None


_LARGER_HOOK_SPECS = (
    "elemab:3,5", "heisenberg:7", "elemab:2,9", "product:cyclic:16,cyclic:32",
    "cyclic:210", "product:cyclic:6,cyclic:10", "product:cyclic:3,dihedral:16",
    "product:cyclic:5,quaternion:16",
)


@pytest.mark.parametrize("spec", [spec for _, spec in _ENTRIES] + list(_LARGER_HOOK_SPECS))
def test_lower_hook_matches_the_all_pairs_check(spec):
    group = parse_group_spec(spec)
    assert check_lower_hook(group) == _all_pairs_lower_hook(group)


# ---------------------------------------------------------------------------
# export formats


def test_edge_list_of_k3_is_byte_exact():
    graph = build_power_graph(make_cyclic(3))
    assert to_edge_list(graph) == "3\n0 1\n0 2\n1 2\n"


def test_edge_list_of_star():
    graph = build_power_graph(make_elementary_abelian(2, 2))
    assert to_edge_list(graph) == "4\n0 1\n0 2\n0 3\n"


def test_dot_output_is_deterministic_and_named():
    dot = to_dot(make_elementary_abelian(2, 2))
    assert dot == to_dot(make_elementary_abelian(2, 2))
    assert dot.count(" -- ") == 3
    assert "(0,0)" in dot  # element names are the vertex labels


def test_plain_graph_adjacency_bits():
    graph = Graph([0b110, 0b001, 0b001])
    assert graph.adjacent(0, 1) and graph.adjacent(0, 2)
    assert not graph.adjacent(1, 2)
    assert graph.degree(0) == 2
    assert graph.edges() == [(0, 1), (0, 2)]
