"""Power graph construction, cyclic classes, and the lower-hook check."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from pglambda import (
    Graph,
    build_power_graph,
    check_lower_hook,
    classes_adjacent,
    complement,
    cyclic_classes,
    delete_vertex,
    euler_phi,
    make_cyclic,
    make_dihedral,
    make_direct_product,
    make_elementary_abelian,
    make_heisenberg,
    make_quaternion,
    make_semidihedral,
    to_dot,
    to_edge_list,
)


def _is_power_of(group, a: int, b: int) -> bool:
    """Brute-force oracle: does some b^k equal a?"""
    acc = group.identity
    for _ in range(group.order):
        if acc == a:
            return True
        acc = group.compose(acc, b)
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
        assert graph.is_universal(graph.group.identity)


def test_complement_flips_every_pair():
    graph = build_power_graph(make_dihedral(8))
    comp = complement(graph)
    for a in range(8):
        assert not comp.adjacent(a, a)
        for b in range(8):
            if a != b:
                assert comp.adjacent(a, b) != graph.adjacent(a, b)


def test_delete_vertex_renumbers_and_keeps_adjacency():
    graph = build_power_graph(make_cyclic(6))
    smaller, kept = delete_vertex(graph, 3)
    assert kept == (0, 1, 2, 4, 5)
    assert smaller.n == 5
    for i, u in enumerate(kept):
        for j, v in enumerate(kept):
            assert smaller.adjacent(i, j) == graph.adjacent(u, v)


def test_delete_vertex_rejects_bad_index():
    graph = build_power_graph(make_cyclic(4))
    with pytest.raises(ValueError, match=r"vertex 4 out of range 0\.\.3"):
        delete_vertex(graph, 4)


# ---------------------------------------------------------------------------
# Euler phi and cyclic classes


@given(st.integers(min_value=1, max_value=2000))
def test_euler_phi_matches_gcd_count(n):
    assert euler_phi(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def test_cyclic_classes_of_c12_one_class_per_divisor():
    partition = cyclic_classes(make_cyclic(12))
    assert partition.orders == (1, 2, 3, 4, 6, 12)
    assert [partition.class_number(d) for d in partition.orders] == [1] * 6
    for cls in partition:
        assert len(cls.members) == euler_phi(cls.order)


def test_cyclic_classes_of_semidihedral_16():
    partition = cyclic_classes(make_semidihedral(16))
    assert [(d, partition.class_number(d)) for d in partition.orders] == [
        (1, 1), (2, 5), (4, 3), (8, 1)]


def test_class_number_of_absent_order_is_zero():
    partition = cyclic_classes(make_cyclic(4))
    assert partition.class_number(3) == 0


def test_classes_cover_the_group_exactly():
    for group in (make_quaternion(32), make_heisenberg(3), make_cyclic(15)):
        partition = cyclic_classes(group)
        seen = sorted(v for cls in partition for v in cls.members)
        assert seen == list(range(group.order))


def test_classes_adjacent_on_c6():
    group = make_cyclic(6)
    graph = build_power_graph(group)
    partition = cyclic_classes(group)
    by_order = {cls.order: cls for cls in partition}
    c2, c3, c6 = by_order[2], by_order[3], by_order[6]
    assert not classes_adjacent(partition, c2, c3, graph)
    assert classes_adjacent(partition, c2, c6, graph)
    assert classes_adjacent(partition, c3, c6, graph)
    # one cross pair decides: every other pair agrees
    for a, b, joined in ((c2, c3, False), (c2, c6, True), (c3, c6, True)):
        assert {graph.adjacent(u, v) for u in a.members for v in b.members} == {joined}
    with pytest.raises(ValueError, match="given twice"):
        classes_adjacent(partition, c2, c2, graph)


def test_classes_adjacent_rejects_foreign_class():
    group = make_cyclic(6)
    graph = build_power_graph(group)
    partition = cyclic_classes(group)
    other = cyclic_classes(make_cyclic(10))
    foreign = next(iter(other))
    with pytest.raises(ValueError):
        classes_adjacent(partition, foreign, next(iter(partition)), graph)


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
    report = check_lower_hook(build())
    assert report.is_p_group
    assert report.holds
    assert bool(report)


def test_lower_hook_counterexample_in_c6():
    report = check_lower_hook(make_cyclic(6))
    assert not report.is_p_group
    assert not report.holds
    u, v1, v2 = report.counterexample
    assert (u.order, v1.order, v2.order) == (6, 2, 3)
    # double-check the triple: u hooks both, but the pair is not adjacent
    group = make_cyclic(6)
    graph = build_power_graph(group)
    partition = cyclic_classes(group)
    assert classes_adjacent(partition, u, v1, graph)
    assert classes_adjacent(partition, u, v2, graph)
    assert not classes_adjacent(partition, v1, v2, graph)


def test_lower_hook_vacuous_on_symmetric_group(s3_group):
    # no element order divides a larger one here, so nothing to hook
    report = check_lower_hook(s3_group)
    assert not report.is_p_group
    assert report.holds


# ---------------------------------------------------------------------------
# export formats


def test_edge_list_of_k3_is_byte_exact():
    graph = build_power_graph(make_cyclic(3))
    assert to_edge_list(graph) == "3\n0 1\n0 2\n1 2\n"


def test_edge_list_of_star():
    graph = build_power_graph(make_elementary_abelian(2, 2))
    assert to_edge_list(graph) == "4\n0 1\n0 2\n0 3\n"


def test_dot_output_is_deterministic_and_named():
    graph = build_power_graph(make_elementary_abelian(2, 2))
    dot = to_dot(graph)
    assert dot == to_dot(build_power_graph(make_elementary_abelian(2, 2)))
    assert dot.count(" -- ") == 3
    assert "(0,0)" in dot  # element names are the vertex labels


def test_plain_graph_adjacency_bits():
    graph = Graph(3, [0b110, 0b001, 0b001])
    assert graph.adjacent(0, 1) and graph.adjacent(0, 2)
    assert not graph.adjacent(1, 2)
    assert graph.degree(0) == 2
    assert graph.edges() == [(0, 1), (0, 2)]
