"""Constructive complement paths and the p-group lambda dispatcher."""

from __future__ import annotations

import itertools
import random
import sys

import pytest

from pglambda import (
    ConstructionFailedError,
    build_interleaved_path,
    build_power_graph,
    check_ham_path,
    lambda_p_group,
    make_cyclic,
    make_dihedral,
    make_direct_product,
    make_elementary_abelian,
    make_heisenberg,
    make_quaternion,
    make_semidihedral,
    catalogue,
    order_classes_for_descent,
    prime_power,
    recognize_family,
    span,
    validate_group,
    validate_labelling,
)
from pglambda.groups import _two_generator_table


# ---------------------------------------------------------------------------
# interleaving


def test_interleaving_is_column_major():
    assert build_interleaved_path([(1, 2), (3, 4)]) == (1, 3, 2, 4)


def test_interleaving_sorts_class_members():
    assert build_interleaved_path([(2, 1), (4, 3)]) == (1, 3, 2, 4)


def test_interleaving_accepts_family_and_plain_lists():
    # a descent level (a tuple of member tuples) and the same classes as
    # plain lists interleave identically
    group = make_elementary_abelian(3, 2)
    graph = build_power_graph(group)
    sub = group.cyclic_subgroups()
    classes = tuple(sub.generators[i] for i in sub.by_order[3])
    assert len(classes) == 4 and all(len(c) == 2 for c in classes)

    segment = build_interleaved_path(classes)
    assert segment == build_interleaved_path([list(c) for c in classes])
    assert sorted(segment) == sorted(itertools.chain(*classes))
    for a, b in itertools.pairwise(segment):
        assert not graph.adjacent(a, b)


def test_interleaving_stops_at_the_shortest_class():
    # the interleaving checks nothing; the certificate check sees what it drops
    assert build_interleaved_path([(1, 2)]) == (1, 2)
    assert build_interleaved_path([(1, 2), (3,)]) == (1, 3)
    assert build_interleaved_path([(), ()]) == ()


@pytest.mark.parametrize("interleave", [
    lambda classes: build_interleaved_path([classes[0]] * len(classes)),  # shared vertices
    lambda classes: tuple(v for c in classes for v in sorted(c)),  # adjacent steps
    lambda classes: build_interleaved_path([classes[0], ()]),  # unequal sizes
], ids=["shared", "adjacent", "unequal"])
def test_a_bad_interleaving_fails_the_certificate_check(interleave, monkeypatch):
    monkeypatch.setattr("pglambda.construct.build_interleaved_path", interleave)
    with pytest.raises(ConstructionFailedError,
                       match="constructive certificate fails its check"):
        lambda_p_group(make_elementary_abelian(3, 2))


# ---------------------------------------------------------------------------
# level descent


def test_descent_levels_for_c2_x_c4():
    group = make_direct_product(make_cyclic(2), make_cyclic(4))
    graph = build_power_graph(group)
    levels = order_classes_for_descent(graph)
    assert len(levels) == 2  # order-4 level, then order-2 level
    assert [len(level) for level in levels] == [2, 3]
    assert [{len(c) for c in level} for level in levels] == [{2}, {1}]

    # the junction between consecutive levels must avoid the edge
    upper, lower = levels
    a = upper[-1][-1]
    b = lower[0][0]
    assert not graph.adjacent(a, b)


def test_descent_rejects_levels_with_one_class():
    group = make_cyclic(8)
    with pytest.raises(ConstructionFailedError, match="interleaving needs >= 2"):
        order_classes_for_descent(build_power_graph(group))


def test_descent_rejects_non_p_groups():
    group = make_cyclic(6)
    with pytest.raises(ValueError, match="is not a prime power"):
        order_classes_for_descent(build_power_graph(group))


@pytest.mark.parametrize("group", [
    make_elementary_abelian(2, 2),
    make_elementary_abelian(3, 2),
    make_direct_product(make_cyclic(2), make_cyclic(4)),
    make_direct_product(make_cyclic(3), make_cyclic(9)),
    make_heisenberg(3),
], ids=["elemab2^2", "elemab3^2", "c2xc4", "c3xc9", "heis3"])
def test_general_construction_yields_a_complement_path(group):
    cert = lambda_p_group(group)
    assert cert.construction.kind == "class-interleaving-descent"
    check_ham_path(build_power_graph(group), cert.construction.path)


# ---------------------------------------------------------------------------
# the three named 2-group families


@pytest.mark.parametrize("e", [2, 3, 4, 5])
def test_dihedral_paths(e):
    group = make_dihedral(2 ** (e + 1))
    cert = lambda_p_group(group)
    assert cert.construction.kind == "involution-alternation"
    path = cert.construction.path
    graph = build_power_graph(group)
    check_ham_path(graph, path)
    # the alternation starts and ends on reflections (outside involutions)
    orders = group.cyclic_subgroups().orders
    assert orders[path[0]] == 2
    assert orders[path[-1]] == 2


def test_dihedral_needs_e_at_least_two():
    # the smallest dihedral 2-group is of order 8 = 2^(2+1)
    with pytest.raises(ValueError, match="dihedral order .* >= 8, got 4"):
        make_dihedral(4)
    assert lambda_p_group(make_dihedral(8)).construction.kind == "involution-alternation"


@pytest.mark.parametrize("e", [3, 4, 5])
def test_semidihedral_paths(e):
    group = make_semidihedral(2 ** (e + 1))
    cert = lambda_p_group(group)
    assert cert.construction.kind == "seed-alternation"
    check_ham_path(build_power_graph(group), cert.construction.path)


def test_semidihedral_seed_for_order_16():
    cert = lambda_p_group(make_semidihedral(16))
    # y, x^4, x^2y, x^2, x^4y, x^6 in the canonical table (y = index 8)
    seed = cert.construction.path[:6]
    assert seed == (8, 4, 10, 2, 12, 6)
    assert cert.construction.joints == ((6, cert.construction.path[6]),)
    graph = build_power_graph(make_semidihedral(16))
    for a, b in itertools.pairwise(seed):
        assert not graph.adjacent(a, b)


def test_semidihedral_needs_e_at_least_three():
    # the smallest semidihedral 2-group is of order 16 = 2^(3+1)
    with pytest.raises(ValueError, match="semidihedral order .* >= 16, got 8"):
        make_semidihedral(8)
    assert lambda_p_group(make_semidihedral(16)).construction.kind == "seed-alternation"


@pytest.mark.parametrize("e", [2, 3, 4, 5])
def test_quaternion_labellings(e):
    n = 2 ** (e + 1)
    group = make_quaternion(n)
    cert = lambda_p_group(group)
    labels = cert.witness
    graph = build_power_graph(group)
    assert validate_labelling(graph, labels) == []
    assert span(labels) == n + 1
    assert labels[group.identity] == -2
    z = 2 ** (e - 1)  # the unique involution x^(2^(e-1))
    assert group.cyclic_subgroups().orders[z] == 2
    assert cert.evidence.vertex == z
    assert labels[z] == n - 1
    # x^k (index k) for k ≠ 0, m/2 alternates with x^k y (index m + k),
    # starting inside; the last two x^k y close the path
    m = n // 2
    inside = [k for k in range(1, m) if k != m // 2]
    outside = [m + k for k in range(m)]
    expected = [v for pair in zip(inside, outside) for v in pair] + outside[m - 2:]
    assert cert.construction.path == tuple(expected)


def test_quaternion_needs_e_at_least_two():
    # the smallest generalized quaternion group is of order 8 = 2^(2+1)
    with pytest.raises(ValueError, match="quaternion order .* >= 8, got 4"):
        make_quaternion(4)
    assert lambda_p_group(make_quaternion(8)).value == 9


# ---------------------------------------------------------------------------
# family recognition


@pytest.mark.parametrize("group,family", [
    (make_cyclic(1), "cyclic"),
    (make_cyclic(16), "cyclic"),
    (make_cyclic(27), "cyclic"),
    (make_quaternion(8), "quaternion"),
    (make_quaternion(32), "quaternion"),
    (make_dihedral(8), "dihedral"),
    (make_dihedral(32), "dihedral"),
    (make_semidihedral(16), "semidihedral"),
    (make_semidihedral(64), "semidihedral"),
    (make_elementary_abelian(2, 2), "general"),
    (make_heisenberg(3), "general"),
    (make_direct_product(make_cyclic(2), make_cyclic(8)), "general"),
    # exponent |G|/2 and an involution outside <x>, but y⁻¹xy = x⁵: modular M16
    (validate_group(_two_generator_table(8, 5, 0), family_tag="modular"), "general"),
    (make_direct_product(make_cyclic(2), make_cyclic(16)), "general"),
], ids=lambda v: v if isinstance(v, str) else v.family_tag + str(v.order))
def test_recognize_family_on_canonical_tables(group, family):
    assert recognize_family(group) == family


def test_recognize_family_rejects_non_p_groups():
    with pytest.raises(ValueError, match="is not a prime power"):
        recognize_family(make_cyclic(6))


def _shuffled_copy(group, seed):
    """The same group on scrambled element indices (identity may move)."""
    rnd = random.Random(seed)
    sigma = list(range(group.order))
    rnd.shuffle(sigma)
    mul = [[0] * group.order for _ in range(group.order)]
    for a in range(group.order):
        for b in range(group.order):
            mul[sigma[a]][sigma[b]] = sigma[group.mul[a][b]]
    return validate_group(mul, identity=sigma[group.identity],
                          family_tag="scrambled")


@pytest.mark.parametrize("maker,family", [
    (lambda: make_dihedral(16), "dihedral"),
    (lambda: make_semidihedral(16), "semidihedral"),
    (lambda: make_quaternion(16), "quaternion"),
    (lambda: make_cyclic(8), "cyclic"),
    (lambda: make_direct_product(make_cyclic(4), make_cyclic(4)), "general"),
], ids=["d16", "sd16", "q16", "c8", "c4xc4"])
def test_recognition_is_invariant_under_relabelling(maker, family):
    for seed in (3, 11):
        assert recognize_family(_shuffled_copy(maker(), seed)) == family


@pytest.mark.parametrize("maker,value,kind", [
    (make_dihedral, 16, "involution-alternation"),
    (make_semidihedral, 16, "seed-alternation"),
    (make_quaternion, 17, "restricted-complement-path"),
], ids=["dihedral", "semidihedral", "quaternion"])
def test_scrambled_table_still_gets_a_constructive_certificate(maker, value, kind):
    group = _shuffled_copy(maker(16), 5)
    cert = lambda_p_group(group)
    assert cert.value == value
    assert cert.construction.kind == kind
    assert validate_labelling(build_power_graph(group), cert.witness) == []


# ---------------------------------------------------------------------------
# the dispatcher


def test_dispatcher_on_the_trivial_group():
    cert = lambda_p_group(make_cyclic(1))
    assert cert.value == 0
    assert cert.evidence.kind == "degenerate"
    assert cert.construction.kind == "degenerate"


def test_dispatcher_rejects_non_p_groups():
    with pytest.raises(ValueError, match="is not a prime power"):
        lambda_p_group(make_cyclic(12))


@pytest.mark.parametrize("group,value,kind", [
    (make_cyclic(9), 16, "cyclic-even-spacing"),
    (make_quaternion(8), 9, "restricted-complement-path"),
    (make_dihedral(8), 8, "involution-alternation"),
    (make_semidihedral(16), 16, "seed-alternation"),
    (make_elementary_abelian(3, 2), 9, "class-interleaving-descent"),
    (make_heisenberg(3), 27, "class-interleaving-descent"),
], ids=["c9", "q8", "d8", "sd16", "elemab3^2", "heis3"])
def test_dispatcher_routes_and_values(group, value, kind):
    cert = lambda_p_group(group)
    assert cert.value == value
    assert cert.method == "constructive"
    assert cert.construction.kind == kind
    graph = build_power_graph(group)
    assert validate_labelling(graph, cert.witness) == []
    assert span(cert.witness) == value


def test_dispatcher_evidence_kinds():
    assert lambda_p_group(make_cyclic(4)).evidence.kind == "complete-graph-bound"
    q8 = lambda_p_group(make_quaternion(8))
    assert q8.evidence.kind == "universal-nonidentity-vertex"
    assert q8.evidence.vertex == 2
    assert lambda_p_group(make_dihedral(8)).evidence.kind == "power-graph-bound"


def test_descent_certificate_reports_non_adjacent_joints():
    group = make_direct_product(make_cyclic(3), make_cyclic(9))
    graph = build_power_graph(group)
    cert = lambda_p_group(group)
    assert cert.construction.kind == "class-interleaving-descent"
    joints = cert.construction.joints
    assert joints  # at least one level junction for a two-level group
    path = cert.construction.path
    for a, b in joints:
        assert not graph.adjacent(a, b)
        assert path.index(b) == path.index(a) + 1


def test_dispatcher_path_matches_witness_order():
    group = make_dihedral(16)
    cert = lambda_p_group(group)
    path = cert.construction.path
    labels = cert.witness
    assert [labels[v] for v in path] == list(range(len(path)))


def test_construction_never_searches(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("a constructive certificate ran the exact search")

    for name, module in list(sys.modules.items()):
        if name.startswith("pglambda") and hasattr(module, "exact_lambda"):
            monkeypatch.setattr(module, "exact_lambda", no_search)
    groups = [group for _, group in catalogue(512) if prime_power(group.order)]
    for group in groups + [make_quaternion(512)]:
        cert = lambda_p_group(group)
        assert cert.method == "constructive"
