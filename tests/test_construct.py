"""Constructive complement paths, the one dispatch, and the constructions
on non-p-groups that no dispatch reaches yet."""

from __future__ import annotations

import itertools
import json
import random
import sys

import pytest

from pglambda import (
    ConstructionFailedError,
    ConstructionInfo,
    Evidence,
    LambdaCertificate,
    TooLargeError,
    build_power_graph,
    certificate_problems,
    lambda_p_group,
    make_cyclic,
    make_dihedral,
    make_direct_product,
    make_elementary_abelian,
    make_heisenberg,
    make_quaternion,
    make_semidihedral,
    catalogue,
    certify,
    format_cayley,
    parse_cayley,
    parse_group_spec,
    path_to_labelling,
    power_graph_lower_bound,
    prime_power,
    recognize_family,
    span,
    validate_group,
    validate_labelling,
)
from pglambda.cli import main
from pglambda.construct import _coset_alternation, _descent_path
from pglambda.groups import _two_generator_group


# ---------------------------------------------------------------------------
# level descent


def test_interleaving_is_column_major():
    # elemab:3,2 has one level, four classes of two: the path takes the
    # least member of each class in class order, then the other members,
    # and no step of it is an edge
    group = make_elementary_abelian(3, 2)
    graph = build_power_graph(group)
    sub = group.cyclic_subgroups()
    classes = [sub.generators[i] for i in sub.by_order[3]]
    assert len(classes) == 4 and all(len(c) == 2 for c in classes)
    assert all(list(c) == sorted(c) for c in classes)

    path, joints = _descent_path(group)
    assert joints == ()
    assert path == tuple(c[0] for c in classes) + tuple(c[1] for c in classes)
    assert not any(graph.adjacent(a, b) for a, b in itertools.pairwise(path))


def test_interleaving_sorts_class_members():
    # within each level the path meets a class's members in ascending order
    for group in (make_elementary_abelian(3, 2), make_heisenberg(3),
                  make_direct_product(make_cyclic(2), make_cyclic(4))):
        sub = group.cyclic_subgroups()
        path = _descent_path(group)[0]
        for order in tuple(sub.by_order)[1:]:
            for c in sub.by_order[order]:
                members = sub.generators[c]
                assert [v for v in path if v in members] == sorted(members)


def test_interleaving_accepts_family_and_plain_lists():
    # a family group and the same group read from its table as plain
    # lists give one descent path
    for group in (make_elementary_abelian(3, 2), make_heisenberg(3)):
        n = group.order
        plain = validate_group([[group.product(a, b) for b in range(n)] for a in range(n)])
        assert _descent_path(plain) == _descent_path(group)


@pytest.mark.parametrize("corrupt", [
    lambda path: path[:1] + path[:-1],  # a shared vertex
    lambda path: tuple(sorted(path)),  # adjacent steps: x = 1, then x² = 2
    lambda path: path[:4],  # dropped vertices: one column of four classes
], ids=["shared", "adjacent", "unequal"])
def test_a_bad_interleaving_fails_the_certificate_check(corrupt, monkeypatch):
    group = make_elementary_abelian(3, 2)
    path = corrupt(_descent_path(group)[0])
    monkeypatch.setattr("pglambda.construct._descent_path", lambda group: (path, ()))
    with pytest.raises(ConstructionFailedError,
                       match="constructive certificate fails its check"):
        certify(group, "constructive")


def test_descent_levels_for_c2_x_c4():
    # the order-4 level (two classes of two), one joint, then the order-2
    # level (three involutions): every non-identity element once, and the
    # joint is not an edge
    group = make_direct_product(make_cyclic(2), make_cyclic(4))
    graph = build_power_graph(group)
    orders = group.cyclic_subgroups().orders
    path, joints = _descent_path(group)
    assert sorted(path) == list(range(1, 8))
    assert [orders[v] for v in path] == [4, 4, 4, 4, 2, 2, 2]
    assert joints == ((path[3], path[4]),)
    assert not graph.adjacent(*joints[0])


def test_descent_rejects_non_p_groups():
    with pytest.raises(ValueError, match="is not a prime power"):
        lambda_p_group(make_cyclic(6))


@pytest.mark.parametrize("group", [
    make_elementary_abelian(2, 2),
    make_elementary_abelian(3, 2),
    make_direct_product(make_cyclic(2), make_cyclic(4)),
    make_direct_product(make_cyclic(3), make_cyclic(9)),
    make_heisenberg(3),
], ids=["elemab2^2", "elemab3^2", "c2xc4", "c3xc9", "heis3"])
def test_general_construction_yields_a_complement_path(group, assert_complement_path):
    cert = lambda_p_group(group)
    assert cert.construction.kind == "class-interleaving-descent"
    assert_complement_path(build_power_graph(group), cert.construction.path)


# ---------------------------------------------------------------------------
# the three named 2-group families


@pytest.mark.parametrize("e", [2, 3, 4, 5])
def test_dihedral_paths(e, assert_complement_path):
    group = make_dihedral(2 ** (e + 1))
    cert = lambda_p_group(group)
    assert cert.construction.kind == "coset-alternation"
    assert_complement_path(build_power_graph(group), cert.construction.path)


def test_dihedral_needs_e_at_least_two():
    # the smallest dihedral 2-group is of order 8 = 2^(2+1)
    with pytest.raises(ValueError, match="dihedral order .* >= 8, got 4"):
        make_dihedral(4)
    assert lambda_p_group(make_dihedral(8)).construction.kind == "coset-alternation"


@pytest.mark.parametrize("e", [3, 4, 5])
def test_semidihedral_paths(e, assert_complement_path):
    group = make_semidihedral(2 ** (e + 1))
    cert = lambda_p_group(group)
    assert cert.construction.kind == "coset-alternation"
    assert_complement_path(build_power_graph(group), cert.construction.path)


def test_semidihedral_needs_e_at_least_three():
    # the smallest semidihedral 2-group is of order 16 = 2^(3+1)
    with pytest.raises(ValueError, match="semidihedral order .* >= 16, got 8"):
        make_semidihedral(8)
    assert lambda_p_group(make_semidihedral(16)).construction.kind == "coset-alternation"


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
    assert cert.evidence.vertices == (group.identity, z)
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

_S3_TABLE = ("6\n0 1 2 3 4 5\n1 0 4 5 2 3\n2 3 0 1 5 4\n3 2 5 4 0 1\n"
             "4 5 1 0 3 2\n5 4 3 2 1 0\n")


@pytest.mark.parametrize("group,family", [
    pytest.param(make_cyclic(1), "cyclic", id="cyclic1-cyclic"),
    pytest.param(make_cyclic(16), "cyclic", id="cyclic16-cyclic"),
    pytest.param(make_cyclic(27), "cyclic", id="cyclic27-cyclic"),
    pytest.param(make_quaternion(8), "quaternion", id="quaternion8-quaternion"),
    pytest.param(make_quaternion(32), "quaternion", id="quaternion32-quaternion"),
    pytest.param(make_dihedral(8), "dihedral", id="dihedral8-dihedral"),
    pytest.param(make_dihedral(32), "dihedral", id="dihedral32-dihedral"),
    pytest.param(make_semidihedral(16), "semidihedral", id="semidihedral16-semidihedral"),
    pytest.param(make_semidihedral(64), "semidihedral", id="semidihedral64-semidihedral"),
    pytest.param(make_elementary_abelian(2, 2), "general", id="elemab4-general"),
    pytest.param(make_heisenberg(3), "general", id="heisenberg27-general"),
    pytest.param(make_direct_product(make_cyclic(2), make_cyclic(8)), "general",
                 id="product16-general"),
    # exponent |G|/2 and 3 involutions, neither 9 nor 5: modular M16
    pytest.param(parse_cayley(format_cayley(_two_generator_group(16, 5, 0))), "general",
                 id="modular16-general"),
    pytest.param(make_direct_product(make_cyclic(2), make_cyclic(16)), "general",
                 id="product32-general"),
    # exponent |G|/2 and 3 = |G|/4 + 1 involutions, below the semidihedral orders
    pytest.param(make_direct_product(make_cyclic(2), make_cyclic(4)), "general",
                 id="product8-general"),
    # exponent |G|/2 and 3 involutions, as C16×C2 has: modular M32
    pytest.param(parse_cayley(format_cayley(_two_generator_group(32, 9, 0))), "general",
                 id="modular32-general"),
    # every other order gets no construction
    pytest.param(make_cyclic(6), "not-a-p-group", id="cyclic6-not-a-p-group"),
    pytest.param(parse_cayley(_S3_TABLE), "not-a-p-group", id="s3-not-a-p-group"),
    pytest.param(_two_generator_group(6, -1, 0), "not-a-p-group", id="dihedral6-not-a-p-group"),
])
def test_recognize_family_on_canonical_tables(group, family):
    assert recognize_family(group) == family


def _shuffled_copy(group, seed):
    """The same group on scrambled element indices, the identity kept at 0."""
    rnd = random.Random(seed)
    sigma = list(range(1, group.order))
    rnd.shuffle(sigma)
    sigma = [0, *sigma]
    mul = [[0] * group.order for _ in range(group.order)]
    for a in range(group.order):
        for b in range(group.order):
            mul[sigma[a]][sigma[b]] = sigma[group.product(a, b)]
    return validate_group(mul)


@pytest.mark.parametrize("maker,family", [
    (lambda: make_dihedral(16), "dihedral"),
    (lambda: make_semidihedral(16), "semidihedral"),
    (lambda: make_quaternion(16), "quaternion"),
    (lambda: make_cyclic(8), "cyclic"),
    (lambda: make_direct_product(make_cyclic(4), make_cyclic(4)), "general"),
    (lambda: make_cyclic(6), "not-a-p-group"),
    (lambda: parse_cayley(_S3_TABLE), "not-a-p-group"),
    (lambda: _two_generator_group(6, -1, 0), "not-a-p-group"),
], ids=["d16", "sd16", "q16", "c8", "c4xc4", "c6", "s3", "d6"])
def test_recognition_is_invariant_under_relabelling(maker, family):
    for seed in (3, 11):
        assert recognize_family(_shuffled_copy(maker(), seed)) == family


def test_the_record_prime_agrees_with_factoring_the_order():
    # the one p-group test reads the realised element orders; prime_power,
    # which factors the order, is the reference it must match
    groups = [group for _, group in catalogue(512)]
    groups += map(make_cyclic, range(1, 513))
    groups += (_two_generator_group(2 * m, -1, 0) for m in range(2, 257))
    groups += (make_direct_product(make_cyclic(a), make_cyclic(b))
               for b in range(1, 129) for a in range(1, b + 1) if b % a == 0 and a * b <= 512)
    groups += map(parse_group_spec, [
        "product:dihedral:16,cyclic:8", "product:heisenberg:3,elemab:3,2",
        "product:quaternion:8,heisenberg:3", "product:semidihedral:32,cyclic:12",
        "product:heisenberg:5,cyclic:4"])
    groups += (_shuffled_copy(group, seed) for seed in (3, 11) for group in [
        parse_cayley(_S3_TABLE), _two_generator_group(6, -1, 0), make_semidihedral(16),
        make_heisenberg(3), make_direct_product(make_cyclic(4), make_cyclic(4))])
    for group in groups:
        pp = prime_power(group.order)
        assert group.cyclic_subgroups().prime() == (pp and pp[0]), group.order


@pytest.mark.parametrize("maker,value,kind", [
    (make_dihedral, 16, "coset-alternation"),
    (make_semidihedral, 16, "coset-alternation"),
    (make_quaternion, 17, "restricted-complement-path"),
], ids=["dihedral", "semidihedral", "quaternion"])
def test_scrambled_table_still_gets_a_constructive_certificate(maker, value, kind):
    group = _shuffled_copy(maker(16), 5)
    cert = lambda_p_group(group)
    assert cert.value == value
    assert cert.construction.kind == kind
    assert validate_labelling(build_power_graph(group), cert.witness) == []


@pytest.mark.parametrize("maker,order", [
    *((make_dihedral, 2 ** e) for e in range(3, 10)),
    *((make_semidihedral, 2 ** e) for e in range(4, 10)),
    *((make_quaternion, 2 ** e) for e in range(3, 10)),
], ids=lambda arg: arg.__name__.removeprefix("make_") if callable(arg) else str(arg))
def test_coset_alternation_certifies_every_family(maker, order):
    # each canonical group, and two relabellings of it up to order 128:
    # the path runs over the non-universal non-identity elements, and in
    # the semidihedral family it passes the central involution z between
    # two involutions
    canonical = maker(order)
    family = maker.__name__.removeprefix("make_")
    copies = [canonical] + [_shuffled_copy(canonical, seed) for seed in (3, 11) if order <= 128]
    for group in copies:
        cert, = certify(group, "constructive")
        graph = build_power_graph(group)
        path = cert.construction.path
        assert cert.value == order + (family == "quaternion")
        assert cert.construction.kind == (
            "restricted-complement-path" if family == "quaternion" else "coset-alternation")
        assert cert.construction.joints == ()
        assert cert.witness == path_to_labelling(graph, path)
        assert sorted(path) == [v for v in range(1, order) if not graph.is_universal(v)]
        assert not any(graph.adjacent(a, b) for a, b in itertools.pairwise(path))
        if family == "semidihedral":
            orders = group.cyclic_subgroups().orders
            z, = {group.product(g, g) for g in range(order)} & {g for g in range(order) if orders[g] == 2}
            i = path.index(z)
            assert orders[path[i - 1]] == orders[path[i + 1]] == 2


# ---------------------------------------------------------------------------
# the dispatcher


def test_dispatcher_on_the_trivial_group():
    # the trivial group is cyclic: its even spacing is the one label 0
    cert = lambda_p_group(make_cyclic(1))
    assert cert.witness == (0,) and cert.value == 0
    assert cert.evidence == Evidence("clique-deficiency", 0, vertices=(0,))
    assert cert.construction.kind == "cyclic-even-spacing"


def test_dispatcher_rejects_non_p_groups():
    with pytest.raises(ValueError, match="is not a prime power"):
        lambda_p_group(make_cyclic(12))


def test_certify_rejects_an_unknown_method():
    with pytest.raises(ValueError, match="unknown method 'bogus'"):
        certify(make_cyclic(4), "bogus")


def test_certify_checks_the_construction_before_refusing_the_search(monkeypatch):
    # under 'both', a bad construction is reported, not the cap
    group = make_elementary_abelian(3, 2)
    monkeypatch.setattr("pglambda.construct._descent_path", lambda group: ((1, 2), ()))
    with pytest.raises(ConstructionFailedError, match="constructive certificate fails"):
        certify(group, "both", cap=8)


def test_certify_auto_above_the_cap_constructs_alone(monkeypatch):
    monkeypatch.setattr("pglambda.construct.exact_lambda", None)  # never called
    cert, = certify(make_dihedral(64), "auto", cap=32)
    assert cert.method == "constructive" and cert.value == 64


@pytest.mark.parametrize("group,value,kind", [
    (make_cyclic(9), 16, "cyclic-even-spacing"),
    (make_quaternion(8), 9, "restricted-complement-path"),
    (make_dihedral(8), 8, "coset-alternation"),
    (make_semidihedral(16), 16, "coset-alternation"),
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
    # the universal vertices: all of C4, the identity and x² in Q8, the
    # identity alone in D8
    assert lambda_p_group(make_cyclic(4)).evidence == Evidence(
        "clique-deficiency", 6, vertices=(0, 1, 2, 3))
    assert lambda_p_group(make_quaternion(8)).evidence == Evidence(
        "clique-deficiency", 9, vertices=(0, 2))
    assert lambda_p_group(make_dihedral(8)).evidence == Evidence(
        "clique-deficiency", 8, vertices=(0,))


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
        cert, = certify(group, "constructive")
        assert cert.method == "constructive"


# ---------------------------------------------------------------------------
# the one dispatch: certify's 'auto' and what analyze prints, group by group

BOTH, CONSTRUCTIVE, EXACT = ["constructive", "exact-search"], ["constructive"], ["exact-search"]
_TABLES = {
    "s3-table": _S3_TABLE,
    "d6-table": format_cayley(_two_generator_group(6, -1, 0)),
    "d30-table": format_cayley(_two_generator_group(30, -1, 0)),
    "sd16-shuffled-table": format_cayley(_shuffled_copy(make_semidihedral(16), 5)),
    "heis3-shuffled-table": format_cayley(_shuffled_copy(make_heisenberg(3), 5)),
}

# subject: (methods at cap |G|, methods at cap |G| - 1 or the error raised,
#           and the prime, family and maximal_class that analyze --stable prints)
_DISPATCH = {
    "cyclic:1": (BOTH, None, None, "cyclic", None),
    "cyclic:2": (BOTH, CONSTRUCTIVE, 2, "cyclic", False),
    "cyclic:3": (BOTH, CONSTRUCTIVE, 3, "cyclic", False),
    "cyclic:4": (BOTH, CONSTRUCTIVE, 2, "cyclic", True),
    "elemab:2,2": (BOTH, CONSTRUCTIVE, 2, "general", True),
    "cyclic:5": (BOTH, CONSTRUCTIVE, 5, "cyclic", False),
    "cyclic:6": (EXACT, TooLargeError, None, "not-a-p-group", None),
    "cyclic:7": (BOTH, CONSTRUCTIVE, 7, "cyclic", False),
    "cyclic:8": (BOTH, CONSTRUCTIVE, 2, "cyclic", False),
    "dihedral:8": (BOTH, CONSTRUCTIVE, 2, "dihedral", True),
    "elemab:2,3": (BOTH, CONSTRUCTIVE, 2, "general", False),
    "product:cyclic:2,cyclic:4": (BOTH, CONSTRUCTIVE, 2, "general", False),
    "quaternion:8": (BOTH, CONSTRUCTIVE, 2, "quaternion", True),
    "cyclic:9": (BOTH, CONSTRUCTIVE, 3, "cyclic", True),
    "elemab:3,2": (BOTH, CONSTRUCTIVE, 3, "general", True),
    "cyclic:10": (EXACT, TooLargeError, None, "not-a-p-group", None),
    "cyclic:11": (BOTH, CONSTRUCTIVE, 11, "cyclic", False),
    "cyclic:12": (EXACT, TooLargeError, None, "not-a-p-group", None),
    "product:cyclic:2,cyclic:6": (EXACT, TooLargeError, None, "not-a-p-group", None),
    "cyclic:13": (BOTH, CONSTRUCTIVE, 13, "cyclic", False),
    "cyclic:15": (EXACT, TooLargeError, None, "not-a-p-group", None),
    "cyclic:16": (BOTH, CONSTRUCTIVE, 2, "cyclic", False),
    "dihedral:16": (BOTH, CONSTRUCTIVE, 2, "dihedral", True),
    "elemab:2,4": (BOTH, CONSTRUCTIVE, 2, "general", False),
    "product:cyclic:2,cyclic:8": (BOTH, CONSTRUCTIVE, 2, "general", False),
    "product:cyclic:4,cyclic:4": (BOTH, CONSTRUCTIVE, 2, "general", False),
    "quaternion:16": (BOTH, CONSTRUCTIVE, 2, "quaternion", True),
    "semidihedral:16": (BOTH, CONSTRUCTIVE, 2, "semidihedral", True),
    "cyclic:25": (BOTH, CONSTRUCTIVE, 5, "cyclic", True),
    "elemab:5,2": (BOTH, CONSTRUCTIVE, 5, "general", True),
    "cyclic:27": (BOTH, CONSTRUCTIVE, 3, "cyclic", False),
    "elemab:3,3": (BOTH, CONSTRUCTIVE, 3, "general", False),
    "heisenberg:3": (BOTH, CONSTRUCTIVE, 3, "general", True),
    "product:cyclic:3,cyclic:9": (BOTH, CONSTRUCTIVE, 3, "general", False),
    "cyclic:30": (EXACT, TooLargeError, None, "not-a-p-group", None),
    "cyclic:32": (BOTH, CONSTRUCTIVE, 2, "cyclic", False),
    "dihedral:32": (BOTH, CONSTRUCTIVE, 2, "dihedral", True),
    "elemab:2,5": (BOTH, CONSTRUCTIVE, 2, "general", False),
    "product:cyclic:2,cyclic:16": (BOTH, CONSTRUCTIVE, 2, "general", False),
    "product:cyclic:4,cyclic:8": (BOTH, CONSTRUCTIVE, 2, "general", False),
    "quaternion:32": (BOTH, CONSTRUCTIVE, 2, "quaternion", True),
    "semidihedral:32": (BOTH, CONSTRUCTIVE, 2, "semidihedral", True),
    "cyclic:49": (BOTH, CONSTRUCTIVE, 7, "cyclic", True),
    "elemab:7,2": (BOTH, CONSTRUCTIVE, 7, "general", True),
    "cyclic:64": (BOTH, CONSTRUCTIVE, 2, "cyclic", False),
    "dihedral:64": (BOTH, CONSTRUCTIVE, 2, "dihedral", True),
    "elemab:2,6": (BOTH, CONSTRUCTIVE, 2, "general", False),
    "quaternion:64": (BOTH, CONSTRUCTIVE, 2, "quaternion", True),
    "semidihedral:64": (BOTH, CONSTRUCTIVE, 2, "semidihedral", True),
    "cyclic:81": (BOTH, CONSTRUCTIVE, 3, "cyclic", False),
    "product:cyclic:3,cyclic:27": (BOTH, CONSTRUCTIVE, 3, "general", False),
    "product:cyclic:9,cyclic:9": (BOTH, CONSTRUCTIVE, 3, "general", False),
    "heisenberg:5": (BOTH, CONSTRUCTIVE, 5, "general", True),
    "product:cyclic:2,cyclic:3": (EXACT, TooLargeError, None, "not-a-p-group", None),
    "product:cyclic:6,cyclic:6": (EXACT, TooLargeError, None, "not-a-p-group", None),
    "s3-table": (EXACT, TooLargeError, None, "not-a-p-group", None),
    "d6-table": (EXACT, TooLargeError, None, "not-a-p-group", None),
    "d30-table": (EXACT, TooLargeError, None, "not-a-p-group", None),
    "sd16-shuffled-table": (BOTH, CONSTRUCTIVE, 2, "semidihedral", True),
    "heis3-shuffled-table": (BOTH, CONSTRUCTIVE, 3, "general", True),
}


@pytest.mark.parametrize("subject", [
    *(spec for spec, _ in catalogue(512)),
    "cyclic:1", "cyclic:6", "cyclic:30", "product:cyclic:2,cyclic:3", "product:cyclic:6,cyclic:6",
    *_TABLES,
])
def test_the_dispatch_is_pinned(subject, tmp_path, capsys):
    # certify's 'auto' at the cap |G| and one below it, and the group block
    # analyze prints, read from the one classification of each group
    spec = subject
    if subject in _TABLES:
        spec = f"file:{tmp_path / 'table.txt'}"
        (tmp_path / "table.txt").write_text(_TABLES[subject], encoding="utf-8")
    group = parse_group_spec(spec)
    at_cap, below_cap, prime, family, maximal_class = _DISPATCH[subject]
    assert [c.method for c in certify(group, "auto", cap=group.order)] == at_cap
    if below_cap is TooLargeError:
        with pytest.raises(TooLargeError, match="exact search capped"):
            certify(group, "auto", cap=group.order - 1)
    elif group.order > 1:
        assert [c.method for c in certify(group, "auto", cap=group.order - 1)] == below_cap
    assert main(["analyze", spec, "--stable"]) == 0
    printed = json.loads(capsys.readouterr().out)["group"]
    assert (printed["prime"], printed["family"], printed["maximal_class"]) == (
        prime, family, maximal_class)


# ---------------------------------------------------------------------------
# the constructions beyond p-groups, which no dispatch reaches yet


def _path_certificate(group, path, kind, joints=()):
    """The unchecked certificate a path gives: its labelling and the
    universal-vertex clique, as lambda_p_group assembles them."""
    graph = build_power_graph(group)
    return graph, LambdaCertificate(path_to_labelling(graph, path), power_graph_lower_bound(graph),
                                    "constructive", ConstructionInfo(kind, path, joints))


def test_the_coset_alternation_certifies_every_dihedral_group():
    # D_2m for m = 2..128, odd m included, which dihedral: refuses
    for m in range(2, 129):
        group = _two_generator_group(2 * m, -1, 0)
        graph, cert = _path_certificate(group, _coset_alternation(group), "coset-alternation")
        assert (cert.value, certificate_problems(graph, cert)) == (2 * m, []), m


@pytest.mark.parametrize("spec", [
    "product:cyclic:6,cyclic:6", "product:cyclic:10,cyclic:10", "product:cyclic:6,cyclic:12",
    "product:elemab:2,2,elemab:3,2", "product:cyclic:2,product:cyclic:6,cyclic:6",
    "product:elemab:3,2,elemab:5,2", "product:elemab:2,3,elemab:3,2",
    "product:heisenberg:3,elemab:2,2",
])
def test_the_descent_certifies_non_p_groups_with_two_classes_per_order(spec):
    # every element order d > 1 is the order of two or more cyclic
    # subgroups, so the descent is a complement path: λ = |G|, as the
    # exact search finds
    group = parse_group_spec(spec)
    sub = group.cyclic_subgroups()
    assert prime_power(group.order) is None
    assert all(len(ids) >= 2 for d, ids in sub.by_order.items() if d > 1)
    path, joints = _descent_path(group)
    graph, cert = _path_certificate(group, path, "class-interleaving-descent", joints)
    assert certificate_problems(graph, cert) == []
    assert cert.value == group.order == certify(group, "exact")[0].value


@pytest.mark.parametrize("spec", ["product:cyclic:2,cyclic:6", "product:cyclic:6,cyclic:7"])
def test_the_descent_fails_where_an_order_has_one_class_of_two_or_more(spec):
    # two members of one class are adjacent, and that class is a level alone
    group = parse_group_spec(spec)
    sub = group.cyclic_subgroups()
    assert any(len(ids) == 1 and len(sub.generators[ids[0]]) >= 2
               for d, ids in sub.by_order.items())
    path, joints = _descent_path(group)
    graph, cert = _path_certificate(group, path, "class-interleaving-descent", joints)
    assert certificate_problems(graph, cert) != []
