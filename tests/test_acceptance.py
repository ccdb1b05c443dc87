"""End-to-end acceptance checks for the lambda pipeline.

Every test here states a user-visible guarantee: fixture values from the
exact oracle, constructive/oracle agreement across the catalogue,
span-path equivalence, class-number arithmetic, the lower-hook property,
round trips, and the order-8 quaternion impossibility — each with an
explicit wall-clock budget.
"""

from __future__ import annotations

import json
import time

import pytest

from pglambda import (
    build_catalogue_groups,
    build_power_graph,
    catalogue,
    check_lower_hook,
    classes_adjacent,
    cyclic_classes,
    exact_lambda,
    find_group_ham_path,
    labelling_to_path,
    lambda_p_group,
    make_cyclic,
    make_quaternion,
    order_table,
    path_to_labelling,
    validate_labelling,
)
from pglambda.cli import main, parse_group_spec


def _formula_lambda(group) -> int:
    """The closed-form value: 2(|G|−1) cyclic, |G|+1 with a unique
    involution in a non-cyclic 2-group, |G| otherwise."""
    n = group.order
    if n == 1:
        return 0
    ot = order_table(group)
    assert ot.p_group_prime is not None
    if ot.exponent == n:
        return 2 * (n - 1)
    if ot.p_group_prime == 2 and cyclic_classes(group).class_number(2) == 1:
        return n + 1
    return n


# ---------------------------------------------------------------------------
# 1. fixture values from the exact oracle


FIXTURES = [
    ("cyclic:4", 6),
    ("cyclic:8", 14),
    ("cyclic:9", 16),
    ("quaternion:8", 9),
    ("quaternion:16", 17),
    ("dihedral:8", 8),
    ("dihedral:16", 16),
    ("semidihedral:16", 16),
    ("elemab:2,2", 4),
    ("product:cyclic:2,cyclic:4", 8),
    ("elemab:3,2", 9),
]


@pytest.mark.parametrize("spec,expected", FIXTURES)
def test_exact_lambda_fixtures(spec, expected):
    group = parse_group_spec(spec)
    started = time.perf_counter()
    cert = exact_lambda(build_power_graph(group))
    elapsed = time.perf_counter() - started
    assert cert.value == expected
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 2. constructive certificates agree with the oracle


def test_constructive_matches_oracle_across_the_catalogue(capsys):
    started = time.perf_counter()

    small = [e for e in catalogue(32, p_groups_only=True)]
    assert len(small) >= 20
    for entry in small:
        code = main(["lambda", entry.name, "--method", "both"])
        captured = capsys.readouterr()
        assert code == 0, f"{entry.name}: exit {code} ({captured.err.strip()})"
        doc = json.loads(captured.out)
        assert doc["lambda"] == _formula_lambda(entry.build())

    larger = [e for e in catalogue(81, p_groups_only=True) if e.order > 32]
    names = {e.name for e in larger}
    assert {"dihedral:64", "semidihedral:64", "quaternion:64", "heisenberg:3",
            "product:cyclic:3,cyclic:9", "elemab:3,3"} <= (
        {e.name for e in catalogue(81, p_groups_only=True)})
    for entry in larger:
        group = entry.build()
        cert = lambda_p_group(group)
        assert cert.value == _formula_lambda(group), entry.name
        graph = build_power_graph(group)
        assert validate_labelling(graph, cert.witness) == [], entry.name
        assert cert.witness.span == cert.value, entry.name

    assert time.perf_counter() - started < 60.0


# ---------------------------------------------------------------------------
# 3. a span-|G| labelling exists iff the reduced complement has a
#    Hamiltonian path


def test_span_equals_order_iff_complement_path_exists(s3_group):
    subjects = [(e.name, e.build()) for e in catalogue(32)]
    subjects.append(("sym3-ingested", s3_group))
    names = [name for name, _ in subjects]
    assert "cyclic:6" in names and "cyclic:10" in names

    for name, group in subjects:
        if group.order < 3:
            continue  # complement path degenerates below 3 vertices
        graph = build_power_graph(group)
        path = find_group_ham_path(graph)
        value = exact_lambda(graph).value
        assert (path is not None) == (value == group.order), (
            f"{name}: path {'found' if path else 'absent'} "
            f"but lambda {value} vs order {group.order}")


# ---------------------------------------------------------------------------
# 4. class-number congruences


def test_class_number_congruences_hold_exactly():
    from pglambda import is_maximal_class

    checked = 0
    for entry in catalogue(81, p_groups_only=True):
        group = entry.build()
        ot = order_table(group)
        p = ot.p_group_prime
        if group.order <= p or ot.exponent == group.order:
            continue  # cyclic groups are outside the hypothesis
        if p == 2 and is_maximal_class(group):
            continue  # dihedral / quaternion / semidihedral are exempt
        partition = cyclic_classes(group)
        assert partition.class_number(p) % p ** 2 == (1 + p) % p ** 2, entry.name
        e = 1
        while p ** (e + 1) <= ot.exponent:
            e += 1
        for i in range(2, e + 1):
            assert partition.class_number(p ** i) % p == 0, (
                f"{entry.name}: class number of order p^{i}")
        checked += 1
    assert checked >= 8


# ---------------------------------------------------------------------------
# 5. class numbers of the three maximal-class 2-group families


def test_maximal_class_family_class_numbers():
    for e in range(2, 6):
        n = 2 ** (e + 1)
        dihedral = cyclic_classes(parse_group_spec(f"dihedral:{n}"))
        assert dihedral.class_number(2) == 1 + 2 ** e

        quaternion = cyclic_classes(parse_group_spec(f"quaternion:{n}"))
        assert quaternion.class_number(2) == 1
        assert quaternion.class_number(4) == 1 + 2 ** (e - 1)

        if e >= 3:  # the e=2 "semidihedral" relation degenerates to abelian
            semidihedral = cyclic_classes(parse_group_spec(f"semidihedral:{n}"))
            assert semidihedral.class_number(2) == 1 + 2 ** (e - 1)
            assert semidihedral.class_number(4) == 1 + 2 ** (e - 2)


# ---------------------------------------------------------------------------
# 6. the lower-hook property and its non-p-group failure


def test_lower_hook_on_p_groups_and_the_order_6_counterexample():
    for entry in catalogue(64, p_groups_only=True):
        report = check_lower_hook(entry.build())
        assert report.is_p_group and report.holds, entry.name

    group = make_cyclic(6)
    report = check_lower_hook(group)
    assert not report.is_p_group
    assert not report.holds
    u, v1, v2 = report.counterexample
    assert (u.order, v1.order, v2.order) == (6, 2, 3)

    # order-2 and order-3 classes are non-adjacent, yet the order-6 class
    # hooks both from above
    graph = build_power_graph(group)
    partition = cyclic_classes(group)
    assert not classes_adjacent(partition, v1, v2, graph)
    assert classes_adjacent(partition, u, v1, graph)
    assert classes_adjacent(partition, u, v2, graph)
    for a, b, joined in ((v1, v2, False), (u, v1, True), (u, v2, True)):
        assert {graph.adjacent(x, y) for x in a.members for y in b.members} == {joined}


# ---------------------------------------------------------------------------
# 7. path/labelling round trips on every constructive witness


def test_constructive_paths_round_trip_and_validate():
    seen_path_kinds = set()
    for entry in catalogue(81, p_groups_only=True):
        group = entry.build()
        cert = lambda_p_group(group)
        if not cert.construction or not cert.construction.path:
            continue
        if cert.value != group.order:
            continue  # the quaternion witness parks one vertex off the path
        seen_path_kinds.add(cert.construction.kind)
        graph = build_power_graph(group)
        path = cert.construction.path

        labels = path_to_labelling(graph, path)
        assert validate_labelling(graph, labels) == [], entry.name
        assert labels.span == group.order, entry.name
        assert labelling_to_path(graph, labels).vertices == tuple(path), entry.name
    assert seen_path_kinds >= {"involution-alternation", "seed-alternation",
                               "class-interleaving-descent"}


# ---------------------------------------------------------------------------
# 8. the order-8 quaternion impossibility


def test_q8_has_no_span_8_labelling_and_no_complement_path():
    started = time.perf_counter()
    graph = build_power_graph(make_quaternion(8))

    cert = exact_lambda(graph)
    assert cert.value == 9
    assert cert.evidence.kind == "exhaustive-search-at-span"
    assert cert.evidence.span == 8  # span 8 exhaustively refuted

    assert find_group_ham_path(graph) is None

    assert time.perf_counter() - started < 5.0
