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
    Evidence,
    build_power_graph,
    catalogue,
    certificate_problems,
    check_lower_hook,
    exact_lambda,
    lambda_p_group,
    make_cyclic,
    make_quaternion,
    parse_group_spec,
    path_to_labelling,
    power_graph_lower_bound,
    prime_power,
    span,
    validate_labelling,
)
from pglambda.cli import main


def _p_groups(max_order: int):
    """The catalogue's (spec, group) pairs whose group is a p-group."""
    return [(spec, group) for spec, group in catalogue(max_order)
            if prime_power(group.order)]


def _formula_lambda(group) -> int:
    """The closed-form value: 2(|G|−1) cyclic, |G|+1 with a unique
    involution in a non-cyclic 2-group, |G| otherwise."""
    n = group.order
    if n == 1:
        return 0
    p, _ = prime_power(n)
    sub = group.cyclic_subgroups()
    if max(sub.by_order) == n:
        return 2 * (n - 1)
    if p == 2 and sub.class_number(2) == 1:
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
    # beyond the default cap: C48, and C2×C2×Cp at |G| + p − 4, its floor
    ("cyclic:48", 64),
    ("product:cyclic:2,product:cyclic:2,cyclic:13", 61),
    ("product:cyclic:2,product:cyclic:2,cyclic:31", 151),
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

    small = _p_groups(32)
    assert len(small) >= 20
    for spec, group in small:
        code = main(["lambda", spec, "--method", "both"])
        captured = capsys.readouterr()
        assert code == 0, f"{spec}: exit {code} ({captured.err.strip()})"
        doc = json.loads(captured.out)
        assert doc["lambda"] == _formula_lambda(group)

    larger = [(spec, group) for spec, group in _p_groups(81) if group.order > 32]
    assert {"dihedral:64", "semidihedral:64", "quaternion:64", "heisenberg:3",
            "product:cyclic:3,cyclic:9", "elemab:3,3"} <= (
        {spec for spec, _ in _p_groups(81)})
    for spec, group in larger:
        cert = lambda_p_group(group)
        assert cert.value == _formula_lambda(group), spec
        graph = build_power_graph(group)
        assert validate_labelling(graph, cert.witness) == [], spec
        assert span(cert.witness) == cert.value, spec

    assert time.perf_counter() - started < 60.0


# ---------------------------------------------------------------------------
# 3. a span-|G| labelling exists iff the reduced complement has a
#    Hamiltonian path


def test_span_equals_order_iff_complement_path_exists(s3_group, assert_complement_path):
    subjects = catalogue(32)
    subjects.append(("sym3-ingested", s3_group))
    names = [name for name, _ in subjects]
    assert "cyclic:6" in names and "cyclic:10" in names

    # λ = |G|: the exact witness converts to a complement path.  λ > |G|:
    # the evidence refutes every span below λ, |G| included, and any path
    # would convert to a span-|G| labelling, so there is none.
    found = 0
    for name, group in subjects:
        if group.order < 3:
            continue  # complement path degenerates below 3 vertices
        graph = build_power_graph(group)
        cert = exact_lambda(graph)
        assert cert.value >= group.order, name
        if cert.value == group.order:  # the non-identity vertices by label
            assert_complement_path(
                graph, sorted(range(1, group.order), key=cert.witness.__getitem__))
            found += 1
        else:
            assert certificate_problems(graph, cert) == [], name
            assert cert.evidence.bound > group.order, name
    assert found >= 10


# ---------------------------------------------------------------------------
# 4. class-number congruences


def test_class_number_congruences_hold_exactly():
    from pglambda import is_maximal_class

    checked = 0
    for spec, group in _p_groups(81):
        p, _ = prime_power(group.order)
        sub = group.cyclic_subgroups()
        exponent = max(sub.by_order)
        if group.order <= p or exponent == group.order:
            continue  # cyclic groups are outside the hypothesis
        if p == 2 and is_maximal_class(group):
            continue  # dihedral / quaternion / semidihedral are exempt
        assert sub.class_number(p) % p ** 2 == (1 + p) % p ** 2, spec
        e = 1
        while p ** (e + 1) <= exponent:
            e += 1
        for i in range(2, e + 1):
            assert sub.class_number(p ** i) % p == 0, (
                f"{spec}: class number of order p^{i}")
        checked += 1
    assert checked >= 8


# ---------------------------------------------------------------------------
# 5. class numbers of the three maximal-class 2-group families


def test_maximal_class_family_class_numbers():
    for e in range(2, 6):
        n = 2 ** (e + 1)
        dihedral = parse_group_spec(f"dihedral:{n}").cyclic_subgroups()
        assert dihedral.class_number(2) == 1 + 2 ** e

        quaternion = parse_group_spec(f"quaternion:{n}").cyclic_subgroups()
        assert quaternion.class_number(2) == 1
        assert quaternion.class_number(4) == 1 + 2 ** (e - 1)

        if e >= 3:  # the e=2 "semidihedral" relation degenerates to abelian
            semidihedral = parse_group_spec(f"semidihedral:{n}").cyclic_subgroups()
            assert semidihedral.class_number(2) == 1 + 2 ** (e - 1)
            assert semidihedral.class_number(4) == 1 + 2 ** (e - 2)


# ---------------------------------------------------------------------------
# 6. the lower-hook property and its non-p-group failure


def test_lower_hook_on_p_groups_and_the_order_6_counterexample():
    for spec, group in _p_groups(64):
        assert check_lower_hook(group) is None, spec

    group = make_cyclic(6)
    sub = group.cyclic_subgroups()
    u, v1, v2 = check_lower_hook(group)
    assert tuple(len(sub.elements[c]) for c in (u, v1, v2)) == (6, 2, 3)

    # order-2 and order-3 classes are non-adjacent, yet the order-6 class
    # hooks both from above
    graph = build_power_graph(group)
    for a, b, joined in ((v1, v2, False), (u, v1, True), (u, v2, True)):
        assert {graph.adjacent(x, y) for x in sub.generators[a]
                for y in sub.generators[b]} == {joined}


def test_lower_hook_holds_exactly_when_every_element_order_is_a_prime_power(
        s3_cayley_file, capsys):
    sym3 = f"file:{s3_cayley_file}"
    mixed = set()
    for spec, group in catalogue(81) + [(sym3, parse_group_spec(sym3))]:
        prime_powers = all(d == 1 or prime_power(d) for d in group.cyclic_subgroups().by_order)
        assert (check_lower_hook(group) is None) == prime_powers, spec
        if not prime_powers:
            mixed.add(spec)
    assert mixed == {"cyclic:6", "cyclic:10", "cyclic:12", "cyclic:15",
                     "product:cyclic:2,cyclic:6"}

    # S3 is no p-group, yet its element orders 1, 2 and 3 are prime powers
    code = main(["suite", "--max-order", "1", "--group", sym3])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [r["detail"] for r in doc["results"] if r["suite"] == "lower-hook"] == ["holds"]


# ---------------------------------------------------------------------------
# 7. path/labelling round trips on every constructive witness


def test_constructive_paths_round_trip_and_validate():
    seen_path_kinds = set()
    for spec, group in _p_groups(81):
        cert = lambda_p_group(group)
        if not cert.construction or not cert.construction.path:
            continue
        seen_path_kinds.add(cert.construction.kind)
        graph = build_power_graph(group)
        path = cert.construction.path

        labels = path_to_labelling(graph, path)
        assert cert.witness == labels, spec
        assert validate_labelling(graph, labels) == [], spec
        assert span(labels) == group.order + (cert.construction.kind == "restricted-complement-path"), spec
        # the quaternion path leaves out the universal involution, labelled last
        assert tuple(sorted(range(1, group.order), key=labels.__getitem__)[:len(path)]) == path, spec
    assert seen_path_kinds == {"coset-alternation", "restricted-complement-path",
                               "class-interleaving-descent"}


# ---------------------------------------------------------------------------
# 8. the order-8 quaternion impossibility


def test_q8_has_no_span_8_labelling_and_no_complement_path():
    started = time.perf_counter()
    graph = build_power_graph(make_quaternion(8))

    cert = exact_lambda(graph)
    assert cert.value == 9
    # span 8 refuted by the clique {1, x²} of universal vertices: 2·2 − 2
    # + 6 common neighbours + 1, re-derived by certificate_problems
    assert cert.evidence == Evidence("clique-deficiency", 9, vertices=(0, 2))
    assert certificate_problems(graph, cert) == []

    # x² is universal, so isolated in the reduced complement: no path
    assert power_graph_lower_bound(graph) == cert.evidence

    assert time.perf_counter() - started < 5.0
