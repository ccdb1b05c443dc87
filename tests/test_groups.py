"""Group construction, validation, and order machinery."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pglambda import (
    EvenPrimeError,
    NoIdentityError,
    NotAssociativeError,
    NotClosedError,
    NotLatinSquareError,
    NotPGroupError,
    ParameterTooSmallError,
    TooLargeError,
    format_cayley,
    is_maximal_class,
    lower_central_series,
    make_cyclic,
    make_dihedral,
    make_direct_product,
    make_elementary_abelian,
    make_heisenberg,
    make_quaternion,
    make_semidihedral,
    order_table,
    parse_cayley,
    prime_power,
    validate_group,
)


# ---------------------------------------------------------------------------
# element orders against independent arithmetic


@given(st.integers(min_value=1, max_value=120))
def test_cyclic_element_orders_match_gcd_formula(n):
    group = make_cyclic(n)
    for g in range(n):
        assert group.element_order(g) == n // math.gcd(n, g)


def test_power_matches_repeated_multiplication():
    group = make_dihedral(16)
    for g in range(group.order):
        acc = group.identity
        for k in range(20):
            assert group.power(g, k) == acc
            acc = group.compose(acc, g)


def test_inverses_cancel():
    for group in (make_quaternion(16), make_semidihedral(32), make_heisenberg(3)):
        for g in range(group.order):
            assert group.compose(g, group.inverse(g)) == group.identity
            assert group.compose(group.inverse(g), g) == group.identity


def test_order_table_exponent_and_prime():
    ot = order_table(make_semidihedral(16))
    assert ot.exponent == 8
    assert ot.p_group_prime == 2
    assert sorted(ot.orders) == [1, 2, 2, 2, 2, 2, 4, 4, 4, 4, 4, 4, 8, 8, 8, 8]

    assert order_table(make_cyclic(12)).p_group_prime is None
    assert order_table(make_cyclic(12)).exponent == 12


def test_prime_power_recognition():
    assert prime_power(1) is None
    assert prime_power(8) == (2, 3)
    assert prime_power(81) == (3, 4)
    assert prime_power(12) is None
    assert prime_power(97) == (97, 1)


# ---------------------------------------------------------------------------
# validation axioms, one failure mode each


def test_validate_rejects_out_of_range_cell():
    with pytest.raises(NotClosedError):
        validate_group([[0, 1], [1, 9]])


def test_validate_rejects_missing_identity():
    with pytest.raises(NoIdentityError):
        validate_group([[0, 0], [0, 0]])


def test_validate_rejects_broken_associativity():
    # C4's table with a single interior cell corrupted; rows/columns through
    # the identity stay intact, so associativity is the first axiom to fall
    table = [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 1, 1], [3, 0, 1, 2]]
    with pytest.raises(NotAssociativeError):
        validate_group(table)


def test_validate_rejects_non_latin_monoid():
    # ({0,1}, AND) is a perfectly associative monoid with identity 1
    with pytest.raises(NotLatinSquareError):
        validate_group([[0, 0], [0, 1]], identity=1)


def test_validate_accepts_trivial_group():
    group = validate_group([[0]])
    assert group.order == 1
    assert group.element_order(0) == 1


def test_validate_rejects_non_square():
    with pytest.raises(ValueError):
        validate_group([[0, 1]])


# ---------------------------------------------------------------------------
# family constructors


def test_dihedral_relations():
    group = make_dihedral(16)
    x, y = 1, 8
    m = 8
    assert group.element_order(x) == m
    assert group.compose(y, y) == group.identity
    conj = group.compose(group.compose(group.inverse(y), x), y)
    assert conj == group.power(x, m - 1)


def test_quaternion_relations_and_unique_involution():
    group = make_quaternion(16)
    x, y = 1, 8
    assert group.compose(y, y) == group.power(x, 4)  # y^2 = x^(m/2)
    conj = group.compose(group.compose(group.inverse(y), x), y)
    assert conj == group.power(x, 7)
    involutions = [g for g in range(16) if group.element_order(g) == 2]
    assert involutions == [4]  # x^(m/2) and nothing else


def test_semidihedral_relations():
    group = make_semidihedral(32)
    x, y = 1, 16
    m = 16
    conj = group.compose(group.compose(group.inverse(y), x), y)
    assert conj == group.power(x, m // 2 - 1)
    assert group.compose(y, y) == group.identity


def test_elementary_abelian_every_element_has_order_p():
    group = make_elementary_abelian(3, 3)
    assert group.order == 27
    assert all(group.element_order(g) == 3 for g in range(1, 27))


def test_heisenberg_is_nonabelian_of_exponent_p():
    group = make_heisenberg(3)
    assert group.order == 27
    assert order_table(group).exponent == 3
    assert any(group.compose(a, b) != group.compose(b, a)
               for a in range(27) for b in range(27))


def test_direct_product_orders_are_lcms():
    group = make_direct_product(make_cyclic(4), make_cyclic(6))
    assert group.order == 24
    orders = {group.element_order(g) for g in range(24)}
    assert orders == {1, 2, 3, 4, 6, 12}


@pytest.mark.parametrize("build, exc", [
    (lambda: make_cyclic(0), ParameterTooSmallError),
    (lambda: make_dihedral(6), ParameterTooSmallError),
    (lambda: make_dihedral(4), ParameterTooSmallError),
    (lambda: make_quaternion(12), ParameterTooSmallError),
    (lambda: make_semidihedral(8), ParameterTooSmallError),
    (lambda: make_heisenberg(2), EvenPrimeError),
    (lambda: make_heisenberg(6), ValueError),
    (lambda: make_cyclic(513), TooLargeError),
    (lambda: make_elementary_abelian(2, 10), TooLargeError),
])
def test_constructor_parameter_errors(build, exc):
    with pytest.raises(exc):
        build()


def test_size_cap_tracks_environment(monkeypatch):
    monkeypatch.setenv("LAMBDA_MAX_ORDER", "16")
    with pytest.raises(TooLargeError):
        make_cyclic(17)
    make_cyclic(16)  # at the cap is fine


# ---------------------------------------------------------------------------
# lower central series and maximal class


def test_lower_central_series_of_abelian_group_stops_immediately():
    series = lower_central_series(make_cyclic(8))
    assert [len(term) for term in series] == [8, 1]


def test_lower_central_series_of_dihedral_16():
    series = lower_central_series(make_dihedral(16))
    assert [len(term) for term in series] == [16, 4, 2, 1]


@pytest.mark.parametrize("build, expected", [
    (lambda: make_dihedral(16), True),
    (lambda: make_quaternion(16), True),
    (lambda: make_semidihedral(16), True),
    (lambda: make_dihedral(32), True),
    (lambda: make_heisenberg(3), True),       # class 2 = n−1 for order p³
    (lambda: make_elementary_abelian(2, 2), True),  # class 1 = n−1 for order p²
    (lambda: make_cyclic(8), False),
    (lambda: make_direct_product(make_cyclic(2), make_cyclic(8)), False),
    (lambda: make_elementary_abelian(2, 3), False),
])
def test_is_maximal_class(build, expected):
    assert is_maximal_class(build()) is expected


def test_is_maximal_class_rejects_non_p_groups():
    with pytest.raises(NotPGroupError):
        is_maximal_class(make_cyclic(6))


# ---------------------------------------------------------------------------
# Cayley text format


def test_cayley_round_trip_preserves_table_and_names():
    group = make_quaternion(8)
    text = format_cayley(group)
    back = parse_cayley(text)
    assert np.array_equal(back.mul, group.mul)
    assert back.names == group.names


def test_cayley_round_trip_via_ingested_group(s3_group):
    text = format_cayley(s3_group)
    back = parse_cayley(text)
    assert np.array_equal(back.mul, s3_group.mul)
    assert back.order == 6
    assert sorted(back.element_order(g) for g in range(6)) == [1, 2, 2, 2, 3, 3]


def test_cayley_format_starts_with_order_line():
    text = format_cayley(make_cyclic(3))
    assert text == "3\n0 1 2\n1 2 0\n2 0 1\nnames: 1,x,x^2\n"


def test_parse_cayley_skips_blanks_and_comments():
    text = "# a comment\n\n2\n0 1\n# interior comment\n1 0\n"
    group = parse_cayley(text)
    assert group.order == 2


@pytest.mark.parametrize("text", [
    "",                        # nothing at all
    "2\n0 1\n",                # missing row
    "2\n0 1\n1 0 0\n",         # ragged row
    "two\n0 1\n1 0\n",         # bad order line
    "2\n0 x\n1 0\n",           # non-integer cell
    "2\n0 1\n1 0\nnames: a\n",  # wrong number of names
])
def test_parse_cayley_rejects_malformed_input(text):
    with pytest.raises(ValueError):
        parse_cayley(text)


def test_parse_cayley_reports_broken_axioms_with_group_errors():
    with pytest.raises(NotAssociativeError):
        parse_cayley("4\n0 1 2 3\n1 2 3 0\n2 3 1 1\n3 0 1 2\n")
