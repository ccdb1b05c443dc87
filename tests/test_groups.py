"""Group construction, validation, and order machinery."""

from __future__ import annotations

import hashlib
import math
import re
import subprocess
import sys
import textwrap
from operator import itemgetter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import pglambda.groups as groups_module
from pglambda import (
    FiniteGroup,
    GroupValidationError,
    TooLargeError,
    build_power_graph,
    catalogue,
    certify,
    exact_lambda,
    format_cayley,
    is_maximal_class,
    make_cyclic,
    make_dihedral,
    make_direct_product,
    make_elementary_abelian,
    make_heisenberg,
    make_quaternion,
    make_semidihedral,
    parse_cayley,
    parse_group_spec,
    prime_power,
    recognize_family,
    validate_group,
)

_SRC = Path(__file__).resolve().parents[1] / "src"


# ---------------------------------------------------------------------------
# element orders against independent arithmetic


@given(st.integers(min_value=1, max_value=120))
def test_cyclic_element_orders_match_gcd_formula(n):
    group = make_cyclic(n)
    for g in range(n):
        assert group.cyclic_subgroups().orders[g] == n // math.gcd(n, g)


# sha256 of format_cayley and of the newline-joined element names, captured
# from the array-based constructors that preceded the tuple tables; those of
# elemab:3,5 and elemab:5,3 from the digit-by-digit product that preceded
# the direct power of C_p
TABLE_DIGESTS = [
    ("cyclic:1", "0d807166fc72faa019e0f69b9b72ece72ada2463e1485dc869814ff4f59a063b", "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b"),
    ("cyclic:12", "7851b23909dcd6b0b3710a570675e1b20a744318b994e7d69409a42aeb72571b", "3e780495e40015f3e0f941f290d30daaac8f04f64b7a0484c02eaa2d50b2d85c"),
    ("cyclic:512", "be523e93749bb1053a9aecf20b1ab259965dc8ef5eba9735c7d315481b36828f", "eb5711000ed36fa44f66a92aec8be6fe715a8d5916c8bbe5ec660cbb6250568b"),
    ("dihedral:8", "42579aa952e1cd8ed9540af908118f0e468bd72d23fd418187c0127704ce66e2", "37a58448af98024e839bd468cf10d35da28560e80827b79c529323ec5c41ef6d"),
    ("dihedral:32", "4e4e9ecca4a32f2e3a2d4ba6efc3f28f89c90aee15874ec914feb95e444c4b5d", "3c24669d4c439cca974a2ba9504b2cd99269fea0e3a71b8f25517f3436315828"),
    ("dihedral:512", "5477dcaf17688e0aadaad11e8a005441fbb95ea88f2dc2ece3f92cc28ed49f8f", "99b9e0b2b2e15520804e313fed9d1d7628d82cbd1e5bc33c4c9970c728e80e8c"),
    ("quaternion:8", "91c87489f0ff0d7c1823f2149cde266d5b4d3281c8694c0e6cd816fd7ce5c39b", "37a58448af98024e839bd468cf10d35da28560e80827b79c529323ec5c41ef6d"),
    ("quaternion:32", "f110411c498f6e670b8ca7d38aa66a3893584d59e981d37638d4420ad9be8e01", "3c24669d4c439cca974a2ba9504b2cd99269fea0e3a71b8f25517f3436315828"),
    ("quaternion:512", "26c95e4ba82f2e99c0d5cf8de08c7f8c761c48a058785c7e435a0fe41bf9e5ed", "99b9e0b2b2e15520804e313fed9d1d7628d82cbd1e5bc33c4c9970c728e80e8c"),
    ("semidihedral:16", "c65da5b61831b229ed5d93e904e97ec52facd441b29d0affe5f03b90195ceb6c", "ebd8e29f096cf467b5ef64a7522459e9c532ce8fff91217a79c51daa1a0a52b1"),
    ("semidihedral:32", "3cddba156702aa6f2d05ef304350570cab4da96b9aa44e847c1ad264549efb6f", "3c24669d4c439cca974a2ba9504b2cd99269fea0e3a71b8f25517f3436315828"),
    ("semidihedral:64", "1b4b949cfa2d9ee4f325096a28003dc4b7f93963d07dca8e17e065b03e1e1757", "fe8dd2237093ce20d2467830f70b764b0adb288cd0ca923440358e6704034766"),
    ("semidihedral:512", "45f886f7c18c6b3120728bbc22faa731706444c6c6c884ec03e166252c3d3f59", "99b9e0b2b2e15520804e313fed9d1d7628d82cbd1e5bc33c4c9970c728e80e8c"),
    ("elemab:2,3", "de87ecec3d079676c6a10245f1ddea18f1819e98d29561a4d3f36b2405688a9d", "67d6bca7770210765c83cb2abbec451cea3186e8489a5bd8278cb3a3abf318bc"),
    ("elemab:3,2", "4f2f2b147201fd203ad27e4a7f98fd2f7fad766e137593589a916ba19e56e1b8", "0a6dcd2177544287e8c8bd5fd7b7478e5c56d0cf9173e9e50aa1e4814116ca49"),
    ("elemab:5,1", "9990524b3e81baf44349c945a401a4034bfd077b732742b7bf8cce7f3702bfdb", "577e9ad0f30ecb1a977ddcec67f8898507158ce2af86a79d181e0dd2f690daff"),
    ("elemab:2,9", "a5171e4088366e93c335bde07a53747b86c1b196f8c62155b7eaa3201693507d", "1b10afa686e71da0015b90c2da279610fb2ee7a41a287a9764fe39c2116c28dc"),
    ("elemab:7,3", "c04e7932f0508a092cc78e11aee318a023bc2b9fd773e543bf42e61dd468c2b1", "ea6210528044ba0615a703d853f8b4e945f65fa72f350b84201446f0d2260810"),
    ("elemab:3,3", "952d71fd377f8b71a6b3806243d8eb2cd3907212e0b87f310fdf1825abe138dc", "99240fcaaca319e5378193693f52428e5b5012de0469c651e5bf6c8ea5dfb1c4"),
    ("elemab:2,4", "a9133db0956b569a8efbd4390b7fd4d0d0f2daf369ad70a21e9cf6242d8b59ed", "a70081fed2112e85688a4005d2474854eda1225a0b76e010181d1e6c68478fd1"),
    ("elemab:3,5", "5f6341b2bdd7a57c490cddb454edac03eed70b5304198e3b22a91ad2401a5153", "cb3b8de5988e65ed0fc9f66be0bc43754605ea64c1fd5c0a79c6f8a5233c4b2f"),
    ("elemab:5,3", "f651bf436a5cb76ed031bd07770e70403d79b738513a9e225832c47135796380", "153bd60ead13032782afe443616e1645a44ac239b8c1d1a892ef96712d6e9125"),
    ("heisenberg:3", "0261a80f916a387feac2bf169a39c4d0a460b17212bcc0bd8367413cdb25c8b3", "99240fcaaca319e5378193693f52428e5b5012de0469c651e5bf6c8ea5dfb1c4"),
    ("heisenberg:5", "1936ad7d4036e6b3153a9fb4c9013e001c89878d0d3f3946160645f454c28f9d", "153bd60ead13032782afe443616e1645a44ac239b8c1d1a892ef96712d6e9125"),
    ("heisenberg:7", "162dcb00ab47d24f8a6b57d060e6aa1ada1a051074ae049eb36ceb3643929428", "ea6210528044ba0615a703d853f8b4e945f65fa72f350b84201446f0d2260810"),
    ("product:cyclic:2,cyclic:8", "6f842887cf2cfe7b621382bb3ad4a4e4d222ab0c44de7ffa769d342a8cf85a60", "0f74484e5a246a5e80493e568aa94512d78b8ec091308cbb9c777f5d2c0a7f63"),
    ("product:cyclic:3,dihedral:8", "6226826b1bebecf8dea4331671fc721e0a3725a703795c9d5280caecf9a631a6", "15931cb9e4055dbc105275b7b15ffa2679da25b5aa9bbc2ad221afc32658dc20"),
    ("product:quaternion:8,cyclic:3", "af485bdf5def3639c20444d426217b2f5800699cc113be116f10396b7a951928", "9158f8eee85a87a97458da64e03ce234874538581b2d5f8ef0ecbc20685a4c79"),
    ("product:cyclic:2,dihedral:256", "82d1305338805dd9a6f1570bb7f5d71e4e6a317141bc0b0654d9b442eb35b1a3", "8eb87ed64c4a43319ff1866d34060b214a318220a061ea9968997e33eb53cab7"),
    ("product:heisenberg:3,cyclic:9", "15dbb141ace4a8c52def8c672209033a89e5c0e09170d22d5c2619be4ebda750", "24069b39d7b6e1dcb6e83756c52452f1246c636a4f8bdf8e251e69a75cf5b41e"),
    ("product:dihedral:8,cyclic:3", "16936939988921cc4ae10750da2efde040ebab5ae646912b231d57f62e3cc340", "9158f8eee85a87a97458da64e03ce234874538581b2d5f8ef0ecbc20685a4c79"),
]


@pytest.mark.parametrize("spec,table_digest,names_digest", TABLE_DIGESTS,
                         ids=[spec for spec, _, _ in TABLE_DIGESTS])
def test_constructor_tables_are_pinned(spec, table_digest, names_digest):
    group = parse_group_spec(spec)
    assert hashlib.sha256(format_cayley(group).encode()).hexdigest() == table_digest
    assert hashlib.sha256("\n".join(group.names).encode()).hexdigest() == names_digest


def _family_specs(limit):
    """Every built-in family group of order ≤ limit, and products of two."""
    specs = [f"cyclic:{n}" for n in range(1, limit + 1)]
    specs += [f"{family}:{2 ** e}" for e in range(3, limit.bit_length())
              for family in ("dihedral", "quaternion", "semidihedral")
              if family != "semidihedral" or e >= 4]
    specs += [f"elemab:{p},{k}" for p in (2, 3, 5, 7, 11) for k in range(1, 8) if p ** k <= limit]
    specs += [f"heisenberg:{p}" for p in (3, 5) if p ** 3 <= limit]
    factors = ["cyclic:2", "cyclic:3", "dihedral:8", "quaternion:16", "semidihedral:16",
               "elemab:3,2", "elemab:2,3", "heisenberg:3", "product:cyclic:2,cyclic:4"]
    specs += [f"product:{a},{b}" for a in factors for b in factors
              if parse_group_spec(a).order * parse_group_spec(b).order <= limit]
    return specs


def _table(group):
    """The Cayley table, rows as tuples, written out from the group's product."""
    n = group.order
    return tuple(tuple(group.product(a, b) for b in range(n)) for a in range(n))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_family_specs(128)))
def test_family_products_make_a_group_table(spec):
    # the product is a formula, and the table written out from it is a group's
    group = parse_group_spec(spec)
    table = _table(group)
    assert _table(validate_group(table)) == table


def _power(group, g, k):
    """g**k by k repeated multiplications, independent of the group's records."""
    acc = group.identity
    for _ in range(k):
        acc = group.product(acc, g)
    return acc


def _inverse(group, g):
    """g⁻¹ by search over the product, independent of the group's records."""
    return next(h for h in range(group.order) if group.product(g, h) == group.identity)


def test_element_orders_and_exponent_from_the_cyclic_subgroups():
    sub = make_semidihedral(16).cyclic_subgroups()
    assert sub.exponent() == 8
    assert sorted(sub.orders) == [1, 2, 2, 2, 2, 2, 4, 4, 4, 4, 4, 4, 8, 8, 8, 8]
    assert make_cyclic(12).cyclic_subgroups().exponent() == 12
    assert repr(make_cyclic(8)) == "FiniteGroup(order=8)"


def _cyclic_subgroups_by_multiplication(group) -> dict[int, set[frozenset[int]]]:
    """{d: the distinct ⟨g⟩ of order d}, each ⟨g⟩ walked on the table."""
    found: dict[int, set[frozenset[int]]] = {}
    for g in range(group.order):
        powers, acc = {group.identity}, g
        while acc != group.identity:
            powers.add(acc)
            acc = group.product(acc, g)
        found.setdefault(len(powers), set()).add(frozenset(powers))
    return found


def test_the_cyclic_subgroup_record_across_the_catalogue():
    scrambled = (_SRC.parent / "tests" / "data" / "semidihedral16-scrambled.txt")
    groups = [group for _, group in catalogue(81)]
    groups.append(parse_cayley(scrambled.read_text(encoding="utf-8")))
    for group in groups:
        n = group.order
        sub = group.cyclic_subgroups()
        # class order: ascending order, then least generator
        keys = [(len(elements), members[0])
                for elements, members in zip(sub.elements, sub.generators)]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        # the generators partition G, each class inside its subgroup, whose
        # elements are the powers of its least generator
        assert sorted(h for members in sub.generators for h in members) == list(range(n))
        for elements, members in zip(sub.elements, sub.generators):
            assert list(members) == sorted(members)
            assert elements == (0,) or elements[:2] == (0, members[0])
            assert all(sub.orders[h] == len(elements) and h in elements for h in members)
        assert list(sub.by_order) == sorted(sub.by_order)
        assert [i for ids in sub.by_order.values() for i in ids] == list(range(len(keys)))
        expected = _cyclic_subgroups_by_multiplication(group)
        assert {frozenset(e) for e in sub.elements} == set().union(*expected.values())
        for d in range(1, n + 1):
            assert sub.class_number(d) == len(expected.get(d, ())), (group, d)


def test_prime_power_recognition():
    assert prime_power(1) is None
    assert prime_power(8) == (2, 3)
    assert prime_power(81) == (3, 4)
    assert prime_power(12) is None
    assert prime_power(97) == (97, 1)


# ---------------------------------------------------------------------------
# validation axioms, one failure mode each


def test_validate_rejects_out_of_range_cell():
    with pytest.raises(GroupValidationError, match=r"cell \(1, 1\) holds 9, outside 0\.\.1"):
        validate_group([[0, 1], [1, 9]])


def test_validate_rejects_missing_identity():
    with pytest.raises(GroupValidationError,
                       match="element 0 does not act as identity on element 1"):
        validate_group([[0, 0], [0, 0]])


def test_validate_rejects_broken_associativity():
    # C4's table with a single interior cell corrupted; rows/columns through
    # the identity stay intact, so associativity is the first axiom to fall
    table = [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 1, 1], [3, 0, 1, 2]]
    with pytest.raises(GroupValidationError, match=re.escape("(a·b)·c != a·(b·c)")):
        validate_group(table)


def test_validate_rejects_non_latin_monoid():
    # ({0,1}, OR) is a perfectly associative monoid with identity 0
    with pytest.raises(GroupValidationError, match="row 1 is not a permutation"):
        validate_group([[0, 1], [1, 1]])


def test_validate_rejects_a_swapped_intercalate_at_order_512():
    # In C2^9 (index XOR), rows {1, 5} and columns {2, 6} form a 2×2 Latin
    # subsquare.  Swapping its two symbols keeps a Latin square with
    # identity 0, so only associativity can fail.
    table = [list(row) for row in _table(make_elementary_abelian(2, 9))]
    for a, c in ((1, 2), (1, 6), (5, 2), (5, 6)):
        table[a][c] ^= 4
    with pytest.raises(GroupValidationError, match=re.escape("(a·b)·c != a·(b·c)")):
        validate_group(table)


def test_validate_decides_a_left_zero_band_with_identity():
    # x·y = x off the identity: associative but not Latin, and no generating
    # set is smaller than n − 1, the worst case for the associativity test
    n = 64
    table = [list(range(n))] + [[x] * n for x in range(1, n)]
    with pytest.raises(GroupValidationError, match="row 1 is not a permutation"):
        validate_group(table)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(catalogue(64)), st.randoms(use_true_random=False))
def test_scrambled_catalogue_tables_keep_invariants_and_mutations_fail(subject, rnd):
    _, group = subject
    n = group.order
    sigma = [0, *rnd.sample(range(1, n), n - 1)]  # the identity stays at 0
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[sigma[a]][sigma[b]] = sigma[group.product(a, b)]
    scrambled = validate_group(table)

    def invariants(g):
        graph = build_power_graph(g)
        sub = g.cyclic_subgroups()
        classes = [sub.class_number(d) for d in sub.by_order]
        if prime_power(group.order):
            return recognize_family(g), classes, certify(g, "constructive")[0].value
        return None, classes, exact_lambda(graph).value

    assert invariants(scrambled) == invariants(group)

    a, b = rnd.randrange(n), rnd.randrange(n)
    table[a][b] = rnd.choice([v for v in range(-1, n + 1) if v != table[a][b]])
    with pytest.raises(GroupValidationError):
        validate_group(table)


def test_validate_accepts_trivial_group():
    group = validate_group([[0]])
    assert group.order == 1
    assert group.cyclic_subgroups().orders == (1,)


def test_validate_rejects_non_square():
    with pytest.raises(ValueError):
        validate_group([[0, 1]])


@pytest.mark.parametrize("table,cell", [
    ([[0, 1.9], [1.2, 0]], "cell (0, 1) holds 1.9"),
    ([[0, 1], [1, "0"]], "cell (1, 1) holds '0'"),
    ([[0, 1.0], [1, 0]], "cell (0, 1) holds 1.0"),
], ids=["fractions", "string", "integral-float"])
def test_validate_rejects_cells_that_are_not_integers(table, cell):
    # a cell is read with operator.index, never truncated by int()
    with pytest.raises(ValueError, match=re.escape(cell) + ", not an integer"):
        validate_group(table)


def test_validate_reads_integer_like_cells():
    assert validate_group([[0, True], [True, False]]).order == 2


# ---------------------------------------------------------------------------
# family constructors


def test_dihedral_relations():
    group = make_dihedral(16)
    x, y = 1, 8
    m = 8
    assert group.cyclic_subgroups().orders[x] == m
    assert group.product(y, y) == group.identity
    conj = group.product(group.product(_inverse(group, y), x), y)
    assert conj == _power(group, x, m - 1)


def test_quaternion_relations_and_unique_involution():
    group = make_quaternion(16)
    x, y = 1, 8
    assert group.product(y, y) == _power(group, x, 4)  # y^2 = x^(m/2)
    conj = group.product(group.product(_inverse(group, y), x), y)
    assert conj == _power(group, x, 7)
    involutions = [g for g in range(16) if group.cyclic_subgroups().orders[g] == 2]
    assert involutions == [4]  # x^(m/2) and nothing else


def test_semidihedral_relations():
    group = make_semidihedral(32)
    x, y = 1, 16
    m = 16
    conj = group.product(group.product(_inverse(group, y), x), y)
    assert conj == _power(group, x, m // 2 - 1)
    assert group.product(y, y) == group.identity


def test_elementary_abelian_every_element_has_order_p():
    group = make_elementary_abelian(3, 3)
    assert group.order == 27
    assert group.cyclic_subgroups().orders[1:] == (3,) * 26


def test_heisenberg_is_nonabelian_of_exponent_p():
    group = make_heisenberg(3)
    assert group.order == 27
    assert max(group.cyclic_subgroups().by_order) == 3
    assert any(group.product(a, b) != group.product(b, a)
               for a in range(27) for b in range(27))


def test_direct_product_orders_are_lcms():
    group = make_direct_product(make_cyclic(4), make_cyclic(6))
    assert group.order == 24
    orders = set(group.cyclic_subgroups().orders)
    assert orders == {1, 2, 3, 4, 6, 12}


@pytest.mark.parametrize("build, exc, message", [
    (lambda: make_cyclic(0), ValueError, "cyclic group needs n >= 1, got 0"),
    (lambda: make_dihedral(6), ValueError, "dihedral order .* >= 8, got 6"),
    (lambda: make_dihedral(4), ValueError, "dihedral order .* >= 8, got 4"),
    (lambda: make_quaternion(12), ValueError, "quaternion order .* >= 8, got 12"),
    (lambda: make_semidihedral(8), ValueError, "semidihedral order .* >= 16, got 8"),
    (lambda: make_heisenberg(2), ValueError, "needs an odd prime; p=2 was given"),
    (lambda: make_heisenberg(6), ValueError, "p must be an odd prime, got 6"),
    (lambda: make_cyclic(513), TooLargeError, "exceeds the cap"),
    (lambda: make_elementary_abelian(2, 10), TooLargeError, "exceeds the cap"),
    (lambda: make_elementary_abelian(2, 0), ValueError, "k must be >= 1, got 0"),
    (lambda: validate_group([]), ValueError, "must have at least one element"),
    (lambda: parse_cayley("2\n0 1\n1 0\nnames: e\n"), ValueError,
     "expected 2 element names, got 1"),
], ids=[  # the case ids from when each input error had its own class
    "<lambda>-ParameterTooSmallError0",
    "<lambda>-ParameterTooSmallError1",
    "<lambda>-ParameterTooSmallError2",
    "<lambda>-ParameterTooSmallError3",
    "<lambda>-ParameterTooSmallError4",
    "<lambda>-EvenPrimeError",
    "<lambda>-ValueError",
    "<lambda>-TooLargeError0",
    "<lambda>-TooLargeError1",
    "elemab-rank-0",
    "validate-empty-table",
    "validate-name-count",
])
def test_constructor_parameter_errors(build, exc, message):
    with pytest.raises(exc, match=message):
        build()


def test_size_cap_tracks_environment(monkeypatch):
    monkeypatch.setenv("LAMBDA_MAX_ORDER", "16")
    with pytest.raises(TooLargeError):
        make_cyclic(17)
    make_cyclic(16)  # at the cap is fine


def test_a_direct_product_checks_its_own_order_against_the_cap(monkeypatch):
    monkeypatch.setenv("LAMBDA_MAX_ORDER", "16")
    with pytest.raises(TooLargeError, match=r"^product of order 32 exceeds the cap 16 "):
        make_direct_product(make_cyclic(8), make_cyclic(4))
    assert make_direct_product(make_cyclic(8), make_cyclic(2)).order == 16


def test_parse_cayley_refuses_an_order_above_the_cap_before_reading_rows(monkeypatch):
    monkeypatch.setenv("LAMBDA_MAX_ORDER", "16")
    with pytest.raises(TooLargeError):
        parse_cayley("17\nthese rows are never parsed\n")
    with pytest.raises(ValueError, match="expected 16 table rows"):
        parse_cayley("16\n")  # at the cap the rows are read as usual


# ---------------------------------------------------------------------------
# lower central series and maximal class


def test_lower_central_series_of_abelian_group_stops_immediately():
    series = groups_module._lower_central_series(make_cyclic(8))
    assert [len(term) for term in series] == [8, 1]


def test_lower_central_series_of_dihedral_16():
    series = groups_module._lower_central_series(make_dihedral(16))
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
    with pytest.raises(ValueError, match="order 6 is not a prime power"):
        is_maximal_class(make_cyclic(6))


# ---------------------------------------------------------------------------
# Cayley text format


def test_cayley_round_trip_preserves_table_and_names():
    group = make_quaternion(8)
    text = format_cayley(group)
    back = parse_cayley(text)
    assert _table(back) == _table(group)
    assert back.names == group.names


def test_cayley_round_trip_via_ingested_group(s3_group):
    text = format_cayley(s3_group)
    back = parse_cayley(text)
    assert _table(back) == _table(s3_group)
    assert back.order == 6
    assert sorted(back.cyclic_subgroups().orders) == [1, 2, 2, 2, 3, 3]


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
    with pytest.raises(GroupValidationError, match=re.escape("(a·b)·c != a·(b·c)")):
        parse_cayley("4\n0 1 2 3\n1 2 3 0\n2 3 1 1\n3 0 1 2\n")


@pytest.mark.parametrize("names,message", [
    ("a,a,b,c", "element 1 has an empty or repeated name 'a'"),
    ("a,b,c,b", "element 3 has an empty or repeated name 'b'"),
    ("a,,b,c", "element 1 has an empty or repeated name ''"),
    ("a,b,c,", "element 3 has an empty or repeated name ''"),
])
def test_parse_cayley_rejects_repeated_and_empty_names(names, message):
    # a repeated name would leave all but one of its elements unnameable
    # in a labelling CSV
    with pytest.raises(ValueError, match=re.escape(message)) as info:
        parse_cayley(f"4\n0 1 2 3\n1 2 3 0\n2 3 0 1\n3 0 1 2\nnames: {names}\n")
    assert type(info.value) is ValueError


# The references for the differential tests: the validator before cells
# were shared ints and the Latin property was read off the units, and a
# parser that looks each cell up among "0".."n-1" one token at a time.
def _reference_validate_group(mul, *, names=None):
    table = tuple(tuple(map(int, row)) for row in mul)
    n = len(table)
    if any(len(row) != n for row in table):
        raise ValueError(f"multiplication table must be square, got {n} rows "
                         f"of lengths {sorted({len(row) for row in table})}")
    if n == 0:
        raise ValueError("multiplication table must have at least one element")
    for g, row in enumerate(table):
        if min(row) < 0 or max(row) >= n:
            h = next(h for h, v in enumerate(row) if not 0 <= v < n)
            raise GroupValidationError(f"cell ({g}, {h}) holds {row[h]}, outside 0..{n - 1}")
    idx = tuple(range(n))
    for line in (table[0], tuple(row[0] for row in table)):
        if line != idx:
            g = next(g for g in idx if line[g] != g)
            raise GroupValidationError(f"element 0 does not act as identity on element {g}")
    for g in groups_module._greedy_generators(n, lambda a, b: table[a][b]):
        lhs = list(map(table.__getitem__, (row[g] for row in table)))
        rhs = list(map(itemgetter(*table[g]), table))
        if lhs != rhs:
            a = next(a for a in idx if lhs[a] != rhs[a])
            c = next(c for c in idx if lhs[a][c] != rhs[a][c])
            raise GroupValidationError(
                f"(a·b)·c != a·(b·c) for (a, b, c) = ({a}, {g}, {c})")
    for g, row in enumerate(table):
        if len(set(row)) != n:
            raise GroupValidationError(f"row {g} is not a permutation of 0..{n - 1}")
    for h, column in enumerate(zip(*table)):
        if len(set(column)) != n:
            raise GroupValidationError(f"column {h} is not a permutation of 0..{n - 1}")
    if names is not None and len(names) != n:
        raise ValueError(f"expected {n} element names, got {len(names)}")
    return FiniteGroup(n, lambda a, b: table[a][b], names)


def _reference_parse_cayley(text):
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty Cayley-table input")
    n = groups_module._digits_int(lines[0], "the element count")
    groups_module._check_cap(n, "Cayley table")
    rows = lines[1:]
    names = None
    if rows and rows[-1].startswith("names:"):
        names = [piece.strip() for piece in rows[-1][len("names:"):].split(",")]
        rows = rows[:-1]
    if len(rows) != n:
        raise ValueError(f"expected {n} table rows, got {len(rows)}")
    spellings = [str(v) for v in range(n)]
    table = []
    for g, row in enumerate(rows):
        entries = []
        for h, tok in enumerate(row.split()):
            if tok not in spellings:
                raise ValueError(f"cell ({g}, {h}) holds {tok!r}, not one of 0..{n - 1}")
            entries.append(spellings.index(tok))
        if len(entries) != n:
            raise ValueError(f"table row {g} has {len(entries)} entries, expected {n}")
        table.append(entries)
    if names is not None and len(names) != n:
        raise ValueError(f"expected {n} element names, got {len(names)}")
    return _reference_validate_group(table, names=names)


def _outcome(call):
    """What a call gives: the group's fields, or the error's class and message."""
    try:
        group = call()
    except (ValueError, TooLargeError) as exc:
        return type(exc), str(exc)
    return _table(group), group.identity, group.names


_SMALL_TABLES = [_table(group) for _, group in catalogue(12)]


def _monoid(kind, n):
    """An associative table with identity 0 that is not a group for n ≥ 2."""
    if kind == "max":
        return [[max(a, b) for b in range(n)] for a in range(n)]
    if kind == "left-zero":  # x·y = x off the identity
        return [list(range(n))] + [[a] * n for a in range(1, n)]
    swap = [1, 0, *range(2, n)]  # multiplication mod n, with 1 at index 0
    return [[swap[swap[a] * swap[b] % n] for b in range(n)] for a in range(n)]


def _odd_tokens(value, n):
    """Cell spellings other than "0".."n-1": ones int() reads, as value,
    -1 or n, and ones it rejects; the parsers refuse them all."""
    digit = chr(0x660 + value) if 0 <= value < 10 else str(value)  # Arabic-Indic
    return [f"0{value}", f"+{value}", f"{value}_0", digit, "-1", str(n), "x",
            f"{value}.0", ""]


@st.composite
def _tables(draw):
    kind = draw(st.sampled_from(["group", "scrambled", "monoid", "random"]))
    if kind in ("group", "scrambled"):
        table = [list(row) for row in draw(st.sampled_from(_SMALL_TABLES))]
        n = len(table)
        if kind == "scrambled":  # keeps the identity at index 0
            sigma = [0, *draw(st.permutations(range(1, n)))]
            scrambled = [[0] * n for _ in range(n)]
            for a in range(n):
                for b in range(n):
                    scrambled[sigma[a]][sigma[b]] = sigma[table[a][b]]
            table = scrambled
    elif kind == "monoid":
        n = draw(st.integers(min_value=2, max_value=9))
        table = _monoid(draw(st.sampled_from(["max", "left-zero", "mod"])), n)
    else:  # identity row and column, random interior
        n = draw(st.integers(min_value=1, max_value=5))
        cell = st.integers(min_value=0, max_value=n - 1)
        table = [list(range(n))] + [
            [a] + draw(st.lists(cell, min_size=n - 1, max_size=n - 1)) for a in range(1, n)]
    return table


@st.composite
def _cayley_texts(draw):
    table = draw(_tables())
    n = len(table)
    rows = [list(map(str, row)) for row in table]
    index = st.integers(min_value=0, max_value=n - 1)
    for _ in range(draw(st.integers(min_value=0, max_value=2))):  # one-cell perturbations
        a, b = draw(index), draw(index)
        rows[a][b] = draw(st.sampled_from(_odd_tokens(table[a][b], n))
                          | st.integers(min_value=-1, max_value=n).map(str))
    names = draw(st.sampled_from([None, None, "distinct", "distinct", "few"]))
    if names == "few":  # mostly the wrong count
        names = draw(st.lists(st.sampled_from(["a", "b", ""]), min_size=n - 1,
                              max_size=n + 1))
    elif names == "distinct":  # with up to two names blanked or repeated
        names = [f"g{i}" for i in range(n)]
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            names[draw(index)] = draw(st.sampled_from(["", names[draw(index)]]))
    lines = [str(n), *(" ".join(row) for row in rows)]
    if names is not None:
        lines.append("names: " + ",".join(names))
    return "\n".join(lines) + "\n"


@settings(max_examples=400, deadline=None)
@given(_cayley_texts())
def test_parse_cayley_agrees_with_the_reference_parser(text):
    expected = _outcome(lambda: _reference_parse_cayley(text))
    got = _outcome(lambda: parse_cayley(text))
    names = expected[2] if isinstance(expected[0], tuple) else None
    if names is not None and ("" in names or len(set(names)) != len(names)):
        # the one deliberate change: names must be distinct and non-empty
        assert got[0] is ValueError and "name" in got[1]
    else:
        assert got == expected


@settings(max_examples=300, deadline=None)
@given(_tables(), st.data())
def test_validate_group_agrees_with_the_reference_validator(table, data):
    n = len(table)
    cell = data.draw(st.integers(min_value=-1, max_value=n))
    table[data.draw(st.integers(0, n - 1))][data.draw(st.integers(0, n - 1))] = cell
    assert (_outcome(lambda: validate_group(table))
            == _outcome(lambda: _reference_validate_group(table)))


# ---------------------------------------------------------------------------
# product specs


def _reference_split_product(rest):
    """The memoized leftmost split that read product specs before the
    one-pass reader: the comma of every product, keyed by the offsets of
    its 'SPEC,SPEC' text in ``rest``.  A file: path may hold commas here."""
    max_products, max_tries, families = 32, 1 << 16, groups_module._FAMILIES
    if rest.count("product:") >= max_products:
        raise ValueError(f"a group spec may hold at most {max_products} products")
    seen, splits, tries = {}, {}, 0

    def first_split(start, stop):
        nonlocal tries
        comma = rest.find(",", start, stop)
        while comma >= 0:
            tries += 1
            if tries > max_tries:
                raise ValueError(f"cannot split {groups_module._quote(rest)} into two group "
                                 f"specs within {max_tries} commas tried")
            if well_formed(start, comma) and well_formed(comma + 1, stop):
                splits[start, stop] = comma
                return comma
            comma = rest.find(",", comma + 1, stop)
        return None

    def digit_params(kind, start, stop):
        comma = start - 1
        for _ in families[kind][2:]:
            comma = rest.find(",", comma + 1, stop)
            if comma < 0:
                return False
        return (rest.find(",", comma + 1, stop) < 0
                and all(map(groups_module._spec_digits, rest[start:stop].split(","))))

    def well_formed(start, stop):
        if (start, stop) not in seen:
            kind = next((k for k in (*families, "product", "file")
                         if rest.startswith(k + ":", start, stop)), "")
            params = start + len(kind) + 1
            if kind in families:
                seen[start, stop] = digit_params(kind, params, stop)
            elif kind == "product":
                seen[start, stop] = first_split(params, stop) is not None
            else:
                seen[start, stop] = kind == "file" and params < stop
        return seen[start, stop]

    if first_split(0, len(rest)) is None:
        raise ValueError(f"cannot split {groups_module._quote(rest)} into two group specs")
    return splits


def _reference_factors(rest):
    """The two factors of 'SPEC,SPEC' by the reference split: a spec text
    each, or for a product the pair of its factors."""
    splits = _reference_split_product(rest)

    def factors(start, stop):
        comma = splits[start, stop]
        return tuple(factors(a + len("product:"), b) if rest.startswith("product:", a, b)
                     else rest[a:b] for a, b in ((start, comma), (comma + 1, stop)))
    return factors(0, len(rest))


def _factors(rest):
    """The factors parse_group_spec finds in 'product:' + rest, each factor
    that is not a product left as its spec text."""
    with mock.patch.multiple(groups_module, parse_group_spec=lambda spec: spec,
                             make_direct_product=lambda g, h: (g, h)):
        return parse_group_spec("product:" + rest)


def _split_outcome(read, rest):
    try:
        return read(rest)
    except ValueError as exc:
        return str(exc)


def _holds_a_comma_file(factors):
    if isinstance(factors, str):
        return factors.startswith("file:") and "," in factors
    return any(map(_holds_a_comma_file, factors))


# factors mostly well formed, and near misses: families with too few or
# many parameters or non-digits, empty and comma-holding file paths, words
_DIGITS = st.text("0123", min_size=1, max_size=2)
_FACTORS = st.recursive(
    st.one_of(
        st.builds("cyclic:{}".format, _DIGITS),
        st.builds("elemab:{},{}".format, _DIGITS, _DIGITS),
        st.builds("file:{}".format, st.text("ab.:", min_size=1, max_size=3)),
        st.builds("{}:{}".format, st.sampled_from(("cyclic", "elemab", "heisenberg")),
                  st.lists(st.text("0123x", max_size=2), min_size=1, max_size=3).map(",".join)),
        st.builds("file:{}".format, st.text("ab,:", max_size=4)),
        st.sampled_from(("", "x", "1", "file:", "product:", "cyclic:", "file:a,cyclic:2")),
    ),
    lambda inner: st.builds("product:{},{}".format, inner, inner),
    max_leaves=6,
)
_PRODUCT_RESTS = st.one_of(
    st.builds("{},{}".format, _FACTORS, _FACTORS),
    st.lists(st.sampled_from(("product:", "cyclic:", "elemab:", "file:", "1", "2,3", ",",
                              "a", ":")), max_size=12).map("".join),
)


@settings(max_examples=600, deadline=None)
@example("product:cyclic:2,file:a,elemab:2,3")
@example("file:a,b,cyclic:2")
@example("cyclic:2,cyclic:3,")
@given(_PRODUCT_RESTS)
def test_a_product_spec_reads_as_the_reference_split_unless_a_file_path_holds_a_comma(rest):
    # the reference may end a file: path after a comma; the reader never does
    expected = _split_outcome(_reference_factors, rest)
    assert "commas tried" not in str(expected)
    if not _holds_a_comma_file(expected):
        assert _split_outcome(_factors, rest) == expected


# ---------------------------------------------------------------------------
# start-up


def test_the_command_line_does_not_import_numpy():
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import pglambda.cli; "
             "print('numpy' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", probe, str(_SRC)],
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


def test_a_command_loads_only_the_modules_it_runs(tmp_path):
    # cyclic:8's power graph is complete, so labels 0, 2, .., 14 are valid
    labels = tmp_path / "labels.csv"
    labels.write_text("element,label\n" + "".join(f"{v},{2 * v}\n" for v in range(8)),
                      encoding="utf-8")
    table = _SRC.parent / "tests" / "data" / "semidihedral16-scrambled.txt"
    mutated = tmp_path / "mutated.txt"  # one cell changed: not a group
    mutated.write_text(table.read_text(encoding="utf-8").replace("1 0 5 6", "1 0 6 6", 1),
                       encoding="utf-8")
    spec = {"cli", "errors", "groups"}
    graph = spec | {"powergraph"}
    certify = graph | {"labelling", "construct"}
    cases = [  # argv, exit code, the package modules it loads
        (["analyze", "cyclic:8", "--stable"], 0, certify),
        (["analyze", f"file:{table}", "--stable"], 0, certify),
        (["analyze", f"file:{mutated}"], 1, spec),
        (["check", "cyclic:8", str(labels)], 0, graph | {"labelling"}),
        (["export", "cyclic:8"], 0, graph),
        (["export", "cyclic:8", "--format", "cayley"], 0, spec),
        (["lambda", "cyclic:8", "--method", "exact"], 0, certify | {"_search"}),
        (["lambda", "cyclic:8", "--witness-csv", str(tmp_path / "w.csv")], 0,
         certify | {"_search"}),
        (["suite", "--max-order", "2"], 0, certify | {"_search", "suites"}),
    ]
    probe = textwrap.dedent("""
        import contextlib, io, sys
        sys.path.insert(0, sys.argv[1])
        bare = set(sys.modules)
        from pglambda.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(sys.argv[2:])
        print(code, *sorted(set(sys.modules) - bare))
    """)
    for argv, code, modules in cases:
        result = subprocess.run([sys.executable, "-c", probe, str(_SRC), *argv],
                                capture_output=True, text=True, check=True)
        got, *loaded = result.stdout.split()
        assert int(got) == code, argv
        assert ({name for name in loaded if name.startswith("pglambda.")}
                == {f"pglambda.{short}" for short in modules}), argv
        assert ("csv" in loaded) == (argv[0] == "check"), argv
        assert "dataclasses" not in loaded, argv


def test_importing_the_command_line_from_the_package_loads_it_alone():
    probe = textwrap.dedent("""
        import sys
        sys.path.insert(0, sys.argv[1])
        from pglambda import cli
        print(*sorted(name for name in sys.modules if name.startswith("pglambda")))
        import pglambda
        try:
            pglambda.no_such_name
        except AttributeError as exc:
            print(exc)
    """)
    result = subprocess.run([sys.executable, "-c", probe, str(_SRC)],
                            capture_output=True, text=True, check=True)
    assert result.stdout.splitlines() == [
        "pglambda pglambda.cli pglambda.errors pglambda.groups",
        "module 'pglambda' has no attribute 'no_such_name'"]


# The package's public names.
_PUBLIC_NAMES = [
    "ConstructionFailedError", "ConstructionInfo",
    "CyclicSubgroups", "DEFAULT_MAX_ORDER",
    "DEFAULT_TIME_BUDGET", "Evidence", "FiniteGroup", "Graph",
    "GroupValidationError", "LambdaCertificate",
    "PglambdaError",
    "SearchTimeoutError", "SuiteResult", "TooLargeError", "Violation",
    "__version__",
    "build_power_graph", "catalogue", "certificate_doc", "certificate_problems",
    "certify", "check_lower_hook", "clique_deficiency",
    "euler_phi", "exact_lambda", "format_cayley",
    "format_labelling_csv", "is_maximal_class",
    "lambda_p_group", "make_cyclic", "make_dihedral",
    "make_direct_product", "make_elementary_abelian", "make_heisenberg",
    "make_quaternion", "make_semidihedral", "max_group_order",
    "parse_cayley",
    "parse_group_spec", "parse_labelling_csv", "path_to_labelling", "power_graph_lower_bound",
    "prime_power", "recognize_family", "run_suites", "span", "to_dot",
    "to_edge_list", "validate_group", "validate_labelling",
]


def test_the_package_exports_its_public_names():
    import pglambda

    assert sorted(pglambda.__all__) == _PUBLIC_NAMES
    names: dict = {}
    exec("from pglambda import *", names)
    assert sorted(set(names) - {"__builtins__"}) == _PUBLIC_NAMES
    assert all(names[name] is getattr(pglambda, name) for name in _PUBLIC_NAMES)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        pglambda.no_such_name
    for gone in ("labelling_to_path", "check_ham_path", "PowerGraph", "SUITE_NAMES",
                 "build_interleaved_path", "lower_central_series",
                 "order_classes_for_descent"):
        with pytest.raises(AttributeError, match=f"no attribute '{gone}'"):
            getattr(pglambda, gone)


def test_the_readme_library_example_runs_in_a_fresh_interpreter():
    readme = (_SRC.parent / "README.md").read_text(encoding="utf-8")
    example = re.search(r"```python\n(from pglambda import .*?)```", readme, re.S).group(1)
    probe = "import sys; sys.path.insert(0, sys.argv[1])\n" + example
    subprocess.run([sys.executable, "-c", probe, str(_SRC)], check=True)
