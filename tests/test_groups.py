"""Group construction, validation, and order machinery."""

from __future__ import annotations

import hashlib
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pglambda import (
    GroupValidationError,
    TooLargeError,
    build_power_graph,
    catalogue,
    cyclic_classes,
    exact_lambda,
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
    lambda_p_group,
    order_table,
    parse_cayley,
    prime_power,
    recognize_family,
    validate_group,
)
from pglambda.cli import parse_group_spec


# ---------------------------------------------------------------------------
# element orders against independent arithmetic


@given(st.integers(min_value=1, max_value=120))
def test_cyclic_element_orders_match_gcd_formula(n):
    group = make_cyclic(n)
    for g in range(n):
        assert group.element_order(g) == n // math.gcd(n, g)


# sha256 of format_cayley and of the newline-joined element names, captured
# from the array-based constructors that preceded the tuple tables
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
    ("semidihedral:64", "1b4b949cfa2d9ee4f325096a28003dc4b7f93963d07dca8e17e065b03e1e1757", "fe8dd2237093ce20d2467830f70b764b0adb288cd0ca923440358e6704034766"),
    ("semidihedral:512", "45f886f7c18c6b3120728bbc22faa731706444c6c6c884ec03e166252c3d3f59", "99b9e0b2b2e15520804e313fed9d1d7628d82cbd1e5bc33c4c9970c728e80e8c"),
    ("elemab:2,3", "de87ecec3d079676c6a10245f1ddea18f1819e98d29561a4d3f36b2405688a9d", "67d6bca7770210765c83cb2abbec451cea3186e8489a5bd8278cb3a3abf318bc"),
    ("elemab:3,2", "4f2f2b147201fd203ad27e4a7f98fd2f7fad766e137593589a916ba19e56e1b8", "0a6dcd2177544287e8c8bd5fd7b7478e5c56d0cf9173e9e50aa1e4814116ca49"),
    ("elemab:5,1", "9990524b3e81baf44349c945a401a4034bfd077b732742b7bf8cce7f3702bfdb", "577e9ad0f30ecb1a977ddcec67f8898507158ce2af86a79d181e0dd2f690daff"),
    ("elemab:2,9", "a5171e4088366e93c335bde07a53747b86c1b196f8c62155b7eaa3201693507d", "1b10afa686e71da0015b90c2da279610fb2ee7a41a287a9764fe39c2116c28dc"),
    ("elemab:7,3", "c04e7932f0508a092cc78e11aee318a023bc2b9fd773e543bf42e61dd468c2b1", "ea6210528044ba0615a703d853f8b4e945f65fa72f350b84201446f0d2260810"),
    ("heisenberg:3", "0261a80f916a387feac2bf169a39c4d0a460b17212bcc0bd8367413cdb25c8b3", "99240fcaaca319e5378193693f52428e5b5012de0469c651e5bf6c8ea5dfb1c4"),
    ("heisenberg:5", "1936ad7d4036e6b3153a9fb4c9013e001c89878d0d3f3946160645f454c28f9d", "153bd60ead13032782afe443616e1645a44ac239b8c1d1a892ef96712d6e9125"),
    ("heisenberg:7", "162dcb00ab47d24f8a6b57d060e6aa1ada1a051074ae049eb36ceb3643929428", "ea6210528044ba0615a703d853f8b4e945f65fa72f350b84201446f0d2260810"),
    ("product:cyclic:2,cyclic:8", "6f842887cf2cfe7b621382bb3ad4a4e4d222ab0c44de7ffa769d342a8cf85a60", "0f74484e5a246a5e80493e568aa94512d78b8ec091308cbb9c777f5d2c0a7f63"),
    ("product:cyclic:3,dihedral:8", "6226826b1bebecf8dea4331671fc721e0a3725a703795c9d5280caecf9a631a6", "15931cb9e4055dbc105275b7b15ffa2679da25b5aa9bbc2ad221afc32658dc20"),
    ("product:quaternion:8,cyclic:3", "af485bdf5def3639c20444d426217b2f5800699cc113be116f10396b7a951928", "9158f8eee85a87a97458da64e03ce234874538581b2d5f8ef0ecbc20685a4c79"),
    ("product:cyclic:2,dihedral:256", "82d1305338805dd9a6f1570bb7f5d71e4e6a317141bc0b0654d9b442eb35b1a3", "8eb87ed64c4a43319ff1866d34060b214a318220a061ea9968997e33eb53cab7"),
    ("product:heisenberg:3,cyclic:9", "15dbb141ace4a8c52def8c672209033a89e5c0e09170d22d5c2619be4ebda750", "24069b39d7b6e1dcb6e83756c52452f1246c636a4f8bdf8e251e69a75cf5b41e"),
]


@pytest.mark.parametrize("spec,table_digest,names_digest", TABLE_DIGESTS,
                         ids=[spec for spec, _, _ in TABLE_DIGESTS])
def test_constructor_tables_are_pinned(spec, table_digest, names_digest):
    group = parse_group_spec(spec)
    assert hashlib.sha256(format_cayley(group).encode()).hexdigest() == table_digest
    assert hashlib.sha256("\n".join(group.names).encode()).hexdigest() == names_digest


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
    # ({0,1}, AND) is a perfectly associative monoid with identity 1
    with pytest.raises(GroupValidationError, match="row 0 is not a permutation"):
        validate_group([[0, 0], [0, 1]], identity=1)


def test_validate_rejects_a_swapped_intercalate_at_order_512():
    # In C2^9 (index XOR), rows {1, 5} and columns {2, 6} form a 2×2 Latin
    # subsquare.  Swapping its two symbols keeps a Latin square with
    # identity 0, so only associativity can fail.
    table = [list(row) for row in make_elementary_abelian(2, 9).mul]
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
@given(st.sampled_from(catalogue(max_order=64)), st.randoms(use_true_random=False))
def test_scrambled_catalogue_tables_keep_invariants_and_mutations_fail(entry, rnd):
    group = entry.build()
    n = group.order
    sigma = list(range(n))
    rnd.shuffle(sigma)
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[sigma[a]][sigma[b]] = sigma[group.compose(a, b)]
    scrambled = validate_group(table, identity=sigma[group.identity])

    def invariants(g):
        graph = build_power_graph(g)
        partition = cyclic_classes(g)
        classes = [partition.class_number(d) for d in partition.orders]
        if entry.is_p_group:
            return recognize_family(g), classes, lambda_p_group(g).value
        return None, classes, exact_lambda(graph).value

    assert invariants(scrambled) == invariants(group)

    a, b = rnd.randrange(n), rnd.randrange(n)
    table[a][b] = rnd.choice([v for v in range(-1, n + 1) if v != table[a][b]])
    with pytest.raises(GroupValidationError):
        validate_group(table, identity=sigma[group.identity])


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
])
def test_constructor_parameter_errors(build, exc, message):
    with pytest.raises(exc, match=message):
        build()


def test_size_cap_tracks_environment(monkeypatch):
    monkeypatch.setenv("LAMBDA_MAX_ORDER", "16")
    with pytest.raises(TooLargeError):
        make_cyclic(17)
    make_cyclic(16)  # at the cap is fine


def test_parse_cayley_refuses_an_order_above_the_cap_before_reading_rows(monkeypatch):
    monkeypatch.setenv("LAMBDA_MAX_ORDER", "16")
    with pytest.raises(TooLargeError):
        parse_cayley("17\nthese rows are never parsed\n")
    with pytest.raises(ValueError, match="expected 16 table rows"):
        parse_cayley("16\n")  # at the cap the rows are read as usual


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
    with pytest.raises(ValueError, match="order 6 is not a prime power"):
        is_maximal_class(make_cyclic(6))


# ---------------------------------------------------------------------------
# Cayley text format


def test_cayley_round_trip_preserves_table_and_names():
    group = make_quaternion(8)
    text = format_cayley(group)
    back = parse_cayley(text)
    assert back.mul == group.mul
    assert back.names == group.names


def test_cayley_round_trip_via_ingested_group(s3_group):
    text = format_cayley(s3_group)
    back = parse_cayley(text)
    assert back.mul == s3_group.mul
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
    with pytest.raises(GroupValidationError, match=re.escape("(a·b)·c != a·(b·c)")):
        parse_cayley("4\n0 1 2 3\n1 2 3 0\n2 3 1 1\n3 0 1 2\n")


# ---------------------------------------------------------------------------
# start-up


def test_the_command_line_does_not_import_numpy():
    src = Path(__file__).resolve().parents[1] / "src"
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import pglambda.cli; "
             "print('numpy' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", probe, str(src)],
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"
