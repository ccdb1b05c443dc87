"""Command-line interface: exit codes, JSON output, and file round trips."""

from __future__ import annotations

import json
import time
import tracemalloc
from pathlib import Path

import pytest

from pglambda import (
    Evidence,
    FiniteGroup,
    Graph,
    LambdaCertificate,
    build_power_graph,
    certificate_problems,
    exact_lambda,
    format_cayley,
    make_cyclic,
    make_dihedral,
    make_direct_product,
    make_elementary_abelian,
    make_heisenberg,
    make_quaternion,
    make_semidihedral,
    parse_group_spec,
    parse_labelling_csv,
    span,
    validate_labelling,
)
import pglambda.groups as groups_module
import pglambda.suites as suites_module
from pglambda.cli import main
from pglambda.groups import _FAMILIES, prime_power
from pglambda.suites import _ENTRIES, run_suites


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# spec parsing


@pytest.mark.parametrize("spec,order,build", [
    pytest.param("cyclic:12", 12, lambda: make_cyclic(12), id="cyclic:12-12-cyclic"),
    pytest.param("dihedral:8", 8, lambda: make_dihedral(8), id="dihedral:8-8-dihedral"),
    pytest.param("quaternion:16", 16, lambda: make_quaternion(16),
                 id="quaternion:16-16-quaternion"),
    pytest.param("semidihedral:32", 32, lambda: make_semidihedral(32),
                 id="semidihedral:32-32-semidihedral"),
    pytest.param("elemab:3,2", 9, lambda: make_elementary_abelian(3, 2),
                 id="elemab:3,2-9-elemab"),
    pytest.param("heisenberg:3", 27, lambda: make_heisenberg(3),
                 id="heisenberg:3-27-heisenberg"),
    pytest.param("product:elemab:2,2,cyclic:2", 8,
                 lambda: make_direct_product(make_elementary_abelian(2, 2), make_cyclic(2)),
                 id="product:elemab:2,2,cyclic:2-8-product"),
    pytest.param("product:cyclic:2,product:cyclic:2,cyclic:2", 8,
                 lambda: make_direct_product(make_cyclic(2), make_direct_product(
                     make_cyclic(2), make_cyclic(2))),
                 id="product:cyclic:2,product:cyclic:2,cyclic:2-8-product"),
])
def test_parse_group_spec_shapes(spec, order, build):
    group, built = parse_group_spec(spec), build()
    assert group.order == order
    assert ((format_cayley(group), group.identity, group.names)
            == (format_cayley(built), built.identity, built.names))


@pytest.mark.parametrize("spec", [
    "cyclic",                 # no colon
    "cyclic:",                # empty argument
    "cyclic:x",               # non-integer
    "cyclic:0",               # out of range
    "frobnitz:8",             # unknown family
    "elemab:4,2",             # base must be prime
    "elemab:3",               # missing exponent
    "product:cyclic:2",       # one operand
    "dihedral:12",            # not a power of two
    "heisenberg:4",           # not an odd prime
])
def test_parse_group_spec_rejects_malformed(spec):
    with pytest.raises(Exception):
        parse_group_spec(spec)
    assert main(["analyze", spec, "--stable"]) == 1


@pytest.mark.parametrize("params", ["3", "3,5,7"])
def test_a_wrong_parameter_count_names_the_parameters(params, capsys):
    code, out, err = run(capsys, "analyze", f"elemab:{params}")
    assert (code, out) == (1, "")
    assert err == f"error: elemab takes 2 parameters (prime, rank) — got '{params}'\n"


def test_the_parameter_count_message_is_read_from_the_family_row(monkeypatch):
    monkeypatch.setitem(_FAMILIES, "triple", ("make_cyclic", "a", "b", "c"))
    with pytest.raises(ValueError, match=r"^triple takes 3 parameters \(a, b, c\) — got '1,2'$"):
        parse_group_spec("triple:1,2")


def test_nested_product_specs_split_in_polynomial_time():
    # each level used to re-test every split of the levels below it
    depth = 24
    spec = "product:" * depth + "cyclic:1" + ",cyclic:1" * depth
    started = time.monotonic()
    assert parse_group_spec(spec).order == 1
    with pytest.raises(ValueError):
        parse_group_spec(spec[:-len(",cyclic:1")])
    assert time.monotonic() - started < 2.0
    with pytest.raises(ValueError, match="at most 32 products"):
        parse_group_spec("product:" * 33 + "cyclic:1" + ",cyclic:1" * 33)


def test_a_nested_product_spec_is_split_once(monkeypatch):
    # one pass: each of the 31 products and 32 cyclic:1 factors is read
    # once, where a search for the split tried about 5,000 commas
    read, starts = groups_module._read_factor, []
    monkeypatch.setattr(groups_module, "_read_factor",
                        lambda spec, start: starts.append(start) or read(spec, start))
    assert parse_group_spec("product:" * 31 + "cyclic:1" + ",cyclic:1" * 31).order == 1
    assert len(starts) == len(set(starts)) == 63


def test_a_file_path_in_a_product_ends_at_its_first_comma(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("a,b.txt").write_text("2\n0 1\n1 0\n", encoding="utf-8")
    code, out, err = run(capsys, "analyze", "file:a,b.txt", "--stable")
    assert (code, err) == (0, "")
    assert json.loads(out)["group"]["order"] == 2
    code, out, err = run(capsys, "analyze", "product:file:a,b.txt,cyclic:2")
    assert (code, out, err) == (1, "", "error: cannot split 'file:a,b.txt,cyclic:2' "
                                       "into two group specs\n")


@pytest.mark.parametrize("spec", [
    "product:" * 31 + "cyclic:1," + "1," * 1000 + "cyclic:1",
    "product:" * 31 + "cyclic:1," + "1," * 2000 + "cyclic:1",
    "product:cyclic:1," + "1," * 32000 + "cyclic:1",
], ids=["nested-1000-commas", "nested-2000-commas", "flat-32000-commas"])
def test_a_product_that_cannot_split_is_refused_at_once(spec, capsys):
    # read in one pass, each is refused where its first factor ends and no
    # second factor begins, with no copy of the spec's substrings
    started = time.monotonic()
    code, _, err = run(capsys, "analyze", spec)
    assert time.monotonic() - started < 1.0
    assert code == 1 and err.startswith("error: cannot split ")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="^cannot split "):
            parse_group_spec(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16_000_000


@pytest.mark.parametrize("spec", [
    "product:cyclic:1," + "1," * 32000 + "cyclic:1",
    "x" * 100000,
    "cyclic:" + "a" * 100000,
    "elemab:" + "1," * 50000,
    "x" * 100000 + ":1",
], ids=["cannot-split", "bad-spec", "not-digits", "parameter-count", "unknown-family"])
def test_an_error_quotes_a_long_spec_by_its_first_64_characters(spec, capsys):
    # each message once echoed the whole text, a stderr line of 64–100 KB
    code, out, err = run(capsys, "analyze", spec)
    assert code == 1 and not out
    assert len(err) < 400 and " (the first 64 of " in err


def test_an_error_quotes_a_text_of_200_characters_whole(capsys):
    code, _, err = run(capsys, "analyze", "x" * 200)
    assert (code, err) == (1, f"error: bad group spec '{'x' * 200}': expected FAMILY:PARAMS, "
                              "e.g. cyclic:8\n")
    code, _, err = run(capsys, "analyze", "x" * 201)
    assert (code, err) == (1, f"error: bad group spec '{'x' * 64}' (the first 64 of 201 "
                              "characters): expected FAMILY:PARAMS, e.g. cyclic:8\n")


def test_a_long_first_line_name_or_time_budget_is_quoted_short(capsys, tmp_path):
    table = tmp_path / "long.txt"
    table.write_text("9" * 300 + "x\n0\n")
    code, _, err = run(capsys, "analyze", f"file:{table}")
    assert (code, err) == (1, f"error: the element count must be a positive integer in "
                              f"ASCII digits, got '{'9' * 64}' (the first 64 of 301 "
                              f"characters)\n")
    table.write_text(f"2\n0 1\n1 0\nnames: {'a' * 100000},{'a' * 100000}\n")
    code, _, err = run(capsys, "analyze", f"file:{table}")
    assert (code, err) == (1, f"error: element 1 has an empty or repeated name "
                              f"'{'a' * 64}' (the first 64 of 100000 characters)\n")
    code, _, err = run(capsys, "lambda", "cyclic:8", "--time-budget", "9" * 1000)
    assert code == 1
    assert err.splitlines()[-1].endswith(
        f"got '{'9' * 64}' (the first 64 of 1000 characters)")


@pytest.mark.parametrize("spec", [
    "dihedral:1" + "0" * 400,             # above float range
    "quaternion:100000000000000000039",   # a prime far above the cap
    "heisenberg:1000000000000000003",
    "elemab:1000000000000000003,2",
    "elemab:2,1000000000000",
])
def test_huge_spec_parameters_are_refused_at_once(spec, capsys):
    started = time.monotonic()
    code, _, err = run(capsys, "analyze", spec)
    assert code in (1, 3)
    assert "Traceback" not in err
    assert time.monotonic() - started < 2.0


@pytest.mark.parametrize("spec,order,what", [
    ("elemab:1000000000000000003,2", "1000000000000000003^2", "elementary abelian group"),
    ("elemab:2,1000000000000", "2^1000000000000", "elementary abelian group"),
    ("heisenberg:1000000000000000003", "1000000000000000003^3", "Heisenberg group"),
])
def test_a_huge_power_order_is_refused_without_forming_it(spec, order, what, capsys):
    code, out, err = run(capsys, "analyze", spec)
    assert (code, out) == (3, "")
    assert err == (f"resource limit: {what} of order {order} exceeds the cap 512 "
                   "(raise LAMBDA_MAX_ORDER to override)\n")


def _over(what, order, cap):
    return (3, f"resource limit: {what} of order {order} exceeds the cap {cap} "
               "(raise LAMBDA_MAX_ORDER to override)\n")


# which check refuses first: the cap on p, the primality test, the rank, the
# cap on p^k, and a product's factors before the product
@pytest.mark.parametrize("cap,spec,expected", [
    *((cap, spec, (1, f"error: p must be prime, got {p}\n"))
      for cap in (None, "7") for spec, p in (("elemab:4,2", 4), ("elemab:1,2", 1))),
    *((cap, "elemab:3,0", (1, "error: rank must be positive, got 0\n")) for cap in (None, "7")),
    *((cap, "heisenberg:2", (1, "error: the construction needs an odd prime; p=2 was given\n"))
      for cap in (None, "7")),
    (None, "elemab:513,1", _over("elementary abelian group", "513^1", 512)),
    ("7", "elemab:513,1", _over("elementary abelian group", "513^1", 7)),
    (None, "elemab:3,6", _over("elementary abelian group", 729, 512)),
    ("7", "elemab:3,6", _over("elementary abelian group", "3^6", 7)),
    (None, "heisenberg:9", (1, "error: p must be an odd prime, got 9\n")),
    ("7", "heisenberg:9", _over("Heisenberg group", "9^3", 7)),
    (None, "heisenberg:515", _over("Heisenberg group", "515^3", 512)),
    ("7", "heisenberg:515", _over("Heisenberg group", "515^3", 7)),
    (None, "product:cyclic:32,cyclic:32", _over("product", 1024, 512)),
    ("7", "product:cyclic:32,cyclic:32", _over("cyclic group", 32, 7)),
    (None, "product:cyclic:16,product:cyclic:8,cyclic:8", _over("product", 1024, 512)),
    ("7", "product:cyclic:16,product:cyclic:8,cyclic:8", _over("cyclic group", 16, 7)),
])
def test_prime_rank_and_product_refusals_are_pinned(cap, spec, expected, capsys, monkeypatch):
    if cap is None:
        monkeypatch.delenv("LAMBDA_MAX_ORDER", raising=False)
    else:
        monkeypatch.setenv("LAMBDA_MAX_ORDER", cap)
    code, out, err = run(capsys, "analyze", spec)
    assert (code, err) == expected and not out


# ---------------------------------------------------------------------------
# export


def test_export_edges_bytes(capsys):
    code, out, _ = run(capsys, "export", "cyclic:3", "--format", "edges")
    assert code == 0
    assert out == "3\n0 1\n0 2\n1 2\n"


def test_export_dot_is_deterministic(capsys):
    code, first, _ = run(capsys, "export", "elemab:2,2", "--format", "dot")
    assert code == 0
    assert first.startswith("graph power {")
    assert first.count(" -- ") == 3  # the identity star
    code, second, _ = run(capsys, "export", "elemab:2,2", "--format", "dot")
    assert first == second


def test_export_cayley_file_round_trip(tmp_path, capsys):
    table = tmp_path / "c3.txt"
    code, out, _ = run(capsys, "export", "cyclic:3", "--format", "cayley",
                       "--output", str(table))
    assert code == 0 and out == ""
    assert table.read_text() == "3\n0 1 2\n1 2 0\n2 0 1\nnames: 1,x,x^2\n"

    code, out, _ = run(capsys, "export", f"file:{table}", "--format", "cayley")
    assert code == 0
    assert out == table.read_text()


def test_export_rejects_unknown_format(capsys):
    code, _, err = run(capsys, "export", "cyclic:3", "--format", "gml")
    assert code == 1
    assert "argument --format: invalid choice" in err


@pytest.mark.parametrize("argv", [
    ("lambda", "cyclic:8", "--stable"),
    ("check", "cyclic:8", "w.csv", "--stable"),
    ("suite", "--max-order", "1", "--stable"),
    ("export", "cyclic:3", "--stable"),
    ("export", "cyclic:3", "--pretty"),
    ("export", "cyclic:3", "--search-cap", "8"),
    ("export", "cyclic:3", "--time-budget", "1"),
    ("check", "cyclic:8", "w.csv", "--search-cap", "8"),
    ("check", "cyclic:8", "w.csv", "--time-budget", "1"),
    ("check", "cyclic:8", "w.csv", "-j", "1"),  # check tests L(2,1) labellings only
    ("check", "cyclic:8", "w.csv", "-k", "0"),
], ids=" ".join)
def test_commands_refuse_options_they_do_not_read(argv, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert "unrecognized arguments" in err


# ---------------------------------------------------------------------------
# analyze


def test_analyze_reports_structure_and_lambda(capsys):
    code, out, _ = run(capsys, "analyze", "semidihedral:16", "--stable")
    assert code == 0
    doc = json.loads(out)
    assert doc["group"] == {"order": 16, "exponent": 8, "prime": 2,
                            "family": "semidihedral", "maximal_class": True}
    assert doc["graph"]["vertices"] == 16
    assert doc["class_numbers"] == [[1, 1], [2, 5], [4, 3], [8, 1]]
    assert doc["lambda"]["lambda"] == 16
    assert doc["lambda"]["method"] == "constructive"
    assert "timing_ms" not in doc


def test_analyze_stable_output_is_byte_identical(capsys):
    _, first, _ = run(capsys, "analyze", "dihedral:16", "--stable")
    _, second, _ = run(capsys, "analyze", "dihedral:16", "--stable")
    assert first == second


def test_analyze_without_stable_includes_timing(capsys):
    code, out, _ = run(capsys, "analyze", "cyclic:5")
    assert code == 0
    assert "timing_ms" in json.loads(out)


def test_analyze_non_p_group_uses_exact_search(capsys):
    code, out, _ = run(capsys, "analyze", "cyclic:6", "--stable")
    assert code == 0
    doc = json.loads(out)
    assert doc["group"]["family"] == "not-a-p-group"
    assert doc["group"]["prime"] is None
    assert doc["lambda"]["lambda"] == 8
    assert doc["lambda"]["method"] == "exact-search"


def test_analyze_reports_the_exponent_as_the_lcm_of_element_orders(tmp_path, capsys):
    # S3 has elements of orders 2 and 3 but none of order 6: its exponent
    # is 6, not the largest element order
    table = tmp_path / "S3.txt"
    table.write_text("6\n0 1 2 3 4 5\n1 0 4 5 2 3\n2 3 0 1 5 4\n"
                     "3 2 5 4 0 1\n4 5 1 0 3 2\n5 4 3 2 1 0\n")
    code, out, _ = run(capsys, "analyze", f"file:{table}", "--stable")
    assert code == 0
    doc = json.loads(out)
    assert [d for d, _ in doc["class_numbers"]] == [1, 2, 3]
    assert doc["group"]["exponent"] == 6


def test_analyze_large_non_p_group_prints_lambda(capsys):
    # every group within the order cap gets a checked lambda, decided at
    # the exact search's floor
    code, out, _ = run(capsys, "analyze", "product:cyclic:6,cyclic:7", "--stable")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"spec", "group", "graph", "class_numbers", "lambda"}
    assert (doc["lambda"]["lambda"], doc["lambda"]["method"]) == (60, "exact-search")
    assert doc["lambda"]["evidence"]["kind"] == "clique-deficiency"
    code, out, _ = run(capsys, "analyze", "cyclic:36", "--pretty")
    assert code == 0
    assert "lambda         52  (method exact-search, evidence clique-deficiency)\n" in out


def test_auto_runs_both_methods_on_p_groups_within_the_search_cap(capsys):
    code, out, err = run(capsys, "lambda", "dihedral:64")
    assert code == 0
    assert "constructive 64 / exact-search 64: agree" in err
    # above an explicitly lowered cap, a p-group gets the construction alone
    code, out, err = run(capsys, "lambda", "dihedral:64", "--search-cap", "32")
    assert (code, err) == (0, "")
    assert json.loads(out)["method"] == "constructive"
    # and every other group the exact search
    code, out, err = run(capsys, "lambda", "product:cyclic:6,cyclic:7")
    assert (code, err) == (0, "")
    assert (json.loads(out)["lambda"], json.loads(out)["method"]) == (60, "exact-search")


def test_analyze_pretty_table(capsys):
    code, out, _ = run(capsys, "analyze", "quaternion:8", "--pretty", "--stable")
    assert code == 0
    assert "family         quaternion" in out
    assert "lambda         9" in out


def test_analyze_ingested_file_is_classified_structurally(tmp_path, capsys):
    table = tmp_path / "d8.txt"
    run(capsys, "export", "dihedral:8", "--format", "cayley", "-o", str(table))
    code, out, _ = run(capsys, "analyze", f"file:{table}", "--stable")
    assert code == 0
    doc = json.loads(out)
    assert doc["group"]["family"] == "dihedral"
    assert doc["lambda"]["lambda"] == 8


# ---------------------------------------------------------------------------
# lambda


def test_lambda_both_methods_agree(capsys):
    code, out, err = run(capsys, "lambda", "elemab:3,2", "--method", "both")
    assert code == 0
    assert "constructive 9 / exact-search 9: agree" in err
    doc = json.loads(out)
    assert doc["lambda"] == 9
    assert set(doc) >= {"lambda", "method", "evidence", "labels"}


@pytest.mark.parametrize("argv", [
    [command, spec, *options]
    for spec in ("cyclic:16", "dihedral:32", "quaternion:16", "semidihedral:32",
                 "elemab:3,3", "elemab:2,5", "heisenberg:3", "product:cyclic:2,dihedral:8")
    for command, *options in (("analyze", "--stable"), ("lambda", "--method", "both"))
], ids=" ".join)
def test_family_groups_never_build_their_table(argv, capsys, monkeypatch):
    # a table costs n² products: analyze and lambda stay under half of
    # that, and only export --format cayley writes every one
    made = []  # [order, products so far] of each group built, the spec's last
    init = FiniteGroup.__init__

    def counting_init(group, order, product, names=None):
        tally = [order, 0]
        made.append(tally)

        def counted(a, b):
            tally[1] += 1
            return product(a, b)
        init(group, order, counted, names)

    monkeypatch.setattr(FiniteGroup, "__init__", counting_init)
    assert run(capsys, *argv)[0] == 0
    n, products = made[-1]
    assert products < n * n / 2
    assert run(capsys, "export", argv[1], "--format", "cayley")[0] == 0
    assert made[-1] == [n, n * n]


# λ(D8) = 8 with its true evidence, the identity's clique, and a witness
# of span 8 that is no labelling of its power graph
_INVALID_D8_CERT = LambdaCertificate(
    witness=tuple(range(7)) + (8,),
    evidence=Evidence(kind="clique-deficiency", bound=8, vertices=(0,)),
    method="exact-search")


def test_lambda_both_checks_the_exact_certificate(capsys, monkeypatch):
    monkeypatch.setattr("pglambda.construct.exact_lambda",
                        lambda *args, **kwargs: _INVALID_D8_CERT)
    code, _, err = run(capsys, "lambda", "dihedral:8", "--method", "both")
    assert code == 2
    assert err.startswith("exact-search certificate fails its check: "
                          "witness violates labelling constraints")


def test_lambda_constructive_emits_construction(capsys):
    code, out, _ = run(capsys, "lambda", "dihedral:16", "--method", "constructive")
    assert code == 0
    doc = json.loads(out)
    assert doc["lambda"] == 16
    assert doc["construction"]["kind"] == "coset-alternation"
    assert len(doc["construction"]["path"]) == 15


def test_lambda_exact_on_non_p_group(capsys):
    code, out, _ = run(capsys, "lambda", "cyclic:6", "--method", "exact")
    assert code == 0
    assert json.loads(out)["lambda"] == 8


@pytest.mark.parametrize("spec,expected", [
    ("cyclic:24", 32),
    ("product:cyclic:2,cyclic:10", 21),
])
def test_exact_method_decides_the_former_timeouts(spec, expected, capsys):
    started = time.monotonic()
    code, out, _ = run(capsys, "lambda", spec, "--method", "exact")
    assert time.monotonic() - started < 1.0
    assert code == 0
    doc = json.loads(out)
    assert doc["lambda"] == expected
    assert doc["evidence"]["kind"] == "clique-deficiency"
    assert doc["evidence"]["bound"] == expected
    graph = build_power_graph(parse_group_spec(spec))
    assert validate_labelling(graph, doc["labels"]) == []
    assert span(doc["labels"]) == expected


def test_exact_method_decides_cyclic_120_within_its_budget(capsys):
    # 120 vertices in 16 closed-twin classes: the search over sequences of
    # twin modules decides it at its floor
    code, out, _ = run(capsys, "lambda", "cyclic:120", "--method", "exact",
                       "--search-cap", "512", "--time-budget", "10")
    assert code == 0
    doc = json.loads(out)
    assert doc["lambda"] == 152
    graph = build_power_graph(make_cyclic(120))
    universal = [v for v in range(120) if graph.is_universal(v)]  # e and 32 generators
    assert doc["evidence"] == {"kind": "clique-deficiency", "bound": 152,
                               "vertices": universal}
    assert validate_labelling(graph, doc["labels"]) == []
    assert span(doc["labels"]) == 152


@pytest.mark.parametrize("spec", [
    "cyclic:512", "dihedral:512", "quaternion:512", "semidihedral:512",
    "elemab:2,9", "product:cyclic:16,cyclic:32", "heisenberg:7", "elemab:3,5",
])
def test_both_methods_agree_on_large_p_groups(spec, capsys):
    code, out, err = run(capsys, "lambda", spec, "--method", "both",
                         "--search-cap", "512")
    assert code == 0
    value = json.loads(out)["lambda"]
    assert f"constructive {value} / exact-search {value}: agree" in err


def test_lambda_constructive_rejects_non_p_group(capsys):
    code, _, err = run(capsys, "lambda", "cyclic:6", "--method", "constructive")
    assert code == 1
    assert "not a prime power" in err


@pytest.mark.parametrize("method", ["constructive", "exact"])
def test_a_certificate_failing_its_check_exits_2_for_either_method(method, capsys,
                                                                    monkeypatch):
    def planted(graph, cert):
        return ["planted problem"]

    monkeypatch.setattr("pglambda.construct.certificate_problems", planted)
    code, out, err = run(capsys, "lambda", "dihedral:8", "--method", method)
    assert code == 2
    assert out == ""
    assert "planted problem" in err


def test_methods_that_disagree_exit_2(capsys, monkeypatch):
    # an exact certificate for lambda(D8) + 1 that passes its own check
    graph = build_power_graph(parse_group_spec("dihedral:8"))
    exact = _raise_top_label(exact_lambda(graph))._replace(
        evidence=Evidence(kind="exhaustive-search-at-span", bound=9))
    assert certificate_problems(graph, exact) == []
    monkeypatch.setattr("pglambda.construct.exact_lambda", lambda *args, **kwargs: exact)
    for argv in (["lambda", "dihedral:8", "--method", "both"],
                 ["suite", "--max-order", "1", "--group", "dihedral:8"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err == ("disagreement: constructive lambda 8 != exact-search lambda 9 "
                       "for order 8\n")


def test_a_construction_that_repeats_a_vertex_exits_2(capsys, monkeypatch):
    import pglambda.construct as construct
    descent = construct._descent_path

    def repeating(group):
        path, joints = descent(group)
        return path[:1] + path[:-1], joints

    monkeypatch.setattr(construct, "_descent_path", repeating)
    code, out, err = run(capsys, "analyze", "elemab:3,2")
    assert (code, out) == (2, "")
    assert err.startswith("constructive certificate fails its check: ")


def test_descent_with_one_class_levels_fails_the_certificate_check(capsys, monkeypatch):
    # every level of C8 is one class, and each is adjacent to the level
    # above: the descent builds a path anyway, and only certify rejects it
    monkeypatch.setattr("pglambda.construct.recognize_family", lambda group: "general")
    code, out, err = run(capsys, "lambda", "cyclic:8", "--method", "constructive")
    assert (code, out) == (2, "")
    assert err.startswith("constructive certificate fails its check: ")


def test_a_failed_construction_exits_2_before_the_search_runs(capsys, monkeypatch):
    # each certificate is checked as it is made, so the broken construction
    # is reported and the exact search, which would fail too, never runs
    def failing_search(*args, **kwargs):
        raise AssertionError("the exact search ran after a failed construction")

    monkeypatch.setattr("pglambda.construct.recognize_family", lambda group: "cyclic")
    monkeypatch.setattr("pglambda.construct.exact_lambda", failing_search)
    code, out, err = run(capsys, "lambda", "elemab:2,2", "--method", "both")
    assert (code, out) == (2, "")
    assert err == ("constructive certificate fails its check: clique-deficiency "
                   "evidence does not prove lambda 6\n")


def _raise_top_label(cert):
    """λ + 1 with a valid witness of that span, still claiming the same kind."""
    high = max(cert.witness)
    top = cert.witness.index(high)
    witness = cert.witness[:top] + (high + 1,) + cert.witness[top + 1:]
    return cert._replace(witness=witness,
                         evidence=cert.evidence._replace(bound=cert.value + 1))


def _evidence(**fields):
    return lambda cert: cert._replace(evidence=cert.evidence._replace(**fields))


@pytest.mark.parametrize("spec,corrupt", [
    ("dihedral:8", _raise_top_label),                    # {e} proves 8, not 9
    ("quaternion:8", _evidence(vertices=(1, 3))),        # x, x³: a clique proving 5
    ("quaternion:8", _evidence(vertices=(0, 1, 4))),     # x, y: not a clique
    ("quaternion:8", _evidence(vertices=(0, 2, 8))),     # out of range
    ("quaternion:8", _evidence(vertices=(2, 0))),        # unsorted
    ("quaternion:8", _evidence(vertices=(0, 2, 2))),     # a repeated vertex
    ("quaternion:8", _evidence(vertices=())),            # empty
    ("quaternion:8", _evidence(vertices=None)),
    ("quaternion:8", _evidence(bound=10)),               # off by one
    ("quaternion:8", _evidence(kind="exhaustive-search-at-span")),  # naming a clique
], ids=["raised-lambda", "weak-clique", "non-clique", "out-of-range", "unsorted",
        "repeated", "empty", "no-vertices", "bound-off-by-one", "search-naming-a-clique"])
def test_corrupted_constructive_evidence_exits_2(spec, corrupt, capsys, monkeypatch):
    _corrupt_constructive(monkeypatch, corrupt)
    code, out, err = run(capsys, "lambda", spec, "--method", "constructive")
    assert (code, out) == (2, "")
    assert err.startswith("constructive certificate fails its check: ")
    assert err.endswith(" evidence does not prove lambda 9\n")  # 8 + 1 on D8, 9 on Q8


def _corrupt_constructive(monkeypatch, corrupt):
    monkeypatch.setattr("pglambda.construct.LambdaCertificate",
                        lambda *args: corrupt(LambdaCertificate(*args)))


@pytest.mark.parametrize("corrupt,problem", [
    (lambda cert: cert._replace(witness=cert.witness[:7]),
     "witness has 7 labels for 8 vertices"),
    (lambda cert: cert._replace(construction=cert.construction._replace(
        path=cert.construction.path[::-1])),
     "construction path is not the witness's label order"),
], ids=["short-witness", "path-off-label-order"])
def test_a_certificate_failing_one_rule_alone_exits_2(corrupt, problem, capsys,
                                                       monkeypatch):
    # the labelling and evidence rules alone are covered above and below
    _corrupt_constructive(monkeypatch, corrupt)
    code, out, err = run(capsys, "lambda", "dihedral:8", "--method", "constructive")
    assert (code, out) == (2, "")
    assert err == f"constructive certificate fails its check: {problem}\n"


def test_a_complete_graph_bound_on_an_incomplete_graph_exits_2(capsys, monkeypatch):
    # the cyclic branch trusts the dispatcher; the evidence is derived from
    # the graph, and |G| = 4 does not prove the even spacing's 6
    monkeypatch.setattr("pglambda.construct.recognize_family", lambda group: "cyclic")
    code, out, err = run(capsys, "lambda", "elemab:2,2", "--method", "constructive")
    assert (code, out) == (2, "")
    assert err == ("constructive certificate fails its check: clique-deficiency "
                   "evidence does not prove lambda 6\n")


def test_lambda_witness_csv_checks_back_clean(tmp_path, capsys):
    witness = tmp_path / "w.csv"
    code, _, _ = run(capsys, "lambda", "quaternion:8", "--witness-csv", str(witness))
    assert code == 0
    code, out, _ = run(capsys, "check", "quaternion:8", str(witness))
    assert code == 0
    doc = json.loads(out)
    assert doc == {"valid": True, "span": 9, "violations": []}


# ---------------------------------------------------------------------------
# check


def test_check_reports_violations_and_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("element,label\n0,0\n1,1\n2,4\n3,6\n", encoding="utf-8")
    code, out, _ = run(capsys, "check", "cyclic:4", str(bad))
    assert code == 2
    doc = json.loads(out)
    assert doc["valid"] is False
    assert doc["violations"] == [
        {"u": 0, "v": 1, "distance": 1, "gap": 1, "required": 2}]


def test_check_incomplete_labelling_is_an_input_error(tmp_path, capsys):
    partial = tmp_path / "partial.csv"
    partial.write_text("element,label\n0,0\n1,2\n", encoding="utf-8")
    code, _, err = run(capsys, "check", "cyclic:4", str(partial))
    assert code == 1
    assert "covers 2 of 4" in err


def test_check_overlong_csv_field_is_an_input_error(tmp_path, capsys):
    # check stops reading at 64 characters a row; the CSV reader's own field
    # limit still guards text handed to parse_labelling_csv directly
    text = "element,label\n0," + "1" * 200_000 + "\n"
    labelling = tmp_path / "l.csv"
    labelling.write_text(text, encoding="utf-8")
    code, _, err = run(capsys, "check", "cyclic:4", str(labelling))
    assert code == 1
    assert err.endswith(" holds more than 320 characters, the limit for a group of order 4\n")
    with pytest.raises(ValueError, match="field larger than field limit"):
        parse_labelling_csv(text, 4)


@pytest.mark.parametrize("size,code", [(128, 0), (129, 1)])
def test_a_labelling_csv_over_64_characters_a_row_is_an_input_error(size, code, tmp_path,
                                                                    capsys):
    labelling = tmp_path / "l.csv"  # blank lines pad it; the reader skips them
    labelling.write_text("element,label\n0,0\n".ljust(size, "\n"), encoding="utf-8")
    got, _, err = run(capsys, "check", "cyclic:1", str(labelling))
    assert got == code
    assert ("holds more than 128 characters" in err) == (code == 1)


def test_check_accepts_mixed_names_and_indices(tmp_path, capsys):
    csv = tmp_path / "names.csv"
    csv.write_text("element,label\n0,-2\nx,0\nx^2,2\nx^3,4\n", encoding="utf-8")
    code, out, _ = run(capsys, "check", "cyclic:4", str(csv))
    assert code == 0
    assert json.loads(out)["valid"] is True


@pytest.mark.parametrize("spec,names", [
    ("product:cyclic:1," * 25 + "cyclic:2", None),  # names as export --format dot prints them
    ("file:long.txt", ("a" * 100, "b" * 100)),
    ("file:long.txt", ('"' * 100, "x" + '"' * 99)),  # every quote doubled in the CSV
], ids=["nested-product", "long-names", "quote-names"])
def test_check_reads_a_csv_keyed_by_long_names(spec, names, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    if names:
        Path("long.txt").write_text(f"2\n0 1\n1 0\nnames: {','.join(names)}\n", encoding="utf-8")
    first, second = ('"' + name.replace('"', '""') + '"' for name in parse_group_spec(spec).names)
    Path("w.csv").write_text(f"element,label\n{first},0\n{second},2\n", encoding="utf-8")
    code, out, err = run(capsys, "check", spec, "w.csv")
    assert (code, err) == (0, "")
    assert json.loads(out)["valid"] is True


def test_check_numeric_keys_are_indices_not_names(tmp_path, capsys):
    # the identity of cyclic:4 is *named* "1", but a numeric key always
    # means an index, so "1" here collides with the row for x (element 1)
    csv = tmp_path / "collide.csv"
    csv.write_text("element,label\n1,-2\nx,0\nx^2,2\nx^3,4\n", encoding="utf-8")
    code, _, err = run(capsys, "check", "cyclic:4", str(csv))
    assert code == 1
    assert "labelled twice" in err


def test_check_keys_that_are_not_ascii_digits_are_names(tmp_path, capsys):
    # int() once read '1_0' as index 10, '+2' as 2 and '١' as 1
    table = tmp_path / "t.txt"
    table.write_text("4\n0 1 2 3\n1 0 3 2\n2 3 0 1\n3 2 1 0\nnames: e,1_0,+2,١\n",
                     encoding="utf-8")
    csv = tmp_path / "w.csv"
    csv.write_text("element,label\ne,0\n1_0,2\n+2,4\n١,6\n", encoding="utf-8")
    code, out, err = run(capsys, "check", f"file:{table}", str(csv))
    assert (code, err) == (0, "")
    assert json.loads(out)["valid"] is True


def test_a_key_of_more_than_4300_digits_is_an_unknown_element(tmp_path, capsys):
    csv = tmp_path / "w.csv"
    csv.write_text("element,label\n" + "1" * 4301 + ",0\n", encoding="utf-8")
    code, out, err = run(capsys, "check", "dihedral:512", str(csv))
    assert (code, out, err) == (1, "", f"error: unknown element '{'1' * 64}' "
                                       f"(the first 64 of 4301 characters)\n")


@pytest.mark.parametrize("name,text,argv", [
    ("bom.csv", "element,label\n0,0\n1,2\n", ["check", "cyclic:2", "bom.csv"]),
    ("bom.txt", "2\n0 1\n1 0\n", ["analyze", "file:bom.txt", "--stable"]),
], ids=["labelling-csv", "cayley-table"])
def test_a_file_may_start_with_a_utf8_bom(name, text, argv, tmp_path, capsys, monkeypatch):
    # each was read with the BOM as part of its first cell or line
    monkeypatch.chdir(tmp_path)
    Path(name).write_bytes(b"\xef\xbb\xbf" + text.encode())
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert json.loads(out)


@pytest.mark.parametrize("name,text,message", [
    ("t.txt", "2\n0 ١\n١ +0\n", "cell (0, 1) holds '١', not one of 0..1"),
    ("t.txt", "+2\n0 1\n1 0\n",
     "the element count must be a positive integer in ASCII digits, got '+2'"),
    ("t.txt", "2\n00 1\n1 0_0\n", "cell (0, 0) holds '00', not one of 0..1"),
    ("w.csv", "element,label\n0,٠\n1,+2\n", "label '٠' is not an integer"),
], ids=["table-cells", "table-count", "table-zeros", "labels"])
def test_a_number_not_in_ascii_digits_is_refused_in_a_table_or_a_label(
        name, text, message, tmp_path, capsys, monkeypatch):
    # int() once read each of these, and every call exited 0
    monkeypatch.chdir(tmp_path)
    Path(name).write_text(text, encoding="utf-8")
    argv = ["check", "cyclic:2", name] if name == "w.csv" else ["analyze", f"file:{name}"]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("rows,message", [
    ("0,0,x^2", "labelling row ['0', '0', 'x^2'] must have 2 columns"),
    ("0", "labelling row ['0'] must have 2 columns"),
    ("0,1,2,3,4,5,6,7",
     "labelling row ['0', '1', '2', '3', '4', '5', '6', '7'] must have 2 columns"),
    ("z,0", "unknown element 'z'"),
    ("0,a", "label 'a' is not an integer"),
    ("x,0\nx,2", "element 'x' labelled twice"),
], ids=["three-columns", "one-column", "eight-columns", "unknown-element", "label",
        "twice"])
def test_labelling_csv_errors_quote_short_text_whole(rows, message, tmp_path, capsys):
    csv = tmp_path / "bad.csv"
    csv.write_text(f"element,label\n{rows}\n", encoding="utf-8")
    code, out, err = run(capsys, "check", "cyclic:4", str(csv))
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("row", ["a" * 30000 + ",0", "0,0," + "b" * 30000, "0," + "7" * 29999 + "x"],
                         ids=["unknown-element", "third-column", "label"])
def test_labelling_csv_errors_quote_a_long_cell_by_its_first_64_characters(row, tmp_path,
                                                                           capsys):
    # each message once echoed the whole cell, a stderr line of about 30 KB
    csv = tmp_path / "long.csv"
    csv.write_text(f"element,label\n{row}\n", encoding="utf-8")
    code, out, err = run(capsys, "check", "dihedral:512", str(csv))
    assert code == 1 and not out
    assert len(err) < 400 and " (the first 64 of 30000 characters)" in err


def test_a_labelling_row_of_many_cells_names_its_first_8_and_its_count(tmp_path, capsys):
    # the message once listed every cell, a stderr line of about 75 KB
    csv = tmp_path / "wide.csv"
    csv.write_text("element,label\n0" + ",1" * 15000 + "\n", encoding="utf-8")
    code, out, err = run(capsys, "check", "dihedral:512", str(csv))
    assert (code, out) == (1, "")
    assert len(err) < 400
    assert err == ("error: labelling row ['0', '1', '1', '1', '1', '1', '1', '1', ...] "
                   "(the first 8 of 15001 cells) must have 2 columns\n")


# ---------------------------------------------------------------------------
# suite


def test_suite_passes_on_small_catalogue(capsys):
    code, out, _ = run(capsys, "suite", "--max-order", "8", "--group", "cyclic:6")
    assert code == 0
    doc = json.loads(out)
    assert doc["failures"] == 0
    assert doc["first_failure"] is None
    # 12 subjects: power-graph-shape and lower-hook on each, the formula on
    # the 11 p-groups, congruences on 2 of them and family class numbers on 2
    assert doc["checks"] == 12 * 2 + 11 + 2 + 2
    suites = {r["suite"] for r in doc["results"]}
    assert "lower-hook" in suites and "lambda-matches-formula" in suites
    assert any(r["subject"] == "cyclic:6" for r in doc["results"])


def test_suite_passes_on_the_whole_catalogue(capsys):
    # heisenberg:5, of order 125, is the only subject above 81
    code, out, _ = run(capsys, "suite", "--max-order", "125")
    assert code == 0
    doc = json.loads(out)
    assert doc["subjects"] == len(_ENTRIES) == 51
    assert (doc["checks"], doc["failures"]) == (177, 0)
    assert {r["suite"] for r in doc["results"] if r["subject"] == "heisenberg:5"} == {
        "power-graph-shape", "class-number-congruences", "lower-hook",
        "lambda-matches-formula"}


def test_suite_adds_a_catalogued_group_once(capsys):
    code, out, _ = run(capsys, "suite", "--max-order", "8",
                       "--group", "cyclic:6", "--group", "cyclic:6")
    assert code == 0
    doc = json.loads(out)
    assert doc["subjects"] == sum(order <= 8 for order, _ in _ENTRIES)
    on_c6 = [r["suite"] for r in doc["results"] if r["subject"] == "cyclic:6"]
    assert on_c6 == ["power-graph-shape", "lower-hook"]


@pytest.mark.parametrize("family", ["semidihedral", "dihedral", "quaternion"])
def test_suite_checks_family_class_numbers_on_a_table_file(family, tmp_path, capsys):
    # the family is read off the table, so a file: table is checked as the
    # built group is: the scrambled semidihedral table, and exported ones
    table = Path(__file__).parent / "data" / "semidihedral16-scrambled.txt"
    if family != "semidihedral":
        table = tmp_path / f"{family}16.txt"
        assert run(capsys, "export", f"{family}:16", "--format", "cayley",
                   "-o", str(table))[0] == 0
    code, out, _ = run(capsys, "suite", "--max-order", "1", "--group", f"file:{table}")
    assert code == 0
    rows = [(r["subject"], r["passed"]) for r in json.loads(out)["results"]
            if r["suite"] == "family-class-numbers"]
    assert rows == [(f"file:{table}", True)]


def test_suite_pretty_lines(capsys):
    code, out, _ = run(capsys, "suite", "--max-order", "4", "--pretty")
    assert code == 0
    assert "0 failures" in out
    assert out.count("PASS") > 10


def test_suite_search_cap_reaches_the_exact_suites(capsys):
    code, out, _ = run(capsys, "suite", "--max-order", "8", "--group", "dihedral:64",
                       "--search-cap", "64")
    assert code == 0
    doc = json.loads(out)
    assert doc["failures"] == 0
    details = {r["suite"]: r["detail"] for r in doc["results"]
               if r["subject"] == "dihedral:64"}
    assert details["lambda-matches-formula"] == (
        "lambda 64 by constructive and exact-search, formula 64")


def test_suite_searches_c2_x_c10_in_under_a_second(capsys):
    # a non-p-group within the cap is still searched (lambda 21 > |G|)
    started = time.monotonic()
    code, _, _ = run(capsys, "suite", "--max-order", "1",
                     "--group", "product:cyclic:2,cyclic:10")
    assert time.monotonic() - started < 1.0
    assert code == 0


def test_suite_counts_a_witness_without_a_path_as_a_failed_check(capsys, monkeypatch):
    # lambda = |G| with a witness that converts to no path: the shared
    # certificate check rejects it before any suite reads it (exit 2, not 1)
    monkeypatch.setattr("pglambda.construct.exact_lambda",
                        lambda *args, **kwargs: _INVALID_D8_CERT)
    code, out, err = run(capsys, "suite", "--max-order", "1", "--group", "dihedral:8")
    assert code == 2
    assert out == ""
    assert err.startswith("exact-search certificate fails its check: "
                          "witness violates labelling constraints")


def test_suite_checks_an_exact_certificate_above_the_order(capsys, monkeypatch):
    # lambda(Q8) = 9 > |G|: the suites read only the value, so the witness
    # must be checked where the certificate is made
    bad_q8 = LambdaCertificate(
        witness=tuple(range(7)) + (9,),
        evidence=Evidence(kind="exhaustive-search-at-span", bound=9),
        method="exact-search")
    monkeypatch.setattr("pglambda.construct.exact_lambda",
                        lambda *args, **kwargs: bad_q8)
    code, _, err = run(capsys, "suite", "--max-order", "1", "--group", "quaternion:8")
    assert code == 2
    assert err.startswith("exact-search certificate fails its check: "
                          "witness violates labelling constraints")


def test_a_failed_property_exits_2_and_names_it(capsys, monkeypatch):
    monkeypatch.setattr("pglambda.suites._formula_lambda", lambda s: -1)
    code, out, err = run(capsys, "suite", "--max-order", "1", "--group", "cyclic:2")
    assert code == 2
    doc = json.loads(out)
    assert doc["first_failure"] == "lambda-matches-formula: cyclic:2"
    assert err == ("failed property: lambda-matches-formula on cyclic:2 "
                   "(lambda 2 by constructive and exact-search, formula -1)\n")


def test_an_identity_that_is_not_universal_fails_the_power_graph_shape(capsys,
                                                                        monkeypatch):
    # the identity loses its edge to element 1; only this check sees it
    def without_one_identity_edge(group):
        d1 = list(build_power_graph(group).neighbors)
        d1[0] &= ~0b10
        d1[1] &= ~0b01
        return Graph(d1)

    monkeypatch.setattr("pglambda.suites.build_power_graph", without_one_identity_edge)
    code, out, err = run(capsys, "suite", "--max-order", "1", "--group", "cyclic:4")
    assert code == 2
    assert json.loads(out)["first_failure"] == "power-graph-shape: cyclic:4"
    assert err == ("failed property: power-graph-shape on cyclic:4 "
                   "(identity is not universal)\n")


def test_a_hook_that_holds_on_an_element_of_mixed_order_fails_the_suite(capsys,
                                                                        monkeypatch):
    # C10 has an element of order 10, so the hook must break there
    monkeypatch.setattr("pglambda.suites.check_lower_hook", lambda group: None)
    code, out, err = run(capsys, "suite", "--max-order", "1", "--group", "cyclic:10")
    assert code == 2
    assert json.loads(out)["first_failure"] == "lower-hook: cyclic:10"
    assert err == ("failed property: lower-hook on cyclic:10 "
                   "(holds; element order 10 implies a break)\n")


def test_a_class_of_the_wrong_size_fails_the_power_graph_shape(capsys, monkeypatch):
    # with φ(d) read as d, the classes of orders 2 and 4 look short
    monkeypatch.setattr("pglambda.suites.euler_phi", lambda n: n)
    code, out, err = run(capsys, "suite", "--max-order", "1", "--group", "cyclic:4")
    assert code == 2
    assert json.loads(out)["first_failure"] == "power-graph-shape: cyclic:4"
    assert err == ("failed property: power-graph-shape on cyclic:4 (class of order 2 "
                   "has 1 members; class of order 4 has 2 members)\n")


def _with_record(spec, **fields):
    """The suites' subject for spec, its cyclic-subgroup record altered
    after the power graph is built from it, as certification builds it."""
    group = parse_group_spec(spec)
    build_power_graph(group)
    group._subgroups = group.cyclic_subgroups()._replace(**fields)
    pp = prime_power(group.order)
    return suites_module._Subject(spec, group, group.order, pp and pp[0], [])


def test_classes_that_miss_an_element_fail_the_power_graph_shape():
    sub = make_cyclic(4).cyclic_subgroups()  # drop the subgroup of order 4
    subject = _with_record("cyclic:4", elements=sub.elements[:-1],
                           generators=sub.generators[:-1])
    assert suites_module._suite_power_graph_shape(subject) == (
        False, "classes cover 2 of 4 elements")


@pytest.mark.parametrize("spec,order,detail", [
    ("elemab:3,2", 3, "m(3) = 3 is not 1+3 mod 9"),
    ("product:cyclic:3,cyclic:9", 9, "m(9) = 2 is not divisible by 3"),
])
def test_a_class_number_off_by_one_fails_the_congruences(spec, order, detail):
    by_order = parse_group_spec(spec).cyclic_subgroups().by_order
    subject = _with_record(spec, by_order={**by_order, order: by_order[order][1:]})
    assert suites_module._suite_congruences(subject) == (False, detail)


def test_semidihedral_class_numbers_match_the_family_expectations():
    subjects = [(f"semidihedral:{n}", parse_group_spec(f"semidihedral:{n}"))
                for n in (16, 32)]
    details = {r.subject: r.detail
               for r in run_suites(subjects, exact_cap=1, time_budget=1.0)
               if r.suite == "family-class-numbers" and r.passed}
    assert details == {
        "semidihedral:16": "class numbers [(1, 1), (2, 5), (4, 3), (8, 1)]",
        "semidihedral:32": "class numbers [(1, 1), (2, 9), (4, 5), (8, 1), (16, 1)]",
    }


def test_a_wrong_family_exception_fails_the_family_class_numbers(capsys, monkeypatch):
    # dihedral's exception moved from order 2 to order 4: D8 has five
    # subgroups of order 2 and one of order 4, not one and five
    monkeypatch.setitem(suites_module._FAMILY_EXCEPTIONS, "dihedral", {4: 2})
    code, out, err = run(capsys, "suite", "--max-order", "8")
    assert code == 2
    assert json.loads(out)["first_failure"] == "family-class-numbers: dihedral:8"
    assert err == ("failed property: family-class-numbers on dihedral:8 (expected "
                   "[(1, 1), (2, 1), (4, 5)], got [(1, 1), (2, 5), (4, 1)])\n")


def test_catalogue_entries_are_sorted_unique_and_of_their_order(capsys, monkeypatch):
    assert list(_ENTRIES) == sorted(set(_ENTRIES))
    assert len({spec for _, spec in _ENTRIES}) == len(_ENTRIES)
    for order, spec in _ENTRIES:
        assert parse_group_spec(spec).order == order, spec
    # a selection builds nothing above its order, even under a low cap
    monkeypatch.setenv("LAMBDA_MAX_ORDER", "16")
    code, out, _ = run(capsys, "suite", "--max-order", "8")
    assert code == 0
    assert json.loads(out)["subjects"] == sum(order <= 8 for order, _ in _ENTRIES)


def test_suite_time_budget_bounds_the_exact_search(capsys, monkeypatch):
    # the search reads the clock once every 1,024 steps and places one
    # vertex a step, so a zero budget stops it on any graph of 1,024
    # vertices or more; the suite exits 3 with the floor it had proved
    monkeypatch.setenv("LAMBDA_MAX_ORDER", "2048")
    started = time.monotonic()
    code, _, err = run(capsys, "suite", "--max-order", "1", "--group", "dihedral:2048",
                       "--time-budget", "0")
    assert code == 3
    assert "proven lower bound: 2048\n" in err, err
    assert time.monotonic() - started < 10


def test_suite_max_order_above_cap_is_resource_limited(capsys):
    code, out, err = run(capsys, "suite", "--max-order", "1024")
    assert (code, out) == (3, "")
    assert err == ("resource limit: suite subject of order 1024 exceeds the cap 512 "
                   "(raise LAMBDA_MAX_ORDER to override)\n")


# ---------------------------------------------------------------------------
# resource limits and bad input


def test_group_order_cap_gives_exit_3(capsys):
    code, _, err = run(capsys, "analyze", "cyclic:1024")
    assert code == 3
    assert "512" in err


def test_product_order_cap_gives_exit_3(capsys):
    code, out, err = run(capsys, "lambda", "product:cyclic:32,cyclic:32")
    assert (code, out) == (3, "")
    assert err == ("resource limit: product of order 1024 exceeds the cap 512 "
                   "(raise LAMBDA_MAX_ORDER to override)\n")


@pytest.mark.parametrize("size,code", [(1600, 0), (1601, 3)])
def test_a_cayley_file_over_64_characters_a_cell_is_resource_limited(size, code, tmp_path,
                                                                     capsys, monkeypatch):
    monkeypatch.setenv("LAMBDA_MAX_ORDER", "4")  # limit 64 * (4 + 1)^2 = 1600
    table = tmp_path / "c1.txt"  # the trivial group, padded by a comment line
    table.write_text("1\n0\n".ljust(size, "#"), encoding="utf-8")
    got, _, err = run(capsys, "analyze", f"file:{table}")
    assert got == code
    assert ("holds more than 1600 characters, the limit at the order cap 4 "
            "(raise LAMBDA_MAX_ORDER to override)" in err) == (code == 3)


@pytest.mark.parametrize("cap", ["16384", "1000000000000"])
def test_a_small_cayley_file_reads_under_a_huge_order_cap(cap, tmp_path, capsys, monkeypatch):
    # the limit 64 * (cap + 1)^2 is 17 GB at 16384 and past any buffer at
    # 10^12; the file is read in chunks, so nothing that size is allocated
    monkeypatch.setenv("LAMBDA_MAX_ORDER", cap)
    table = tmp_path / "c2.txt"
    table.write_text("2\n0 1\n1 0\n", encoding="utf-8")
    code, out, err = run(capsys, "analyze", f"file:{table}", "--stable")
    assert (code, err) == (0, "")
    assert json.loads(out)["lambda"]["lambda"] == 2


@pytest.mark.skipif(not Path("/dev/zero").exists(), reason="needs /dev/zero")
@pytest.mark.parametrize("argv,code,message", [
    (["analyze", "file:/dev/zero"], 3, "more than 16842816 characters"),
    (["check", "cyclic:8", "/dev/zero"], 1, "more than 576 characters"),
    (["suite", "--max-order", "1", "--group", "file:/dev/zero"], 3,
     "more than 16842816 characters"),
], ids=["analyze", "check", "suite"])
def test_an_endless_file_is_refused_after_a_bounded_read(argv, code, message, capsys):
    started = time.monotonic()
    got, out, err = run(capsys, *argv)
    assert (got, out) == (code, "")
    assert err.startswith("resource limit: " if code == 3 else "error: ")
    assert message in err
    assert time.monotonic() - started < 5


def test_file_input_respects_the_group_order_cap(tmp_path, capsys, monkeypatch):
    table = tmp_path / "c64.txt"
    table.write_text(format_cayley(make_cyclic(64)), encoding="utf-8")
    monkeypatch.setenv("LAMBDA_MAX_ORDER", "16")
    code, out, err = run(capsys, "analyze", f"file:{table}")
    assert code == 3
    assert out == ""
    assert "exceeds the cap 16" in err


def test_exact_search_cap_gives_exit_3(capsys):
    code, _, err = run(capsys, "lambda", "dihedral:64", "--method", "exact",
                       "--search-cap", "32")
    assert code == 3
    assert "exact search capped at 32" in err


def test_exact_search_cap_can_be_raised(capsys):
    code, out, _ = run(capsys, "lambda", "dihedral:64", "--method", "exact",
                       "--search-cap", "64")
    assert code == 0
    assert json.loads(out)["lambda"] == 64


def test_missing_file_spec(capsys):
    code, _, err = run(capsys, "analyze", "file:/no/such/table.txt")
    assert code == 1
    assert "table.txt" in err


def test_corrupted_cayley_file(tmp_path, capsys):
    table = tmp_path / "broken.txt"
    table.write_text("4\n0 1 2 3\n1 2 3 0\n2 3 1 1\n3 0 1 2\n", encoding="utf-8")
    code, _, err = run(capsys, "analyze", f"file:{table}")
    assert code == 1
    assert "(a·b)·c != a·(b·c)" in err


@pytest.mark.parametrize("argv,table,message", [
    (["analyze", "dihedral:6"], None,
     "dihedral order must be 2^(e+1) with order >= 8, got 6"),
    (["analyze", "heisenberg:2"], None,
     "the construction needs an odd prime; p=2 was given"),
    (["analyze", "quaternion:12"], None,
     "quaternion order must be 2^(e+1) with order >= 8, got 12"),
    (["lambda", "cyclic:6", "--method", "constructive"], None,
     "order 6 is not a prime power"),
    (["analyze"], "2\n0 1\n1 5\n", "cell (1, 1) holds '5', not one of 0..1"),
    (["analyze"], "3\n0 1 5\n1 2\n2 0 1\n", "cell (0, 2) holds '5', not one of 0..2"),
    (["analyze"], "2\n1 0\n0 1\n",
     "element 0 does not act as identity on element 0"),
    (["analyze"], "4\n0 1 2 3\n1 2 3 0\n2 3 1 1\n3 0 1 2\n",
     "(a·b)·c != a·(b·c) for (a, b, c) = (1, 1, 2)"),
    (["analyze"], "3\n0 1 2\n1 1 1\n2 2 2\n", "row 1 is not a permutation of 0..2"),
    (["check"], "2\n0 1\n1 0\nnames: a,a\n", "element 1 has an empty or repeated name 'a'"),
    (["analyze"], "0\n", "the element count must be positive, got 0"),
    (["analyze"], "-3\n0\n",
     "the element count must be a positive integer in ASCII digits, got '-3'"),
], ids=["dihedral:6", "heisenberg:2", "quaternion:12", "constructive-cyclic:6",
        "cell-out-of-range", "cell-before-short-row", "no-identity", "not-associative",
        "not-latin", "repeated-names", "count-zero", "count-negative"])
def test_input_errors_exit_1_with_their_message(argv, table, message, tmp_path,
                                                capsys):
    if table is not None:
        path = tmp_path / "table.txt"
        path.write_text(table, encoding="utf-8")
        argv = [*argv, f"file:{path}"]
        if argv[0] == "check":
            csv = tmp_path / "labels.csv"
            csv.write_text("element,label\na,0\n1,2\n", encoding="utf-8")
            argv.append(str(csv))
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert message in err


@pytest.mark.parametrize("option,value", [
    ("--time-budget", "nan"),
    ("--time-budget", "inf"),
    ("--time-budget", "-inf"),
    ("--time-budget", "-1"),
    # ASCII digits with at most one decimal point, as the integer options
    ("--time-budget", "\u0663"),
    ("--time-budget", "1_0"),
    ("--time-budget", " 2"),
    ("--time-budget", "+1"),
    ("--time-budget", "1e1"),
    ("--search-cap", "-5"),
    ("--search-cap", "0"),
])
def test_out_of_range_search_limits_are_input_errors(option, value, capsys):
    code, out, err = run(capsys, "lambda", "cyclic:24", "--method", "exact",
                         f"{option}={value}")
    assert code == 1
    assert out == ""
    assert f"argument {option}" in err and value in err


# Ids keep the numbers they had when check still took -j and -k.
@pytest.mark.parametrize("argv,option", [
    pytest.param(["suite", "--max-order", "0"], "--max-order", id="argv0---max-order"),
    pytest.param(["suite", "--max-order", "-3"], "--max-order", id="argv1---max-order"),
    # options follow the spec-parameter rule: ASCII digits only
    pytest.param(["suite", "--max-order", "+8"], "--max-order", id="argv6---max-order"),
    pytest.param(["lambda", "cyclic:8", "--search-cap", " 1_6"], "--search-cap",
                 id="argv7---search-cap"),
    pytest.param(["lambda", "cyclic:8", "--search-cap", "\u0663\u0662"], "--search-cap",
                 id="argv8---search-cap"),
])
def test_out_of_range_counts_are_input_errors(argv, option, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert f"argument {option}" in err and argv[-1] in err


# Ids keep the numbers they had when check still took -j and -k.
@pytest.mark.parametrize("argv,option", [
    pytest.param(["lambda", "cyclic:8", "--search-ca=--"], "--search-cap",
                 id="argv0---search-cap"),
    pytest.param(["lambda", "cyclic:8", "--time-budget=--"], "--time-budget",
                 id="argv1---time-budget"),
    pytest.param(["lambda", "cyclic:8", "--method=--"], "--method", id="argv2---method"),
    pytest.param(["lambda", "cyclic:8", "--witness-csv=--"], "--witness-csv",
                 id="argv3---witness-csv"),
    pytest.param(["suite", "--max-order=--"], "--max-order", id="argv6---max-order"),
    pytest.param(["suite", "--group=--"], "--group", id="argv7---group"),
    pytest.param(["export", "cyclic:8", "--output=--"], "--output", id="argv8---output"),
    pytest.param(["export", "cyclic:8", "-o--"], "--output/-o", id="argv9---output/-o"),
])
def test_an_attached_double_dash_is_refused_as_an_option_value(argv, option, tmp_path,
                                                               capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # nothing may be written under the name '--'
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert f"argument {option}" in err and "'--'" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


# Ids keep the numbers they had when check still took -k.
@pytest.mark.parametrize("argv,setting", [
    pytest.param(["lambda", "cyclic:8", "--search-cap", "1" * 5000], "the search cap",
                 id="argv0-the search cap"),
    pytest.param(["analyze", "cyclic:" + "1" * 5000], "cyclic order", id="argv2-cyclic order"),
    pytest.param(["analyze", "elemab:2," + "1" * 5000], "rank", id="argv3-rank"),
    pytest.param(["lambda", "cyclic:8", "ENV"], "LAMBDA_MAX_ORDER", id="argv4-LAMBDA_MAX_ORDER"),
])
def test_integers_over_4300_digits_are_input_errors(argv, setting, capsys, monkeypatch):
    # Python 3.11's int() refuses them and 3.10's accepts them; both exit 1 here
    if argv[-1] == "ENV":
        monkeypatch.setenv("LAMBDA_MAX_ORDER", "5" * 4301)
        argv = argv[:-1]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert f"{setting} may have at most 4300 digits, got " in err
    assert "set_int_max_str_digits" not in err


def test_lambda_max_order_not_in_ascii_digits_is_an_input_error(capsys, monkeypatch):
    # LAMBDA_MAX_ORDER follows the spec-parameter rule
    monkeypatch.setenv("LAMBDA_MAX_ORDER", " +1_0")
    code, out, err = run(capsys, "lambda", "cyclic:8")
    assert (code, out) == (1, "")
    assert "LAMBDA_MAX_ORDER must be a positive integer in ASCII digits, got ' +1_0'" in err


def test_help_and_no_arguments(capsys):
    assert main(["--help"]) == 0  # argparse SystemExit(0) is absorbed
    assert "analyze" in capsys.readouterr().out
    assert main([]) == 1
    assert main(["no-such-command"]) == 1
