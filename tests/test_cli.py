"""Command-line interface: exit codes, JSON output, and file round trips."""

from __future__ import annotations

import json
import re
import time

import pytest

from pglambda import (
    Evidence,
    LambdaCertificate,
    build_power_graph,
    certificate_problems,
    exact_lambda,
    format_cayley,
    make_cyclic,
    parse_group_spec,
    span,
    validate_labelling,
)
from pglambda.catalog import _ENTRIES
from pglambda.cli import main
from pglambda.suites import run_suites


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# spec parsing


@pytest.mark.parametrize("spec,order,tag", [
    ("cyclic:12", 12, "cyclic"),
    ("dihedral:8", 8, "dihedral"),
    ("quaternion:16", 16, "quaternion"),
    ("semidihedral:32", 32, "semidihedral"),
    ("elemab:3,2", 9, "elemab"),
    ("heisenberg:3", 27, "heisenberg"),
    ("product:elemab:2,2,cyclic:2", 8, "product"),
    ("product:cyclic:2,product:cyclic:2,cyclic:2", 8, "product"),
])
def test_parse_group_spec_shapes(spec, order, tag):
    group = parse_group_spec(spec)
    assert group.order == order
    assert group.family_tag == tag


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
    ("export", "cyclic:3", "--stable"),
    ("export", "cyclic:3", "--pretty"),
    ("export", "cyclic:3", "--search-cap", "8"),
    ("export", "cyclic:3", "--time-budget", "1"),
    ("check", "cyclic:8", "w.csv", "--search-cap", "8"),
    ("check", "cyclic:8", "w.csv", "--time-budget", "1"),
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


def test_analyze_large_non_p_group_skips_lambda(capsys):
    code, out, _ = run(capsys, "analyze", "product:cyclic:6,cyclic:7", "--stable")
    assert code == 0
    doc = json.loads(out)
    assert doc["lambda"] is None
    assert "lambda not computed" in doc["note"]


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


# λ(D8) = 8, with a witness that is no labelling of its power graph
_INVALID_D8_CERT = LambdaCertificate(
    value=8, witness=tuple(range(8)),
    evidence=Evidence(kind="exhaustive-search-at-span", bound=8, span=7),
    method="exact-search")


def test_lambda_both_checks_the_exact_certificate(capsys, monkeypatch):
    monkeypatch.setattr("pglambda.construct.exact_lambda",
                        lambda *args, **kwargs: _INVALID_D8_CERT)
    code, _, err = run(capsys, "lambda", "dihedral:8", "--method", "both")
    assert code == 2
    assert "consistency failure: witness violates labelling constraints" in err


def test_lambda_constructive_emits_construction(capsys):
    code, out, _ = run(capsys, "lambda", "dihedral:16", "--method", "constructive")
    assert code == 0
    doc = json.loads(out)
    assert doc["lambda"] == 16
    assert doc["construction"]["kind"] == "involution-alternation"
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
    assert doc["evidence"]["kind"] == "path-cover-floor"
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
    assert doc["evidence"] == {"kind": "path-cover-floor", "bound": 152}
    graph = build_power_graph(make_cyclic(120))
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
        evidence=Evidence(kind="exhaustive-search-at-span", bound=9, span=8))
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

    def repeating(graph):
        path, joints = descent(graph)
        return path[:1] + path[:-1], joints

    monkeypatch.setattr(construct, "_descent_path", repeating)
    code, out, err = run(capsys, "analyze", "elemab:3,2")
    assert (code, out) == (2, "")
    assert err.startswith("constructive certificate fails its check: ")


def _raise_top_label(cert):
    """λ + 1 with a valid witness of that span, still claiming the same kind."""
    high = max(cert.witness)
    top = cert.witness.index(high)
    witness = cert.witness[:top] + (high + 1,) + cert.witness[top + 1:]
    return cert._replace(value=cert.value + 1, witness=witness,
                         evidence=cert.evidence._replace(bound=cert.value + 1))


@pytest.mark.parametrize("spec,kind,corrupt", [
    ("dihedral:8", "power-graph-bound", _raise_top_label),
    ("quaternion:8", "universal-nonidentity-vertex",
     lambda cert: cert._replace(evidence=cert.evidence._replace(vertex=1))),
])
def test_corrupted_constructive_evidence_exits_2(spec, kind, corrupt, capsys, monkeypatch):
    monkeypatch.setattr("pglambda.construct.LambdaCertificate",
                        lambda **fields: corrupt(LambdaCertificate(**fields)))
    code, out, err = run(capsys, "lambda", spec, "--method", "constructive")
    assert (code, out) == (2, "")
    assert err == (f"constructive certificate fails its check: {kind} evidence "
                   "does not prove lambda 9\n")  # 8 + 1 on D8, 9 on Q8


def test_a_complete_graph_bound_on_an_incomplete_graph_exits_2(capsys, monkeypatch):
    # the cyclic branch trusts the dispatcher; the evidence is derived from
    # the graph, and |G| = 4 does not prove the even spacing's 6
    monkeypatch.setattr("pglambda.construct.recognize_family", lambda group: "cyclic")
    code, out, err = run(capsys, "lambda", "elemab:2,2", "--method", "constructive")
    assert (code, out) == (2, "")
    assert err == ("constructive certificate fails its check: power-graph-bound "
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
    labelling = tmp_path / "l.csv"
    labelling.write_text("element,label\n0," + "1" * 200_000 + "\n", encoding="utf-8")
    code, _, err = run(capsys, "check", "cyclic:4", str(labelling))
    assert code == 1
    assert "field larger than field limit" in err


def test_check_custom_separations(tmp_path, capsys):
    csv = tmp_path / "tight.csv"
    csv.write_text("element,label\n0,0\n1,1\n2,2\n", encoding="utf-8")
    code, _, _ = run(capsys, "check", "cyclic:3", str(csv))
    assert code == 2  # fails at the default j=2
    code, out, _ = run(capsys, "check", "cyclic:3", str(csv), "-j", "1")
    assert code == 0  # consecutive labels suffice when j=1
    assert json.loads(out)["span"] == 2


def test_check_accepts_mixed_names_and_indices(tmp_path, capsys):
    csv = tmp_path / "names.csv"
    csv.write_text("element,label\n0,-2\nx,0\nx^2,2\nx^3,4\n", encoding="utf-8")
    code, out, _ = run(capsys, "check", "cyclic:4", str(csv))
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_check_numeric_keys_are_indices_not_names(tmp_path, capsys):
    # the identity of cyclic:4 is *named* "1", but a numeric key always
    # means an index, so "1" here collides with the row for x (element 1)
    csv = tmp_path / "collide.csv"
    csv.write_text("element,label\n1,-2\nx,0\nx^2,2\nx^3,4\n", encoding="utf-8")
    code, _, err = run(capsys, "check", "cyclic:4", str(csv))
    assert code == 1
    assert "labelled twice" in err


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


def test_suite_adds_a_catalogued_group_once(capsys):
    code, out, _ = run(capsys, "suite", "--max-order", "8",
                       "--group", "cyclic:6", "--group", "cyclic:6")
    assert code == 0
    doc = json.loads(out)
    assert doc["subjects"] == sum(order <= 8 for order, _ in _ENTRIES)
    on_c6 = [r["suite"] for r in doc["results"] if r["subject"] == "cyclic:6"]
    assert on_c6 == ["power-graph-shape", "lower-hook"]


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
    assert "consistency failure: witness violates labelling constraints" in err


def test_suite_checks_an_exact_certificate_above_the_order(capsys, monkeypatch):
    # lambda(Q8) = 9 > |G|: the suites read only the value, so the witness
    # must be checked where the certificate is made
    bad_q8 = LambdaCertificate(
        value=9, witness=tuple(range(8)),
        evidence=Evidence(kind="exhaustive-search-at-span", bound=9, span=8),
        method="exact-search")
    monkeypatch.setattr("pglambda.construct.exact_lambda",
                        lambda *args, **kwargs: bad_q8)
    code, _, err = run(capsys, "suite", "--max-order", "1", "--group", "quaternion:8")
    assert code == 2
    assert "consistency failure" in err


def test_a_failed_property_exits_2_and_names_it(capsys, monkeypatch):
    monkeypatch.setattr("pglambda.suites._formula_lambda", lambda s: -1)
    code, out, err = run(capsys, "suite", "--max-order", "1", "--group", "cyclic:2")
    assert code == 2
    doc = json.loads(out)
    assert doc["first_failure"] == "lambda-matches-formula: cyclic:2"
    assert err == ("failed property: lambda-matches-formula on cyclic:2 "
                   "(lambda 2 by constructive and exact-search, formula -1)\n")


def test_a_hook_that_holds_on_an_element_of_mixed_order_fails_the_suite(capsys,
                                                                        monkeypatch):
    # C10 has an element of order 10, so the hook must break there
    monkeypatch.setattr("pglambda.suites.check_lower_hook", lambda group: None)
    code, out, err = run(capsys, "suite", "--max-order", "1", "--group", "cyclic:10")
    assert code == 2
    assert json.loads(out)["first_failure"] == "lower-hook: cyclic:10"
    assert err == ("failed property: lower-hook on cyclic:10 "
                   "(holds; element order 10 implies a break)\n")


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


def test_suite_time_budget_bounds_the_exact_search(capsys):
    # the exact search on C36 outlasts the budget; the suite stops with
    # exit 3 and the bound it proved: its floor, 48, or more, as far as the
    # search got in the time, and below lambda(C36) = 52
    started = time.monotonic()
    code, _, err = run(capsys, "suite", "--max-order", "1", "--group", "cyclic:36",
                       "--search-cap", "36", "--time-budget", "0.5")
    assert code == 3
    proven = re.search(r"proven lower bound: (\d+)\n", err)
    assert proven and 48 <= int(proven.group(1)) < 52, err
    assert time.monotonic() - started < 10


def test_suite_max_order_above_cap_is_resource_limited(capsys):
    code, _, err = run(capsys, "suite", "--max-order", "1024")
    assert code == 3
    assert "LAMBDA_MAX_ORDER" in err


# ---------------------------------------------------------------------------
# resource limits and bad input


def test_group_order_cap_gives_exit_3(capsys):
    code, _, err = run(capsys, "analyze", "cyclic:1024")
    assert code == 3
    assert "512" in err


def test_file_input_respects_the_group_order_cap(tmp_path, capsys, monkeypatch):
    table = tmp_path / "c64.txt"
    table.write_text(format_cayley(make_cyclic(64)), encoding="utf-8")
    monkeypatch.setenv("LAMBDA_MAX_ORDER", "16")
    code, out, err = run(capsys, "analyze", f"file:{table}")
    assert code == 3
    assert out == ""
    assert "exceeds the cap 16" in err


def test_exact_search_cap_gives_exit_3(capsys):
    code, _, err = run(capsys, "lambda", "dihedral:64", "--method", "exact")
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
    (["analyze"], "2\n0 1\n1 5\n", "cell (1, 1) holds 5, outside 0..1"),
    (["analyze"], "2\n1 0\n0 1\n",
     "element 0 does not act as identity on element 0"),
    (["analyze"], "4\n0 1 2 3\n1 2 3 0\n2 3 1 1\n3 0 1 2\n",
     "(a·b)·c != a·(b·c) for (a, b, c) = (1, 1, 2)"),
    (["analyze"], "3\n0 1 2\n1 1 1\n2 2 2\n", "row 1 is not a permutation of 0..2"),
    (["check"], "2\n0 1\n1 0\nnames: a,a\n", "element 1 has an empty or repeated name 'a'"),
], ids=["dihedral:6", "heisenberg:2", "quaternion:12", "constructive-cyclic:6",
        "cell-out-of-range", "no-identity", "not-associative", "not-latin",
        "repeated-names"])
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


@pytest.mark.parametrize("argv,option", [
    (["suite", "--max-order", "0"], "--max-order"),
    (["suite", "--max-order", "-3"], "--max-order"),
    (["check", "cyclic:8", "LABELS", "-j", "-1"], "-j"),
    (["check", "cyclic:8", "LABELS", "-k", "-1"], "-k"),
    (["check", "cyclic:8", "LABELS", "-j", "two"], "-j"),
    # options follow the spec-parameter rule: ASCII digits only
    (["check", "cyclic:8", "LABELS", "-k", "-0"], "-k"),
    (["suite", "--max-order", "+8"], "--max-order"),
    (["lambda", "cyclic:8", "--search-cap", " 1_6"], "--search-cap"),
    (["lambda", "cyclic:8", "--search-cap", "\u0663\u0662"], "--search-cap"),
])
def test_out_of_range_counts_are_input_errors(argv, option, tmp_path, capsys):
    labels = tmp_path / "zeros.csv"  # valid only if separations could be negative
    labels.write_text("element,label\n" + "".join(f"{v},0\n" for v in range(8)),
                      encoding="utf-8")
    argv = [str(labels) if arg == "LABELS" else arg for arg in argv]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert f"argument {option}" in err and argv[-1] in err


@pytest.mark.parametrize("argv,option", [
    (["lambda", "cyclic:8", "--search-ca=--"], "--search-cap"),
    (["lambda", "cyclic:8", "--time-budget=--"], "--time-budget"),
    (["lambda", "cyclic:8", "--method=--"], "--method"),
    (["lambda", "cyclic:8", "--witness-csv=--"], "--witness-csv"),
    (["check", "cyclic:8", "w.csv", "-j--"], "-j"),
    (["check", "cyclic:8", "w.csv", "-k=--"], "-k"),
    (["suite", "--max-order=--"], "--max-order"),
    (["suite", "--group=--"], "--group"),
    (["export", "cyclic:8", "--output=--"], "--output"),
    (["export", "cyclic:8", "-o--"], "--output/-o"),
])
def test_an_attached_double_dash_is_refused_as_an_option_value(argv, option, tmp_path,
                                                               capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # nothing may be written under the name '--'
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert f"argument {option}" in err and "'--'" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,setting", [
    (["lambda", "cyclic:8", "--search-cap", "1" * 5000], "the search cap"),
    (["check", "cyclic:8", "w.csv", "-k", "0" * 4301], "a separation"),
    (["analyze", "cyclic:" + "1" * 5000], "cyclic order"),
    (["analyze", "elemab:2," + "1" * 5000], "rank"),
    (["lambda", "cyclic:8", "ENV"], "LAMBDA_MAX_ORDER"),
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
