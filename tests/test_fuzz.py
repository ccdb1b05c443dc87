"""Fuzzed untrusted input through the command line, in process.

Spec strings, labelling-CSV text, ``LAMBDA_MAX_ORDER`` values and the
``--time-budget``/``--search-cap`` values may be anything; every call must
end with an exit code in 0–3 and never print a traceback.  Groups are
kept small (an order cap of 64 where the input does not set it) and the
search budgets short, so the whole file runs in a few seconds.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
import re

from hypothesis import HealthCheck, example, given, settings, strategies as st

from pglambda import TooLargeError, max_group_order, parse_group_spec
from pglambda.cli import _build_parser, main
from pglambda.groups import _quote
from pglambda.labelling import parse_labelling_csv

# text that can travel through argv, a file and the environment
_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
                max_size=40)
_NUMBER = st.one_of(st.integers(min_value=-3, max_value=70),
                    st.integers(min_value=-10 ** 30, max_value=10 ** 30)).map(str)
_FAMILIES = ("cyclic", "dihedral", "quaternion", "semidihedral", "heisenberg")

_SPECS = st.recursive(
    st.one_of(
        st.builds("{}:{}".format, st.sampled_from(_FAMILIES), st.one_of(_NUMBER, _TEXT)),
        st.builds("elemab:{},{}".format, _NUMBER, _NUMBER),
        st.builds("file:{}".format, _TEXT),
        _TEXT,
    ),
    lambda inner: st.builds("product:{},{}".format, inner, inner),
    max_leaves=4,
)

_SETTINGS = settings(max_examples=75, deadline=None,
                     suppress_health_check=[HealthCheck.function_scoped_fixture])


def _run(*argv: str) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


def _assert_clean(code: int, err: str) -> None:
    assert 0 <= code <= 3
    assert "Traceback" not in err


@contextlib.contextmanager
def _max_order(value: str):
    saved = os.environ.get("LAMBDA_MAX_ORDER")
    os.environ["LAMBDA_MAX_ORDER"] = value
    try:
        yield
    finally:
        if saved is None:
            del os.environ["LAMBDA_MAX_ORDER"]
        else:
            os.environ["LAMBDA_MAX_ORDER"] = saved


@_SETTINGS
@given(spec=_SPECS, command=st.sampled_from(("analyze", "lambda")))
def test_fuzzed_specs_exit_cleanly(spec, command, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # file: specs resolve in an empty directory
    with _max_order("64"):
        _assert_clean(*_run(command, spec, "--search-cap=12", "--time-budget=0.2"))


_CSV_ROWS = st.lists(
    st.tuples(st.one_of(_NUMBER, st.sampled_from(("1", "x", "x^2", "x^7")), _TEXT),
              st.one_of(_NUMBER, _TEXT)),
    max_size=10,
).map(lambda rows: "element,label\n" + "".join(f"{e},{v}\n" for e, v in rows))


@_SETTINGS
@given(text=st.one_of(_CSV_ROWS, _TEXT))
def test_fuzzed_labelling_csvs_exit_cleanly(text, tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text(text, encoding="utf-8")
    _assert_clean(*_run("check", "cyclic:8", str(path)))


@_SETTINGS
@given(value=st.one_of(_NUMBER, _TEXT))
def test_fuzzed_order_caps_exit_cleanly(value):
    with _max_order(value):
        _assert_clean(*_run("analyze", "dihedral:16", "--stable"))


_LIMITS = st.one_of(_NUMBER, _TEXT, st.floats().map(repr),
                    st.sampled_from(("nan", "inf", "-inf", "1e309", " 0.5 ", "0")))


@_SETTINGS
@given(budget=_LIMITS, cap=_LIMITS)
def test_fuzzed_search_limits_exit_cleanly(budget, cap):
    with _max_order("64"):
        _assert_clean(*_run("lambda", "cyclic:12", "--method", "exact",
                            f"--time-budget={budget}", f"--search-cap={cap}"))


# seconds as a user may write them: digits with points, signs, exponents,
# spaces, underscores and other digits
_SECONDS_TEXT = st.one_of(
    _LIMITS,
    st.text("0123456789.+-_eE \u0663\uff11", max_size=5),
    st.builds("{}{}{}".format, st.sampled_from(("", ".", "+", " ")), _NUMBER,
              st.sampled_from(("", ".", ".5", "e1", "_0", " "))),
)


@_SETTINGS
@example("\u0663")
@example("1_0")
@example(" 2")
@example("+1")
@example("1e1")
@example("1" * 400)
@example(".")
@given(text=_SECONDS_TEXT)
def test_a_time_budget_is_accepted_exactly_when_it_is_ascii_digits_with_one_point(text):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            args = _build_parser().parse_args(["lambda", "cyclic:8", f"--time-budget={text}"])
        except SystemExit:
            args = None
    shape = re.fullmatch(r"[0-9]+(\.[0-9]*)?|\.[0-9]+", text) is not None
    accepted = shape and float(text) != float("inf")  # 400 digits overflow a float
    assert (args is not None) == accepted, err.getvalue()
    if args is None:
        # quoted whole up to 200 characters, as _quote says; "1" * 400 is not
        assert "argument --time-budget" in err.getvalue() and _quote(text) in err.getvalue()
    else:
        assert args.time_budget == float(text)


# labels as a user may write them: signs, underscores, points, spaces and
# other digits around decimal numbers
_LABEL_TEXT = st.one_of(
    _NUMBER, _TEXT,
    st.text("0123456789-+_. \u0660\u0663\uff11", max_size=5),
    st.builds("{}{}{}".format, st.sampled_from(("", "-", "+", "--", " ")), _NUMBER,
              st.sampled_from(("", "_0", ".0", " ", "-"))),
)


@_SETTINGS
@example("+2")
@example("\u0660")
@example("1_0")
@example("-")
@example("--1")
@example("-0")
@example("1" * 5000)
@given(text=_LABEL_TEXT)
def test_a_label_is_accepted_exactly_when_it_is_ascii_digits_after_an_optional_minus(text):
    cells = io.StringIO()
    csv.writer(cells).writerow(["0", text])  # quoted as a CSV writer would
    try:
        labels = parse_labelling_csv("element,label\n" + cells.getvalue(), 1)
    except ValueError as exc:
        labels, err = None, str(exc)
    value = text.strip()  # the reader strips each cell
    accepted = re.fullmatch(r"-?[0-9]+", value) is not None and len(value) <= 4300
    assert (labels is not None) == accepted
    if labels is None:
        assert err == f"label {_quote(value)} is not an integer"
    else:
        assert labels == (int(value),)


@_SETTINGS
@given(value=st.one_of(_NUMBER, _TEXT))
def test_fuzzed_suite_max_orders_exit_cleanly(value):
    with _max_order("8"):
        code, err = _run("suite", f"--max-order={value}", "--time-budget=0.2")
    _assert_clean(code, err)
    if code == 0:  # a passing suite was given an order it could check
        assert int(value) >= 1


# parameters near the ASCII-digit rule: signs, spaces, underscores,
# commas and non-ASCII digits (Arabic-Indic three, superscript two)
_PARAMS = st.text("0123456789+-_ ,\u0663\u00b2x", max_size=3)
_GRAMMAR_SPECS = st.recursive(
    st.builds("{}:{}".format, st.sampled_from(_FAMILIES + ("elemab",)), _PARAMS),
    lambda inner: st.builds("product:{},{}".format, inner, inner),
    max_leaves=3,
)


def _parses(spec: str) -> bool:
    try:
        parse_group_spec(spec)
    except (ValueError, TooLargeError):
        return False
    return True


@_SETTINGS
@example("cyclic:3_0")
@example("cyclic:+3")
@example("cyclic: 3")
@example("cyclic:\u0663")
@example("elemab:2,3")
@given(spec=_GRAMMAR_SPECS)
def test_a_spec_parses_alone_exactly_when_it_parses_as_a_product_factor(spec):
    # one grammar rule serves parsing and splitting product:SPEC,SPEC
    with _max_order("64"):
        assert _parses(spec) == _parses(f"product:{spec},cyclic:1"), spec


# integers as a user may write them: ASCII and other digits, signs,
# spaces, underscores, and plain numbers
_INTEGER_TEXT = st.one_of(
    _NUMBER,
    st.text("0123456789+-_ \t\u0663\u00b2\uff11x", max_size=4),
    st.builds("{}{}{}".format, st.sampled_from(("", " ", "+", "-", "0")), _NUMBER,
              st.sampled_from(("", " ", "_0", "\n"))),
)
# (argv before the value, option)
_INTEGER_OPTIONS = (
    (["lambda", "cyclic:8"], "--search-cap"),
    (["suite"], "--max-order"),
)


def _accepted(text: str) -> bool:
    return re.fullmatch("[0-9]+", text) is not None and int(text) >= 1


def _named(text: str) -> str:
    """How a refusal names the value: as written, or parsed when below range."""
    return f"got {int(text)}" if re.fullmatch("[0-9]+", text) else repr(text)


@_SETTINGS
@example(" 1_6", 0)
@example("\u0663\u0662", 0)
@example("+8", 1)
@example("-0", 1)
@example("--", 0)
@example("--", 1)
@given(text=_INTEGER_TEXT, option=st.integers(0, len(_INTEGER_OPTIONS) - 1))
def test_an_integer_option_is_accepted_exactly_when_it_is_ascii_digits_in_range(
        text, option):
    head, flag = _INTEGER_OPTIONS[option]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            args = _build_parser().parse_args(head + [f"{flag}={text}"])
        except SystemExit:
            args = None
    assert (args is not None) == _accepted(text), err.getvalue()
    if args is None:
        assert _named(text) in err.getvalue()
    else:
        assert vars(args)[flag.lstrip("-").replace("-", "_")] == int(text)


@_SETTINGS
@example(" +1_0")
@example("16 ")
@given(text=_INTEGER_TEXT)
def test_lambda_max_order_is_accepted_exactly_when_it_is_ascii_digits_in_range(text):
    with _max_order(text):
        try:
            cap = max_group_order()
        except ValueError as exc:
            cap = None
            assert _named(text) in str(exc)
    assert (cap is not None) == _accepted(text)
    if cap is not None:
        assert cap == int(text)
