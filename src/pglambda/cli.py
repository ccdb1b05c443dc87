"""Command-line interface.

Subcommands: analyze (group + power-graph report), lambda (certificate),
check (validate a labelling CSV), export (dot / edges / cayley), suite
(property suites over the catalogue).  Every command takes its group as
a spec string; the grammar is in :mod:`pglambda.groups`, which parses it.

Exit codes: 0 success, 1 input error, 2 mathematical violation or
method disagreement, 3 resource limit (size cap or search timeout).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time

from .errors import ConstructionFailedError, SearchTimeoutError, TooLargeError
from .groups import (
    _digits_int,
    format_cayley,
    is_maximal_class,
    max_group_order,
    parse_group_spec,
    prime_power,
)
from .labelling import (
    DEFAULT_SEARCH_CAP,
    DEFAULT_TIME_BUDGET,
    certificate_doc,
    format_labelling_csv,
    parse_labelling_csv,
    span,
    validate_labelling,
)
from .powergraph import build_power_graph, to_dot, to_edge_list

__all__ = ["main"]


# ---------------------------------------------------------------------------
# shared helpers


def _emit(doc: object, pretty: bool) -> None:
    print(json.dumps(doc, sort_keys=True, indent=2 if pretty else None))


def _int_option(what: str, least: int = 1):
    """An argparse type: an integer ≥ ``least`` in ASCII digits, else an
    input error (exit 1)."""
    def parse(text: str) -> int:
        try:
            return _digits_int(text, what, least)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


_SECONDS = re.compile(r"[0-9]+(\.[0-9]*)?|\.[0-9]+")


def _time_budget(text: str) -> float:
    """Seconds in ASCII digits with at most one decimal point, and finite:
    signs, exponents, underscores, spaces and other digits are refused,
    as in the integer options."""
    value = float(text) if _SECONDS.fullmatch(text) else math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(
            f"must be a finite number of seconds >= 0 in ASCII digits, got {text!r}")
    return value


# ---------------------------------------------------------------------------
# subcommands


def cmd_analyze(args: argparse.Namespace) -> int:
    from .construct import certify, recognize_family  # only certifying commands load it
    group = parse_group_spec(args.spec)
    graph = build_power_graph(group)
    sub = group.cyclic_subgroups()
    pp = prime_power(group.order)
    is_p = group.order == 1 or pp is not None

    started = time.perf_counter()
    # analyze certifies p-groups constructively only
    certs = certify(group, "constructive" if is_p else "auto",
                    cap=args.search_cap, budget=args.time_budget)
    elapsed_ms = (time.perf_counter() - started) * 1000.0

    doc = {
        "spec": args.spec,
        "group": {
            "order": group.order,
            "exponent": max(sub.by_order),
            "prime": pp[0] if pp else None,
            "family": recognize_family(group) if is_p else "not-a-p-group",
            "maximal_class": is_maximal_class(group) if (
                is_p and group.order > 1) else None,
        },
        "graph": {
            "vertices": graph.n,
            "edges": graph.edge_count(),
        },
        "class_numbers": [[d, len(ids)] for d, ids in sub.by_order.items()],
        "lambda": certificate_doc(certs[0]) if certs else None,
    }
    if not certs:
        doc["note"] = (f"order {group.order} is not a prime power and exceeds the "
                       f"exact-search cap {args.search_cap}; lambda not computed")
    if not args.stable:
        doc["timing_ms"] = round(elapsed_ms, 3)

    if args.pretty:
        _print_analyze_table(doc)
    else:
        _emit(doc, pretty=False)
    return 0


def _print_analyze_table(doc: dict) -> None:
    g = doc["group"]
    print(f"group          {doc['spec']}")
    print(f"order          {g['order']}")
    print(f"exponent       {g['exponent']}")
    print(f"prime          {g['prime'] if g['prime'] is not None else '-'}")
    print(f"family         {g['family']}")
    if g["maximal_class"] is not None:
        print(f"maximal class  {'yes' if g['maximal_class'] else 'no'}")
    print(f"graph          {doc['graph']['vertices']} vertices, "
          f"{doc['graph']['edges']} edges")
    print("class numbers")
    print("  order  classes")
    for order, count in doc["class_numbers"]:
        print(f"  {order:<5}  {count}")
    cert = doc["lambda"]
    if cert is None:
        print(f"lambda         - ({doc.get('note', 'not computed')})")
    else:
        print(f"lambda         {cert['lambda']}  (method {cert['method']}, "
              f"evidence {cert['evidence']['kind']})")
    if "timing_ms" in doc:
        print(f"time           {doc['timing_ms']} ms")


def cmd_lambda(args: argparse.Namespace) -> int:
    from .construct import certify
    group = parse_group_spec(args.spec)
    certs = certify(group, args.method, cap=args.search_cap, budget=args.time_budget)
    if not certs:
        raise ValueError(
            f"order {group.order} is not a prime power and exceeds the "
            f"exact-search cap {args.search_cap}; no method applies")
    if len(certs) == 2:
        print(f"constructive {certs[0].value} / exact-search {certs[1].value}: agree",
              file=sys.stderr)
    cert = certs[0]
    if args.witness_csv:
        with open(args.witness_csv, "w", encoding="utf-8", newline="") as handle:
            handle.write(format_labelling_csv(cert.witness))
    _emit(certificate_doc(cert), args.pretty)
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    group = parse_group_spec(args.spec)
    graph = build_power_graph(group)
    with open(args.labelling, "r", encoding="utf-8") as handle:
        text = handle.read()
    labels = parse_labelling_csv(text, group.order, group.names)
    violations = validate_labelling(graph, labels, j=args.j, k=args.k)
    doc = {
        "valid": not violations,
        "span": span(labels),
        "violations": [v._asdict() for v in violations],
    }
    _emit(doc, args.pretty)
    return 0 if not violations else 2


def cmd_export(args: argparse.Namespace) -> int:
    group = parse_group_spec(args.spec)
    if args.format == "dot":
        payload = to_dot(build_power_graph(group))
    elif args.format == "edges":
        payload = to_edge_list(build_power_graph(group))
    else:
        payload = format_cayley(group)
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as handle:
            handle.write(payload)
    else:
        sys.stdout.write(payload)
    return 0


def cmd_suite(args: argparse.Namespace) -> int:
    from .catalog import catalogue  # imported here: no other command needs them
    from .suites import run_suites

    if args.max_order > max_group_order():
        raise TooLargeError(
            f"--max-order {args.max_order} exceeds the cap {max_group_order()} "
            "(LAMBDA_MAX_ORDER)")
    subjects = catalogue(args.max_order)
    selected = {spec for spec, _ in subjects}
    subjects += [(spec, parse_group_spec(spec)) for spec in dict.fromkeys(args.group)
                 if spec not in selected]
    results = run_suites(subjects, exact_cap=args.search_cap,
                         time_budget=args.time_budget)
    failures = [r for r in results if not r.passed]
    doc = {
        "max_order": args.max_order,
        "subjects": len(subjects),
        "checks": len(results),
        "failures": len(failures),
        "first_failure": (f"{failures[0].suite}: {failures[0].subject}"
                          if failures else None),
        "results": [r._asdict() for r in results],
    }
    if args.pretty:
        for r in results:
            mark = "PASS" if r.passed else "FAIL"
            print(f"{mark}  {r.suite:<32} {r.subject:<28} {r.detail}")
        print(f"{len(results)} checks, {len(failures)} failures")
    else:
        _emit(doc, pretty=False)
    if failures:
        print(f"failed property: {failures[0].suite} on {failures[0].subject} "
              f"({failures[0].detail})", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------
# parser and entry point


class _Parser(argparse.ArgumentParser):
    """Refuses '--' as an option's attached value (--search-cap=--, -j--),
    which Python 3.10 and 3.11 turn into [] without calling the type."""

    def _get_values(self, action, arg_strings):
        if action.option_strings and action.nargs is None and arg_strings in ([], ["--"]):
            raise argparse.ArgumentError(action, "expected a value, got '--'")
        return super()._get_values(action, arg_strings)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pglambda",
        description="Lambda numbers of power graphs of finite groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    def output_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--pretty", action="store_true",
                       help="human-readable output instead of compact JSON")
        p.add_argument("--stable", action="store_true",
                       help="omit timing fields so output is byte-reproducible")

    def search_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--search-cap", type=_int_option("the search cap"),
                       default=DEFAULT_SEARCH_CAP, metavar="N",
                       help="max group order for the exact search")
        p.add_argument("--time-budget", type=_time_budget, default=DEFAULT_TIME_BUDGET,
                       metavar="SECONDS", help="time limit for the exact search")

    p = sub.add_parser("analyze", help="group, class-number, and lambda report")
    p.add_argument("spec", help="group spec, e.g. semidihedral:16")
    output_options(p)
    search_options(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("lambda", help="lambda certificate for a group")
    p.add_argument("spec")
    p.add_argument("--method", choices=("auto", "constructive", "exact", "both"),
                   default="auto",
                   help="auto = both methods when feasible, else whichever applies")
    p.add_argument("--witness-csv", metavar="FILE",
                   help="also write the witness labelling as CSV")
    output_options(p)
    search_options(p)
    p.set_defaults(func=cmd_lambda)

    p = sub.add_parser("check", help="validate a labelling CSV against a group")
    p.add_argument("spec")
    p.add_argument("labelling", help="CSV file with header element,label")
    p.add_argument("-j", type=_int_option("a separation", 0), default=2,
                   help="distance-1 separation (default 2)")
    p.add_argument("-k", type=_int_option("a separation", 0), default=1,
                   help="distance-2 separation (default 1)")
    output_options(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("export", help="write the graph or Cayley table")
    p.add_argument("spec")
    p.add_argument("--format", choices=("dot", "edges", "cayley"), default="dot",
                   help="what to write (default dot)")
    p.add_argument("--output", "-o", metavar="FILE", help="write here instead of stdout")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("suite", help="run the property suites over the catalogue")
    p.add_argument("--max-order", type=_int_option("the maximum order"), default=32,
                   metavar="N", help="largest catalogue group to include (default 32)")
    p.add_argument("--group", action="append", default=[], metavar="SPEC",
                   help="extra group to include (repeatable)")
    output_options(p)
    search_options(p)
    p.set_defaults(func=cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except ConstructionFailedError as exc:
        print(exc, file=sys.stderr)
        return 2
    except (SearchTimeoutError, TooLargeError) as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        if isinstance(exc, SearchTimeoutError) and exc.lower_bound is not None:
            print(f"proven lower bound: {exc.lower_bound}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
