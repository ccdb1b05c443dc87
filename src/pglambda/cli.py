"""Command-line interface.

Subcommands: analyze (group + power-graph report), lambda (certificate),
check (validate a labelling CSV), export (dot / edges / cayley), suite
(property suites over the catalogue).

Group spec grammar:
    cyclic:N | dihedral:ORDER | quaternion:ORDER | semidihedral:ORDER |
    elemab:P,K | heisenberg:P | product:SPEC,SPEC | file:PATH

Exit codes: 0 success, 1 input error, 2 mathematical violation or
method disagreement, 3 resource limit (size cap or search timeout).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from .catalog import catalogue
from .construct import lambda_p_group, recognize_family
from .errors import ConstructionFailedError, SearchTimeoutError, TooLargeError
from .groups import (
    FiniteGroup,
    format_cayley,
    is_maximal_class,
    make_cyclic,
    make_dihedral,
    make_direct_product,
    make_elementary_abelian,
    make_heisenberg,
    make_quaternion,
    make_semidihedral,
    max_group_order,
    order_table,
    parse_cayley,
    prime_power,
)
from .labelling import (
    DEFAULT_SEARCH_CAP,
    DEFAULT_TIME_BUDGET,
    LambdaCertificate,
    certificate_doc,
    certificate_problems,
    exact_lambda,
    format_labelling_csv,
    parse_labelling_csv,
    span,
    validate_labelling,
)
from .powergraph import build_power_graph, cyclic_classes, to_dot, to_edge_list
from .suites import run_suites

__all__ = ["main", "parse_group_spec"]


# ---------------------------------------------------------------------------
# group spec parsing


def _positive_int(text: str, what: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"{what} must be an integer, got {text!r}") from None
    if value <= 0:
        raise ValueError(f"{what} must be positive, got {value}")
    return value


# A product of more factors than this has order ≥ 2^33 unless factors are
# trivial; the limit bounds the depth and the cost of splitting a spec.
_MAX_PRODUCTS = 32


def _spec_shape_ok(spec: str, seen: dict[str, bool]) -> bool:
    """Grammar-only validity, used to split product:SPEC,SPEC arguments."""
    kind, sep, rest = spec.partition(":")
    if not sep:
        return False
    if kind in ("cyclic", "dihedral", "quaternion", "semidihedral", "heisenberg"):
        return rest.isdigit()
    if kind == "elemab":
        parts = rest.split(",")
        return len(parts) == 2 and all(p.isdigit() for p in parts)
    if kind == "product":
        return _first_split(rest, seen) is not None
    if kind == "file":
        return bool(rest)
    return False


def _first_split(rest: str, seen: dict[str, bool]) -> tuple[str, str] | None:
    """The split at the leftmost comma giving two well-formed specs.

    ``seen`` memoizes shape verdicts: nested products would otherwise test
    the same substrings again and again, exponentially often.
    """
    def shape_ok(spec: str) -> bool:
        if spec not in seen:
            seen[spec] = _spec_shape_ok(spec, seen)
        return seen[spec]

    for i, ch in enumerate(rest):
        if ch == "," and shape_ok(rest[:i]) and shape_ok(rest[i + 1:]):
            return rest[:i], rest[i + 1:]
    return None


def _split_product(rest: str) -> tuple[str, str]:
    """Split 'SPEC,SPEC' at the leftmost comma giving two well-formed specs."""
    if rest.count("product:") >= _MAX_PRODUCTS:
        raise ValueError(f"a group spec may hold at most {_MAX_PRODUCTS} products")
    parts = _first_split(rest, {})
    if parts is None:
        raise ValueError(f"cannot split {rest!r} into two group specs")
    return parts


def parse_group_spec(spec: str) -> FiniteGroup:
    """Build the group a spec string describes (see module docstring for grammar)."""
    kind, sep, rest = spec.partition(":")
    if not sep:
        raise ValueError(
            f"bad group spec {spec!r}: expected FAMILY:PARAMS, e.g. cyclic:8")
    if kind == "cyclic":
        return make_cyclic(_positive_int(rest, "cyclic order"))
    if kind == "dihedral":
        return make_dihedral(_positive_int(rest, "dihedral order"))
    if kind == "quaternion":
        return make_quaternion(_positive_int(rest, "quaternion order"))
    if kind == "semidihedral":
        return make_semidihedral(_positive_int(rest, "semidihedral order"))
    if kind == "elemab":
        parts = rest.split(",")
        if len(parts) != 2:
            raise ValueError(f"elemab takes P,K — got {rest!r}")
        return make_elementary_abelian(_positive_int(parts[0], "prime"),
                                       _positive_int(parts[1], "rank"))
    if kind == "heisenberg":
        return make_heisenberg(_positive_int(rest, "prime"))
    if kind == "product":
        left, right = _split_product(rest)
        g, h = parse_group_spec(left), parse_group_spec(right)
        if g.order * h.order > max_group_order():
            raise TooLargeError(
                f"product order {g.order * h.order} exceeds the cap "
                f"{max_group_order()} (LAMBDA_MAX_ORDER)")
        return make_direct_product(g, h)
    if kind == "file":
        with open(rest, "r", encoding="utf-8") as handle:
            return parse_cayley(handle.read())
    raise ValueError(f"unknown group family {kind!r}")


# ---------------------------------------------------------------------------
# shared helpers


def _emit(doc: object, pretty: bool) -> None:
    print(json.dumps(doc, sort_keys=True, indent=2 if pretty else None))


def _is_constructible(group: FiniteGroup) -> bool:
    return group.order == 1 or prime_power(group.order) is not None


def _auto_method(group: FiniteGroup, cap: int) -> str | None:
    """The method 'auto' runs: both when the exact search fits under the
    cap, else whichever applies; None when neither does."""
    if _is_constructible(group):
        return "both" if group.order <= cap else "constructive"
    return "exact" if group.order <= cap else None


class _Violation(Exception):
    """A mathematical violation found while running a command (exit code 2)."""


def _search_cap(text: str) -> int:
    try:
        return _positive_int(text, "the search cap")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _time_budget(text: str) -> float:
    """Seconds: finite and ≥ 0 (a NaN deadline would never expire)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(
            f"must be a finite number of seconds >= 0, got {text!r}")
    return value


def _exact_certificate(graph, cap: int, budget: float) -> LambdaCertificate:
    """Exact-search certificate, checked (lambda_p_group checks its own)."""
    cert = exact_lambda(graph, max_vertices=cap, time_budget=budget)
    problems = certificate_problems(graph, cert)
    if problems:
        raise _Violation("\n".join(f"consistency failure: {p}" for p in problems))
    return cert


def _compute_certificate(group: FiniteGroup, method: str, cap: int,
                         budget: float) -> LambdaCertificate:
    """Resolve 'auto' and run the requested method(s); raises on disagreement."""
    graph = build_power_graph(group)
    if method == "auto":
        method = _auto_method(group, cap)
        if method is None:
            raise ValueError(
                f"order {group.order} is not a prime power and exceeds the "
                f"exact-search cap {cap}; no method applies")
    if method == "constructive":
        return lambda_p_group(group)
    if method == "exact":
        return _exact_certificate(graph, cap, budget)
    constructive = lambda_p_group(group)
    exact = exact_lambda(graph, max_vertices=cap, time_budget=budget)
    if constructive.value != exact.value:
        raise _Violation(
            f"disagreement: constructive lambda {constructive.value} != "
            f"exact-search lambda {exact.value} for order {group.order}")
    print(f"constructive {constructive.value} / exact-search {exact.value}: agree",
          file=sys.stderr)
    return constructive


# ---------------------------------------------------------------------------
# subcommands


def cmd_analyze(args: argparse.Namespace) -> int:
    group = parse_group_spec(args.spec)
    graph = build_power_graph(group)
    partition = cyclic_classes(group)
    ot = order_table(group)
    is_p = _is_constructible(group)

    method = _auto_method(group, args.search_cap)
    started = time.perf_counter()
    note = None
    cert: LambdaCertificate | None = None
    if method == "exact":
        cert = _exact_certificate(graph, args.search_cap, args.time_budget)
    elif method is not None:  # analyze certifies p-groups constructively only
        cert = lambda_p_group(group)
    else:
        note = (f"order {group.order} is not a prime power and exceeds the "
                f"exact-search cap {args.search_cap}; lambda not computed")
    elapsed_ms = (time.perf_counter() - started) * 1000.0

    doc = {
        "spec": args.spec,
        "group": {
            "order": group.order,
            "exponent": ot.exponent,
            "prime": ot.p_group_prime,
            "family": recognize_family(group) if is_p else "not-a-p-group",
            "maximal_class": is_maximal_class(group) if (
                is_p and group.order > 1) else None,
        },
        "graph": {
            "vertices": graph.n,
            "edges": graph.edge_count(),
        },
        "class_numbers": [[d, partition.class_number(d)] for d in partition.orders],
        "lambda": certificate_doc(cert) if cert is not None else None,
    }
    if note is not None:
        doc["note"] = note
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
    group = parse_group_spec(args.spec)
    cert = _compute_certificate(group, args.method, args.search_cap,
                                args.time_budget)
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
    if len(labels) != group.order:
        missing = sorted(set(range(group.order)) - set(labels))
        raise ValueError(
            f"labelling covers {len(labels)} of {group.order} elements "
            f"(first missing index: {missing[0]})")
    violations = validate_labelling(graph, labels, j=args.j, k=args.k)
    doc = {
        "valid": not violations,
        "span": span(labels),
        "violations": [
            {"u": v.u, "v": v.v, "distance": v.distance,
             "gap": v.gap, "required": v.required}
            for v in violations
        ],
    }
    _emit(doc, args.pretty)
    return 0 if not violations else 2


def cmd_export(args: argparse.Namespace) -> int:
    group = parse_group_spec(args.spec)
    if args.format == "dot":
        payload = to_dot(build_power_graph(group))
    elif args.format == "edges":
        payload = to_edge_list(build_power_graph(group))
    elif args.format == "cayley":
        payload = format_cayley(group)
    else:
        raise ValueError(f"unknown export format {args.format!r} "
                         "(expected dot, edges, or cayley)")
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as handle:
            handle.write(payload)
    else:
        sys.stdout.write(payload)
    return 0


def cmd_suite(args: argparse.Namespace) -> int:
    if args.max_order > max_group_order():
        raise TooLargeError(
            f"--max-order {args.max_order} exceeds the cap {max_group_order()} "
            "(LAMBDA_MAX_ORDER)")
    extras = [(spec, parse_group_spec(spec)) for spec in args.group]
    results = run_suites(args.max_order, extras,
                         exact_cap=args.search_cap, time_budget=args.time_budget)
    failures = [r for r in results if not r.passed]
    doc = {
        "max_order": args.max_order,
        "subjects": len(catalogue(args.max_order)) + len(extras),
        "checks": len(results),
        "failures": len(failures),
        "first_failure": (f"{failures[0].suite}: {failures[0].subject}"
                          if failures else None),
        "results": [
            {"suite": r.suite, "subject": r.subject,
             "passed": r.passed, "detail": r.detail}
            for r in results
        ],
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pglambda",
        description="Lambda numbers of power graphs of finite groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--pretty", action="store_true",
                       help="human-readable output instead of compact JSON")
        p.add_argument("--stable", action="store_true",
                       help="omit timing fields so output is byte-reproducible")
        p.add_argument("--search-cap", type=_search_cap, default=DEFAULT_SEARCH_CAP,
                       metavar="N", help="max group order for the exact search")
        p.add_argument("--time-budget", type=_time_budget, default=DEFAULT_TIME_BUDGET,
                       metavar="SECONDS", help="time limit for the exact search")

    p = sub.add_parser("analyze", help="group, class-number, and lambda report")
    p.add_argument("spec", help="group spec, e.g. semidihedral:16")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("lambda", help="lambda certificate for a group")
    p.add_argument("spec")
    p.add_argument("--method", choices=("auto", "constructive", "exact", "both"),
                   default="auto",
                   help="auto = both methods when feasible, else whichever applies")
    p.add_argument("--witness-csv", metavar="FILE",
                   help="also write the witness labelling as CSV")
    common(p)
    p.set_defaults(func=cmd_lambda)

    p = sub.add_parser("check", help="validate a labelling CSV against a group")
    p.add_argument("spec")
    p.add_argument("labelling", help="CSV file with header element,label")
    p.add_argument("-j", type=int, default=2, help="distance-1 separation (default 2)")
    p.add_argument("-k", type=int, default=1, help="distance-2 separation (default 1)")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("export", help="write the graph or Cayley table")
    p.add_argument("spec")
    p.add_argument("--format", default="dot",
                   help="dot | edges | cayley (default dot)")
    p.add_argument("--output", "-o", metavar="FILE", help="write here instead of stdout")
    common(p)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("suite", help="run the property suites over the catalogue")
    p.add_argument("--max-order", type=int, default=32, metavar="N",
                   help="largest catalogue group to include (default 32)")
    p.add_argument("--group", action="append", default=[], metavar="SPEC",
                   help="extra group to include (repeatable)")
    common(p)
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
    except (_Violation, ConstructionFailedError) as exc:
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
