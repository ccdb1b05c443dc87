"""The benchmark's workloads: seeded inputs, the CLI calls, and their verdict checks.

Each workload is a fixed list of CLI calls (one "pass").  The seed decides
the inputs written for `ingest` and the order of calls within each pass;
the expected verdicts are the same for every seed.
"""

from __future__ import annotations

import json
import os
import random
import re
from dataclasses import dataclass, field

import reference as ref

# certify-large: every constructive branch at order 243–512 (cyclic,
# quaternion, dihedral, semidihedral, and the class-descent "general" case).
CERTIFY_SPECS = (
    "cyclic:512", "quaternion:512", "dihedral:512", "semidihedral:512",
    "elemab:2,9", "elemab:3,5", "heisenberg:7", "product:cyclic:16,cyclic:32",
    "dihedral:256", "quaternion:256",
)

# cross-check: p-groups of order 64–512 where both methods run, small
# non-p-groups the exact search decides, and two it does not decide.
BOTH_SPECS = (
    "cyclic:64", "quaternion:64", "heisenberg:5", "semidihedral:128",
    "dihedral:256", "quaternion:256", "elemab:3,5", "heisenberg:7",
    "cyclic:512", "elemab:2,9",
)
EXACT_SPECS = tuple(ref.PINNED_LAMBDA)
UNDECIDED_SPECS = tuple(ref.PINNED_UPPER)
# Eight times the slowest decided exact search above (elemab:2,9 and
# cyclic:512, 0.20-0.26 s each in-process on a 2-vCPU x86 VM), so that
# decided calls keep a wide margin on a slower host.
TIME_BUDGET = "2.0"
SUITE_MAX_ORDER = 81

# ingest: scrambled tables on both sides of the order-256 associativity
# threshold, each also with one-cell mutations, and `check` on a valid and a
# corrupted witness CSV.  A pass is kept short so that a run holds several.
INGEST_SPECS = ("semidihedral:128", "elemab:3,5", "quaternion:256",
                "heisenberg:7", "dihedral:512")
MUTATIONS_PER_TABLE = 2
LABELLINGS_PER_SPEC = 1

# Passes in a 30-second run; a run of --seconds S makes S/30 times as many.
# They take 20-30 s at the seed commit on a 2-vCPU x86 VM in its faster
# periods, and up to 42 s in its slower ones.  The counts also put the
# call behind call_ms.tail (the 11th slowest) inside a group of calls of like
# cost, not at the gap between two groups, where it would jump between them:
# the cyclic:512 and quaternion:512 analyses on certify-large, and the
# suite, quaternion:256 and heisenberg:7 calls on cross-check.  (Four
# cross-check passes, with the tail on cyclic:512, spread no less.)  The count
# is the same on every commit and machine, so that runs time the same calls.
PASSES_AT_30S = {"certify-large": 7, "cross-check": 2, "ingest": 2}

WORKLOADS = ("certify-large", "cross-check", "ingest")


@dataclass
class Call:
    """One CLI invocation and what its verdict must be."""

    kind: str                 # analyze | lambda | undecided | suite | reject | check
    argv: list[str]
    digest_key: str
    rel: ref.PowerRelation | None = None
    expect: dict = field(default_factory=dict)


def _file_name(spec: str) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "-", spec)


def _analyze_call(spec: str, argv_spec: str, rel: ref.PowerRelation, key: str) -> Call:
    family, maximal = ref.family_of(spec)
    return Call("analyze", ["analyze", argv_spec, "--stable"], key, rel,
                {"lambda": ref.formula_lambda(rel), "family": family,
                 "maximal_class": maximal})


def setup(name: str, seed: int, inputs_dir: str) -> list[Call]:
    """Generate the workload's inputs and references; return one pass of calls."""
    if name == "certify-large":
        return [_analyze_call(spec, spec, ref.power_relation(ref.build_table(spec)),
                              f"analyze {spec}")
                for spec in CERTIFY_SPECS]
    if name == "cross-check":
        return _cross_check_calls()
    if name == "ingest":
        return _ingest_calls(seed, inputs_dir)
    raise ValueError(f"unknown workload {name!r}")


def _cross_check_calls() -> list[Call]:
    calls = []
    for spec in BOTH_SPECS:
        rel = ref.power_relation(ref.build_table(spec))
        argv = ["lambda", spec, "--method", "both", "--search-cap", "512",
                "--time-budget", TIME_BUDGET]
        calls.append(Call("lambda", argv, " ".join(argv), rel,
                          {"lambda": ref.formula_lambda(rel), "agree": True}))
    for spec in EXACT_SPECS:
        argv = ["lambda", spec, "--method", "exact", "--time-budget", TIME_BUDGET]
        calls.append(Call("lambda", argv, " ".join(argv),
                          ref.power_relation(ref.build_table(spec)),
                          {"lambda": ref.PINNED_LAMBDA[spec]}))
    for spec in UNDECIDED_SPECS:
        rel = ref.power_relation(ref.build_table(spec))
        upper, labels = ref.PINNED_UPPER[spec]
        problems = ref.labelling_problems(rel, labels, upper)
        if problems:
            raise AssertionError(f"pinned upper bound for {spec}: {problems[0]}")
        argv = ["lambda", spec, "--method", "exact", "--time-budget", TIME_BUDGET]
        calls.append(Call("undecided", argv, " ".join(argv), rel, {"upper": upper}))
    argv = ["suite", "--max-order", str(SUITE_MAX_ORDER), "--time-budget", TIME_BUDGET]
    calls.append(Call("suite", argv, " ".join(argv), None,
                      {"max_order": SUITE_MAX_ORDER}))
    return calls


def _ingest_calls(seed: int, inputs_dir: str) -> list[Call]:
    os.makedirs(inputs_dir, exist_ok=True)
    calls = []
    for spec in INGEST_SPECS:
        base = ref.build_table(spec)
        n = len(base)
        rest = list(range(1, n))
        random.Random(f"{seed}/scramble/{spec}").shuffle(rest)
        table = ref.scramble(base, [0] + rest)
        name = _file_name(spec)
        path = os.path.join(inputs_dir, name + ".txt")
        _write(path, ref.format_table(table))
        calls.append(_analyze_call(spec, f"file:{path}", ref.power_relation(table),
                                   f"{seed} analyze file:{spec}"))

        rng = random.Random(f"{seed}/mutate/{spec}")
        for k in range(MUTATIONS_PER_TABLE):
            row, col = rng.randrange(1, n), rng.randrange(1, n)
            original = table[row][col]
            table[row][col] = rng.choice([v for v in range(n) if v != original])
            path = os.path.join(inputs_dir, f"{name}-mutated-{k}.txt")
            _write(path, ref.format_table(table))
            table[row][col] = original
            calls.append(Call("reject", ["analyze", f"file:{path}", "--stable"],
                              f"analyze file:{spec}-mutated"))

        rel = ref.power_relation(base)
        rng = random.Random(f"{seed}/label/{spec}")
        for k in range(LABELLINGS_PER_SPEC):
            order = list(range(n))
            rng.shuffle(order)
            labels = ref.greedy_labelling(rel, order)
            u, v = rng.sample(range(n), 2)
            corrupted = list(labels)
            corrupted[u] = labels[v]
            for suffix, labs, expect in (
                    ("valid", labels, {"valid": True, "span": max(labels) - min(labels)}),
                    ("corrupt", corrupted, {"valid": False, "pair": sorted((u, v))})):
                path = os.path.join(inputs_dir, f"{name}-{k}-{suffix}.csv")
                _write(path, "element,label\n"
                       + "".join(f"{i},{lab}\n" for i, lab in enumerate(labs)))
                calls.append(Call("check", ["check", spec, path],
                                  f"{seed} check {spec} {k} {suffix}", rel, expect))
    return calls


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


# ---------------------------------------------------------------------------
# verdict checks


_LOWER = re.compile(r"^proven lower bound: (\d+)$", re.MULTILINE)


def verify(call: Call, rc: int, out: str, err: str) -> str | None:
    """None when the call's verdict is the expected one, else the reason it is not."""
    if "Traceback" in err:
        return "traceback on stderr"
    try:
        if call.kind == "analyze":
            return _expect_exit(rc, 0, err) or _check_analyze(call, json.loads(out))
        if call.kind == "lambda":
            if call.expect.get("agree") and rc == 0 and ": agree" not in err:
                return "--method both did not report agreement"
            return _expect_exit(rc, 0, err) or _check_cert(call, json.loads(out),
                                                           call.expect["lambda"])
        if call.kind == "undecided":
            return _check_undecided(call, rc, out, err)
        if call.kind == "suite":
            doc = json.loads(out)
            if doc["failures"] or not doc["checks"] or doc["max_order"] != call.expect["max_order"]:
                return f"suite reported {doc['failures']} failures of {doc['checks']}"
            return _expect_exit(rc, 0, err)
        if call.kind == "reject":
            if out or not err.startswith("error: "):
                return "mutated table was not rejected with an error message"
            return _expect_exit(rc, 1, err)
        if call.kind == "check":
            return _check_check(call, rc, json.loads(out), err)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output ({type(exc).__name__}: {exc})"
    raise ValueError(f"unknown call kind {call.kind!r}")


def _expect_exit(rc: int, want: int, err: str) -> str | None:
    if rc != want:
        return f"exit {rc}, expected {want}: {err.strip()[-200:]}"
    return None


def _check_cert(call: Call, cert: dict, want: int) -> str | None:
    if cert["lambda"] != want:
        return f"lambda {cert['lambda']}, reference {want}"
    problems = ref.labelling_problems(call.rel, cert["labels"], want)
    return f"witness rejected: {problems[0]}" if problems else None


def _check_analyze(call: Call, doc: dict) -> str | None:
    rel = call.rel
    group = doc["group"]
    got = (group["order"], group["exponent"], group["family"], group["maximal_class"],
           doc["graph"]["vertices"], doc["graph"]["edges"],
           {d: c for d, c in doc["class_numbers"]})
    want = (rel.n, rel.exponent, call.expect["family"], call.expect["maximal_class"],
            rel.n, rel.edges, rel.class_numbers)
    if got != want:
        return f"group report {got[:6]} differs from reference {want[:6]}"
    return _check_cert(call, doc["lambda"], call.expect["lambda"])


def _check_undecided(call: Call, rc: int, out: str, err: str) -> str | None:
    upper = call.expect["upper"]
    if rc == 0:
        cert = json.loads(out)
        if cert["lambda"] > upper:
            return f"lambda {cert['lambda']} above the pinned upper bound {upper}"
        return _check_cert(call, cert, cert["lambda"])
    if rc != 3:
        return _expect_exit(rc, 3, err)
    found = _LOWER.search(err)
    if found is None:
        return "resource-limit exit without a proven lower bound"
    if int(found.group(1)) > upper:
        return f"proven lower bound {found.group(1)} above the pinned upper bound {upper}"
    return None


def _check_check(call: Call, rc: int, doc: dict, err: str) -> str | None:
    if call.expect["valid"]:
        if not doc["valid"] or doc["violations"] or doc["span"] != call.expect["span"]:
            return f"valid labelling reported as {doc['valid']} with span {doc['span']}"
        return _expect_exit(rc, 0, err)
    pairs = {tuple(sorted((v["u"], v["v"]))) for v in doc["violations"]}
    if doc["valid"] or tuple(call.expect["pair"]) not in pairs:
        return "corrupted label not reported as a violation"
    return _expect_exit(rc, 2, err)
