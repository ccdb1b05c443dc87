"""pglambda benchmark: wall time of CLI calls to a checked verdict.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads: certify-large, cross-check, ingest
(see workloads.py and BENCHMARK.json for what each stresses and why).

--trace 0 runs each call as a fresh `pglambda` process, one at a time (a
closed loop with one client), and reports end-to-end metrics.  --trace 1
runs the same calls in-process through `pglambda.cli.main` with spans
around every public function of the traced modules, and reports per-layer
calls and self times per workload pass, plus the tracing overhead.

--seconds sets the size of a run: a number of whole passes over the
workload's calls that lasts about that long at the seed commit on the
reference machine (workloads.PASSES_AT_30S).  The count does not depend on
how fast the machine or the commit is, so every run times the same calls.
specs_per_s takes each call's median time over the passes, and setup_s
is the median of set-ups made before the first pass and after each pass,
so that a passing slowdown of the host moves them less.

Every call's verdict is checked against references computed here, not by
pglambda.  The last stdout line is the result object; the line before it
holds reference information (environment, source lines, the tail
percentile, stdout digests compared with the seed commit's).

The program is imported from src/ of the same checkout.  Inputs, child
output and span files go to perfbench/out/, so two runs must not share a
checkout at the same time.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import random
import select
import signal
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join("perfbench", "out")
INPUTS_DIR = os.path.join(OUT_DIR, "inputs")
DIGESTS = os.path.join(HERE, "digests.json")

sys.path.insert(0, HERE)
import workloads as wl  # noqa: E402

# What the installed `pglambda` console script runs.
CLI_PROGRAM = "import sys; from pglambda.cli import main; sys.exit(main(sys.argv[1:]))"
SETUP_REPEATS = 5   # at least; one before the passes, the rest after them
STARTUP_REPEATS = 5
CALL_LIMIT_S = 60.0
TAIL_BEYOND = 10

E2E_UNITS = {
    "setup_s": "s", "call_ms.p50": "ms", "call_ms.tail": "ms", "specs_per_s": "1/s",
    "decided_frac": "fraction", "verified_frac": "fraction", "peak_rss_mb": "MB",
}

# Per-layer metrics, reported per workload pass: (span name, metric stem,
# quantities).  A span name ending in "." or "_" is a prefix: groups.make
# sums the make_* constructors, and cli.main takes the self time of every
# cli span (argument parsing, dispatch and JSON output).
LAYERS = [
    ("cli.", "cli.main", ("self_ms",)),
    ("groups.make_", "groups.make", ("calls", "self_ms")),
    ("groups.parse_cayley", None, ("self_ms",)),
    ("groups.validate_group", None, ("calls", "self_ms")),
    ("groups.order_table", None, ("calls", "self_ms")),
    ("groups.is_maximal_class", None, ("self_ms",)),
    ("powergraph.build_power_graph", None, ("calls", "self_ms")),
    ("powergraph.cyclic_classes", None, ("calls", "self_ms")),
    ("powergraph.check_lower_hook", None, ("self_ms",)),
    ("suites.run_suites", None, ("self_ms",)),
    ("construct.lambda_p_group", None, ("calls", "self_ms")),
    ("construct.recognize_family", None, ("self_ms",)),
    ("labelling.find_hamiltonian_path", None, ("calls", "self_ms")),
    ("labelling.validate_labelling", None, ("calls", "self_ms")),
    ("labelling.exact_lambda", None, ("calls", "self_ms", "timeouts")),
    ("labelling.parse_labelling_csv", None, ("self_ms",)),
]
LAYER_UNITS = {"cli.startup_ms": "ms", "trace.overhead_frac": "fraction"}
LAYER_UNITS.update((f"{stem or span}.{q}", {"self_ms": "ms"}.get(q, "count"))
                   for span, stem, quantities in LAYERS for q in quantities)


class ChildRunner:
    """Runs one `pglambda` process at a time and reaps it with its rusage."""

    def __init__(self) -> None:
        env = dict(os.environ, PYTHONPATH=SRC)
        env.pop("LAMBDA_MAX_ORDER", None)
        self.env = env
        flags = os.O_RDWR | os.O_CREAT | os.O_TRUNC
        self.out_fd = os.open(os.path.join(OUT_DIR, "child.stdout"), flags, 0o644)
        self.err_fd = os.open(os.path.join(OUT_DIR, "child.stderr"), flags, 0o644)

    def close(self) -> None:
        os.close(self.out_fd)
        os.close(self.err_fd)

    def run(self, python_args: list[str]) -> tuple[int, bytes, str, float, int]:
        """(exit code, stdout, stderr, wall seconds, max RSS in KiB)."""
        for fd in (self.out_fd, self.err_fd):
            os.ftruncate(fd, 0)
            os.lseek(fd, 0, os.SEEK_SET)
        actions = [(os.POSIX_SPAWN_DUP2, self.out_fd, 1),
                   (os.POSIX_SPAWN_DUP2, self.err_fd, 2)]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *python_args],
                             self.env, file_actions=actions)
        pidfd = os.pidfd_open(pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], CALL_LIMIT_S)
            if not ready:
                os.kill(pid, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
        finally:
            os.close(pidfd)
        elapsed = time.perf_counter() - start
        return (os.waitstatus_to_exitcode(status), self._read(self.out_fd),
                self._read(self.err_fd).decode("utf-8", "replace"), elapsed,
                usage.ru_maxrss)

    @staticmethod
    def _read(fd: int) -> bytes:
        os.lseek(fd, 0, os.SEEK_SET)
        chunks = []
        while chunk := os.read(fd, 1 << 16):
            chunks.append(chunk)
        return b"".join(chunks)

    def call(self, call: wl.Call):
        return self.run(["-c", CLI_PROGRAM, *call.argv])


def run_passes(calls, passes: int, seed: int, run_call, between=None):
    """`passes` whole passes over `calls`, each in a seeded order.

    Returns (records, wall seconds of the calls); a record is (call, result).
    `between` runs after each pass, outside the wall time.
    """
    records = []
    wall = 0.0
    for p in range(passes):
        order = list(range(len(calls)))
        random.Random(f"{seed}/order/{p}").shuffle(order)
        start = time.perf_counter()
        for i in order:
            records.append((calls[i], run_call(calls[i])))
        wall += time.perf_counter() - start
        if between is not None:
            between()
    return records, wall


def pass_count(workload: str, seconds: float) -> int:
    return max(1, round(wl.PASSES_AT_30S[workload] * seconds / 30.0))


def median_pass_s(records) -> float:
    """Seconds of one pass, summing each call's median time over the passes."""
    per_call: dict[int, list[float]] = {}
    for call, result in records:
        per_call.setdefault(id(call), []).append(result[3])
    return sum(statistics.median(times) for times in per_call.values())


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND values beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def run_in_process(cli, argv: list[str]) -> tuple[int, str, str, float]:
    """(exit code, stdout, stderr, seconds) of `pglambda.cli.main(argv)` in this process."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except Exception:
            traceback.print_exc(file=err)
            rc = 1
    return rc, out.getvalue(), err.getvalue(), time.perf_counter() - start


def timed_setup(workload: str, seed: int, times: list[float]) -> list[wl.Call]:
    """Set the workload up once, appending the seconds it took to `times`."""
    start = time.perf_counter()
    calls = wl.setup(workload, seed, INPUTS_DIR)
    times.append(time.perf_counter() - start)
    return calls


def digest_report(workload: str, results) -> dict:
    """Counts of calls whose stdout differs from the seed commit's digest."""
    with open(DIGESTS, encoding="utf-8") as handle:
        known = json.load(handle).get(workload, {})
    report = {"compared": 0, "differ": 0, "unreferenced": 0}
    for call, stdout in results:
        want = known.get(call.digest_key)
        if want is None:
            report["unreferenced"] += 1
            continue
        report["compared"] += 1
        report["differ"] += hashlib.sha256(stdout).hexdigest() != want
    return report


def reference_info() -> dict:
    loc = {}
    pkg = os.path.join(SRC, "pglambda")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as handle:
                loc[name[:-3]] = sum(1 for _ in handle)
    loc["total"] = sum(loc.values())
    return {
        "env": {"python": platform.python_version(),
                "numpy": importlib.metadata.version("numpy"),
                "nproc": os.cpu_count(),
                "affinity": len(os.sched_getaffinity(0))},
        "loc": loc,
    }


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    # The set-up is repeated after each pass as well, so that its median
    # samples the whole run, not one moment of a host whose speed drifts.
    setup_times: list[float] = []
    calls = timed_setup(workload, seed, setup_times)
    passes = pass_count(workload, seconds)
    per_pass = -(-(SETUP_REPEATS - 1) // passes)

    def setup_again() -> None:
        for _ in range(per_pass):
            timed_setup(workload, seed, setup_times)

    runner = ChildRunner()
    try:
        runner.run(["-c", "import pglambda.cli"])  # warm the page cache and bytecode
        records, wall = run_passes(calls, passes, seed, runner.call, between=setup_again)
    finally:
        runner.close()
    setup_s = statistics.median(setup_times)
    problems = []
    ms, rss = [], []
    decided = 0
    for call, (rc, out, err, secs, maxrss) in records:
        ms.append(secs * 1000.0)
        rss.append(maxrss)
        decided += rc != 3
        reason = wl.verify(call, rc, out.decode("utf-8", "replace"), err)
        if reason is not None:
            problems.append(f"{' '.join(call.argv)}: {reason}")
    n = len(records)
    verified = n - len(problems)
    tail_ms, tail_pct = tail(ms)
    metrics = {
        "setup_s": setup_s,
        "call_ms.p50": statistics.median(ms),
        "call_ms.tail": tail_ms,
        "specs_per_s": verified / (passes * median_pass_s(records)),
        "decided_frac": decided / n,
        "verified_frac": verified / n,
        "peak_rss_mb": max(rss) / 1024.0,
    }
    info = {
        "workload": workload, "seed": seed, "passes": passes, "calls": n,
        "setups": len(setup_times), "wall_s": wall, "tail_percentile": tail_pct,
        "stdout_vs_seed_commit": digest_report(
            workload, [(call, res[1]) for call, res in records]),
        "problems": problems[:10],
    }
    return _result(metrics, E2E_UNITS, n, len(problems)), info


def traced(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    calls = timed_setup(workload, seed, [])
    runner = ChildRunner()
    try:
        # the first start-up warms the page cache and bytecode and is dropped
        startup = [runner.run(["-c", "import pglambda.cli"])[3]
                   for _ in range(STARTUP_REPEATS + 1)][1:]
        sys.path.insert(0, SRC)
        os.environ.pop("LAMBDA_MAX_ORDER", None)
        from tracer import Tracer
        tracer = Tracer()
        wrapped = tracer.install()
        from pglambda import cli

        def in_process(call):
            tracer.call_id += 1
            return run_in_process(cli, call.argv)

        # Each traced pass is followed by an untraced process pass over the
        # same calls, for the overhead comparison.
        untraced_s: list[float] = []

        def untraced_pass() -> None:
            untraced_s.extend(runner.call(call)[3] for call in calls)

        passes = pass_count(workload, seconds)
        records, _ = run_passes(calls, passes, seed, in_process, between=untraced_pass)
    finally:
        runner.close()
    spans_path = os.path.join(OUT_DIR, f"spans-{workload}.jsonl")
    tracer.write(spans_path)

    problems = []
    for call, (rc, out, err, _) in records:
        reason = wl.verify(call, rc, out, err)
        if reason is not None:
            problems.append(f"{' '.join(call.argv)}: {reason}")
    totals: dict[str, dict[str, float]] = {}
    for name, self_s, error in tracer.self_times():
        entry = totals.setdefault(name, {"calls": 0, "self_ms": 0.0, "timeouts": 0})
        entry["calls"] += 1
        entry["self_ms"] += self_s * 1000.0
        entry["timeouts"] += error == "SearchTimeoutError"
    startup_ms = statistics.median(startup) * 1000.0
    metrics = {"cli.startup_ms": startup_ms}
    for span, stem, quantities in LAYERS:
        prefix = span.endswith((".", "_"))
        matched = [entry for name, entry in totals.items()
                   if name == span or (prefix and name.startswith(span))]
        for q in quantities:
            metrics[f"{stem or span}.{q}"] = sum(e[q] for e in matched) / passes
    traced_s = sum(res[3] for _, res in records)
    metrics["trace.overhead_frac"] = (
        (traced_s + len(records) * startup_ms / 1000.0) / sum(untraced_s) - 1.0)
    info = {
        "workload": workload, "seed": seed, "passes": passes, "calls": len(records),
        "wrapped_functions": wrapped, "spans": len(tracer.spans), "spans_file": spans_path,
        "traced_in_process_s": traced_s, "untraced_process_s": sum(untraced_s),
        "problems": problems[:10],
    }
    return _result(metrics, LAYER_UNITS, len(records), len(problems)), info


def _result(metrics: dict, units: dict, attempted: int, failed: int) -> dict:
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pglambda", "cli.py")):
        print(f"perfbench: no pglambda sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    os.makedirs(INPUTS_DIR, exist_ok=True)
    run = traced if args.trace else end_to_end
    result, info = run(args.workload, args.seed, args.seconds)
    info.update(reference_info())
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
