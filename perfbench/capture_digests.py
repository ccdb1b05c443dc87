"""Record the sha256 of every benchmark call's stdout as the reference output.

    python3 perfbench/capture_digests.py [--ingest-seeds N]

Run from the repository root at the commit whose output is the reference;
it rewrites perfbench/digests.json, which run.py compares each call's
stdout with.  Calls run in-process through `pglambda.cli.main`, and a call
whose verdict fails the benchmark's checks is not recorded.  `ingest`
inputs depend on the seed, so its digests are recorded for seeds 0..N-1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ingest-seeds", type=int, default=20)
    args = parser.parse_args(argv)
    os.chdir(run.ROOT)
    os.makedirs(run.INPUTS_DIR, exist_ok=True)
    os.environ.pop("LAMBDA_MAX_ORDER", None)
    sys.path.insert(0, run.SRC)
    from pglambda import cli

    digests: dict[str, dict[str, str]] = {}
    for workload in run.wl.WORKLOADS:
        known = digests.setdefault(workload, {})
        seeds = range(args.ingest_seeds) if workload == "ingest" else [0]
        for seed in seeds:
            for call in run.wl.setup(workload, seed, run.INPUTS_DIR):
                if call.digest_key in known:
                    continue
                rc, out, err, _ = run.run_in_process(cli, call.argv)
                reason = run.wl.verify(call, rc, out, err)
                if reason is not None:
                    print(f"not recorded: {' '.join(call.argv)}: {reason}", file=sys.stderr)
                    continue
                known[call.digest_key] = hashlib.sha256(out.encode("utf-8")).hexdigest()
    with open(run.DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(json.dumps({w: len(d) for w, d in digests.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
