"""Check that the exact search decides every cyclic group and every
product of two cyclic groups C_a × C_b (a | b) up to order 512 at its
floor: each certificate, checked by construct.certify, names a clique
whose deficiency is λ, so no span was searched and refuted.

Run from the repository root: ``python3 scripts/floor_check.py``.
Prints one summary line and exits 1 if any group is not decided at its
floor.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pglambda import certify, parse_group_spec  # noqa: E402

MAX_ORDER = 512


def specs() -> list[str]:
    out = [f"cyclic:{n}" for n in range(1, MAX_ORDER + 1)]
    out += [f"product:cyclic:{a},cyclic:{b}"
            for b in range(2, MAX_ORDER + 1) for a in range(2, b + 1)
            if b % a == 0 and a * b <= MAX_ORDER]
    return out


def main() -> int:
    missed, slowest = [], (0.0, "")
    for spec in specs():
        group = parse_group_spec(spec)
        started = time.perf_counter()
        cert, = certify(group, "exact", cap=MAX_ORDER, budget=10.0)
        elapsed = time.perf_counter() - started
        slowest = max(slowest, (elapsed, spec))
        if cert.evidence.kind != "clique-deficiency":
            missed.append(spec)
    print(f"{len(specs())} groups, {len(missed)} not decided at the floor"
          f"{': ' + ', '.join(missed) if missed else ''}; slowest certify "
          f"{slowest[0] * 1000:.1f} ms ({slowest[1]})")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
