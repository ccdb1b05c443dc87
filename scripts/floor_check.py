"""Check that the exact search decides every cyclic group and every
product of two cyclic groups C_a × C_b (a | b) up to order 512, and every
dihedral group D_2m up to order 1,024, at its floor: each certificate,
checked by construct.certify, names a clique whose deficiency is λ, so no
span was searched and refuted, and no search ran out of time.  No spec
builds D_2m when m is not a power of 2, so its rows, named ``D_2m``, build
the group from its presentation.

Run from the repository root: ``python3 scripts/floor_check.py``.
Prints one summary line and exits 1 if any group is not decided at its
floor.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pglambda import SearchTimeoutError, certify, parse_group_spec  # noqa: E402
from pglambda.groups import _two_generator_group  # noqa: E402

MAX_ORDER = 512
MAX_DIHEDRAL_ORDER = 1024
BUDGET = 10.0  # seconds per search; a search that runs out is not decided


def specs() -> list[str]:
    out = [f"cyclic:{n}" for n in range(1, MAX_ORDER + 1)]
    out += [f"product:cyclic:{a},cyclic:{b}"
            for b in range(2, MAX_ORDER + 1) for a in range(2, b + 1)
            if b % a == 0 and a * b <= MAX_ORDER]
    return out


def subjects():
    """(name, group) for every group checked: the specs, then D_4 to D_1024."""
    for spec in specs():
        yield spec, parse_group_spec(spec)
    for m in range(2, MAX_DIHEDRAL_ORDER // 2 + 1):
        yield f"D_{2 * m}", _two_generator_group(2 * m, -1, 0)


def main() -> int:
    count, missed, slowest = 0, [], (0.0, "")
    for name, group in subjects():
        count += 1
        started = time.perf_counter()
        try:
            cert, = certify(group, "exact", cap=MAX_DIHEDRAL_ORDER, budget=BUDGET)
            decided = cert.evidence.kind == "clique-deficiency"
        except SearchTimeoutError:
            decided = False
        elapsed = time.perf_counter() - started
        slowest = max(slowest, (elapsed, name))
        if not decided:
            missed.append(name)
    print(f"{count} groups, {len(missed)} not decided at the floor"
          f"{': ' + ', '.join(missed) if missed else ''}; slowest certify "
          f"{slowest[0] * 1000:.1f} ms ({slowest[1]})")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
