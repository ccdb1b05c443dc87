"""Built-in group catalogue.

Every entry names a group by the same spec string the command line
accepts, and is built by the same parser, so suite reports can be
reproduced verbatim with single commands.  Each spec is stored with its
group's order, so that a selection by order builds nothing above it.
The catalogue order (ascending order, then spec) is the iteration order
everywhere; nothing downstream re-sorts.
"""

from __future__ import annotations

from .groups import FiniteGroup, parse_group_spec

__all__ = ["catalogue"]

# (order, spec), sorted: cyclic groups, elementary abelian groups, products
# of two cyclic groups (one, C2×C6, not a p-group), the three maximal-class
# 2-group families and the Heisenberg groups of order 27 and 125.
_ENTRIES: tuple[tuple[int, str], ...] = (
    (2, "cyclic:2"), (3, "cyclic:3"), (4, "cyclic:4"), (4, "elemab:2,2"),
    (5, "cyclic:5"), (6, "cyclic:6"), (7, "cyclic:7"),
    (8, "cyclic:8"), (8, "dihedral:8"), (8, "elemab:2,3"),
    (8, "product:cyclic:2,cyclic:4"), (8, "quaternion:8"),
    (9, "cyclic:9"), (9, "elemab:3,2"), (10, "cyclic:10"), (11, "cyclic:11"),
    (12, "cyclic:12"), (12, "product:cyclic:2,cyclic:6"), (13, "cyclic:13"),
    (15, "cyclic:15"),
    (16, "cyclic:16"), (16, "dihedral:16"), (16, "elemab:2,4"),
    (16, "product:cyclic:2,cyclic:8"), (16, "product:cyclic:4,cyclic:4"),
    (16, "quaternion:16"), (16, "semidihedral:16"),
    (25, "cyclic:25"), (25, "elemab:5,2"),
    (27, "cyclic:27"), (27, "elemab:3,3"), (27, "heisenberg:3"),
    (27, "product:cyclic:3,cyclic:9"),
    (32, "cyclic:32"), (32, "dihedral:32"), (32, "elemab:2,5"),
    (32, "product:cyclic:2,cyclic:16"), (32, "product:cyclic:4,cyclic:8"),
    (32, "quaternion:32"), (32, "semidihedral:32"),
    (49, "cyclic:49"), (49, "elemab:7,2"),
    (64, "cyclic:64"), (64, "dihedral:64"), (64, "elemab:2,6"),
    (64, "quaternion:64"), (64, "semidihedral:64"),
    (81, "cyclic:81"), (81, "product:cyclic:3,cyclic:27"),
    (81, "product:cyclic:9,cyclic:9"),
    (125, "heisenberg:5"),
)


def catalogue(max_order: int) -> list[tuple[str, FiniteGroup]]:
    """(spec, built group) for every entry of order at most ``max_order``."""
    return [(spec, parse_group_spec(spec)) for order, spec in _ENTRIES
            if order <= max_order]
