"""Built-in group catalogue.

Every entry names a group by the same spec string the command line
accepts, so suite reports can be reproduced verbatim with single
commands.  The catalogue order (ascending order, then name) is the
iteration order everywhere; nothing downstream re-sorts.
"""

from __future__ import annotations

from typing import Callable, Iterator, NamedTuple

from .groups import (
    FiniteGroup,
    make_cyclic,
    make_dihedral,
    make_direct_product,
    make_elementary_abelian,
    make_heisenberg,
    make_quaternion,
    make_semidihedral,
    prime_power,
)

__all__ = ["CatalogEntry", "catalogue", "build_catalogue_groups"]


class CatalogEntry(NamedTuple):
    name: str
    order: int
    build: Callable[[], FiniteGroup]

    @property
    def is_p_group(self) -> bool:
        return prime_power(self.order) is not None


def _cyclic(n: int) -> CatalogEntry:
    return CatalogEntry(f"cyclic:{n}", n, lambda: make_cyclic(n))


def _dihedral(n: int) -> CatalogEntry:
    return CatalogEntry(f"dihedral:{n}", n, lambda: make_dihedral(n))


def _quaternion(n: int) -> CatalogEntry:
    return CatalogEntry(f"quaternion:{n}", n, lambda: make_quaternion(n))


def _semidihedral(n: int) -> CatalogEntry:
    return CatalogEntry(f"semidihedral:{n}", n, lambda: make_semidihedral(n))


def _elemab(p: int, k: int) -> CatalogEntry:
    return CatalogEntry(f"elemab:{p},{k}", p ** k,
                        lambda: make_elementary_abelian(p, k))


def _heisenberg(p: int) -> CatalogEntry:
    return CatalogEntry(f"heisenberg:{p}", p ** 3, lambda: make_heisenberg(p))


def _product(a: int, b: int) -> CatalogEntry:
    return CatalogEntry(f"product:cyclic:{a},cyclic:{b}", a * b,
                        lambda: make_direct_product(make_cyclic(a), make_cyclic(b)))


_ENTRIES: tuple[CatalogEntry, ...] = tuple(sorted((
    # cyclic p-groups
    _cyclic(2), _cyclic(3), _cyclic(4), _cyclic(5), _cyclic(7), _cyclic(8),
    _cyclic(9), _cyclic(11), _cyclic(13), _cyclic(16), _cyclic(25),
    _cyclic(27), _cyclic(32), _cyclic(49), _cyclic(64), _cyclic(81),
    # cyclic non-p-groups
    _cyclic(6), _cyclic(10), _cyclic(12), _cyclic(15),
    # elementary abelian
    _elemab(2, 2), _elemab(2, 3), _elemab(3, 2), _elemab(2, 4), _elemab(5, 2),
    _elemab(2, 5), _elemab(3, 3), _elemab(7, 2), _elemab(2, 6),
    # other abelian p-groups
    _product(2, 4), _product(2, 8), _product(4, 4), _product(2, 16),
    _product(4, 8), _product(3, 9), _product(3, 27), _product(9, 9),
    # an abelian non-p-group product
    _product(2, 6),
    # maximal-class 2-groups
    _dihedral(8), _dihedral(16), _dihedral(32), _dihedral(64),
    _quaternion(8), _quaternion(16), _quaternion(32), _quaternion(64),
    _semidihedral(16), _semidihedral(32), _semidihedral(64),
    # non-abelian odd-order p-groups
    _heisenberg(3), _heisenberg(5),
), key=lambda entry: (entry.order, entry.name)))


def catalogue(max_order: int | None = None,
              p_groups_only: bool = False) -> list[CatalogEntry]:
    """Catalogue entries, optionally capped by order / restricted to p-groups."""
    out = []
    for entry in _ENTRIES:
        if max_order is not None and entry.order > max_order:
            continue
        if p_groups_only and not entry.is_p_group:
            continue
        out.append(entry)
    return out


def build_catalogue_groups(max_order: int | None = None,
                           p_groups_only: bool = False,
                           ) -> Iterator[tuple[CatalogEntry, FiniteGroup]]:
    """Yield (entry, built group) in catalogue order."""
    for entry in catalogue(max_order, p_groups_only):
        yield entry, entry.build()
