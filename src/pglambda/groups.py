"""Finite groups as explicit multiplication tables.

Groups live on element indices ``0..n-1`` with an immutable numpy Cayley
table.  The family constructors (cyclic, dihedral, generalized quaternion,
semidihedral, elementary abelian, Heisenberg, direct product) fix a
deterministic element enumeration — powers of x first, then the y-coset —
so that everything computed downstream is reproducible.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    EvenPrimeError,
    NoIdentityError,
    NotAssociativeError,
    NotClosedError,
    NotLatinSquareError,
    NotPGroupError,
    ParameterTooSmallError,
    TooLargeError,
)

__all__ = [
    "DEFAULT_MAX_ORDER",
    "CyclicSubgroups",
    "FiniteGroup",
    "OrderTable",
    "format_cayley",
    "is_maximal_class",
    "lower_central_series",
    "make_cyclic",
    "make_dihedral",
    "make_direct_product",
    "make_elementary_abelian",
    "make_heisenberg",
    "make_quaternion",
    "make_semidihedral",
    "max_group_order",
    "order_table",
    "parse_cayley",
    "prime_power",
    "validate_group",
]

DEFAULT_MAX_ORDER = 512

# Associativity is checked on all n³ triples up to this order and on a
# seeded random sample of 10·n² triples above it.
EXHAUSTIVE_ASSOC_LIMIT = 256
_ASSOC_SAMPLE_SEED = 0x1A71


def max_group_order() -> int:
    """Group-order cap: ``LAMBDA_MAX_ORDER`` env var, default 512."""
    raw = os.environ.get("LAMBDA_MAX_ORDER")
    if raw is None:
        return DEFAULT_MAX_ORDER
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"LAMBDA_MAX_ORDER must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValueError("LAMBDA_MAX_ORDER must be positive")
    return value


class FiniteGroup:
    """A finite group given by its multiplication table.

    ``mul[g, h]`` is the product g·h on element indices.  Instances are
    immutable after construction (the table is a read-only array) and are
    therefore safe to share across threads.

    Derived structures (inverses, cyclic subgroups, element orders, cyclic
    classes, the power graph) are computed on first use and cached here, so
    each is built once per group.

    This class does not itself verify the group axioms; go through
    :func:`validate_group` for untrusted tables.
    """

    __slots__ = ("mul", "order", "identity", "names", "family_tag",
                 "_inverses", "_subgroups", "_order_table", "_classes",
                 "_power_graph")

    def __init__(self, mul: np.ndarray | Sequence[Sequence[int]],
                 identity: int = 0,
                 names: Sequence[str] | None = None,
                 family_tag: str | None = None) -> None:
        table = np.array(mul, dtype=np.int32, copy=True)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise ValueError(f"multiplication table must be square, got shape {table.shape}")
        table.setflags(write=False)
        self.mul = table
        self.order = int(table.shape[0])
        self.identity = int(identity)
        self.names = tuple(names) if names is not None else None
        self.family_tag = family_tag
        self._inverses: np.ndarray | None = None
        self._subgroups: CyclicSubgroups | None = None
        self._order_table: OrderTable | None = None
        self._classes = None      # powergraph.ClassPartition, see cyclic_classes
        self._power_graph = None  # powergraph.PowerGraph, see build_power_graph

    def __repr__(self) -> str:
        tag = self.family_tag or "table"
        return f"FiniteGroup(order={self.order}, family={tag!r})"

    def name(self, g: int) -> str:
        return self.names[g] if self.names else str(g)

    def compose(self, a: int, b: int) -> int:
        return int(self.mul[a, b])

    @property
    def inverses(self) -> np.ndarray:
        """inverses[g] = g⁻¹ (unique because rows are permutations)."""
        if self._inverses is None:
            inv = np.argmax(self.mul == self.identity, axis=1)
            inv.setflags(write=False)
            self._inverses = inv
        return self._inverses

    def inverse(self, g: int) -> int:
        return int(self.inverses[g])

    def power(self, g: int, k: int) -> int:
        """g**k for any integer k; negative powers go through the inverse."""
        if k < 0:
            g, k = self.inverse(g), -k
        acc, base = self.identity, g
        while k:
            if k & 1:
                acc = int(self.mul[acc, base])
            base = int(self.mul[base, base])
            k >>= 1
        return acc

    def cyclic_subgroups(self) -> CyclicSubgroups:
        """Every cyclic subgroup, from one walk of ⟨g⟩ per subgroup; cached.

        The other generators of ⟨g⟩ are the g^k with gcd(k, |g|) = 1, so
        walking from them would only repeat the same subgroup.
        """
        if self._subgroups is None:
            index = [-1] * self.order
            elements: list[tuple[int, ...]] = []
            generators: list[tuple[int, ...]] = []
            for g in range(self.order):
                if index[g] >= 0:
                    continue
                powers = [self.identity]
                acc = g
                while acc != self.identity:
                    powers.append(acc)
                    acc = int(self.mul[acc, g])
                m = len(powers)
                gens = tuple(sorted(powers[k] for k in range(m) if math.gcd(k, m) == 1))
                for h in gens:
                    index[h] = len(elements)
                elements.append(tuple(powers))
                generators.append(gens)
            self._subgroups = CyclicSubgroups(tuple(elements), tuple(generators),
                                              tuple(index))
        return self._subgroups

    def element_order(self, g: int) -> int:
        """Least k > 0 with g^k = identity."""
        sub = self.cyclic_subgroups()
        return len(sub.elements[sub.index[g]])

    def cyclic_subgroup(self, g: int) -> frozenset[int]:
        """⟨g⟩ as a set of element indices; its size is element_order(g)."""
        sub = self.cyclic_subgroups()
        return frozenset(sub.elements[sub.index[g]])

    def subgroup_generated(self, generators: Iterable[int]) -> frozenset[int]:
        """Close the generators under products by worklist saturation.

        A finite set closed under multiplication is a subgroup, so no
        inverses are needed.
        """
        gens = sorted(set(generators))
        reached = {self.identity}
        work = [self.identity]
        mul = self.mul
        while work:
            a = work.pop()
            for g in gens:
                b = int(mul[a, g])
                if b not in reached:
                    reached.add(b)
                    work.append(b)
        return frozenset(reached)

    def commutator(self, a: int, b: int) -> int:
        """a⁻¹·b⁻¹·a·b."""
        mul = self.mul
        return int(mul[mul[self.inverse(a), self.inverse(b)], mul[a, b]])


@dataclass(frozen=True)
class CyclicSubgroups:
    """The distinct cyclic subgroups of a group, each stored once.

    Subgroup i is ``elements[i]``, the powers g⁰, g¹, .. of its
    smallest-index generator g; ``generators[i]`` lists, ascending, every
    element that generates it; ``index[h]`` is the subgroup h generates.
    """

    elements: tuple[tuple[int, ...], ...]
    generators: tuple[tuple[int, ...], ...]
    index: tuple[int, ...]


@dataclass(frozen=True)
class OrderTable:
    """Element orders of a group, with the exponent and p-group prime."""

    orders: tuple[int, ...]
    exponent: int
    p_group_prime: int | None


def order_table(group: FiniteGroup) -> OrderTable:
    """All element orders plus the exponent; cached on the group."""
    if group._order_table is None:
        sub = group.cyclic_subgroups()
        orders = tuple(len(sub.elements[i]) for i in sub.index)
        pp = prime_power(group.order)
        group._order_table = OrderTable(
            orders=orders,
            exponent=max(orders),
            p_group_prime=pp[0] if pp else None,
        )
    return group._order_table


def prime_power(n: int) -> tuple[int, int] | None:
    """Return (p, k) when n = p**k for a prime p and k ≥ 1, else None."""
    if n < 2:
        return None
    p = n
    for d in range(2, int(n ** 0.5) + 1):
        if n % d == 0:
            p = d
            break
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return (p, k) if n == 1 else None


def _is_prime(n: int) -> bool:
    return prime_power(n) == (n, 1)


# ---------------------------------------------------------------------------
# validation


def validate_group(mul: Sequence[Sequence[int]] | np.ndarray,
                   identity: int = 0,
                   *,
                   names: Sequence[str] | None = None,
                   family_tag: str | None = None) -> FiniteGroup:
    """Check the group axioms on a multiplication table.

    Checks run in a fixed order — closure, identity, associativity, Latin
    square — and the first violation is reported with the offending
    cell/triple.  Associativity is exhaustive up to order 256 and a
    deterministic random sample of 10·n² triples above that.

    Returns a :class:`FiniteGroup` on success.
    """
    table = np.asarray(mul, dtype=np.int64)
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise ValueError(f"multiplication table must be square, got shape {table.shape}")
    n = int(table.shape[0])
    if n == 0:
        raise ValueError("multiplication table must have at least one element")
    if not 0 <= identity < n:
        raise ValueError(f"identity index {identity} out of range 0..{n - 1}")

    bad = np.argwhere((table < 0) | (table >= n))
    if bad.size:
        g, h = (int(v) for v in bad[0])
        raise NotClosedError(
            f"cell ({g}, {h}) holds {int(table[g, h])}, outside 0..{n - 1}")

    idx = np.arange(n)
    left_bad = table[identity, :] != idx
    right_bad = table[:, identity] != idx
    if left_bad.any() or right_bad.any():
        g = int(np.argmax(left_bad)) if left_bad.any() else int(np.argmax(right_bad))
        raise NoIdentityError(f"element {identity} does not act as identity on element {g}")

    if n <= EXHAUSTIVE_ASSOC_LIMIT:
        for a in range(n):
            lhs = table[table[a, :], :]   # (b, c) ↦ (a·b)·c
            rhs = table[a, table]         # (b, c) ↦ a·(b·c)
            if not np.array_equal(lhs, rhs):
                b, c = (int(v) for v in np.argwhere(lhs != rhs)[0])
                raise NotAssociativeError(
                    f"(a·b)·c != a·(b·c) for (a, b, c) = ({a}, {b}, {c})")
    else:
        rng = random.Random(_ASSOC_SAMPLE_SEED)
        for _ in range(10 * n * n):
            a, b, c = rng.randrange(n), rng.randrange(n), rng.randrange(n)
            if table[table[a, b], c] != table[a, table[b, c]]:
                raise NotAssociativeError(
                    f"(a·b)·c != a·(b·c) for (a, b, c) = ({a}, {b}, {c})")

    for g in range(n):
        if np.unique(table[g, :]).size != n:
            raise NotLatinSquareError(f"row {g} is not a permutation of 0..{n - 1}")
    for h in range(n):
        if np.unique(table[:, h]).size != n:
            raise NotLatinSquareError(f"column {h} is not a permutation of 0..{n - 1}")

    if names is not None and len(names) != n:
        raise ValueError(f"expected {n} element names, got {len(names)}")
    return FiniteGroup(table, identity, names=names, family_tag=family_tag)


# ---------------------------------------------------------------------------
# family constructors


def _check_cap(n: int, what: str) -> None:
    cap = max_group_order()
    if n > cap:
        raise TooLargeError(f"{what} of order {n} exceeds the cap {cap} "
                            f"(raise LAMBDA_MAX_ORDER to override)")


def _power_names(n: int) -> list[str]:
    return ["1"] + ["x"] * (n > 1) + [f"x^{k}" for k in range(2, n)]


def _coset_names(m: int) -> list[str]:
    outside = ["y"] + ["xy"] * (m > 1) + [f"x^{k}y" for k in range(2, m)]
    return _power_names(m) + outside


def make_cyclic(n: int) -> FiniteGroup:
    """Cyclic group C_n: mul[i][j] = (i + j) mod n, identity 0."""
    if n < 1:
        raise ParameterTooSmallError(f"cyclic group needs n >= 1, got {n}")
    _check_cap(n, "cyclic group")
    idx = np.arange(n)
    table = (idx[:, None] + idx[None, :]) % n
    return FiniteGroup(table, 0, names=_power_names(n), family_tag="cyclic")


def _two_generator_table(m: int, twist: int, y_square: int) -> np.ndarray:
    """Table for ⟨x, y⟩ with |x| = m, y·x^b = x^{twist·b}·y, y² = x^{y_square}.

    Elements are encoded as x^a y^s ↦ a + s·m, so
    (x^a y^s)(x^b y^t) = x^{a + twist^s·b + [s and t]·y_square} y^{s xor t}.
    """
    n = 2 * m
    table = np.empty((n, n), dtype=np.int64)
    for i in range(n):
        s, a = divmod(i, m)
        for j in range(n):
            t, b = divmod(j, m)
            exp = a + (twist * b if s else b) + (y_square if s and t else 0)
            table[i, j] = exp % m + (m if s != t else 0)
    return table


def _two_exponent(order: int, smallest: int, family: str) -> int:
    pp = prime_power(order)
    if pp is None or pp[0] != 2 or order < smallest:
        raise ParameterTooSmallError(
            f"{family} order must be 2^(e+1) with order >= {smallest}, got {order}")
    _check_cap(order, f"{family} group")
    return pp[1] - 1


def make_dihedral(order: int) -> FiniteGroup:
    """Dihedral 2-group of the given order 2^(e+1), e ≥ 2.

    Presentation x^(2^e) = y² = 1, y⁻¹xy = x⁻¹; elements enumerated as
    x^0..x^(2^e−1) then y, xy, .., x^(2^e−1)y.
    """
    _two_exponent(order, 8, "dihedral")
    m = order // 2
    table = _two_generator_table(m, -1, 0)
    return FiniteGroup(table, 0, names=_coset_names(m), family_tag="dihedral")


def make_quaternion(order: int) -> FiniteGroup:
    """Generalized quaternion 2-group of order 2^(e+1), e ≥ 2.

    Presentation x^(2^e) = 1, y² = x^(2^(e−1)), y⁻¹xy = x⁻¹; every element
    outside ⟨x⟩ has order 4 and x^(2^(e−1)) is the unique involution.
    """
    _two_exponent(order, 8, "quaternion")
    m = order // 2
    table = _two_generator_table(m, -1, m // 2)
    return FiniteGroup(table, 0, names=_coset_names(m), family_tag="quaternion")


def make_semidihedral(order: int) -> FiniteGroup:
    """Semidihedral 2-group of order 2^(e+1), e ≥ 3.

    Presentation x^(2^e) = y² = 1, y⁻¹xy = x^(−1+2^(e−1)).
    """
    _two_exponent(order, 16, "semidihedral")
    m = order // 2
    table = _two_generator_table(m, m // 2 - 1, 0)
    return FiniteGroup(table, 0, names=_coset_names(m), family_tag="semidihedral")


def make_direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Componentwise product on index pairs (a, b) ↦ a·|H| + b."""
    nh = h.order
    n = g.order * nh
    hi = np.arange(n) // nh
    lo = np.arange(n) % nh
    table = (g.mul[hi[:, None], hi[None, :]].astype(np.int64) * nh
             + h.mul[lo[:, None], lo[None, :]])
    names = [f"({g.name(a)},{h.name(b)})" for a in range(g.order) for b in range(nh)]
    identity = g.identity * nh + h.identity
    return FiniteGroup(table, identity, names=names, family_tag="product")


def make_elementary_abelian(p: int, k: int) -> FiniteGroup:
    """k-fold direct power of C_p, on base-p digit vectors."""
    if not _is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if k < 1:
        raise ParameterTooSmallError(f"k must be >= 1, got {k}")
    n = p ** k
    _check_cap(n, "elementary abelian group")
    digits = np.stack(np.unravel_index(np.arange(n), (p,) * k), axis=1)
    sums = (digits[:, None, :] + digits[None, :, :]) % p
    weights = p ** np.arange(k - 1, -1, -1)
    table = sums @ weights
    names = ["(" + ",".join(str(d) for d in row) + ")" for row in digits]
    return FiniteGroup(table, 0, names=names, family_tag="elemab")


def make_heisenberg(p: int) -> FiniteGroup:
    """Upper unitriangular 3×3 matrices over the integers mod p, p odd.

    Triples (a, b, c) with (a,b,c)·(a',b',c') = (a+a', b+b', c+c'+a·b'),
    indexed as a·p² + b·p + c.  Non-abelian of order p³ and exponent p.
    """
    if p == 2:
        raise EvenPrimeError("the construction needs an odd prime; p=2 was given")
    if not _is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    n = p ** 3
    _check_cap(n, "Heisenberg group")
    a, b, c = np.unravel_index(np.arange(n), (p, p, p))
    aa = (a[:, None] + a[None, :]) % p
    bb = (b[:, None] + b[None, :]) % p
    cc = (c[:, None] + c[None, :] + a[:, None] * b[None, :]) % p
    table = (aa * p + bb) * p + cc
    names = [f"({a[i]},{b[i]},{c[i]})" for i in range(n)]
    return FiniteGroup(table, 0, names=names, family_tag="heisenberg")


# ---------------------------------------------------------------------------
# lower central series


def lower_central_series(group: FiniteGroup) -> list[frozenset[int]]:
    """Chain γ₁ = G, γ_{i+1} = ⟨[h, g] : h ∈ γᵢ, g ∈ G⟩, until stable.

    Each step generates the subgroup from all commutators of the previous
    term against the whole group (closure by worklist saturation).  For a
    nilpotent group the chain ends with the trivial subgroup.
    """
    mul = group.mul
    inv = group.inverses
    everyone = np.arange(group.order)
    series = [frozenset(range(group.order))]
    while True:
        current = np.array(sorted(series[-1]))
        # [h, g] = h⁻¹ g⁻¹ h g, vectorized over all pairs
        comms = mul[mul[inv[current][:, None], inv[everyone][None, :]],
                    mul[current[:, None], everyone[None, :]]]
        nxt = group.subgroup_generated(int(v) for v in np.unique(comms))
        if nxt == series[-1]:
            break
        series.append(nxt)
    return series


def is_maximal_class(group: FiniteGroup) -> bool:
    """True iff a p-group of order pⁿ has nilpotency class exactly n−1."""
    pp = prime_power(group.order)
    if pp is None:
        raise NotPGroupError(f"order {group.order} is not a prime power")
    series = lower_central_series(group)
    if series[-1] != frozenset({group.identity}):
        raise NotPGroupError("lower central series does not terminate at the identity")
    return len(series) - 1 == pp[1] - 1


# ---------------------------------------------------------------------------
# Cayley-table text format


def format_cayley(group: FiniteGroup) -> str:
    """Serialize to the plain-text table format (see the README).

    The optional ``names:`` line is comma-separated, so it is omitted when
    any element name itself contains a comma (e.g. product groups).
    """
    lines = [str(group.order)]
    for g in range(group.order):
        lines.append(" ".join(str(int(v)) for v in group.mul[g]))
    if group.names and not any("," in name for name in group.names):
        lines.append("names: " + ",".join(group.names))
    return "\n".join(lines) + "\n"


def parse_cayley(text: str) -> FiniteGroup:
    """Parse the text format and validate the table.

    Line 1 is the element count n, the next n lines are the table rows
    (0-based indices), and an optional final line ``names: a,b,c`` names
    the elements.  Element 0 must be the identity.  Blank lines and lines
    starting with ``#`` are ignored.

    Raises ValueError on malformed input; the validate_group errors
    propagate for tables that are not groups.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty Cayley-table input")
    try:
        n = int(lines[0])
    except ValueError as exc:
        raise ValueError(f"first line must be the element count, got {lines[0]!r}") from exc
    if n < 1:
        raise ValueError("element count must be positive")

    rows = lines[1:]
    names = None
    if rows and rows[-1].startswith("names:"):
        names = [piece.strip() for piece in rows[-1][len("names:"):].split(",")]
        rows = rows[:-1]
    if len(rows) != n:
        raise ValueError(f"expected {n} table rows, got {len(rows)}")

    table = []
    for g, row in enumerate(rows):
        try:
            entries = [int(tok) for tok in row.split()]
        except ValueError as exc:
            raise ValueError(f"table row {g} holds a non-integer token") from exc
        if len(entries) != n:
            raise ValueError(f"table row {g} has {len(entries)} entries, expected {n}")
        table.append(entries)
    if names is not None and len(names) != n:
        raise ValueError(f"expected {n} element names, got {len(names)}")
    return validate_group(table, 0, names=names, family_tag="file")
