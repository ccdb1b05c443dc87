"""Finite groups given by their product.

A group is its order, its product and its element names,
``FiniteGroup(order, product, names)``, on element indices ``0..n-1``,
element 0 the identity.  The family constructors (cyclic, dihedral,
generalized quaternion, semidihedral, elementary abelian, Heisenberg,
direct product) multiply by formula; a group that :func:`parse_cayley`
read from a Cayley table, or :func:`validate_group` made from a table of
ints, multiplies by lookup in it.  No group holds a
table: :func:`format_cayley` writes one from the product.  Each family
fixes a deterministic element enumeration — powers of x first, then the
y-coset — so that everything computed downstream is reproducible.

The cyclic structure has one record, ``FiniteGroup.cyclic_subgroups()``:
the distinct cyclic subgroups in class order, with the cyclic classes
(their generators), every element's order and the class numbers m(d)
read off it.

Groups are named by spec strings, which :func:`parse_group_spec` builds
for the command line and the catalogue alike:
    cyclic:N | dihedral:ORDER | quaternion:ORDER | semidihedral:ORDER |
    elemab:P,K | heisenberg:P | product:SPEC,SPEC | file:PATH
with every parameter N, ORDER, P, K written in ASCII digits, the rule
that the integer options and LAMBDA_MAX_ORDER follow too.  A PATH inside
a product ends at its first comma.  The default limits are set here, so
the command line reads them without the rest.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import re
from operator import index, itemgetter, xor
from typing import Callable, Iterator, NamedTuple, Sequence

from .errors import GroupValidationError, TooLargeError

__all__ = [
    "DEFAULT_MAX_ORDER",
    "DEFAULT_TIME_BUDGET",
    "CyclicSubgroups",
    "FiniteGroup",
    "format_cayley",
    "is_maximal_class",
    "make_cyclic",
    "make_dihedral",
    "make_direct_product",
    "make_elementary_abelian",
    "make_heisenberg",
    "make_quaternion",
    "make_semidihedral",
    "max_group_order",
    "parse_cayley",
    "parse_group_spec",
    "prime_power",
    "validate_group",
]

DEFAULT_MAX_ORDER = 512
DEFAULT_TIME_BUDGET = 60.0

Table = tuple[tuple[int, ...], ...]
Product = Callable[[int, int], int]


def max_group_order() -> int:
    """Group-order cap: ``LAMBDA_MAX_ORDER`` env var, default 512."""
    raw = os.environ.get("LAMBDA_MAX_ORDER")
    if raw is None:
        return DEFAULT_MAX_ORDER
    return _digits_int(raw, "LAMBDA_MAX_ORDER")


class FiniteGroup:
    """A finite group: its order, its product and, optionally, its element names.

    ``product(g, h)`` is g·h on element indices 0..order−1, element 0 the
    identity.  The family constructors compute it by formula; a group read
    from a Cayley table multiplies by lookup in that table.  No group keeps
    a table of its own: :func:`format_cayley` writes one from the product.
    Instances are immutable after construction and are therefore safe to
    share across threads.

    Derived structures (the cyclic subgroups with the element orders and
    cyclic classes read off them, the power graph) are computed on first
    use and cached here, so each is built once per group.

    This class does not itself verify the group axioms; go through
    :func:`validate_group` for untrusted tables.
    """

    __slots__ = ("product", "order", "names", "_subgroups", "_power_graph")
    identity = 0

    def __init__(self, order: int, product: Product,
                 names: Sequence[str] | None = None) -> None:
        self.order, self.product = order, product
        self.names = tuple(names) if names is not None else None
        self._subgroups: CyclicSubgroups | None = None
        self._power_graph = None  # powergraph.Graph, vertex 0 the identity; see build_power_graph

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order})"

    def name(self, g: int) -> str:
        return self.names[g] if self.names else str(g)

    def cyclic_subgroups(self) -> CyclicSubgroups:
        """Every cyclic subgroup, from one walk of ⟨g⟩ per subgroup; cached.

        The other generators of ⟨g⟩ are the g^k with gcd(k, |g|) = 1, so
        walking from them would only repeat the same subgroup.  The walk
        meets each subgroup at its least generator, so a stable sort by
        order puts the subgroups in class order.
        """
        if self._subgroups is None:
            product, e, n = self.product, self.identity, self.order
            orders = [0] * n
            walks: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
            for g in range(n):
                if orders[g]:
                    continue
                powers = [e]
                acc = g
                while acc != e:
                    powers.append(acc)
                    acc = product(acc, g)
                m = len(powers)
                gens = tuple(sorted(powers[k] for k in range(m) if math.gcd(k, m) == 1))
                for h in gens:
                    orders[h] = m
                walks.append((tuple(powers), gens))
            walks.sort(key=lambda walk: len(walk[0]))
            by_order: dict[int, list[int]] = {}
            for i, (powers, _) in enumerate(walks):
                by_order.setdefault(len(powers), []).append(i)
            elements, generators = zip(*walks)
            self._subgroups = CyclicSubgroups(
                elements, generators, tuple(orders),
                {m: tuple(ids) for m, ids in by_order.items()})
        return self._subgroups


class CyclicSubgroups(NamedTuple):
    """The distinct cyclic subgroups of a group, each stored once, in class
    order: ascending order, then least generator.

    Subgroup i is ``elements[i]``, the powers g⁰, g¹, .. of its
    smallest-index generator g; ``generators[i]`` lists, ascending, every
    element that generates it, its cyclic class.  ``orders[h]`` is the
    order of h; ``by_order`` maps each realised order, ascending, to its
    subgroups' indices.
    """

    elements: tuple[tuple[int, ...], ...]
    generators: tuple[tuple[int, ...], ...]
    orders: tuple[int, ...]
    by_order: dict[int, tuple[int, ...]]

    def class_number(self, d: int) -> int:
        """m(d), the number of cyclic subgroups of order d; 0 when none."""
        return len(self.by_order.get(d, ()))

    def exponent(self) -> int:
        """The exponent of the group, the lcm of its element orders."""
        return math.lcm(*self.by_order)


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


# ---------------------------------------------------------------------------
# validation


class _Closure:
    """A subgroup grown one generator at a time: ``members``, identity
    first, closed under right multiplication by the generators ``gens``."""

    def __init__(self, order: int, product: Product) -> None:
        self.product, self.members, self.gens = product, [0], []
        self.reached = bytearray(order)
        self.reached[0] = 1

    def add(self, g: int) -> bool:
        """Close under g too; False, changing nothing, when g is a member."""
        if self.reached[g]:
            return False
        product, members, gens, reached = self.product, self.members, self.gens, self.reached
        gens.append(g)
        # earlier members are closed under the earlier generators, so they
        # need only g; each new member needs every generator
        work = []
        for r in members:
            h = product(r, g)
            if not reached[h]:
                reached[h] = 1
                work.append(h)
        members.extend(work)
        while work:
            a = work.pop()
            for q in gens:
                h = product(a, q)
                if not reached[h]:
                    reached[h] = 1
                    members.append(h)
                    work.append(h)
        return True


def _greedy_generators(order: int, product: Product) -> Iterator[int]:
    """Yield generators, each the least element not yet reached from the
    earlier ones; on a group there are at most log₂ n of them."""
    closure = _Closure(order, product)
    return (g for g in range(order) if closure.add(g))


def validate_group(mul: Sequence[Sequence[int]]) -> FiniteGroup:
    """Check the group axioms on a multiplication table whose identity is
    element 0.

    Checks run in a fixed order — closure, identity, associativity, Latin
    square — and the first violation is reported with the offending
    cell/triple.

    Associativity is decided exhaustively by Light's test (Clifford &
    Preston, *The Algebraic Theory of Semigroups*, 1961): the elements g
    with (x·g)·y = x·(g·y) for all x, y are closed under the product, so it
    suffices to check a generating set, one row comparison per (x, g).
    The test needs only the identity, not the Latin property.

    The Latin property is read off the units: the table is by then a finite
    monoid, where g·h = e forces h·g = e, so row g is a permutation iff it
    holds the identity e; when every row does, the monoid is a group and
    every column is a permutation too.

    Returns a :class:`FiniteGroup` on success, without element names.
    """
    try:
        table = tuple(tuple(map(index, row)) for row in mul)
    except TypeError:
        g, h, cell = next((g, h, v) for g, row in enumerate(mul) for h, v in enumerate(row)
                          if not hasattr(v, "__index__"))
        raise ValueError(f"cell ({g}, {h}) holds {cell!r}, not an integer") from None
    n = len(table)
    if any(len(row) != n for row in table):
        raise ValueError(f"multiplication table must be square, got {n} rows "
                         f"of lengths {sorted({len(row) for row in table})}")
    if n == 0:
        raise ValueError("multiplication table must have at least one element")
    for g, row in enumerate(table):
        if min(row) < 0 or max(row) >= n:
            h = next(h for h, v in enumerate(row) if not 0 <= v < n)
            raise GroupValidationError(f"cell ({g}, {h}) holds {row[h]}, outside 0..{n - 1}")
    return _checked_group(table)


def _checked_group(table: Table, names: Sequence[str] | None = None) -> FiniteGroup:
    """validate_group on a square table of cells in 0..n-1; then the n
    names parse_cayley read, if any, must be non-empty and distinct."""
    n = len(table)
    idx = tuple(range(n))
    for line in (table[0], tuple(row[0] for row in table)):
        if line != idx:
            g = next(g for g in idx if line[g] != g)
            raise GroupValidationError(f"element 0 does not act as identity on element {g}")

    # a generator exists only when n ≥ 2, so itemgetter returns tuples
    for g in _greedy_generators(n, lambda a, b: table[a][b]):
        lhs = list(map(table.__getitem__, (row[g] for row in table)))  # a ↦ c ↦ (a·g)·c
        rhs = list(map(itemgetter(*table[g]), table))                  # a ↦ c ↦ a·(g·c)
        if lhs != rhs:
            a = next(a for a in idx if lhs[a] != rhs[a])
            c = next(c for c in idx if lhs[a][c] != rhs[a][c])
            raise GroupValidationError(
                f"(a·b)·c != a·(b·c) for (a, b, c) = ({a}, {g}, {c})")

    for g, row in enumerate(table):  # units, see validate_group
        if 0 not in row:
            raise GroupValidationError(f"row {g} is not a permutation of 0..{n - 1}")

    if names is not None and ("" in names or len(set(names)) != n):
        g = next(g for g, name in enumerate(names) if not name or name in names[:g])
        raise ValueError(f"element {g} has an empty or repeated name {_quote(names[g])}")
    return FiniteGroup(n, lambda a, b: table[a][b], names)


# ---------------------------------------------------------------------------
# family constructors


def _over_cap(order: int | str, what: str) -> TooLargeError:
    """The error for an order over the cap, an int or a power "p^k"
    written out without forming it."""
    return TooLargeError(f"{what} of order {order} exceeds the cap {max_group_order()} "
                         f"(raise LAMBDA_MAX_ORDER to override)")


def _check_cap(n: int, what: str) -> None:
    if n > max_group_order():
        raise _over_cap(n, what)


def _power_names(n: int) -> list[str]:
    return ["1"] + ["x"] * (n > 1) + [f"x^{k}" for k in range(2, n)]


def _digit_names(p: int, k: int) -> list[str]:
    """The names (d1,…,dk) of the base-p digit vectors, in index order."""
    return [f"({','.join(map(str, d))})" for d in itertools.product(range(p), repeat=k)]


def make_cyclic(n: int) -> FiniteGroup:
    """Cyclic group C_n: i·j = (i + j) mod n, identity 0."""
    if n < 1:
        raise ValueError(f"cyclic group needs n >= 1, got {n}")
    _check_cap(n, "cyclic group")
    return FiniteGroup(n, lambda a, b: (a + b) % n, _power_names(n))


def _two_generator_group(order: int, twist: int, y_square: int) -> FiniteGroup:
    """⟨x, y⟩ with |x| = m = order/2, y·x^b = x^{twist·b}·y, y² = x^{y_square}.

    Elements are encoded as x^a y^s ↦ a + s·m, so
    (x^a y^s)(x^b y^t) = x^{a + twist^s·b + [s and t]·y_square} y^{s xor t};
    the a of x^a y is its index less m, which vanishes mod m.
    """
    m = order // 2

    def product(u: int, v: int) -> int:
        if u < m:
            return (u + v) % m if v < m else (u + v) % m + m
        if v < m:
            return (u + twist * v) % m + m
        return (u + twist * v + y_square) % m
    powers = _power_names(m)
    return FiniteGroup(order, product, powers + ["y"] + [f"{a}y" for a in powers[1:]])


def _two_exponent(order: int, smallest: int, family: str) -> None:
    if order < smallest or order & (order - 1):
        raise ValueError(
            f"{family} order must be 2^(e+1) with order >= {smallest}, got {order}")
    _check_cap(order, f"{family} group")


def make_dihedral(order: int) -> FiniteGroup:
    """Dihedral 2-group of the given order 2^(e+1), e ≥ 2.

    Presentation x^(2^e) = y² = 1, y⁻¹xy = x⁻¹; elements enumerated as
    x^0..x^(2^e−1) then y, xy, .., x^(2^e−1)y.
    """
    _two_exponent(order, 8, "dihedral")
    return _two_generator_group(order, -1, 0)


def make_quaternion(order: int) -> FiniteGroup:
    """Generalized quaternion 2-group of order 2^(e+1), e ≥ 2.

    Presentation x^(2^e) = 1, y² = x^(2^(e−1)), y⁻¹xy = x⁻¹; every element
    outside ⟨x⟩ has order 4 and x^(2^(e−1)) is the unique involution.
    """
    _two_exponent(order, 8, "quaternion")
    return _two_generator_group(order, -1, order // 4)


def make_semidihedral(order: int) -> FiniteGroup:
    """Semidihedral 2-group of order 2^(e+1), e ≥ 3.

    Presentation x^(2^e) = y² = 1, y⁻¹xy = x^(−1+2^(e−1)).
    """
    _two_exponent(order, 16, "semidihedral")
    return _two_generator_group(order, order // 4 - 1, 0)


def make_direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Componentwise product on index pairs (a, b) ↦ a·|H| + b."""
    g_product, h_product, nh = g.product, h.product, h.order
    _check_cap(g.order * nh, "product")
    names = [f"({g.name(a)},{h.name(b)})" for a in range(g.order) for b in range(nh)]
    return FiniteGroup(
        g.order * nh, lambda u, v: g_product(u // nh, v // nh) * nh + h_product(u % nh, v % nh),
        names)


def _check_prime(p: int, k: int, what: str, prime: str) -> None:
    """Refuse p as the prime of a group ``what`` of order p^k: over the cap,
    before the primality test, which would not finish on a huge p; then,
    when p is not prime, with "p must be {prime}"."""
    if p > max_group_order():
        raise _over_cap(f"{p}^{k}", what)
    if prime_power(p) != (p, 1):
        raise ValueError(f"p must be {prime}, got {p}")


def make_elementary_abelian(p: int, k: int) -> FiniteGroup:
    """k-fold direct power of C_p, on base-p digit vectors, the first digit
    the most significant: XOR when p = 2, else make_direct_product's
    (a, b) ↦ a·p + b folded over k copies of C_p."""
    _check_prime(p, k, "elementary abelian group", "prime")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    # p**k ≥ 2**k: a huge k is refused before the power, which would not finish
    if k >= max_group_order().bit_length():
        raise _over_cap(f"{p}^{k}", "elementary abelian group")
    n = p ** k
    _check_cap(n, "elementary abelian group")
    power = xor if p == 2 else functools.reduce(make_direct_product, [make_cyclic(p)] * k).product
    return FiniteGroup(n, power, _digit_names(p, k))


def make_heisenberg(p: int) -> FiniteGroup:
    """Upper unitriangular 3×3 matrices over the integers mod p, p odd.

    Triples (a, b, c) with (a,b,c)·(a',b',c') = (a+a', b+b', c+c'+a·b'),
    indexed as a·p² + b·p + c.  Non-abelian of order p³ and exponent p.
    """
    if p == 2:
        raise ValueError("the construction needs an odd prime; p=2 was given")
    _check_prime(p, 3, "Heisenberg group", "an odd prime")
    n = p ** 3
    _check_cap(n, "Heisenberg group")
    pp = p * p
    # a·b' ≡ a·(a'·p + b') mod p, and a·p² + b·p + c ≡ c
    return FiniteGroup(n, lambda u, v: (
        (u // pp + v // pp) % p * pp + (u // p + v // p) % p * p
        + (u + v + u // pp * (v // p)) % p), _digit_names(p, 3))


# ---------------------------------------------------------------------------
# lower central series


def _lower_central_series(group: FiniteGroup) -> list[frozenset[int]]:
    """Chain γ₁ = G, γ_{i+1} = [γᵢ, G], until stable.

    [H, G] is the normal closure of the commutators [s, t] with s in a
    generating set of H and t in one of G, so each step closes from those
    and adds the conjugates t⁻¹·s·t of each generator s it takes; a
    subgroup that holds the conjugates of its generators by the generators
    of G is normal.  An abelian group stops after one step, and a
    nilpotent group's chain ends with the trivial subgroup.
    """
    order, product, inv = group.order, group.product, [0] * group.order
    for powers in group.cyclic_subgroups().elements:  # (h^k)⁻¹ = h^(m−k)
        for k, h in enumerate(powers):
            inv[h] = powers[-k]
    top = list(_greedy_generators(order, product))
    series, gens = [frozenset(range(order))], top
    while True:
        closure = _Closure(order, product)
        # [s, t] = s⁻¹·t⁻¹·s·t
        work = [product(product(inv[s], inv[t]), product(s, t)) for s in gens for t in top]
        for s in work:  # work grows by the conjugates of each generator taken
            if closure.add(s):
                work.extend(product(product(inv[t], s), t) for t in top)
        gens = closure.gens
        nxt = frozenset(closure.members)
        if nxt == series[-1]:
            break
        series.append(nxt)
    return series


def is_maximal_class(group: FiniteGroup) -> bool:
    """True iff a p-group of order pⁿ has nilpotency class exactly n−1."""
    pp = prime_power(group.order)
    if pp is None:
        raise ValueError(f"order {group.order} is not a prime power")
    # a p-group is nilpotent: its series ends at {1}, after class + 1 terms
    return len(_lower_central_series(group)) == pp[1]


# ---------------------------------------------------------------------------
# Cayley-table text format


def format_cayley(group: FiniteGroup) -> str:
    """Serialize to the plain-text table format (see the README).

    The optional ``names:`` line is comma-separated, so it is omitted when
    any element name itself contains a comma (e.g. product groups).
    """
    n, product = group.order, group.product
    lines = [str(n), *(" ".join(str(product(g, h)) for h in range(n)) for g in range(n))]
    if group.names and not any("," in name for name in group.names):
        lines.append("names: " + ",".join(group.names))
    return "\n".join(lines) + "\n"


def _read_bounded(path: str, limit: int, error: type[Exception], why: str) -> str:
    """The UTF-8 text of a file, less a leading byte-order mark, read 2^20
    characters at a time and no further than past ``limit``, so neither an
    endless file nor a huge limit costs more; ``error`` when the file
    holds more than ``limit``."""
    chunks, size = [], 0
    with open(path, "r", encoding="utf-8-sig") as handle:
        while size <= limit and (chunk := handle.read(1 << 20)):
            chunks.append(chunk)
            size += len(chunk)
    if size > limit:
        raise error(f"{path} holds more than {limit} characters, the limit {why}")
    return "".join(chunks)


def parse_cayley(text: str) -> FiniteGroup:
    """Parse the text format and validate the table.

    Line 1 is the element count n in ASCII digits, the next n lines are
    the table rows, each cell an element index "0" to "n-1", and an
    optional final line ``names: a,b,c`` gives the elements distinct,
    non-empty names.  Element 0 must be the identity.  Blank lines and
    lines starting with ``#`` are ignored.

    Raises ValueError on malformed input, naming the first cell in
    reading order that is not "0" to "n-1"; TooLarge when the count exceeds
    the group-order cap (before any row is parsed); the validate_group
    errors propagate for tables that are not groups.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty Cayley-table input")
    n = _digits_int(lines[0], "the element count")
    _check_cap(n, "Cayley table")

    rows = lines[1:]
    names = None
    if rows and rows[-1].startswith("names:"):
        names = [piece.strip() for piece in rows[-1][len("names:"):].split(",")]
        rows = rows[:-1]
    if len(rows) != n:
        raise ValueError(f"expected {n} table rows, got {len(rows)}")

    # a cell is one of "0".."n-1", read as one of n shared ints, which
    # Light's test compares by identity
    cells = dict(zip(map(str, range(n)), range(n)))
    table = []
    for g, row in enumerate(rows):
        tokens = row.split()
        try:
            entries = tuple(map(cells.__getitem__, tokens))
        except KeyError:
            h = next(h for h, token in enumerate(tokens) if token not in cells)
            raise ValueError(f"cell ({g}, {h}) holds {_quote(tokens[h])}, "
                             f"not one of 0..{n - 1}") from None
        if len(entries) != n:
            raise ValueError(f"table row {g} has {len(entries)} entries, expected {n}")
        table.append(entries)
    if names is not None and len(names) != n:
        raise ValueError(f"expected {n} element names, got {len(names)}")
    return _checked_group(tuple(table), names)


# ---------------------------------------------------------------------------
# group spec strings


def _quote(text: str) -> str:
    """``text`` quoted for a message: whole when it holds at most 200
    characters, else its first 64 and its length, so that an error on a
    huge input stays one short line."""
    if len(text) <= 200:
        return repr(text)
    return f"{text[:64]!r} (the first 64 of {len(text)} characters)"


def _spec_digits(text: str) -> bool:
    """The one rule for every number a user writes (spec parameters, alone
    or in a product, a Cayley table's count line, labelling-CSV element
    indices and labels after an optional "-", integer options,
    LAMBDA_MAX_ORDER, and --time-budget once its one decimal point is
    removed): ASCII digits."""
    return text.isascii() and text.isdigit()


def _digits_int(text: str, what: str) -> int:
    """``text`` as a positive integer, written as _spec_digits says."""
    if not _spec_digits(text):
        raise ValueError(f"{what} must be a positive integer in ASCII digits, got {_quote(text)}")
    if len(text) > 4300:  # int() refuses these on Python 3.10.7 and later
        raise ValueError(f"{what} may have at most 4300 digits, got {len(text)}")
    value = int(text)
    if value < 1:
        raise ValueError(f"{what} must be positive, got {value}")
    return value


# A product of more factors than this has order ≥ 2^33 unless factors are
# trivial; the limit bounds the depth to which _read_factor recurses.
_MAX_PRODUCTS = 32

# family -> (constructor, the name of each comma-separated parameter).  The
# constructor is named, not held, so the call goes through the module
# attribute, where perfbench's tracer puts its wrapper.
_FAMILIES = {
    "cyclic": ("make_cyclic", "cyclic order"),
    "dihedral": ("make_dihedral", "dihedral order"),
    "quaternion": ("make_quaternion", "quaternion order"),
    "semidihedral": ("make_semidihedral", "semidihedral order"),
    "elemab": ("make_elementary_abelian", "prime", "rank"),
    "heisenberg": ("make_heisenberg", "prime"),
}


def _family_parts(kind: str, params: str) -> list[str]:
    """The parameter texts of a family in _FAMILIES, split at commas;
    ValueError naming the parameters when their count is wrong.  A
    one-parameter family reads all of ``params``, commas included."""
    names = _FAMILIES[kind][1:]
    parts = params.split(",") if len(names) > 1 else [params]
    if len(parts) != len(names):
        raise ValueError(f"{kind} takes {len(names)} parameters "
                         f"({', '.join(names)}) — got {_quote(params)}")
    return parts


def _read_factor(spec: str, start: int) -> tuple[str | tuple, int]:
    """The factor of a product spec that begins at offset ``start``, and
    the offset where it ends.  Each factor has one end: a family's after
    its count of ASCII-digit parameters, a file: path's at its first
    comma, a product's after its second factor.  A family or file factor
    is its spec text, a product the pair of its factors.  ValueError,
    without a message, when no factor begins at ``start`` or no comma
    follows a product's first factor.
    """
    if spec.startswith("product:", start):
        left, comma = _read_factor(spec, start + len("product:"))
        if not spec.startswith(",", comma):
            raise ValueError
        right, end = _read_factor(spec, comma + 1)
        return (left, right), end
    kind = next((k for k in (*_FAMILIES, "file") if spec.startswith(k + ":", start)), None)
    if kind is None:
        raise ValueError
    params = "[^,]+" if kind == "file" else ",".join(["[0-9]+"] * len(_FAMILIES[kind][1:]))
    found = re.compile(params).match(spec, start + len(kind) + 1)
    if found is None:
        raise ValueError
    return spec[start:found.end()], found.end()


def parse_group_spec(spec: str) -> FiniteGroup:
    """Build the group a spec string describes (see the module docstring)."""
    kind, sep, rest = spec.partition(":")
    if not sep:
        raise ValueError(
            f"bad group spec {_quote(spec)}: expected FAMILY:PARAMS, e.g. cyclic:8")
    if kind in _FAMILIES:
        make, *names = _FAMILIES[kind]
        return globals()[make](*map(_digits_int, _family_parts(kind, rest), names))
    if kind == "product":
        if rest.count("product:") >= _MAX_PRODUCTS:
            raise ValueError(f"a group spec may hold at most {_MAX_PRODUCTS} products")
        try:
            factors, end = _read_factor(spec, 0)
        except ValueError:
            end = -1
        if end != len(spec):
            raise ValueError(f"cannot split {_quote(rest)} into two group specs")

        def build(factor: str | tuple) -> FiniteGroup:
            if isinstance(factor, str):
                return parse_group_spec(factor)
            return make_direct_product(*map(build, factor))
        return build(factors)
    if kind == "file":
        cap = max_group_order()  # 64 characters a cell, count and names lines included
        return parse_cayley(_read_bounded(rest, 64 * (cap + 1) ** 2, TooLargeError,
                                         f"at the order cap {cap} (raise "
                                         f"LAMBDA_MAX_ORDER to override)"))
    raise ValueError(f"unknown group family {_quote(kind)}")
