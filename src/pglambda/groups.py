"""Finite groups as explicit multiplication tables.

Groups live on element indices ``0..n-1`` with an immutable Cayley table,
a tuple of row tuples.  The family constructors (cyclic, dihedral,
generalized quaternion, semidihedral, elementary abelian, Heisenberg,
direct product) fix a deterministic element enumeration — powers of x
first, then the y-coset — so that everything computed downstream is
reproducible.

The cyclic structure has one record, ``FiniteGroup.cyclic_subgroups()``:
the distinct cyclic subgroups in class order, with the cyclic classes
(their generators), every element's order and the class numbers m(d)
read off it.

Groups are named by spec strings, which :func:`parse_group_spec` builds
for the command line and the catalogue alike:
    cyclic:N | dihedral:ORDER | quaternion:ORDER | semidihedral:ORDER |
    elemab:P,K | heisenberg:P | product:SPEC,SPEC | file:PATH
with every parameter N, ORDER, P, K written in ASCII digits, the rule
that the integer options and LAMBDA_MAX_ORDER follow too.
"""

from __future__ import annotations

import math
import os
from itertools import chain, product
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import GroupValidationError, TooLargeError

__all__ = [
    "DEFAULT_MAX_ORDER",
    "CyclicSubgroups",
    "FiniteGroup",
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
    "parse_cayley",
    "parse_group_spec",
    "prime_power",
    "validate_group",
]

DEFAULT_MAX_ORDER = 512

Table = tuple[tuple[int, ...], ...]


def max_group_order() -> int:
    """Group-order cap: ``LAMBDA_MAX_ORDER`` env var, default 512."""
    raw = os.environ.get("LAMBDA_MAX_ORDER")
    if raw is None:
        return DEFAULT_MAX_ORDER
    return _digits_int(raw, "LAMBDA_MAX_ORDER")


class FiniteGroup:
    """A finite group given by its multiplication table.

    ``mul[g][h]`` is the product g·h on element indices.  Instances are
    immutable after construction (the table is a tuple of row tuples) and
    are therefore safe to share across threads.

    Derived structures (inverses, the cyclic subgroups with the element
    orders and cyclic classes read off them, the power graph) are computed
    on first use and cached here, so each is built once per group.

    This class does not itself verify the group axioms; go through
    :func:`validate_group` for untrusted tables.
    """

    __slots__ = ("mul", "order", "identity", "names", "family_tag",
                 "_inverses", "_subgroups", "_power_graph")

    def __init__(self, mul: Sequence[Sequence[int]],
                 identity: int = 0,
                 names: Sequence[str] | None = None,
                 family_tag: str | None = None) -> None:
        table = _square_table(mul)
        self.mul = table
        self.order = len(table)
        self.identity = int(identity)
        self.names = tuple(names) if names is not None else None
        self.family_tag = family_tag
        self._inverses: tuple[int, ...] | None = None
        self._subgroups: CyclicSubgroups | None = None
        self._power_graph = None  # powergraph.PowerGraph, see build_power_graph

    def __repr__(self) -> str:
        tag = self.family_tag or "table"
        return f"FiniteGroup(order={self.order}, family={tag!r})"

    def name(self, g: int) -> str:
        return self.names[g] if self.names else str(g)

    @property
    def inverses(self) -> tuple[int, ...]:
        """inverses[g] = g⁻¹, read off the cyclic subgroups: (h^k)⁻¹ = h^(m−k)."""
        if self._inverses is None:
            inv = [self.identity] * self.order
            for powers in self.cyclic_subgroups().elements:
                for k, h in enumerate(powers):
                    inv[h] = powers[-k]
            self._inverses = tuple(inv)
        return self._inverses

    def cyclic_subgroups(self) -> CyclicSubgroups:
        """Every cyclic subgroup, from one walk of ⟨g⟩ per subgroup; cached.

        The other generators of ⟨g⟩ are the g^k with gcd(k, |g|) = 1, so
        walking from them would only repeat the same subgroup.  The walk
        meets each subgroup at its least generator, so a stable sort by
        order puts the subgroups in class order.
        """
        if self._subgroups is None:
            mul, e, n = self.mul, self.identity, self.order
            index, orders = [0] * n, [0] * n
            walks: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
            for g in range(n):
                if orders[g]:
                    continue
                powers = [e]
                acc = g
                while acc != e:
                    powers.append(acc)
                    acc = mul[acc][g]
                m = len(powers)
                gens = tuple(sorted(powers[k] for k in range(m) if math.gcd(k, m) == 1))
                for h in gens:
                    orders[h] = m
                walks.append((tuple(powers), gens))
            walks.sort(key=lambda walk: len(walk[0]))
            by_order: dict[int, list[int]] = {}
            for i, (powers, gens) in enumerate(walks):
                for h in gens:
                    index[h] = i
                by_order.setdefault(len(powers), []).append(i)
            elements, generators = zip(*walks)
            self._subgroups = CyclicSubgroups(
                elements, generators, tuple(index), tuple(orders),
                {m: tuple(ids) for m, ids in by_order.items()})
        return self._subgroups

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
                b = mul[a][g]
                if b not in reached:
                    reached.add(b)
                    work.append(b)
        return frozenset(reached)

    def commutator(self, a: int, b: int) -> int:
        """a⁻¹·b⁻¹·a·b."""
        mul, inv = self.mul, self.inverses
        return mul[mul[inv[a]][inv[b]]][mul[a][b]]


class CyclicSubgroups(NamedTuple):
    """The distinct cyclic subgroups of a group, each stored once, in class
    order: ascending order, then least generator.

    Subgroup i is ``elements[i]``, the powers g⁰, g¹, .. of its
    smallest-index generator g; ``generators[i]`` lists, ascending, every
    element that generates it, its cyclic class.  ``index[h]`` is the
    subgroup h generates and ``orders[h]`` the order of h; ``by_order``
    maps each realised order, ascending, to its subgroups' indices.
    """

    elements: tuple[tuple[int, ...], ...]
    generators: tuple[tuple[int, ...], ...]
    index: tuple[int, ...]
    orders: tuple[int, ...]
    by_order: dict[int, tuple[int, ...]]

    def class_number(self, d: int) -> int:
        """m(d), the number of cyclic subgroups of order d; 0 when none."""
        return len(self.by_order.get(d, ()))


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


def _square_table(mul: Sequence[Sequence[int]]) -> Table:
    """The table as a tuple of row tuples; ValueError unless it is square."""
    table = tuple(map(tuple, mul))
    n = len(table)
    if any(len(row) != n for row in table):
        raise ValueError(f"multiplication table must be square, got {n} rows "
                         f"of lengths {sorted({len(row) for row in table})}")
    return table


def _greedy_generators(mul: Table, identity: int) -> Iterator[int]:
    """Yield generators, each the smallest element not yet reached.

    The reached set starts at the identity and is closed under right
    multiplication by the generators yielded so far; it grows when the
    caller asks for the next generator, and the generators run out once
    it holds every element.  On a group table it is the subgroup they
    generate, so there are at most log₂ n of them.
    """
    n = len(mul)
    reached = bytearray(n)
    reached[identity] = 1
    members = [identity]
    gens: list[int] = []
    for g in range(n):
        if reached[g]:
            continue
        yield g
        gens.append(g)
        # earlier members are closed under the earlier generators, so they
        # need only g; each new member needs every generator
        work = []
        for r in members:
            h = mul[r][g]
            if not reached[h]:
                reached[h] = 1
                work.append(h)
        members.extend(work)
        while work:
            row = mul[work.pop()]
            for q in gens:
                h = row[q]
                if not reached[h]:
                    reached[h] = 1
                    members.append(h)
                    work.append(h)
        if len(members) == n:
            return


def validate_group(mul: Sequence[Sequence[int]],
                   identity: int = 0,
                   *,
                   names: Sequence[str] | None = None,
                   family_tag: str | None = None) -> FiniteGroup:
    """Check the group axioms on a multiplication table.

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

    Returns a :class:`FiniteGroup` on success.
    """
    table = _square_table([tuple(map(int, row)) for row in mul])
    n = len(table)
    if n == 0:
        raise ValueError("multiplication table must have at least one element")
    if not 0 <= identity < n:
        raise ValueError(f"identity index {identity} out of range 0..{n - 1}")
    return _checked_group(table, identity, range(n), names, family_tag)


def _checked_group(table: Table, identity: int, unranged: Iterable[int],
                   names: Sequence[str] | None, family_tag: str | None) -> FiniteGroup:
    """validate_group on a square int table whose rows outside ``unranged``
    (ascending) are known to hold only cells in 0..n-1."""
    n = len(table)
    for g in unranged:
        row = table[g]
        if min(row) < 0 or max(row) >= n:
            h = next(h for h, v in enumerate(row) if not 0 <= v < n)
            raise GroupValidationError(f"cell ({g}, {h}) holds {row[h]}, outside 0..{n - 1}")

    idx = tuple(range(n))
    for line in (table[identity], tuple(row[identity] for row in table)):
        if line != idx:
            g = next(g for g in idx if line[g] != g)
            raise GroupValidationError(
                f"element {identity} does not act as identity on element {g}")

    # a generator exists only when n ≥ 2, so itemgetter returns tuples
    for g in _greedy_generators(table, identity):
        lhs = list(map(table.__getitem__, (row[g] for row in table)))  # a ↦ c ↦ (a·g)·c
        rhs = list(map(itemgetter(*table[g]), table))                  # a ↦ c ↦ a·(g·c)
        if lhs != rhs:
            a = next(a for a in idx if lhs[a] != rhs[a])
            c = next(c for c in idx if lhs[a][c] != rhs[a][c])
            raise GroupValidationError(
                f"(a·b)·c != a·(b·c) for (a, b, c) = ({a}, {g}, {c})")

    for g, row in enumerate(table):  # units, see validate_group
        if identity not in row:
            raise GroupValidationError(f"row {g} is not a permutation of 0..{n - 1}")

    if names is not None and len(names) != n:
        raise ValueError(f"expected {n} element names, got {len(names)}")
    if names is not None and ("" in names or len(set(names)) != n):
        g = next(g for g, name in enumerate(names) if not name or name in names[:g])
        raise ValueError(f"element {g} has an empty or repeated name {names[g]!r}")
    return FiniteGroup(table, identity, names=names, family_tag=family_tag)


# ---------------------------------------------------------------------------
# family constructors


def _check_cap(n: int, what: str) -> None:
    cap = max_group_order()
    if n > cap:
        raise TooLargeError(f"{what} of order {n} exceeds the cap {cap} "
                            f"(raise LAMBDA_MAX_ORDER to override)")


def _power_over_cap(p: int, k: int, what: str) -> TooLargeError:
    """The error for an order p**k known to exceed the cap without forming it."""
    return TooLargeError(f"{what} of order {p}^{k} exceeds the cap "
                         f"{max_group_order()} (raise LAMBDA_MAX_ORDER to override)")


def _power_names(n: int) -> list[str]:
    return ["1"] + ["x"] * (n > 1) + [f"x^{k}" for k in range(2, n)]


def _coset_names(m: int) -> list[str]:
    outside = ["y"] + ["xy"] * (m > 1) + [f"x^{k}y" for k in range(2, m)]
    return _power_names(m) + outside


def _rotations(values: tuple[int, ...]) -> Table:
    """Rotation a of values is values[a:] + values[:a]."""
    return tuple(values[a:] + values[:a] for a in range(len(values)))


def _product_table(g: Table, h: Table) -> Table:
    """Componentwise product on index pairs (a, b) ↦ a·|H| + b."""
    nh = len(h)
    # shifted[b][k] is row b of h moved to the block of g-element k
    shifted = [[tuple(map((k * nh).__add__, row)) for k in range(len(g))] for row in h]
    return tuple(tuple(chain.from_iterable(map(shifted[b].__getitem__, row_a)))
                 for row_a in g for b in range(nh))


def make_cyclic(n: int) -> FiniteGroup:
    """Cyclic group C_n: mul[i][j] = (i + j) mod n, identity 0."""
    if n < 1:
        raise ValueError(f"cyclic group needs n >= 1, got {n}")
    _check_cap(n, "cyclic group")
    return FiniteGroup(_rotations(tuple(range(n))), 0, names=_power_names(n),
                       family_tag="cyclic")


def _two_generator_table(m: int, twist: int, y_square: int) -> Table:
    """Table for ⟨x, y⟩ with |x| = m, y·x^b = x^{twist·b}·y, y² = x^{y_square}.

    Elements are encoded as x^a y^s ↦ a + s·m, so
    (x^a y^s)(x^b y^t) = x^{a + twist^s·b + [s and t]·y_square} y^{s xor t}.
    Row x^a is two rotations; row x^a y reads two rotations through
    b ↦ twist·b mod m.
    """
    powers = _rotations(tuple(range(m)))        # x^a · x^b = x^{a+b}
    coset = _rotations(tuple(range(m, 2 * m)))  # x^a · x^b y = x^{a+b} y
    twisted = itemgetter(*(twist * b % m for b in range(m)))
    x_rows = [powers[a] + coset[a] for a in range(m)]
    y_rows = [twisted(coset[a]) + twisted(powers[(a + y_square) % m]) for a in range(m)]
    return tuple(x_rows + y_rows)


def _two_exponent(order: int, smallest: int, family: str) -> int:
    if order < smallest or order & (order - 1):
        raise ValueError(
            f"{family} order must be 2^(e+1) with order >= {smallest}, got {order}")
    _check_cap(order, f"{family} group")
    return order.bit_length() - 2


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
    names = [f"({g.name(a)},{h.name(b)})" for a in range(g.order) for b in range(nh)]
    identity = g.identity * nh + h.identity
    return FiniteGroup(_product_table(g.mul, h.mul), identity, names=names,
                       family_tag="product")


def make_elementary_abelian(p: int, k: int) -> FiniteGroup:
    """k-fold direct power of C_p, on base-p digit vectors."""
    # p**k ≥ max(p, 2**k): a huge p or k is refused before the primality
    # test or the power, which would not finish
    cap = max_group_order()
    if p > cap:
        raise _power_over_cap(p, k, "elementary abelian group")
    if not _is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k >= cap.bit_length():
        raise _power_over_cap(p, k, "elementary abelian group")
    n = p ** k
    _check_cap(n, "elementary abelian group")
    cyclic = _rotations(tuple(range(p)))
    table = cyclic
    for _ in range(k - 1):
        table = _product_table(cyclic, table)  # the first digit is the most significant
    names = ["(" + ",".join(map(str, digits)) + ")" for digits in product(range(p), repeat=k)]
    return FiniteGroup(table, 0, names=names, family_tag="elemab")


def make_heisenberg(p: int) -> FiniteGroup:
    """Upper unitriangular 3×3 matrices over the integers mod p, p odd.

    Triples (a, b, c) with (a,b,c)·(a',b',c') = (a+a', b+b', c+c'+a·b'),
    indexed as a·p² + b·p + c.  Non-abelian of order p³ and exponent p.
    """
    if p == 2:
        raise ValueError("the construction needs an odd prime; p=2 was given")
    if p > max_group_order():  # before the primality test, slow for huge p
        raise _power_over_cap(p, 3, "Heisenberg group")
    if not _is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    n = p ** 3
    _check_cap(n, "Heisenberg group")
    # blocks[q][s][c'] = q·p + (s + c') mod p: the run of p products that share
    # their first two coordinates q = (a+a', b+b') and the shift s = c + a·b'
    rotations = _rotations(tuple(range(p)))
    blocks = [[tuple(map((q * p).__add__, rot)) for rot in rotations] for q in range(p * p)]
    triples = list(product(range(p), repeat=3))
    table = [tuple(chain.from_iterable(blocks[(a + a2) % p * p + (b + b2) % p][(c + a * b2) % p]
                                       for a2 in range(p) for b2 in range(p)))
             for a, b, c in triples]
    names = [f"({a},{b},{c})" for a, b, c in triples]
    return FiniteGroup(table, 0, names=names, family_tag="heisenberg")


# ---------------------------------------------------------------------------
# lower central series


def lower_central_series(group: FiniteGroup) -> list[frozenset[int]]:
    """Chain γ₁ = G, γ_{i+1} = ⟨[h, g] : h ∈ γᵢ, g ∈ G⟩, until stable.

    Each step generates the subgroup (closure by worklist saturation) from
    the commutators [h, y] with h in the previous term and y in a
    generating set of G.  These suffice: γᵢ is normal, so [h, w·y] =
    [h, y]·[h, w]·[[h, w], y] is a product of them by induction on the
    length of w·y as a word in the generators.  For a nilpotent group the
    chain ends with the trivial subgroup.
    """
    gens = list(_greedy_generators(group.mul, group.identity))
    series = [frozenset(range(group.order))]
    while True:
        nxt = group.subgroup_generated({group.commutator(h, y)
                                        for h in series[-1] for y in gens})
        if nxt == series[-1]:
            break
        series.append(nxt)
    return series


def is_maximal_class(group: FiniteGroup) -> bool:
    """True iff a p-group of order pⁿ has nilpotency class exactly n−1."""
    pp = prime_power(group.order)
    if pp is None:
        raise ValueError(f"order {group.order} is not a prime power")
    series = lower_central_series(group)
    if series[-1] != frozenset({group.identity}):
        raise ValueError("lower central series does not terminate at the identity")
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
        lines.append(" ".join(map(str, group.mul[g])))
    if group.names and not any("," in name for name in group.names):
        lines.append("names: " + ",".join(group.names))
    return "\n".join(lines) + "\n"


def parse_cayley(text: str) -> FiniteGroup:
    """Parse the text format and validate the table.

    Line 1 is the element count n, the next n lines are the table rows
    (0-based indices), and an optional final line ``names: a,b,c`` gives
    the elements distinct, non-empty names.  Element 0 must be the
    identity.  Blank lines and lines starting with ``#`` are ignored.

    Raises ValueError on malformed input, TooLarge when the count exceeds
    the group-order cap (before any row is parsed); the validate_group
    errors propagate for tables that are not groups.
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
    _check_cap(n, "Cayley table")

    rows = lines[1:]
    names = None
    if rows and rows[-1].startswith("names:"):
        names = [piece.strip() for piece in rows[-1][len("names:"):].split(",")]
        rows = rows[:-1]
    if len(rows) != n:
        raise ValueError(f"expected {n} table rows, got {len(rows)}")

    # "0".."n-1" map to n shared ints, in range, which Light's test compares
    # by identity; a row with any other token goes through int() instead
    cells = dict(zip(map(str, range(n)), range(n)))
    table = []
    unranged = []
    for g, row in enumerate(rows):
        tokens = row.split()
        try:
            entries = tuple(map(cells.__getitem__, tokens))
        except KeyError:
            try:
                entries = tuple(map(int, tokens))
            except ValueError as exc:
                raise ValueError(f"table row {g} holds a non-integer token") from exc
            unranged.append(g)
        if len(entries) != n:
            raise ValueError(f"table row {g} has {len(entries)} entries, expected {n}")
        table.append(entries)
    if names is not None and len(names) != n:
        raise ValueError(f"expected {n} element names, got {len(names)}")
    return _checked_group(tuple(table), 0, unranged, names, "file")


# ---------------------------------------------------------------------------
# group spec strings


def _spec_digits(text: str) -> bool:
    """The one rule for the integers a user writes (spec parameters, parsed
    or split, integer options and LAMBDA_MAX_ORDER): ASCII digits."""
    return text.isascii() and text.isdigit()


def _digits_int(text: str, what: str, least: int = 1) -> int:
    """``text`` as an integer ≥ ``least``, written as _spec_digits says."""
    if not _spec_digits(text):
        kind = "a positive integer" if least == 1 else f"an integer >= {least}"
        raise ValueError(f"{what} must be {kind} in ASCII digits, got {text!r}")
    if len(text) > 4300:  # int() refuses these on Python 3.11, not on 3.10
        raise ValueError(f"{what} may have at most 4300 digits, got {len(text)}")
    value = int(text)
    if value < least:
        raise ValueError(f"{what} must be "
                         f"{'positive' if least == 1 else f'>= {least}'}, got {value}")
    return value


# A product of more factors than this has order ≥ 2^33 unless factors are
# trivial; the limit bounds the depth and the cost of splitting a spec.
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


def _spec_shape_ok(spec: str, seen: dict[str, bool]) -> bool:
    """Grammar-only validity, used to split product:SPEC,SPEC arguments."""
    kind, sep, rest = spec.partition(":")
    if not sep:
        return False
    if kind in _FAMILIES:
        parts = rest.split(",")
        return len(parts) == len(_FAMILIES[kind]) - 1 and all(map(_spec_digits, parts))
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
    """Build the group a spec string describes (see the module docstring)."""
    kind, sep, rest = spec.partition(":")
    if not sep:
        raise ValueError(
            f"bad group spec {spec!r}: expected FAMILY:PARAMS, e.g. cyclic:8")
    if kind in _FAMILIES:
        make, *params = _FAMILIES[kind]
        # a one-parameter family reads all of rest, commas included
        parts = rest.split(",") if len(params) > 1 else [rest]
        if len(parts) != len(params):  # only elemab takes two
            raise ValueError(f"{kind} takes P,K — got {rest!r}")
        return globals()[make](*map(_digits_int, parts, params))
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
