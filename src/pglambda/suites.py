"""The built-in catalogue and the property suites run over it.

Every catalogue entry names a group by the same spec string the command
line accepts, and is built by the same parser, so suite reports can be
reproduced verbatim with single commands.  Each spec is stored with its
group's order, so that a selection by order builds nothing above it.
The catalogue order (ascending order, then spec) is the iteration order
everywhere; nothing downstream re-sorts.

Each suite checks one statement about power graphs of finite groups that
certification does not already check.  It is a predicate over one
subject, returning (passed, detail), or None where its statement does
not apply; run_suites is the one loop over suites and subjects, and
turns each verdict into a pass/fail record.  Every subject is certified
before any suite runs, by one call to construct.certify with the 'auto'
dispatch of the `lambda` command, which reads construct.recognize_family:
both methods on a group it names a family of (a p-group or the trivial
group) of order at most ``exact_cap`` (the command line's --search-cap,
by default the group-order cap), the construction alone on a larger one,
and the exact search on a group it answers 'not-a-p-group'.  certify
checks every certificate and raises when the two methods disagree, so
the suites read only checked, agreeing values.  The family suite reads
the same answer: only a 2-group is named dihedral, semidihedral or
quaternion.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .construct import certify, recognize_family
from .groups import FiniteGroup, is_maximal_class, parse_group_spec, prime_power
from .labelling import LambdaCertificate
from .powergraph import build_power_graph, check_lower_hook

__all__ = ["SuiteResult", "catalogue", "euler_phi", "run_suites"]

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


def euler_phi(n: int) -> int:
    """Count of 1 ≤ k ≤ n coprime to n."""
    if n < 1:
        raise ValueError(f"euler_phi needs n >= 1, got {n}")
    result, m, d = n, n, 2
    while d * d <= m:
        if m % d == 0:
            while m % d == 0:
                m //= d
            result -= result // d
        d += 1
    if m > 1:
        result -= result // m
    return result


class SuiteResult(NamedTuple):
    suite: str
    subject: str
    passed: bool
    detail: str


class _Subject(NamedTuple):
    """A named group, its order, its prime when it is a p-group (else
    None), and the certificates certify returned for it.

    The group caches its own power graph and cyclic subgroups.
    """

    name: str
    group: FiniteGroup
    n: int
    prime: int | None
    certificates: list[LambdaCertificate]


_Check = tuple[bool, str] | None  # a suite's verdict on one subject


def _suite_power_graph_shape(s: _Subject) -> _Check:
    """Identity universal (so diameter ≤ 2), class sizes φ(d), classes cover G."""
    problems = []
    graph = build_power_graph(s.group)
    if not graph.is_universal(s.group.identity):
        problems.append("identity is not universal")
    sub = s.group.cyclic_subgroups()
    for elements, members in zip(sub.elements, sub.generators):
        if len(members) != euler_phi(len(elements)):
            problems.append(
                f"class of order {len(elements)} has {len(members)} members")
    covered = sum(map(len, sub.generators))
    if covered != s.n:
        problems.append(f"classes cover {covered} of {s.n} elements")
    return not problems, "; ".join(problems) or "ok"


def _suite_congruences(s: _Subject) -> _Check:
    """m(p) ≡ 1+p (mod p²) and p | m(p^i) for qualifying p-groups.

    A p-group realises every order p^i up to its exponent, so the orders
    of ``by_order`` above p are p², p³, …, the exponent, ascending.
    """
    p, sub = s.prime, s.group.cyclic_subgroups()
    if p is None or sub.exponent() == s.n or p == 2 and is_maximal_class(s.group):
        return None
    problems = []
    m1 = sub.class_number(p)
    if m1 % (p * p) != (1 + p) % (p * p):
        problems.append(f"m({p}) = {m1} is not 1+{p} mod {p * p}")
    problems.extend(f"m({q}) = {len(ids)} is not divisible by {p}"
                    for q, ids in sub.by_order.items() if q > p and len(ids) % p)
    return not problems, "; ".join(problems) or f"m({p}) = {m1}"


# A maximal-class 2-group G has one cyclic subgroup of each order 1, 2, 4,
# …, |G|/2, except at the orders d its family maps to k: 1 + |G|/k there.
_FAMILY_EXCEPTIONS = {"dihedral": {2: 2}, "quaternion": {4: 4},
                      "semidihedral": {2: 4, 4: 8}}


def _suite_family_class_numbers(s: _Subject) -> _Check:
    """Exact per-order class counts for the groups recognized as one of
    the three maximal-class 2-group families; no other group is named so."""
    family = recognize_family(s.group)
    if family not in _FAMILY_EXCEPTIONS:
        return None
    expected = {1 << i: 1 for i in range(s.n.bit_length() - 1)}
    expected.update((d, 1 + s.n // k) for d, k in _FAMILY_EXCEPTIONS[family].items())
    actual = {d: len(ids) for d, ids in s.group.cyclic_subgroups().by_order.items()}
    ok = actual == expected
    return ok, (f"class numbers {sorted(actual.items())}" if ok else
                f"expected {sorted(expected.items())}, got {sorted(actual.items())}")


def _suite_lower_hook(s: _Subject) -> _Check:
    """The hook holds exactly when every element order is a prime power.

    In a cyclic group of prime-power order the subgroups form a chain, so
    any two classes a class hooks are adjacent and of distinct orders.  An
    element whose order has two prime divisors p ≠ q hooks the classes of
    orders p and q, and those are not adjacent.
    """
    sub = s.group.cyclic_subgroups()
    mixed = next((d for d in sub.by_order if d > 1 and prime_power(d) is None), None)
    triple = check_lower_hook(s.group)
    found = ("holds" if triple is None else
             f"counterexample of orders {tuple(len(sub.elements[c]) for c in triple)}")
    if mixed is None:
        return triple is None, found
    return triple is not None, f"{found}; element order {mixed} implies a break"


def _formula_lambda(s: _Subject) -> int:
    """Independent expectation: 2(p^e − 1) cyclic, |G|+1 unique-involution 2-group, else |G|."""
    if s.group.cyclic_subgroups().exponent() == s.n:
        return 2 * (s.n - 1)
    if s.prime == 2 and s.group.cyclic_subgroups().class_number(2) == 1:
        return s.n + 1
    return s.n


def _suite_lambda_matches_formula(s: _Subject) -> _Check:
    """The certified λ of every p-group equals the closed form."""
    if s.prime is None:
        return None
    value, expected = s.certificates[0].value, _formula_lambda(s)
    methods = " and ".join(cert.method for cert in s.certificates)
    return value == expected, f"lambda {value} by {methods}, formula {expected}"


_SUITES = (
    ("power-graph-shape", _suite_power_graph_shape),
    ("class-number-congruences", _suite_congruences),
    ("family-class-numbers", _suite_family_class_numbers),
    ("lower-hook", _suite_lower_hook),
    ("lambda-matches-formula", _suite_lambda_matches_formula),
)


def run_suites(subjects: Sequence[tuple[str, FiniteGroup]], *,
               exact_cap: int | None, time_budget: float) -> list[SuiteResult]:
    """Certify the named groups, e.g. catalogue(max_order), then run every
    suite on each of them, suite by suite."""
    checked = [_Subject(name, group, group.order, pp and pp[0],
                        certify(group, "auto", cap=exact_cap, budget=time_budget))
               for name, group in subjects for pp in [prime_power(group.order)]]
    return [SuiteResult(suite, s.name, *check) for suite, fn in _SUITES for s in checked
            if (check := fn(s)) is not None]
