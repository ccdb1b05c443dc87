"""Property suites over the built-in catalogue.

Each suite checks one statement about power graphs of finite groups that
certification does not already check, and reports per-group pass/fail
records.  Every subject is certified before any suite runs, by one call
to construct.certify with the 'auto' dispatch of the `lambda` command:
the construction on p-groups, the exact search on any group of order at
most ``exact_cap`` (the command line's --search-cap).  certify checks
every certificate and raises when the two methods disagree, so the
suites read only checked, agreeing values.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

from .construct import certify
from .groups import FiniteGroup, is_maximal_class, prime_power
from .labelling import LambdaCertificate
from .powergraph import build_power_graph, check_lower_hook, euler_phi, iter_bits

__all__ = ["SuiteResult", "SUITE_NAMES", "run_suites"]


class SuiteResult(NamedTuple):
    suite: str
    subject: str
    passed: bool
    detail: str


class _Subject(NamedTuple):
    """A named group and the certificates certify returned for it.

    The group caches its own power graph and cyclic subgroups.
    """

    name: str
    group: FiniteGroup
    certificates: list[LambdaCertificate]

    @property
    def n(self) -> int:
        return self.group.order

    @property
    def prime(self) -> int | None:
        pp = prime_power(self.n)
        return pp[0] if pp else None

    @property
    def exponent(self) -> int:
        return max(self.group.cyclic_subgroups().by_order)


# A suite yields (subject, passed, detail); run_suites adds its name.
_Check = tuple[_Subject, bool, str]


def _suite_power_graph_shape(subjects: Sequence[_Subject]) -> Iterator[_Check]:
    """Identity universal, diameter ≤ 2, class sizes φ(d), classes cover G."""
    for s in subjects:
        problems = []
        graph = build_power_graph(s.group)
        full = (1 << s.n) - 1
        if s.n > 1 and not graph.is_universal(s.group.identity):
            problems.append("identity is not universal")
        for v, hood in enumerate(graph.neighbors):
            reach = hood | (1 << v)
            for u in iter_bits(hood):
                reach |= graph.neighbors[u]
            if reach != full:
                problems.append(f"vertex {v} cannot reach everything in 2 steps")
                break
        covered = 0
        sub = s.group.cyclic_subgroups()
        for elements, members in zip(sub.elements, sub.generators):
            if len(members) != euler_phi(len(elements)):
                problems.append(
                    f"class of order {len(elements)} has {len(members)} members")
            covered += len(members)
        if covered != s.n:
            problems.append(f"classes cover {covered} of {s.n} elements")
        yield s, not problems, "; ".join(problems) or "ok"


def _suite_congruences(subjects: Sequence[_Subject]) -> Iterator[_Check]:
    """m(p) ≡ 1+p (mod p²) and p | m(p^i) for qualifying p-groups."""
    for s in subjects:
        p, exponent = s.prime, s.exponent
        if p is None or exponent == s.n:
            continue
        if p == 2 and is_maximal_class(s.group):
            continue
        problems = []
        sub = s.group.cyclic_subgroups()
        m1 = sub.class_number(p)
        if m1 % (p * p) != (1 + p) % (p * p):
            problems.append(f"m({p}) = {m1} is not 1+{p} mod {p * p}")
        q = p * p
        while q <= exponent:
            mi = sub.class_number(q)
            if mi % p != 0:
                problems.append(f"m({q}) = {mi} is not divisible by {p}")
            q *= p
        yield s, not problems, "; ".join(problems) or f"m({p}) = {m1}"


def _family_class_expectations(tag: str, order: int) -> dict[int, int]:
    m = order // 2  # 2^e
    expected = {1: 1}
    if tag == "dihedral":
        expected[2] = 1 + m
        q = 4
    elif tag == "quaternion":
        expected[2] = 1
        expected[4] = 1 + m // 2
        q = 8
    else:  # semidihedral
        expected[2] = 1 + m // 2
        expected[4] = 1 + m // 4
        q = 8
    while q <= m:
        expected[q] = 1
        q *= 2
    return expected


def _suite_family_class_numbers(subjects: Sequence[_Subject]) -> Iterator[_Check]:
    """Exact per-order class counts for the three maximal-class 2-group families."""
    for s in subjects:
        tag = s.group.family_tag
        if tag not in ("dihedral", "quaternion", "semidihedral"):
            continue
        expected = _family_class_expectations(tag, s.n)
        sub = s.group.cyclic_subgroups()
        actual = {d: sub.class_number(d) for d in expected}
        extra = [d for d in sub.by_order if d not in expected]
        ok = actual == expected and not extra
        detail = (f"class numbers {sorted(actual.items())}" if ok else
                  f"expected {sorted(expected.items())}, got {sorted(actual.items())}"
                  + (f", unexpected orders {extra}" if extra else ""))
        yield s, ok, detail


def _suite_lower_hook(subjects: Sequence[_Subject]) -> Iterator[_Check]:
    """The hook holds exactly when every element order is a prime power.

    In a cyclic group of prime-power order the subgroups form a chain, so
    any two classes a class hooks are adjacent and of distinct orders.  An
    element whose order has two prime divisors p ≠ q hooks the classes of
    orders p and q, and those are not adjacent.
    """
    for s in subjects:
        sub = s.group.cyclic_subgroups()
        mixed = next((d for d in sub.by_order if d > 1 and prime_power(d) is None), None)
        triple = check_lower_hook(s.group)
        found = ("holds" if triple is None else
                 f"counterexample of orders {tuple(len(sub.elements[c]) for c in triple)}")
        if mixed is None:
            yield s, triple is None, found
        else:
            yield s, triple is not None, f"{found}; element order {mixed} implies a break"


def _formula_lambda(s: _Subject) -> int:
    """Independent expectation: 2(p^e − 1) cyclic, |G|+1 unique-involution 2-group, else |G|."""
    if s.exponent == s.n:
        return 2 * (s.n - 1)
    if s.prime == 2 and s.group.cyclic_subgroups().class_number(2) == 1:
        return s.n + 1
    return s.n


def _suite_lambda_matches_formula(subjects: Sequence[_Subject]) -> Iterator[_Check]:
    """The certified λ of every p-group equals the closed form."""
    for s in subjects:
        if s.prime is None:
            continue
        value, expected = s.certificates[0].value, _formula_lambda(s)
        methods = " and ".join(cert.method for cert in s.certificates)
        yield s, value == expected, f"lambda {value} by {methods}, formula {expected}"


_SUITES = (
    ("power-graph-shape", _suite_power_graph_shape),
    ("class-number-congruences", _suite_congruences),
    ("family-class-numbers", _suite_family_class_numbers),
    ("lower-hook", _suite_lower_hook),
    ("lambda-matches-formula", _suite_lambda_matches_formula),
)

SUITE_NAMES = tuple(name for name, _ in _SUITES)


def run_suites(subjects: Sequence[tuple[str, FiniteGroup]], *,
               exact_cap: int, time_budget: float) -> list[SuiteResult]:
    """Certify the named groups, e.g. catalogue(max_order), then run every
    suite over them."""
    subjects = [_Subject(name, group,
                         certify(group, "auto", cap=exact_cap, budget=time_budget))
                for name, group in subjects]

    return [SuiteResult(name, s.name, passed, detail)
            for name, fn in _SUITES for s, passed, detail in fn(subjects)]
