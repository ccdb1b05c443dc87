"""Property suites over the built-in catalogue.

Each suite checks one verifiable statement about power graphs of finite
groups and reports per-group pass/fail records.  Suites that need the
exhaustive labelling search only run it on groups up to `exact_cap`
(the command line's --search-cap), once per group; everything else runs
on the whole selection.  Every certificate comes from construct.certify,
so each is checked before a suite reads it.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple, Sequence

from .construct import certify
from .groups import FiniteGroup, is_maximal_class, prime_power
from .labelling import (
    LambdaCertificate,
    labelling_to_path,
    path_to_labelling,
    span,
    validate_labelling,
)
from .powergraph import build_power_graph, check_lower_hook, euler_phi, iter_bits

__all__ = ["SuiteResult", "SUITE_NAMES", "run_suites"]


class SuiteResult(NamedTuple):
    suite: str
    subject: str
    passed: bool
    detail: str


class _Subject:
    """A named group and its certificates, each computed once.

    The group caches its own power graph and cyclic subgroups.
    ``cap`` and ``budget`` limit its exact search: vertices and seconds.
    """

    def __init__(self, name: str, group: FiniteGroup, cap: int, budget: float) -> None:
        self.name = name
        self.group = group
        self.cap = cap
        self.budget = budget

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

    @cached_property
    def certificate(self) -> LambdaCertificate:
        """The constructive certificate, built once per p-group subject."""
        return certify(self.group, "constructive")[0]

    @cached_property
    def exact(self) -> LambdaCertificate:
        """The exact-search certificate, searched once per subject."""
        return certify(self.group, "exact", cap=self.cap, budget=self.budget)[0]


def _result(suite: str, subject: _Subject, passed: bool, detail: str) -> SuiteResult:
    return SuiteResult(suite, subject.name, passed, detail)


def _suite_power_graph_shape(subjects: Sequence[_Subject]) -> list[SuiteResult]:
    """Identity universal, diameter ≤ 2, class sizes φ(d), classes cover G."""
    out = []
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
        out.append(_result("power-graph-shape", s, not problems,
                           "; ".join(problems) or "ok"))
    return out


def _suite_congruences(subjects: Sequence[_Subject]) -> list[SuiteResult]:
    """m(p) ≡ 1+p (mod p²) and p | m(p^i) for qualifying p-groups."""
    out = []
    for s in subjects:
        p, exponent = s.prime, s.exponent
        if p is None or exponent == s.n or s.n == 1:
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
        out.append(_result("class-number-congruences", s, not problems,
                           "; ".join(problems) or f"m({p}) = {m1}"))
    return out


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


def _suite_family_class_numbers(subjects: Sequence[_Subject]) -> list[SuiteResult]:
    """Exact per-order class counts for the three maximal-class 2-group families."""
    out = []
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
        out.append(_result("family-class-numbers", s, ok, detail))
    return out


def _suite_lower_hook(subjects: Sequence[_Subject]) -> list[SuiteResult]:
    """Hook holds on p-groups; composite-order groups may (and C6 must) break it."""
    out = []
    for s in subjects:
        triple = check_lower_hook(s.group)
        elements = s.group.cyclic_subgroups().elements
        orders = None if triple is None else tuple(len(elements[c]) for c in triple)
        if s.prime is not None:
            detail = "holds" if orders is None else f"counterexample of orders {orders}"
            out.append(_result("lower-hook", s, orders is None, detail))
        elif s.name == "cyclic:6":
            detail = ("expected a counterexample, found none" if orders is None else
                      f"expected break found: orders {orders}")
            out.append(_result("lower-hook", s, orders == (6, 2, 3), detail))
        else:
            detail = ("holds (no triple to break it)" if orders is None else
                      f"breaks as allowed: orders {orders}")
            out.append(_result("lower-hook", s, True, detail))
    return out


def _suite_span_path_equivalence(subjects: Sequence[_Subject]) -> list[SuiteResult]:
    """λ = |G| exactly when the reduced complement has a Hamiltonian path.

    Both sides are read off the exact certificate.  At λ = |G| its witness
    converts to a path: labelling_to_path checks that the witness is valid
    with span |G|, which makes the sorted vertices a path of the reduced
    complement.  At λ > |G| the search refuted span |G|, and
    path_to_labelling would turn any path into a span-|G| labelling, so
    there is none.
    """
    out = []
    for s in subjects:
        if not 3 <= s.n <= s.cap:
            continue
        value = s.exact.value
        ok, detail = value > s.n, f"lambda = {value}, path absent"
        if value == s.n:
            try:
                labelling_to_path(build_power_graph(s.group), s.exact.witness)
            except ValueError as exc:
                detail = f"lambda = {value}, no path from the witness: {exc}"
            else:
                ok, detail = True, f"lambda = {value}, path found"
        out.append(_result("span-path-equivalence", s, ok, detail))
    return out


def _formula_lambda(s: _Subject) -> int:
    """Independent expectation: 2(p^e − 1) cyclic, |G|+1 unique-involution 2-group, else |G|."""
    if s.n == 1:
        return 0
    if s.exponent == s.n:
        return 2 * (s.n - 1)
    if s.prime == 2 and s.group.cyclic_subgroups().class_number(2) == 1:
        return s.n + 1
    return s.n


def _suite_constructive_matches_exact(subjects: Sequence[_Subject]) -> list[SuiteResult]:
    """Constructive λ equals the exhaustive-search λ on small p-groups."""
    out = []
    for s in subjects:
        if s.prime is None or s.n > s.cap:
            continue
        constructive = s.certificate
        exact = s.exact
        ok = constructive.value == exact.value
        out.append(_result("constructive-matches-exact", s, ok,
                           f"constructive {constructive.value}, exact {exact.value}"))
    return out


def _suite_constructive_witness_valid(subjects: Sequence[_Subject]) -> list[SuiteResult]:
    """Constructive witnesses validate on the real graph and hit the formula value."""
    out = []
    for s in subjects:
        if s.prime is None:
            continue
        cert = s.certificate
        violations = validate_labelling(build_power_graph(s.group), cert.witness)
        expected = _formula_lambda(s)
        ok = (not violations and span(cert.witness) == cert.value
              and cert.value == expected)
        detail = (f"value {cert.value}, span {span(cert.witness)}, "
                  f"expected {expected}, violations {len(violations)}")
        out.append(_result("constructive-witness-valid", s, ok, detail))
    return out


def _suite_round_trip(subjects: Sequence[_Subject]) -> list[SuiteResult]:
    """labelling_to_path inverts path_to_labelling on every span-|G| witness."""
    out = []
    for s in subjects:
        if s.prime is None:
            continue
        cert = s.certificate
        if cert.value != s.n:
            continue
        graph = build_power_graph(s.group)
        path = labelling_to_path(graph, cert.witness)
        relabelled = path_to_labelling(graph, path)
        back = labelling_to_path(graph, relabelled)
        ok = (back == path
              and span(relabelled) == s.n
              and not validate_labelling(graph, relabelled))
        out.append(_result("labelling-path-round-trip", s, ok,
                           "round trip stable" if ok else "path changed"))
    return out


_SUITES = (
    ("power-graph-shape", _suite_power_graph_shape),
    ("class-number-congruences", _suite_congruences),
    ("family-class-numbers", _suite_family_class_numbers),
    ("lower-hook", _suite_lower_hook),
    ("span-path-equivalence", _suite_span_path_equivalence),
    ("constructive-matches-exact", _suite_constructive_matches_exact),
    ("constructive-witness-valid", _suite_constructive_witness_valid),
    ("labelling-path-round-trip", _suite_round_trip),
)

SUITE_NAMES = tuple(name for name, _ in _SUITES)


def run_suites(subjects: Sequence[tuple[str, FiniteGroup]], *,
               exact_cap: int, time_budget: float) -> list[SuiteResult]:
    """Run every suite over the named groups, e.g. catalogue(max_order)."""
    subjects = [_Subject(name, group, exact_cap, time_budget)
                for name, group in subjects]

    results: list[SuiteResult] = []
    for _, fn in _SUITES:
        results.extend(fn(subjects))
    return results

