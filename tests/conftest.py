"""Shared fixtures: an ingested permutation group, its Cayley file, and a
complement-path check written independently of the package."""

from __future__ import annotations

import itertools

import pytest

from pglambda import FiniteGroup, format_cayley, validate_group


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    # apply q first, then p
    return tuple(p[q[i]] for i in range(len(q)))


@pytest.fixture(scope="session")
def s3_group() -> FiniteGroup:
    """The symmetric group on 3 letters, built from permutation composition.

    itertools.permutations yields the identity permutation first, so the
    table satisfies the element-0-is-identity convention of the Cayley
    text format.
    """
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[_compose(p, q)] for q in perms] for p in perms]
    return validate_group(table)


@pytest.fixture()
def s3_cayley_file(tmp_path, s3_group):
    path = tmp_path / "s3.cayley"
    path.write_text(format_cayley(s3_group), encoding="utf-8")
    return path


@pytest.fixture(scope="session")
def assert_complement_path():
    """Assert that a path is a Hamiltonian path of a power graph's
    complement minus the identity 0: it covers the non-identity vertices
    once, and no two consecutive vertices are adjacent."""
    def check(graph, path):
        assert sorted(path) == list(range(1, graph.n)), path
        assert not any(graph.adjacent(a, b) for a, b in itertools.pairwise(path)), path
    return check
