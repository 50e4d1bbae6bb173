"""Catalog and multi-index bookkeeping."""

from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np
import pytest

from osc_llei import build_catalog, builtin, gamma, mindex, remove_component, representative


def brute_force_count(n_vars: int, k: int) -> int:
    """Count multisets over n_vars symbols with size <= k by enumeration."""
    total = 0
    for j in range(k + 1):
        seen = set()
        for combo in itertools.product(range(1, n_vars + 1), repeat=j):
            seen.add(tuple(sorted(combo)))
        total += len(seen)
    return total


def test_representative_sorts_and_validates() -> None:
    assert representative((3, 1, 2)) == (1, 2, 3)
    assert representative(()) == ()
    assert representative([2, 2, 1]) == (1, 2, 2)
    with pytest.raises(ValueError):
        representative((0, 1))
    with pytest.raises(ValueError):
        representative((1.5,))


def test_gamma_worked_examples() -> None:
    assert gamma(()) == 1
    assert gamma((1, 1, 2)) == 2
    assert gamma((1, 1, 1, 2, 2)) == 12
    assert gamma((4,)) == 1


def test_gamma_is_product_of_multiplicity_factorials() -> None:
    rng = np.random.default_rng(7)
    for _ in range(50):
        size = int(rng.integers(0, 6))
        alpha = tuple(int(c) for c in rng.integers(1, 5, size=size))
        expected = math.prod(
            math.factorial(m) for m in Counter(alpha).values()
        )
        assert gamma(alpha) == expected


def test_remove_component_is_one_based() -> None:
    assert remove_component((1, 2, 3), 2) == (1, 3)
    assert remove_component((1, 2, 3), 1) == (2, 3)
    assert remove_component((5,), 1) == ()
    with pytest.raises(ValueError):
        remove_component((1, 2), 3)
    with pytest.raises(ValueError):
        remove_component((1, 2), 0)


def test_catalog_worked_examples() -> None:
    cat = build_catalog(3, 2)
    assert cat.size == 10
    assert cat.block_dims == (1, 3, 6)
    cat21 = build_catalog(2, 1)
    assert cat21.representatives == ((), (1,), (2,))
    assert build_catalog(5, 3).size == 56


def test_catalog_sizes_match_brute_force() -> None:
    for n_vars in range(2, 6):
        for k in range(1, 5):
            cat = build_catalog(n_vars, k)
            assert cat.size == brute_force_count(n_vars, k)
            assert cat.size == sum(cat.block_dims)
            # each degree block is the stars-and-bars count
            for j, dim in enumerate(cat.block_dims):
                assert dim == math.comb(n_vars + j - 1, j)


def test_catalog_order_is_degree_then_lex() -> None:
    cat = build_catalog(3, 3)
    degrees = [len(a) for a in cat.representatives]
    assert degrees == sorted(degrees)
    for j in range(4):
        block = [a for a in cat.representatives if len(a) == j]
        assert block == sorted(block)
    # representatives are unique and canonical
    assert len(set(cat.representatives)) == cat.size
    assert all(a == representative(a) for a in cat.representatives)


def test_position_roundtrip_and_canonicalization() -> None:
    cat = build_catalog(4, 3)
    for pos, alpha in enumerate(cat.representatives):
        assert cat.position(alpha) == pos
    # positions accept unsorted input
    assert cat.position((3, 1)) == cat.position((1, 3))
    assert cat.position(()) == 0
    with pytest.raises(ValueError):
        cat.position((1, 1, 1, 1))  # degree 4 > k
    with pytest.raises(ValueError):
        cat.position((5,))  # component out of range


def test_degree_one_block_is_the_state() -> None:
    # positions 1..d+1 hold the plain variables in order
    cat = build_catalog(4, 2)
    for q in range(1, 5):
        assert cat.position((q,)) == q


def test_build_catalog_rejects_bad_args() -> None:
    with pytest.raises(ValueError):
        build_catalog(1, 2)
    with pytest.raises(ValueError):
        build_catalog(3, 0)


@pytest.fixture
def no_enumeration(monkeypatch):
    """Make any enumeration of multi-indices fail the test."""

    def refuse(*args):
        raise AssertionError("catalog enumerated")

    monkeypatch.setattr(mindex.itertools, "combinations_with_replacement", refuse)


def test_oversize_catalog_is_rejected_before_enumeration(no_enumeration) -> None:
    # d = 3 at k = 200 has 70,058,751 rows
    with pytest.raises(ValueError, match="70058751 rows"):
        build_catalog(4, 200)
    # partial builds the catalog of degree |alpha|: 176,851 rows at d = 2
    oracle = builtin("example1", 0.25).oracle
    with pytest.raises(ValueError, match="above the limit"):
        oracle.partial((1,) * 100, np.array([0.1, 0.2]), 0.0)


def test_catalog_size_limit_boundary() -> None:
    # C(91, 2) = 4095 rows fit under the limit, C(92, 2) = 4186 do not
    assert mindex.MAX_CATALOG_SIZE == 4096
    assert build_catalog(2, 89).size == 4095
    with pytest.raises(ValueError, match="4186 rows"):
        build_catalog(2, 90)
