"""Structural facts of the extension, checked over random inputs.

d, k, A (from random_imaginary_system) and the expansion point xhat are
drawn by hypothesis; xhat is complex in the state entries and real in
the time entry, as in a scheme step.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from osc_llei import build_A1, build_catalog, build_S, lift, random_imaginary_system

COORD = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, allow_infinity=False)
PROPERTY = settings(max_examples=40, deadline=None)


@st.composite
def points(draw, d: int) -> np.ndarray:
    """A complex (d+1)-vector whose last (time) entry is real."""
    re = draw(st.lists(COORD, min_size=d + 1, max_size=d + 1))
    im = draw(st.lists(COORD, min_size=d, max_size=d)) + [0.0]
    return np.array(re) + 1j * np.array(im)


@st.composite
def setups(draw):
    d = draw(st.integers(min_value=1, max_value=3))
    k = draw(st.integers(min_value=1, max_value=3))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    A1 = np.zeros((d + 1, d + 1), dtype=complex)
    A1[:d, :d] = random_imaginary_system(d, rng)
    return d, k, A1, draw(points(d)), draw(points(d))


@PROPERTY
@given(setups())
def test_catalog_size_is_binomial(setup) -> None:
    d, k, _, _, _ = setup
    assert build_catalog(d + 1, k).size == math.comb(d + 1 + k, k)


@PROPERTY
@given(setups())
def test_recentering_is_a_similarity(setup) -> None:
    d, k, A1, xhat, _ = setup
    cat = build_catalog(d + 1, k)
    A1k_xhat = build_A1(cat, A1, xhat)
    A1k_zero = build_A1(cat, A1, np.zeros(d + 1))
    S = build_S(cat, xhat)
    residual = np.linalg.norm(A1k_xhat @ S - S @ A1k_zero)
    assert residual <= 1e-10 * np.linalg.norm(A1k_xhat) * np.linalg.norm(S)


@PROPERTY
@given(setups())
def test_S_recenters_the_lift(setup) -> None:
    d, k, _, xhat, x = setup
    cat = build_catalog(d + 1, k)
    want = lift(cat, x, xhat)
    got = build_S(cat, xhat) @ lift(cat, x, np.zeros(d + 1))
    assert np.linalg.norm(got - want) <= 1e-10 * max(1.0, np.linalg.norm(want))
