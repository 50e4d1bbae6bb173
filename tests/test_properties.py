"""Structural facts of the extension, checked over random inputs.

d, k, A (from random_imaginary_system) and the expansion point xhat are
drawn by hypothesis; xhat is complex in the state entries and real in
the time entry, as in a scheme step.

loop_A1 and loop_A0 are the entry-by-entry builders the plan-backed
build_A1 and build_A0 replaced.  They derive every target monomial from
scratch and serve here only as the reference the plan must match.
loop_product is likewise the dict-of-exponents jet product the
array-backed Jet replaced.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from osc_llei import (
    DerivativeOracle,
    PolynomialOracle,
    augment,
    build_A0,
    build_A1,
    build_catalog,
    build_S,
    builtin,
    gamma,
    lift,
    random_imaginary_system,
    remove_component,
)
from osc_llei._jets import Jet, _layout

COORD = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, allow_infinity=False)
PROPERTY = settings(max_examples=40, deadline=None)
PLAN_RTOL = 1e-13


def loop_A1(catalog, A1_aug, xhat) -> np.ndarray:
    A1_aug = np.asarray(A1_aug, dtype=complex)
    n = catalog.d_plus_1
    D = catalog.size
    out = np.zeros((D, D), dtype=complex)
    for row, alpha in enumerate(catalog.representatives):
        for l in range(1, len(alpha) + 1):
            chi = remove_component(alpha, l)
            a_row = A1_aug[alpha[l - 1] - 1]
            lower = catalog.position(chi)
            for m in range(n):
                a = a_row[m]
                if a == 0:
                    continue
                out[row, catalog.position(chi + (m + 1,))] += a
                out[row, lower] += a * xhat[m]
    return out


def loop_A0(catalog, oracle, xhat) -> np.ndarray:
    k = catalog.k
    d = catalog.d_plus_1 - 1
    u, t = xhat[:d], xhat[d]
    fvals = {
        beta: np.asarray(oracle.partial(beta, u, t), dtype=complex)
        for beta in catalog.representatives
    }
    D = catalog.size
    out = np.zeros((D, D), dtype=complex)
    for row, alpha in enumerate(catalog.representatives):
        j = len(alpha)
        for l in range(1, j + 1):
            a_l = alpha[l - 1]
            chi = remove_component(alpha, l)
            for beta in catalog.representatives:
                if len(beta) > k - j + 1:
                    break
                if a_l <= d:
                    val = fvals[beta][a_l - 1]
                elif beta == ():
                    val = 1.0
                else:
                    break
                if val == 0:
                    continue
                out[row, catalog.position(chi + beta)] += val / gamma(beta)
    return out


def assert_close(got: np.ndarray, want: np.ndarray, rtol: float) -> None:
    assert np.abs(got - want).max() <= rtol * max(1.0, np.abs(want).max())


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
    A1 = augment(random_imaginary_system(d, rng))
    return d, k, A1, draw(points(d)), draw(points(d))


@st.composite
def polynomials(draw, d: int, max_degree: int) -> PolynomialOracle:
    """A random complex polynomial F of total degree <= max_degree."""
    terms = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        row = draw(st.integers(min_value=1, max_value=d))
        degree = draw(st.integers(min_value=0, max_value=max_degree))
        alpha = tuple(
            draw(st.lists(st.integers(min_value=1, max_value=d + 1),
                          min_size=degree, max_size=degree))
        )
        terms.append((row, alpha, complex(draw(COORD), draw(COORD))))
    return PolynomialOracle(d, terms)


@st.composite
def poly_setups(draw):
    """d, k in 1..4, a random complex A, a polynomial F of degree <= k + 1."""
    d = draw(st.integers(min_value=1, max_value=4))
    k = draw(st.integers(min_value=1, max_value=4))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    oracle = draw(polynomials(d, k + 1))
    return d, k, augment(A), oracle, draw(points(d)), draw(points(d))


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


@PROPERTY
@given(poly_setups())
def test_plan_builders_match_loop_builders(setup) -> None:
    d, k, A1, oracle, xhat, _ = setup
    cat = build_catalog(d + 1, k)
    assert_close(build_A1(cat, A1, xhat), loop_A1(cat, A1, xhat), PLAN_RTOL)
    assert_close(build_A0(cat, oracle, xhat), loop_A0(cat, oracle, xhat), PLAN_RTOL)


@PROPERTY
@given(st.data())
def test_taylor_reconstructs_polynomials_of_degree_k(data) -> None:
    # sum over beta of taylor[beta] (x - xhat)^beta is F(x) when deg F <= k
    d = data.draw(st.integers(min_value=1, max_value=4))
    k = data.draw(st.integers(min_value=1, max_value=4))
    oracle = data.draw(polynomials(d, k))
    xhat, x = data.draw(points(d)), data.draw(points(d))
    cat = build_catalog(d + 1, k)
    coeffs = oracle.taylor(cat, xhat[:d], xhat[d])
    lifted = lift(cat, x, xhat)
    got = lifted @ coeffs
    want = oracle.value(x[:d], x[d])
    scale = 1.0 + np.abs(lifted) @ np.abs(coeffs)
    assert np.all(np.abs(got - want) <= 1e-12 * scale)


@PROPERTY
@given(st.integers(min_value=1, max_value=4), st.lists(COORD, min_size=5, max_size=5))
def test_jet_taylor_matches_partials(k, coords) -> None:
    # the charged particle's one-jet taylor equals one partial per beta;
    # real states keep the force's denominator at or above 1
    oracle = builtin("example2-E6", 0.1).oracle
    cat = build_catalog(5, k)
    x = np.array(coords, dtype=complex)
    got = oracle.taylor(cat, x[:4], x[4])
    want = DerivativeOracle._taylor(oracle, cat, x[:4], x[4])
    assert_close(got, want, PLAN_RTOL)


@PROPERTY
@given(st.integers(min_value=1, max_value=4), st.lists(COORD, min_size=3, max_size=3))
def test_transformed_taylor_matches_partials(k, coords) -> None:
    # example1's taylor (one call on the forcing g's (y, t) catalog) equals
    # one partial per beta of the phase-space catalog
    oracle = builtin("example1", 0.3).oracle
    cat = build_catalog(3, k)
    x = np.array(coords)
    got = oracle.taylor(cat, x[:2], x[2])
    want = DerivativeOracle._taylor(oracle, cat, x[:2], x[2])
    assert got.dtype == np.float64
    assert_close(got, want, PLAN_RTOL)


def loop_product(exps, a, b, K) -> dict:
    out: dict = {}
    for e1, c1 in zip(exps, a):
        for e2, c2 in zip(exps, b):
            if sum(e1) + sum(e2) <= K:
                e = tuple(x + y for x, y in zip(e1, e2))
                out[e] = out.get(e, 0.0) + c1 * c2
    return out


def loop_compose(exps, a, series, K) -> dict:
    """sum_m series[m] (a - a_0)^m with loop products: f(a) truncated at K."""
    w = [0.0] + list(a[1:])
    out = {e: 0.0 for e in exps}
    out[exps[0]] = series[0]
    wp = dict(zip(exps, w))
    for m in range(1, K + 1):
        for e, c in wp.items():
            out[e] += series[m] * c
        wp = loop_product(exps, [wp.get(e, 0.0) for e in exps], w, K)
    return out


@st.composite
def jets(draw):
    """n, K and two random real polynomial jets; b has constant term >= 1."""
    n = draw(st.integers(min_value=1, max_value=3))
    K = draw(st.integers(min_value=1, max_value=4))
    size = _layout(n, K).size
    a = np.array(draw(st.lists(COORD, min_size=size, max_size=size)))
    b = np.array(draw(st.lists(COORD, min_size=size, max_size=size)))
    b[0] = 1.0 + abs(b[0])
    return n, K, a, b


@PROPERTY
@given(jets())
def test_jet_arithmetic_matches_truncated_taylor_coefficients(setup) -> None:
    n, K, a, b = setup
    exps = list(_layout(n, K).index)
    ja, jb = Jet(n, K, a), Jet(n, K, b)
    # the scalar Taylor series of x^-1.5 at b_0 and of cos at a_0,
    # computed here independently of _jets
    power_series = [scipy.special.binom(-1.5, m) * b[0] ** (-1.5 - m) for m in range(K + 1)]
    cos_series = [math.cos(a[0] + m * math.pi / 2) / math.factorial(m) for m in range(K + 1)]
    cases = [
        (ja * jb, loop_product(exps, a, b, K)),
        (jb.power(-1.5), loop_compose(exps, b, power_series, K)),
        (ja.cos(), loop_compose(exps, a, cos_series, K)),
    ]
    for jet, want in cases:
        want = np.array([want.get(e, 0.0) for e in exps])
        assert_close(jet.c, want, PLAN_RTOL)
