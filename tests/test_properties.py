"""Structural facts of the extension, checked over random inputs.

d, k, A (from random_imaginary_system) and the expansion point xhat are
drawn by hypothesis; xhat is complex in the state entries and real in
the time entry, as in a scheme step.

loop_A1 and loop_A0 are the entry-by-entry builders the plan-backed
build_A1 and build_A0 replaced, and loop_S and loop_lift the
subset-expansion and factor-by-factor builders that build_S and lift
replaced.  They derive every target monomial from scratch and serve
here only as the reference the table-backed builders must match.
loop_product and loop_compose are likewise the dict-of-exponents jet
arithmetic the array-backed Jet replaced.  polynomial_partial,
pendulum_partial and transformed_partial are the per-multi-index
partials the builtin oracles computed before _taylor became their one
override point, and charged_partial evaluates the charged particle's
force in the dict-of-exponents arithmetic; loop_taylor turns any of
them into Taylor coefficients one beta at a time.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from osc_llei import (
    DerivativeOracle,
    JetOracle,
    PolynomialOracle,
    UnsupportedOrderError,
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
from osc_llei._jets import Jet
from osc_llei.mindex import _catalog, _exponent_table, _sum_table, restrict
from osc_llei.sysdef import _PendulumForcingOracle

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


def loop_S(catalog, xhat) -> np.ndarray:
    D = catalog.size
    out = np.zeros((D, D), dtype=complex)
    for row, alpha in enumerate(catalog.representatives):
        for kept in itertools.product((False, True), repeat=len(alpha)):
            coeff = 1.0 + 0.0j
            target = []
            for keep, c in zip(kept, alpha):
                if keep:
                    target.append(c)
                else:
                    coeff *= -xhat[c - 1]
            out[row, catalog.position(tuple(target))] += coeff
    return out


def loop_lift(catalog, x, xhat) -> np.ndarray:
    y = np.asarray(x) - np.asarray(xhat)
    out = np.empty(catalog.size, dtype=complex)
    for row, alpha in enumerate(catalog.representatives):
        v = 1.0 + 0.0j
        for c in alpha:
            v *= y[c - 1]
        out[row] = v
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
@given(setups())
def test_S_and_lift_match_loop_builders(setup) -> None:
    d, k, _, xhat, x = setup
    cat = build_catalog(d + 1, k)
    assert_close(build_S(cat, xhat), loop_S(cat, xhat), PLAN_RTOL)
    assert_close(lift(cat, x, xhat), loop_lift(cat, x, xhat), PLAN_RTOL)


def test_sum_table_is_multiset_addition() -> None:
    # brute force: sorted-tuple addition looked up in the representative list
    for n in range(1, 5):
        for k in range(5):
            reps = list(_catalog(n, k).representatives)
            want = [
                [reps.index(tuple(sorted(a + b))) if len(a) + len(b) <= k else -1 for b in reps]
                for a in reps
            ]
            sums = _sum_table(n, k)
            assert sums.tolist() == want, (n, k)
            assert not sums.flags.writeable


def test_exponent_table_rebuilds_the_representatives() -> None:
    for n in range(1, 5):
        for k in range(5):
            exps = _exponent_table(n, k)
            got = [tuple(np.repeat(np.arange(1, n + 1), row).tolist()) for row in exps]
            assert got == list(_catalog(n, k).representatives), (n, k)
            assert not exps.flags.writeable


def test_restriction_rows_follow_the_sub_catalog() -> None:
    # row rows[i] of the parent is the sub-catalog's i-th multi-index with
    # the kept variables renumbered 1..m, for every subset of variables
    for n in range(2, 5):
        for k in range(4):
            parent = _catalog(n, k)
            for m in range(1, n + 1):
                for variables in itertools.combinations(range(1, n + 1), m):
                    sub = restrict(parent, variables)
                    renumber = {v: i + 1 for i, v in enumerate(variables)}
                    got = [tuple(renumber[c] for c in parent.representatives[r]) for r in sub.rows]
                    assert got == list(sub.catalog.representatives), (n, k, variables)
                    kept = [a for a in parent.representatives if set(a) <= set(variables)]
                    assert len(sub.rows) == len(kept)


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


def loop_taylor(partial, catalog, u, t) -> np.ndarray:
    return np.array([
        partial(beta, u, t) / g for beta, g in zip(catalog.representatives, catalog.gammas)
    ])


def polynomial_partial(oracle, alpha, u, t) -> np.ndarray:
    # falling factorial e (e-1) ... (e-b+1) times x^(e-b), per variable
    beta = [alpha.count(q) for q in range(1, oracle.d + 2)]
    x = list(u) + [t]
    out = np.zeros(oracle.d, dtype=complex)
    for row, exps, coeff in oracle.terms:
        val = coeff
        for q in range(oracle.d + 1):
            e, b = exps[q], beta[q]
            if b > e:
                val = 0.0
                break
            for i in range(b):
                val *= e - i
            if e - b:
                val *= x[q] ** (e - b)
        out[row] += val
    return out


def pendulum_partial(alpha, u, t) -> np.ndarray:
    # d^m_y d^n_t of g(y, t) = -(t + cos(w t)) sin(y), w = 2 sqrt(6)
    w = 2.0 * math.sqrt(6.0)
    m = alpha.count(1)
    n = len(alpha) - m
    if n == 0:
        a_n = t + np.cos(w * t)
    else:
        a_n = (1.0 if n == 1 else 0.0) + w**n * np.cos(w * t + n * np.pi / 2)
    return np.array([-a_n * np.sin(u[0] + m * np.pi / 2)])


def transformed_partial(g_partial, dy, epsilon, alpha, u, t) -> np.ndarray:
    # F = [0; epsilon g(y, t)] over (y, p, t): p-derivatives vanish
    out = np.zeros(2 * dy, dtype=complex)
    if all(c <= dy or c > 2 * dy for c in alpha):
        g_alpha = tuple(c if c <= dy else dy + 1 for c in alpha)
        out[dy:] = epsilon * g_partial(g_alpha, u[:dy], t)
    return out


def exponents(n: int, K: int) -> list[tuple[int, ...]]:
    """Every exponent vector over n variables of total degree <= K, constant first."""
    return sorted((e for e in itertools.product(range(K + 1), repeat=n) if sum(e) <= K), key=sum)


@functools.lru_cache(maxsize=16)
def charged_jet(y1, y2, t, K) -> tuple[dict, dict]:
    """Taylor coefficients of the charged particle's force g(y, t) at (y1, y2, t).

    g_i = y_i s^(-3/2), s = y_1^2 + y_2^2 + (2 - cos(pi t))^2, in the
    dict-of-exponents arithmetic of loop_product and loop_compose, with
    the scalar series of cos and x^-1.5 written out here.
    """
    exps = exponents(3, K)

    def coeffs(d):
        return [d.get(e, 0.0) for e in exps]

    def variable(q, value):
        return [value] + [float(e[q] == 1 and sum(e) == 1) for e in exps[1:]]

    y1j, y2j, tj = variable(0, y1), variable(1, y2), variable(2, t)
    pit = [np.pi * c for c in tj]
    cos_series = [np.cos(pit[0] + m * np.pi / 2) / math.factorial(m) for m in range(K + 1)]
    c = [-x for x in coeffs(loop_compose(exps, pit, cos_series, K))]
    c[0] += 2.0
    s = [
        a + b + cc
        for a, b, cc in zip(
            coeffs(loop_product(exps, y1j, y1j, K)),
            coeffs(loop_product(exps, y2j, y2j, K)),
            coeffs(loop_product(exps, c, c, K)),
        )
    ]
    power_series = [scipy.special.binom(-1.5, m) * s[0] ** (-1.5 - m) for m in range(K + 1)]
    s32 = coeffs(loop_compose(exps, s, power_series, K))
    return loop_product(exps, y1j, s32, K), loop_product(exps, y2j, s32, K)


def charged_partial(alpha, u, t) -> np.ndarray:
    # one dict jet of degree |alpha| in (y_1, y_2, t), read at alpha's exponents
    out = np.zeros(4, dtype=np.result_type(u, t))
    if 3 not in alpha and 4 not in alpha:
        g1, g2 = charged_jet(u[0], u[1], t, len(alpha))
        e = (alpha.count(1), alpha.count(2), alpha.count(5))
        out[2] = g1.get(e, 0.0) * gamma(alpha)
        out[3] = g2.get(e, 0.0) * gamma(alpha)
    return out


@PROPERTY
@given(st.data())
def test_polynomial_taylor_matches_partials(data) -> None:
    d = data.draw(st.integers(min_value=1, max_value=4))
    k = data.draw(st.integers(min_value=1, max_value=4))
    oracle = data.draw(polynomials(d, k + 1))
    x = data.draw(points(d))
    cat = build_catalog(d + 1, k)
    got = oracle.taylor(cat, x[:d], x[d].real)
    want = loop_taylor(lambda a, u, t: polynomial_partial(oracle, a, u, t), cat, x[:d], x[d].real)
    assert_close(got, want, PLAN_RTOL)


@PROPERTY
@given(st.integers(min_value=1, max_value=4), st.lists(COORD, min_size=5, max_size=5))
def test_jet_taylor_matches_partials(k, coords) -> None:
    # the charged particle's JetOracle taylor equals one partial per beta
    # from the test's own jet arithmetic; real states keep the force's
    # denominator at or above 1
    oracle = builtin("example2-E6", 0.1).oracle
    cat = build_catalog(5, k)
    x = np.array(coords, dtype=complex)
    got = oracle.taylor(cat, x[:4], x[4])
    want = loop_taylor(charged_partial, cat, x[:4], x[4])
    assert_close(got, want, PLAN_RTOL)


@PROPERTY
@given(st.integers(min_value=1, max_value=4), st.lists(COORD, min_size=3, max_size=3))
def test_transformed_taylor_matches_partials(k, coords) -> None:
    # example1's taylor (one call on the forcing g's (y, t) catalog, whose
    # closed form gives all rows at once) equals one partial per beta of
    # the phase-space catalog
    oracle = builtin("example1", 0.3).oracle
    cat = build_catalog(3, k)
    x = np.array(coords)

    def partial(alpha, u, t):
        return transformed_partial(pendulum_partial, 1, 0.3, alpha, u, t)

    got = oracle.taylor(cat, x[:2], x[2])
    assert got.dtype == np.float64
    assert_close(got, loop_taylor(partial, cat, x[:2], x[2]), PLAN_RTOL)


def polynomial_F(oracle: PolynomialOracle):
    """oracle's polynomial as a plain callable F(u, t), one monomial at a time."""

    def F(u, t):
        x = list(u) + [t]
        out = [0.0] * oracle.d
        for row, exps, coeff in oracle.terms:
            term = coeff
            for xq, e in zip(x, exps):
                if e:
                    term = term * xq**e
            out[row] = out[row] + term
        return out

    return F


ZERO_OR_COORD = st.one_of(st.just(0.0), COORD)


@PROPERTY
@given(st.data())
def test_jet_oracle_matches_polynomial_oracle(data) -> None:
    # int powers multiply out, so a zero coordinate is a valid base point;
    # a row without a non-constant term comes back as a plain number
    d = data.draw(st.integers(min_value=1, max_value=4))
    k = data.draw(st.integers(min_value=1, max_value=4))
    oracle = data.draw(polynomials(d, k + 1))
    re = data.draw(st.lists(ZERO_OR_COORD, min_size=d + 1, max_size=d + 1))
    im = data.draw(st.lists(ZERO_OR_COORD, min_size=d, max_size=d))
    x = np.array(re) + 1j * np.array(im + [0.0])
    cat = build_catalog(d + 1, k)
    jet = JetOracle(polynomial_F(oracle))
    assert_close(jet.taylor(cat, x[:d], x[d].real), oracle.taylor(cat, x[:d], x[d].real), 1e-13)
    assert_close(jet.value(x[:d], x[d].real), oracle.value(x[:d], x[d].real), 1e-13)


@PROPERTY
@given(st.integers(min_value=1, max_value=5), COORD, COORD)
def test_jet_oracle_matches_pendulum_closed_form(k, y, t) -> None:
    w = 2.0 * math.sqrt(6.0)
    jet = JetOracle(lambda u, t: [-(t + np.cos(w * t)) * np.sin(u[0])], real_valued=True)
    cat = build_catalog(2, k)
    got = jet.taylor(cat, np.array([y]), t)
    assert got.dtype == np.float64
    assert_close(got, _PendulumForcingOracle().taylor(cat, np.array([y]), t), PLAN_RTOL)


@PROPERTY
@given(st.integers(min_value=1, max_value=6), COORD, COORD.filter(lambda b: abs(b) > 0.1))
def test_jet_functions_match_univariate_series(K, a, b) -> None:
    # the coefficient of x^m in the Taylor series of f at the jet's base point
    m = np.arange(K + 1)
    fact = np.array([math.factorial(j) for j in m], dtype=float)
    x, y, zero = (Jet(1, K, np.array([base, 1.0] + [0.0] * (K - 1))) for base in (a, b, 0.0))
    # x / y multiplies x by 1 / y, whose coefficients reach |b|^-(K+1), so
    # its rounding scales with them even where the quotient is small
    quotient_scale = abs(b) ** -(K + 1) * (1 + abs(a))
    cases = [
        (np.exp(x), np.exp(a) / fact, 1.0),
        (np.sin(x), np.sin(a + m * np.pi / 2) / fact, 1.0),
        (1.0 / y, (-1.0) ** m * b ** (-1.0 - m), 1.0),
        (x / y, np.array([a / b] + [(-1.0) ** j * (a - b) / b ** (j + 1) for j in m[1:]]),
         quotient_scale),
        (x / 4.0, np.array([a / 4, 0.25] + [0.0] * (K - 1)), 1.0),
        # numpy scalars on the left reach Jet's reflected operators
        (np.float64(1.0) - np.float64(3.0) * x, np.array([1 - 3 * a, -3.0] + [0.0] * (K - 1)),
         1.0),
        (y**-2, (-1.0) ** m * (m + 1) * b ** (-2.0 - m), 1.0),
        (x**3, np.array([math.comb(3, j) * a ** (3 - j) if j <= 3 else 0.0 for j in m]), 1.0),
        (x**0, np.array([1.0] + [0.0] * K), 1.0),
    ]
    for jet, want, scale in cases:
        assert_close(jet.c, want, PLAN_RTOL * scale)
    assert_close((zero**2).c, np.array([0.0, 0.0, 1.0] + [0.0] * (K - 2))[: K + 1], PLAN_RTOL)
    with pytest.raises(ZeroDivisionError):
        1.0 / zero


class ExpOracle(DerivativeOracle):
    """F(u, t) = c exp(a . x), a user oracle that defines only _taylor.

    It has a formula for single partials, d^beta F = prod_q a_q^b_q F,
    and builds its Taylor coefficients from it one beta at a time.
    """

    def __init__(self, a, c):
        self.a = np.asarray(a, dtype=float)
        self.c = np.asarray(c, dtype=float)

    def d_partial(self, beta, u, t):
        scale = np.prod(self.a[np.array(beta, dtype=int) - 1])
        return scale * self.c * np.exp(self.a @ np.append(u, t))

    def _taylor(self, catalog, u, t):
        return np.array([
            self.d_partial(b, u, t) / g for b, g in zip(catalog.representatives, catalog.gammas)
        ])


def every_oracle() -> list[tuple[DerivativeOracle, int]]:
    """(oracle, d) for each oracle class the package offers, plus a user one."""
    poly = PolynomialOracle(2, [(1, (1, 1, 3), 2.0), (2, (2, 2), 1.0), (1, (), -0.7)])
    return [
        (poly, 2),
        (JetOracle(polynomial_F(poly)), 2),
        (builtin("example1", 0.3).oracle, 2),
        (builtin("example2-E6", 0.3).oracle, 4),
        (ExpOracle([0.5, -0.3, 1.2], [1.0, -2.0]), 2),
    ]


@PROPERTY
@given(st.data())
def test_partial_reads_out_taylor(data) -> None:
    for oracle, d in every_oracle():
        k = min(3, oracle.max_order)
        alpha = tuple(data.draw(st.lists(st.integers(1, d + 1), max_size=k)))
        x = np.array(data.draw(st.lists(COORD, min_size=d + 1, max_size=d + 1)))
        u, t = x[:d], x[d]
        cat = build_catalog(d + 1, k)
        got = oracle.partial(alpha, u, t)
        want = gamma(alpha) * oracle.taylor(cat, u, t)[cat.position(alpha)]
        assert_close(got, want, PLAN_RTOL)
        shuffled = tuple(data.draw(st.permutations(alpha)))
        assert np.array_equal(oracle.partial(shuffled, u, t), got)
        with pytest.raises(ValueError, match="not in catalog"):
            oracle.partial((d + 2,) + alpha[1:], u, t)
        with pytest.raises(UnsupportedOrderError):
            oracle.partial((1,) * (oracle.max_order + 1), u, t)


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
    size = _catalog(n, K).size
    a = np.array(draw(st.lists(COORD, min_size=size, max_size=size)))
    b = np.array(draw(st.lists(COORD, min_size=size, max_size=size)))
    b[0] = 1.0 + abs(b[0])
    return n, K, a, b


@PROPERTY
@given(jets())
def test_jet_arithmetic_matches_truncated_taylor_coefficients(setup) -> None:
    n, K, a, b = setup
    exps = [
        tuple(alpha.count(q) for q in range(1, n + 1))
        for alpha in _catalog(n, K).representatives
    ]
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
