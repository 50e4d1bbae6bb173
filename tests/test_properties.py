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
them into Taylor coefficients one beta at a time.  binomial_taylor is
the binomial expansion of each monomial that PolynomialOracle used
before it became a JetOracle.
"""

from __future__ import annotations

import cmath
import dataclasses
import functools
import itertools
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from osc_llei import (
    DerivativeOracle,
    JetOracle,
    PolynomialOracle,
    augment,
    build_A0,
    build_A1,
    build_catalog,
    build_S,
    builtin,
    fit_order,
    gamma,
    lift,
    load_config,
    random_imaginary_system,
    remove_component,
    second_order_to_first_order,
)
from osc_llei._jets import _DENSE_PRODUCT_MAX_ROWS, Jet
from osc_llei.extension import _forcing_pairs, plan_for
from osc_llei.mindex import _catalog
from osc_llei.sysdef import _momentum_slots, _PendulumForcingOracle, _TransformedOracle

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
            assert _catalog(n, k).sums.tolist() == want, (n, k)


def test_exponent_table_rebuilds_the_representatives() -> None:
    for n in range(1, 5):
        for k in range(5):
            exps = _catalog(n, k).exponents
            got = [tuple(np.repeat(np.arange(1, n + 1), row).tolist()) for row in exps]
            assert got == list(_catalog(n, k).representatives), (n, k)


def test_catalog_tables_match_brute_force() -> None:
    for n in range(1, 5):
        for k in range(5):
            cat = _catalog(n, k)
            reps = cat.representatives
            assert [len(chis) for chis in cat.drops] == [len(a) for a in reps], (n, k)
            for row, alpha in enumerate(reps):
                for l, chi in enumerate(cat.drops[row], start=1):
                    assert chi == cat.position(remove_component(alpha, l)), (n, k, alpha, l)
            assert cat.n_upto.tolist() == np.cumsum(cat.block_dims).tolist(), (n, k)
            assert cat.float_gammas.dtype == np.float64
            assert cat.float_gammas.tolist() == [float(gamma(a)) for a in reps], (n, k)
            I, J, target = cat.pairs
            assert sorted(zip(I.tolist(), J.tolist(), target.tolist())) == [
                (i, j, t) for (i, j), t in np.ndenumerate(cat.sums) if t >= 0
            ], (n, k)
            # product_index gathers a, padded by a zero, into the
            # multiplication matrix: entry (t, j) holds a[i] with
            # reps[i] + reps[j] = reps[t], and the zero slot elsewhere
            S = cat.size
            want = np.full((S + 1, S + 1), S)
            for (i, j), t in np.ndenumerate(cat.sums):
                if t >= 0:
                    want[t, j] = i
            assert cat.product_index.shape == (S + 1, S + 1), (n, k)
            assert np.array_equal(cat.product_index, want), (n, k)
            # matrix_index scatters a into W with W @ b = (a - a[0]) * b
            rng = np.random.default_rng(n * 10 + k)
            a, b = rng.standard_normal((2, S))
            want = np.zeros(S)
            for (i, j), t in np.ndenumerate(cat.sums):
                if i > 0 and t >= 0:
                    want[t] += a[i] * b[j]
            I1, flat = cat.matrix_index
            W = np.zeros(S**2)
            np.add.at(W, flat, a[I1])
            assert_close(W.reshape(S, S) @ b, want, PLAN_RTOL)
            # seeds: one 1 on each variable's degree-1 row, the zero slot last
            assert cat.seeds.shape == (n, S + 1), (n, k)
            assert np.array_equal(cat.seeds[:, -1], np.zeros(n)), (n, k)
            for q in range(n):
                row = cat.seeds[q, :-1]
                want_row = np.zeros(S)
                if k:
                    want_row[cat.position((q + 1,))] = 1.0
                assert np.array_equal(row, want_row), (n, k, q)


def test_catalog_tables_are_read_only_and_shared() -> None:
    cat = _catalog(3, 3)
    names = (
        "sums", "pairs", "product_index", "matrix_index", "drops", "exponents",
        "float_gammas", "n_upto", "power_rows", "seeds",
    )
    for name in names:
        table = getattr(cat, name)
        for arr in table if isinstance(table, tuple) else (table,):
            if isinstance(arr, np.ndarray):
                assert not arr.flags.writeable, name
            else:
                assert isinstance(arr, tuple), name
        # built once per catalog, and the catalog once per (n, k)
        assert getattr(_catalog(3, 3), name) is table, name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cat, name, table)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(cat, name)


def test_restriction_rows_follow_the_sub_catalog() -> None:
    # g's slots in F = [0; g(u[:m], t)]: the i-th row they fill is g's
    # i-th multi-index with t renumbered m + 1, every parent row without
    # a u[m:] component is filled, and g's component j lands on F's
    # column d - m + j; for m = d (F is g) the slots are the identity
    for n in range(2, 6):
        d = n - 1
        for k in range(4):
            parent = _catalog(n, k)
            for m in range(1, d + 1):
                g_catalog, slots = _momentum_slots(n, k, m)
                assert (g_catalog.d_plus_1, g_catalog.k) == (m + 1, k)
                rows, columns = np.divmod(slots.reshape(-1, m), d)
                assert (rows == rows[:, :1]).all() and (columns == np.arange(d - m, d)).all()
                renumber = {**{v: v for v in range(1, m + 1)}, n: m + 1}
                got = [tuple(renumber[c] for c in parent.representatives[r]) for r in rows[:, 0]]
                assert got == list(g_catalog.representatives), (n, k, m)
                kept = [a for a in parent.representatives if set(a) <= set(renumber)]
                assert len(rows) == len(kept), (n, k, m)
                if m == d:
                    assert np.array_equal(slots, np.arange(parent.size * d)), (n, k)
                assert not slots.flags.writeable


@PROPERTY
@given(poly_setups())
def test_plan_builders_match_loop_builders(setup) -> None:
    d, k, A1, oracle, xhat, _ = setup
    cat = build_catalog(d + 1, k)
    assert_close(build_A1(cat, A1, xhat), loop_A1(cat, A1, xhat), PLAN_RTOL)
    assert_close(build_A0(cat, oracle, xhat), loop_A0(cat, oracle, xhat), PLAN_RTOL)


def lift_residuals(cat, A1, eps, oracle, x, xhat) -> tuple[np.ndarray, np.ndarray]:
    """Row by row, M lift(x, xhat) less d/dt y^alpha, with M = A1k / eps +
    A0k at xhat and y = x - xhat, and each row's scale: the sum of the
    moduli of the terms on both sides.

    d/dt y^alpha = sum over l of f_{alpha_l}(x) prod_{j != l} y_{alpha_j},
    from the field f = A1 x / eps + [F; 1] itself: no plan table, catalog
    table or Taylor coefficient enters it.
    """
    d = cat.d_plus_1 - 1
    M = build_A1(cat, A1, xhat) / eps + build_A0(cat, oracle, xhat)
    lifted = lift(cat, x, xhat)
    f = A1 @ x / eps + np.append(oracle.value(x[:d], x[d]), 1.0)
    y = x - xhat
    terms = [[f[a - 1] * np.prod([y[b - 1] for b in alpha[:l] + alpha[l + 1:]])
              for l, a in enumerate(alpha)] for alpha in cat.representatives]
    want = np.array([sum(row, 0j) for row in terms])
    scale = np.abs(M) @ np.abs(lifted) + np.array([sum(map(abs, row)) for row in terms])
    return M @ lifted - want, scale


@PROPERTY
@given(poly_setups(), st.sampled_from([1.0, 0.25, 1 / 64]), st.booleans())
def test_lift_is_exact_where_the_truncation_drops_nothing(setup, eps, real) -> None:
    # the lifted system's equivalence with the problem: for F a polynomial
    # of degree p, row alpha of M lift keeps f's Taylor terms up to degree
    # k + 1 - |alpha|, so every row with |alpha| <= k + 1 - p is d/dt y^alpha
    # to round-off (the linear part, degree 1, is exact in every row)
    d, k, A1, oracle, xhat, x = setup
    if real:
        xhat, x = xhat.real, x.real
    p = max((sum(exps) for _, exps, _ in oracle.terms), default=0)
    cat = build_catalog(d + 1, k)
    residual, scale = lift_residuals(cat, A1, eps, oracle, x, xhat)
    exact = [len(alpha) <= k + 1 - p for alpha in cat.representatives]
    assert np.all(np.abs(residual[exact]) <= 1e-13 * scale[exact])


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_lift_residual_falls_as_the_order(k) -> None:
    # an analytic F: every row of degree >= 1 misses d/dt y^alpha by
    # O(|x - xhat|^(k+1)), the truncation order, fitted per degree over
    # radii kept above round-off
    A = np.array([[0.0, 1.0], [-4.0, 0.0]])
    oracle = JetOracle(lambda u, t: [np.sin(u[0]) * np.exp(0.5 * t), np.cos(u[1] + t) * u[0]])
    xhat = np.array([0.3, -0.2, 0.1])
    direction = np.array([0.6, -0.48, 0.64])
    radii = np.geomspace(0.4, 0.1, 4)
    cat = build_catalog(3, k)
    degrees = np.array([len(alpha) for alpha in cat.representatives])
    residuals = []
    for r in radii:
        residual, _ = lift_residuals(cat, augment(A), 0.5, oracle, xhat + r * direction, xhat)
        residuals.append([np.abs(residual[degrees == j]).max() for j in range(1, k + 1)])
    for j, per_radius in enumerate(np.array(residuals).T, start=1):
        assert abs(fit_order(radii, per_radius) - (k + 1)) <= 0.3, (k, j, per_radius)


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


# weights build_A0 gathers from g per (d+1, k, dy): the plan's state pairs
# that do not read a structural zero of [0; scale g] (1,232 at (5, 3, 2))
G_WEIGHTS = {(5, 3, 2): 328, (3, 3, 1): 64, (3, 2, 1): 18}


@PROPERTY
@given(st.data())
def test_A0_from_g_matches_the_whole_plan(data) -> None:
    # a second-order system's A0k, read from g's own coefficients, is the
    # whole plan's on G = [taylor | e_0] bit for bit, at unit and eps
    # scale, real and complex points; its gather reads g's slots of taylor
    # only, and every pair it drops reads a zero
    dy = data.draw(st.integers(min_value=1, max_value=3))
    k = data.draw(st.integers(min_value=1, max_value=4))
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
    B = rng.standard_normal((dy, dy))
    system = second_order_to_first_order(
        M=B @ B.T + dy * np.eye(dy),
        g_oracle=data.draw(polynomials(dy, k + 1)),
        y_in=rng.standard_normal(dy),
        ydot_in=rng.standard_normal(dy),
        epsilon=data.draw(st.floats(min_value=1e-3, max_value=1.0)),
        nu=1.0,
        T=1.0,
    )
    oracle = system.oracle
    if data.draw(st.booleans()):
        oracle = _TransformedOracle(oracle.g_oracle, dy, 1.0)
    d, n = 2 * dy, 2 * dy + 1
    x = data.draw(points(d))
    if data.draw(st.booleans()):
        x = x.real
    cat = build_catalog(n, k)
    plan = plan_for(cat)
    taylor = oracle.taylor(cat, x[:d], x[d])
    G = np.zeros((cat.size, n), dtype=np.result_type(taylor, x))
    G[:, :d] = taylor
    G[0, d] = 1.0
    got = build_A0(cat, oracle, x)
    assert got.dtype == G.dtype
    assert np.array_equal(got, plan.assemble(G)), (dy, k, x.dtype)

    g_catalog, source, target = _forcing_pairs(n, k, dy)
    _, slots = _momentum_slots(n, k, dy)
    # the whole-F pairs, which read every state entry of taylor
    _, whole_source, whole_target = _forcing_pairs(n, k, d)
    reads_g = np.isin(whole_source, slots)
    assert g_catalog.d_plus_1 == dy + 1 and source.size == reads_g.sum()
    assert np.array_equal(slots[source], whole_source[reads_g])
    assert np.array_equal(target, whole_target[reads_g])
    assert not taylor.ravel()[whole_source[~reads_g]].any()
    for key, count in G_WEIGHTS.items():
        assert _forcing_pairs(*key)[1].size == count, key


def binomial_taylor(oracle: PolynomialOracle, catalog, u, t) -> np.ndarray:
    """oracle's Taylor coefficients by the binomial expansion of each monomial.

    d^b x^e / b! = prod_q C(e_q, b_q) x_q^(e_q - b_q), zero unless b <= e,
    summed over the terms one beta at a time.
    """
    x = list(u) + [t]
    out = np.zeros((catalog.size, oracle.d), dtype=complex)
    for i, beta in enumerate(catalog.representatives):
        b = [beta.count(q) for q in range(1, oracle.d + 2)]
        for row, exps, coeff in oracle.terms:
            if all(bq <= e for bq, e in zip(b, exps)):
                term = coeff
                for xq, e, bq in zip(x, exps, b):
                    term *= math.comb(e, bq) * xq ** (e - bq)
                out[i, row] += term
    return out


ZERO_OR_COORD = st.one_of(st.just(0.0), COORD)


@PROPERTY
@given(st.data())
def test_jet_oracle_matches_polynomial_oracle(data) -> None:
    # PolynomialOracle, a JetOracle on its monomials, against the binomial
    # expansion, which shares no code with the jets; int powers multiply
    # out, so a zero coordinate is a valid base point, and a row without
    # a non-constant term comes back from F as a plain number
    d = data.draw(st.integers(min_value=1, max_value=4))
    k = data.draw(st.integers(min_value=1, max_value=4))
    oracle = data.draw(polynomials(d, k + 1))
    re = data.draw(st.lists(ZERO_OR_COORD, min_size=d + 1, max_size=d + 1))
    im = data.draw(st.lists(ZERO_OR_COORD, min_size=d, max_size=d))
    x = np.array(re) + 1j * np.array(im + [0.0])
    u, t = x[:d], x[d].real
    cat = build_catalog(d + 1, k)
    want = binomial_taylor(oracle, cat, u, t)
    assert_close(oracle.taylor(cat, u, t), want, 1e-13)
    assert_close(oracle.value(u, t), want[0], 1e-13)


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
    cat = _catalog(1, K)
    x, y, zero = (Jet(cat, np.array([base, 1.0] + [0.0] * (K - 1))) for base in (a, b, 0.0))
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
        (JetOracle(lambda u, t: [np.sin(u[0]) * u[1], np.exp(t) / (2.0 + np.cos(u[1]))]), 2),
        (builtin("example1", 0.3).oracle, 2),
        (builtin("example2-E6", 0.3).oracle, 4),
        (ExpOracle([0.5, -0.3, 1.2], [1.0, -2.0]), 2),
    ]


@PROPERTY
@given(st.data())
def test_partial_reads_out_taylor(data) -> None:
    for oracle, d in every_oracle():
        k = 3
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
    """n, K and two random real or complex polynomial jets; b has Re b_0 >= 1."""
    n = draw(st.integers(min_value=1, max_value=3))
    K = draw(st.integers(min_value=1, max_value=4))
    size = _catalog(n, K).size
    is_complex = draw(st.booleans())

    def coefficients() -> np.ndarray:
        c = np.array(draw(st.lists(COORD, min_size=size, max_size=size)))
        if is_complex:
            c = c + 1j * np.array(draw(st.lists(COORD, min_size=size, max_size=size)))
        return c

    a, b = coefficients(), coefficients()
    # Re b_0 becomes 1 + |Re b_0|, away from the power's branch cut
    b[0] += 1.0 + abs(b[0].real) - b[0].real
    return n, K, a, b


@PROPERTY
@given(jets())
def test_jet_arithmetic_matches_truncated_taylor_coefficients(setup) -> None:
    n, K, a, b = setup
    exps = [
        tuple(alpha.count(q) for q in range(1, n + 1))
        for alpha in _catalog(n, K).representatives
    ]
    ja, jb = Jet(_catalog(n, K), a), Jet(_catalog(n, K), b)
    # the scalar Taylor series of x^-1.5 at b_0 and of cos at a_0,
    # computed here independently of _jets
    power_series = [scipy.special.binom(-1.5, m) * b[0] ** (-1.5 - m) for m in range(K + 1)]
    cos_series = [cmath.cos(a[0] + m * math.pi / 2) / math.factorial(m) for m in range(K + 1)]
    cases = [
        (ja * jb, loop_product(exps, a, b, K)),
        (jb.power(-1.5), loop_compose(exps, b, power_series, K)),
        (ja.cos(), loop_compose(exps, a, cos_series, K)),
    ]
    for jet, want in cases:
        want = np.array([want.get(e, 0.0) for e in exps])
        assert_close(jet.c, want, PLAN_RTOL)


def test_both_product_paths_match_the_pair_loop() -> None:
    # catalogs up to _DENSE_PRODUCT_MAX_ROWS rows multiply through the
    # dense gather, larger ones through the pairs; both give the loop's
    # coefficients, numpy's a0 * b0 as the constant term, S coefficients
    # and a zero slot that stays 0.0 at finite values.  Horner's W follows
    # the same split, so a large catalog never builds product_index
    rng = np.random.default_rng(26)
    shapes = [(1, 2), (2, 2), (3, 3), (3, 4), (2, 7), (1, 40), (3, 5), (4, 4)]
    sizes = [_catalog(n, K).size for n, K in shapes]
    assert min(sizes) <= _DENSE_PRODUCT_MAX_ROWS < max(sizes)
    for n, K in shapes:
        # a fresh copy, so the tables it builds are this test's
        cat = dataclasses.replace(_catalog(n, K))
        exps = [tuple(alpha.count(q) for q in range(1, n + 1)) for alpha in cat.representatives]
        for is_complex in (False, True):
            a, b, a_im, b_im = 0.5 * rng.standard_normal((4, cat.size))
            if is_complex:
                a, b = a + 1j * a_im, b + 1j * b_im
            b[0] += 2.0
            ja, jb = Jet(cat, a), Jet(cat, b)
            product = ja * jb
            want = loop_product(exps, a, b, K)
            assert_close(product.c, np.array([want.get(e, 0.0) for e in exps]), PLAN_RTOL)
            assert product.c[0] == a[0] * b[0], (n, K, is_complex)
            series = [1.0, -0.5, 0.25j if is_complex else 0.25] + [0.1] * (K - 2)
            composed = ja.compose_series(series)
            # sum of series[m] w^m by jet products, w = ja - a0
            w, power, want = ja - a[0], Jet.constant(1.0, cat), Jet.constant(0.0, cat)
            for coeff in series:
                want, power = want + coeff * power, power * w
            assert_close(composed.c, want.c, PLAN_RTOL)
            jets = [
                product, ja + jb, ja - jb, -ja, 2.0 * ja, ja / 3.0, ja / jb, 1.5 - ja,
                ja**3, ja.cos(), jb.exp(), jb.power(-1.5), composed,
            ]
            for jet in jets:
                assert len(jet.c) == cat.size, (n, K)
                assert jet._c.shape == (cat.size + 1,) and jet._c[-1] == 0.0, (n, K)
        assert ("product_index" in vars(cat)) == (cat.size <= _DENSE_PRODUCT_MAX_ROWS), (n, K)


@st.composite
def affine_jets(draw):
    """An affine jet base + a x_q, tagged, and an untagged copy of its coefficients.

    n = 1..5 variables, K = 0..6; the slope a is negative, zero or
    complex, the base point real or complex.
    """
    n = draw(st.integers(min_value=1, max_value=5))
    K = draw(st.integers(min_value=0, max_value=6))
    q = draw(st.integers(min_value=0, max_value=n - 1))
    a = draw(st.sampled_from(["negative", "zero", "complex"]))
    a = {
        "negative": lambda: -draw(st.floats(min_value=0.1, max_value=2.0)),
        "zero": lambda: 0.0,
        "complex": lambda: complex(draw(COORD), draw(COORD)),
    }[a]()
    base = draw(COORD)
    if draw(st.booleans()):
        base = complex(base, draw(COORD))
    cat = _catalog(n, K)
    c = np.zeros(cat.size, dtype=np.result_type(a, base, float))
    c[0] = base
    if K:
        c[q + 1] = a
    return Jet(cat, c, q), Jet(cat, c.copy())


def assert_same_coefficients(got: np.ndarray, want: np.ndarray) -> None:
    """Equal NaN and infinity positions, and the finite entries within PLAN_RTOL."""
    assert got.dtype == want.dtype
    assert np.array_equal(np.isnan(got), np.isnan(want))
    finite = np.isfinite(want)
    assert np.array_equal(got[~finite & ~np.isnan(want)], want[~finite & ~np.isnan(want)])
    if finite.any():
        assert np.isfinite(got[finite]).all()
        assert_close(got[finite], want[finite], PLAN_RTOL)


@PROPERTY
@given(affine_jets())
def test_affine_path_matches_general_path(jets) -> None:
    # the tagged jet takes _compose_affine, the untagged copy Horner on W
    tagged, plain = jets
    assert plain.tag is None
    with np.errstate(all="ignore"):
        cases = [lambda x: x.cos(), lambda x: x.sin(), lambda x: x.exp()]
        if tagged.c[0] != 0:
            cases += [lambda x, p=p: x.power(p) for p in (-1.5, -1, 0.5, 2.5)]
        for f in cases:
            got, want = f(tagged), f(plain)
            assert got.tag is None
            assert_same_coefficients(got.c, want.c)
            if got.c.dtype.kind == "f":
                # at real points the same roundings, bit for bit
                assert np.array_equal(got.c, want.c, equal_nan=True)
        # scalar +, - and * keep the tag; jet-jet and division drop it
        assert (tagged + 2.0).tag == (2.0 - tagged).tag == (-tagged).tag == tagged.tag
        assert (tagged - 1.5).tag == (3 * tagged).tag == (tagged * 0.5j).tag == tagged.tag
        for dropped in (tagged * tagged, tagged + tagged, tagged - tagged, tagged / 2.0):
            assert dropped.tag is None
        if tagged.c[0] != 0:
            assert (tagged / tagged).tag is None


def test_jet_oracle_tags_its_seeds() -> None:
    # F sees the state and time as affine jets tagged with their variable,
    # so cos(w * t) and the like take the affine path
    seen = []

    def F(u, t):
        seen.extend(x.tag for x in [*u, t])
        return [np.cos(2.0 * t - 1.0), u[0] * u[1]]

    cat = build_catalog(3, 3)
    got = JetOracle(F, real_valued=True).taylor(cat, np.array([0.3, -0.7]), 0.25)
    assert seen == [0, 1, 2]
    t = Jet(cat, cat.seeds[2, :-1] + 0.25 * (np.arange(cat.size) == 0))
    assert np.array_equal(got[:, 0], np.cos(2.0 * t - 1.0).c)


def readme_inline_system():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```json\n(.*?)^```$", text, flags=re.S | re.M)
    return load_config(json.loads(next(b for b in blocks if "poly_F" in b)))


@PROPERTY
@given(st.data())
def test_forcing_reproduces_value(data) -> None:
    # F(u, t) = [0; scale * g(u[:m], t)] from the oracle's _forcing(d), the
    # structure the scheme and the RK4 reference read, at real and complex
    # points of every builtin, the README's inline config and a random
    # second-order system with a polynomial g
    dy = data.draw(st.integers(min_value=1, max_value=3))
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
    B = rng.standard_normal((dy, dy))
    second_order = second_order_to_first_order(
        M=B @ B.T + dy * np.eye(dy),
        g_oracle=data.draw(polynomials(dy, 3)),
        y_in=rng.standard_normal(dy),
        ydot_in=rng.standard_normal(dy),
        epsilon=0.3,
        nu=1.0,
        T=1.0,
    )
    systems = [builtin(name, 0.3) for name in ("example1", "example2-E6", "example2-E3")]
    for system in systems + [readme_inline_system(), second_order]:
        d = system.d
        x = data.draw(points(d))
        if data.draw(st.booleans()):
            x = x.real
        u, t = x[:d], x[d].real
        g, m, scale = system.oracle._forcing(d)
        assert 1 <= m <= d
        with np.errstate(divide="ignore", invalid="ignore"):
            want = system.oracle.value(u, t)
            got = np.concatenate([np.zeros(d - m), scale * g.value(u[:m], t)])
        if not np.isfinite(want).all():
            # the one pole a draw can reach: the charged particle's |r|^-3
            # at a complex point with r . r = 0, such as y = (0, i) at t = 0;
            # every form of F must find it, the jet form by refusing the
            # zero constant term of r . r
            assert system.name in ("example2-E6", "example2-E3"), system.name
            y, c = u[:2], 2.0 - np.cos(np.pi * t)
            assert y[0] * y[0] + y[1] * y[1] + c * c == 0, (system.name, u, t)
            assert not np.isfinite(got).all(), system.name
            with pytest.raises(ZeroDivisionError):
                system.oracle.partial((), u, t)
            continue
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max(), system.name
        if any(system is s for s in systems):
            # a builtin's value (the pendulum's scalar math path among them)
            # is F read out of taylor, dtype included
            F = system.oracle.partial((), u, t)
            assert want.dtype == F.dtype, system.name
            assert np.abs(want - F).max() <= 1e-15 * np.abs(F).max(), system.name
