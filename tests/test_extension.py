"""Extension matrix assembly: A1k, A0k, S, and the lift map."""

from __future__ import annotations

import numpy as np
import pytest

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
    lift,
)
from osc_llei.algebra_checks import random_imaginary_system
from osc_llei.extension import _forcing_pairs, plan_for
from osc_llei.sysdef import _TransformedOracle


def test_A1_worked_example_scalar_rotation() -> None:
    # d = 1, A = [i], k = 2, xhat = 0: diag(0, i, 0, 2i, i, 0)
    cat = build_catalog(2, 2)
    A1k = build_A1(cat, augment(np.array([[1j]])), np.zeros(2))
    assert np.array_equal(np.diag(A1k), [0, 1j, 0, 2j, 1j, 0])
    assert np.count_nonzero(A1k - np.diag(np.diag(A1k))) == 0


def test_A1_k1_is_block_diagonal_with_A() -> None:
    rng = np.random.default_rng(2)
    A = random_imaginary_system(3, rng)
    cat = build_catalog(4, 1)
    A1k = build_A1(cat, augment(A), np.zeros(4))
    want = np.zeros((5, 5), dtype=complex)
    want[1:, 1:] = augment(A)
    assert np.allclose(A1k, want, atol=0)


def test_A1_nonzero_xhat_adds_degree_lowering_entries() -> None:
    cat = build_catalog(2, 2)
    A1_aug = augment(np.array([[1j]]))
    xhat = np.array([0.5 + 0.25j, 0.75])
    A1k = build_A1(cat, A1_aug, xhat)
    A1k0 = build_A1(cat, A1_aug, np.zeros(2))
    assert np.array_equal(np.diag(A1k), np.diag(A1k0))
    # row u (pos 1) gains i*xhat_u in the constant column
    assert A1k[1, 0] == 1j * xhat[0]
    # entries appear only at or below the block diagonal
    edges = np.cumsum((0,) + cat.block_dims)
    for j1 in range(3):
        for j2 in range(j1 + 1, 3):
            block = A1k[edges[j1] : edges[j1 + 1], edges[j2] : edges[j2 + 1]]
            assert np.count_nonzero(block) == 0
    # every call returns its own matrix, over a cached xhat-free part
    build_A1(cat, A1_aug, xhat)[:] += 1.0
    assert np.array_equal(build_A1(cat, A1_aug, xhat), A1k)


def test_A1_split_matches_the_whole_plan() -> None:
    # build_A1 assembles the pairs that read G's row 0 apart from the rest;
    # the lowering bins take no other pair, so the sums are the whole
    # plan's, bit for bit, in every real/complex mix of A1 and xhat
    rng = np.random.default_rng(19)
    for n in range(2, 6):
        for k in range(1, 5):
            cat = build_catalog(n, k)
            plan = plan_for(cat)
            reads_row0 = plan.source < n
            assert np.array_equal(plan.lower_column, plan.source[reads_row0])
            assert np.array_equal(plan.lower_bins[plan.lower_inverse], plan.target[reads_row0])
            assert not np.isin(plan.lower_bins, plan.target[~reads_row0]).any(), (n, k)
            A_re, A_im, x_re, x_im = rng.standard_normal((4, n, n))
            for A1 in (A_re, A_re + 1j * A_im):
                for xhat in (x_re[0], x_re[0] + 1j * x_im[0]):
                    G = np.zeros((cat.size, n), dtype=np.result_type(A1, xhat))
                    G[0] = A1 @ xhat
                    G[1 : n + 1] = A1.T
                    got = build_A1(cat, A1, xhat)
                    assert got.dtype == G.dtype
                    assert np.array_equal(got, plan.assemble(G)), (n, k, A1.dtype, xhat.dtype)


def random_terms(rng, d: int) -> list:
    """3d monomial terms of degree 0..3 over d + 1 variables, complex coefficients."""
    return [
        (1 + q % d, tuple(rng.integers(1, d + 2, size=q % 4)), complex(*rng.standard_normal(2)))
        for q in range(3 * d)
    ]


class TaylorOnly(DerivativeOracle):
    """An oracle that implements _taylor alone: row beta, column c is
    (c + 1) (sum(u) + t)^|beta| / gamma(beta)."""

    def _taylor(self, catalog, u, t):
        degree = catalog.exponents.sum(axis=1)
        column = np.arange(1, catalog.d_plus_1)
        return np.outer((u.sum() + t) ** degree / catalog.float_gammas, column)


def test_A0_split_matches_the_whole_plan() -> None:
    # build_A0 gathers the state pairs from the oracle's coefficients and
    # writes the time bins' counts, with no G; no state pair lands on a
    # time bin, so A0k is the whole plan's on G = [taylor | e_0], bit for
    # bit, for every oracle kind at real and complex points
    rng = np.random.default_rng(26)

    def F(u, t):
        return [np.cos(u[q]) * u[q - 1] + t * u[q] ** 2 for q in range(len(u))]

    example1 = builtin("example1", 0.25).oracle
    for n in range(2, 6):
        d = n - 1
        oracles = [
            JetOracle(F, real_valued=True),
            PolynomialOracle(d, random_terms(rng, d)),
            TaylorOnly(),
        ]
        # the pendulum forcing's closed form, as a whole F (d = 1) and
        # inside example1's [0; eps g] (d = 2)
        if d == 1:
            oracles.append(example1.g_oracle)
        if d == 2:
            oracles.append(example1)
        if d % 2 == 0:
            g = PolynomialOracle(d // 2, random_terms(rng, d // 2))
            oracles.append(_TransformedOracle(g, d // 2, 0.3))
        for k in range(1, 5):
            cat = build_catalog(n, k)
            plan = plan_for(cat)
            column = plan.source % n
            # the whole-F pairs: every state pair, reading taylor itself
            _, source, target = _forcing_pairs(n, k, d)
            assert np.array_equal(target, plan.target[column < d]), (n, k)
            assert np.array_equal(
                source, plan.source[column < d] // n * d + column[column < d]
            ), (n, k)
            bins, counts = np.unique(plan.target[plan.source == d], return_counts=True)
            assert np.array_equal(plan.time_bins, bins) and np.array_equal(plan.time_counts, counts)
            assert not np.isin(plan.time_bins, target).any(), (n, k)
            x_re, x_im = rng.standard_normal((2, n))
            x_im[-1] = 0.0
            for oracle in oracles:
                for xhat in (x_re, x_re + 1j * x_im):
                    taylor = oracle.taylor(cat, xhat[:d], xhat[d])
                    G = np.zeros((cat.size, n), dtype=np.result_type(taylor, xhat))
                    G[:, :d] = taylor
                    G[0, d] = 1.0
                    got = build_A0(cat, oracle, xhat)
                    assert got.dtype == G.dtype
                    assert np.array_equal(got, plan.assemble(G)), (n, k, oracle, xhat.dtype)


def test_A0_rejects_a_second_order_oracle_on_the_wrong_catalog() -> None:
    # example1's forcing lives on d = 2 (dy = 1); build_A0 checks it as
    # taylor does, rather than return a matrix of the wrong catalog
    oracle = builtin("example1", 0.25).oracle
    for n in (4, 5):
        with pytest.raises(ValueError, match="needs d = 2"):
            build_A0(build_catalog(n, 2), oracle, np.zeros(n))
        with pytest.raises(ValueError):
            oracle.taylor(build_catalog(n, 2), np.zeros(n - 1), 0.0)


def test_A1_dimension_mismatch() -> None:
    cat = build_catalog(3, 2)
    with pytest.raises(ValueError):
        build_A1(cat, np.zeros((2, 2)), np.zeros(3))
    with pytest.raises(ValueError):
        build_A1(cat, np.zeros((3, 3)), np.zeros(2))


def test_A0_constant_forcing_worked_example() -> None:
    cat = build_catalog(2, 1)
    oracle = PolynomialOracle(1, [(1, (), 2.5 + 0.5j)])
    A0 = build_A0(cat, oracle, np.zeros(2))
    want = np.zeros((3, 3), dtype=complex)
    want[1, 0] = 2.5 + 0.5j  # row u, col 1
    want[2, 0] = 1.0         # row t, col 1 (dt/dt = 1)
    assert np.array_equal(A0, want)


def test_A0_quadratic_forcing_rows() -> None:
    # F(u, t) = u^2, k = 2, xhat = 0 on the order (1, u, t, u2, ut, t2)
    cat = build_catalog(2, 2)
    oracle = PolynomialOracle(1, [(1, (1, 1), 1.0)])
    A0 = build_A0(cat, oracle, np.zeros(2))
    assert A0[1, cat.position((1, 1))] == 1.0  # row u picks up u^2
    assert A0[2, 0] == 1.0                     # row t constant
    assert np.count_nonzero(A0[0]) == 0        # row 1 has zero dynamics
    # row ut = u' t + u t' contributions: t * u^2 truncates to nothing
    # at k = 2, so only u * 1 remains at column u
    row_ut = A0[cat.position((1, 2))]
    assert row_ut[cat.position((1,))] == 1.0


def test_S_identity_at_zero_and_k1_form() -> None:
    cat = build_catalog(3, 2)
    assert np.array_equal(build_S(cat, np.zeros(3)), np.eye(10))
    cat1 = build_catalog(3, 1)
    xhat = np.array([0.3, -0.2 + 0.1j, 0.6])
    S = build_S(cat1, xhat)
    want = np.eye(4, dtype=complex)
    want[1:, 0] = -xhat
    assert np.allclose(S, want, atol=0)


def test_S_binomial_row_and_triangularity() -> None:
    cat = build_catalog(2, 2)
    a, b = 0.8 - 0.3j, 0.45
    S = build_S(cat, np.array([a, b]))
    assert np.allclose(S[cat.position((1, 1))], [a * a, -2 * a, 0, 1, 0, 0])
    assert np.allclose(np.diag(S), np.ones(6))
    assert np.count_nonzero(np.triu(S, 1)) == 0


def test_S_recenters_the_lift() -> None:
    # lift around xhat = S(xhat) times lift around 0
    rng = np.random.default_rng(17)
    for d, k in [(1, 3), (2, 2), (3, 1)]:
        cat = build_catalog(d + 1, k)
        x = rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)
        xhat = rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)
        lhs = lift(cat, x, xhat)
        rhs = build_S(cat, xhat) @ lift(cat, x, np.zeros(d + 1))
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_lift_worked_examples() -> None:
    cat = build_catalog(2, 2)
    xhat = np.array([0.4, 1.1])
    assert np.array_equal(lift(cat, xhat, xhat), np.eye(6)[0])
    vals = lift(cat, np.array([2.0, 3.0]), np.zeros(2))
    assert np.array_equal(vals, [1, 2, 3, 4, 6, 9])
    # multiplicativity: component for (1,1) is the square of component (1,)
    x = np.array([1.7 - 0.3j, 0.2])
    v = lift(cat, x, xhat)
    assert np.isclose(v[cat.position((1, 1))], v[cat.position((1,))] ** 2)


def test_taylor_reconstruction_polynomial_exact() -> None:
    # rows u_i of A0k dotted with the lift reproduce polynomial F exactly
    rng = np.random.default_rng(23)
    terms = [
        (1, (1, 1), 0.7),
        (1, (2, 3), -1.2),
        (2, (1, 2), 2.0),
        (2, (3, 3), 0.5),
        (2, (), -0.3),
    ]
    oracle = PolynomialOracle(2, terms)
    cat = build_catalog(3, 2)
    for _ in range(10):
        xhat = rng.standard_normal(3)
        x = rng.standard_normal(3)
        A0 = build_A0(cat, oracle, xhat)
        lifted = lift(cat, x, xhat)
        want = oracle.value(x[:2], x[2])
        got = np.array([A0[1] @ lifted, A0[2] @ lifted])
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)
        # the time row reconstructs the constant 1
        assert np.isclose(A0[3] @ lifted, 1.0)
        assert np.count_nonzero(A0[0]) == 0


def test_taylor_reconstruction_truncates_high_degree() -> None:
    # F(u) = u^3 with k = 2 reconstructs the degree-2 Taylor polynomial
    oracle = PolynomialOracle(1, [(1, (1, 1, 1), 1.0)])
    cat = build_catalog(2, 2)
    a = 0.6
    xhat = np.array([a, 0.0])
    A0 = build_A0(cat, oracle, xhat)
    for du in (0.3, -0.2, 1.5):
        x = np.array([a + du, 0.2])
        got = A0[1] @ lift(cat, x, xhat)
        want = a**3 + 3 * a**2 * du + 3 * a * du**2  # hand-expanded Taylor
        assert np.isclose(got, want, rtol=1e-13)


def test_taylor_remainder_slope_for_trig_forcing() -> None:
    # non-polynomial F: reconstruction error scales like r^(k+1)
    system = builtin("example1", 0.25)
    xhat = np.array([0.3, 0.1, 0.4])
    direction = np.array([0.8, 0.5, 0.6])
    direction /= np.linalg.norm(direction)
    radii = [0.2 * 2.0**-i for i in range(6)]
    for k in (1, 2, 3):
        cat = build_catalog(3, k)
        A0 = build_A0(cat, system.oracle, xhat)
        errs = []
        for r in radii:
            x = xhat + r * direction
            got = A0[2] @ lift(cat, x, xhat)  # row p carries eps * g
            want = system.F(x[:2], x[2].real)[1]
            errs.append(abs(got - want))
        slope = fit_order(radii, errs)
        assert slope is not None
        assert abs(slope - (k + 1)) <= 0.2, (k, slope, errs)


def test_lift_ode_consistency_for_linear_flow() -> None:
    # along the exact linear flow, d/dt lift = (A1k/eps + A0k) lift
    rng = np.random.default_rng(31)
    A = random_imaginary_system(2, rng)
    eps = 1.0
    cat = build_catalog(3, 2)
    oracle = PolynomialOracle(2, [])
    xhat = np.array([0.2, -0.4, 0.1], dtype=complex)
    A1k = build_A1(cat, augment(A), xhat)
    A0k = build_A0(cat, oracle, xhat)
    M = A1k / eps + A0k
    u0 = np.array([1.0, 0.5 - 0.2j])

    def x_of_t(t: float) -> np.ndarray:
        from scipy.linalg import expm as scipy_expm

        u = scipy_expm(A * t / eps) @ u0
        return np.concatenate([u, [t]])

    t0, delta = 0.7, 1e-5
    dlift = (lift(cat, x_of_t(t0 + delta), xhat) - lift(cat, x_of_t(t0 - delta), xhat)) / (
        2 * delta
    )
    want = M @ lift(cat, x_of_t(t0), xhat)
    assert np.allclose(dlift, want, rtol=0, atol=1e-8 * max(1.0, np.abs(want).max()))


def test_structure_properties_random_systems() -> None:
    rng = np.random.default_rng(41)
    for d, k in [(1, 3), (2, 2), (3, 1), (2, 3)]:
        A = random_imaginary_system(d, rng)
        cat = build_catalog(d + 1, k)
        A1_aug = augment(A)
        xhat = rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)
        A1k = build_A1(cat, A1_aug, xhat)
        A1k0 = build_A1(cat, A1_aug, np.zeros(d + 1))
        S = build_S(cat, xhat)
        # similarity through the recentering map
        res = np.linalg.norm(A1k @ S - S @ A1k0)
        assert res <= 1e-12 * np.linalg.norm(A1k) * np.linalg.norm(S)
        # spectrum stays on the imaginary axis
        eigs = np.linalg.eigvals(A1k)
        assert np.max(np.abs(eigs.real)) <= 1e-8 * np.linalg.norm(A1k, 2)
        # block structure: exact zeros above the diagonal; and at xhat = 0
        # exact zeros below it too
        edges = np.cumsum((0,) + cat.block_dims)
        for j1 in range(k + 1):
            for j2 in range(k + 1):
                blk = A1k[edges[j1] : edges[j1 + 1], edges[j2] : edges[j2 + 1]]
                blk0 = A1k0[edges[j1] : edges[j1 + 1], edges[j2] : edges[j2 + 1]]
                if j2 > j1:
                    assert np.count_nonzero(blk) == 0
                if j2 != j1:
                    assert np.count_nonzero(blk0) == 0
