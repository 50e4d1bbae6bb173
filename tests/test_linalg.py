"""Dense linear algebra: expm and its action on a vector at every size, eigvals."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from osc_llei import linalg
from osc_llei.linalg import TAYLOR_THETA, eigvals, expm


def taylor_expm(M: np.ndarray, terms: int = 60) -> np.ndarray:
    """Independent oracle: scale M down to norm <= 0.5, sum the Taylor
    series, then square back up."""
    M = np.asarray(M, dtype=complex)
    norm = np.linalg.norm(M, 1)
    s = max(0, int(np.ceil(np.log2(max(norm, 1e-300) / 0.5))))
    Ms = M / 2**s
    out = np.eye(M.shape[0], dtype=complex)
    term = np.eye(M.shape[0], dtype=complex)
    for n in range(1, terms):
        term = term @ Ms / n
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def test_expm_matches_taylor_oracle() -> None:
    rng = np.random.default_rng(3)
    for n in (1, 2, 5, 8):
        for _ in range(5):
            M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            got = expm(M)
            want = taylor_expm(M)
            scale = np.linalg.norm(want)
            assert np.linalg.norm(got - want) <= 1e-12 * scale
    # larger sizes, real and complex; entries scaled by n^-1/2 keep the
    # spectrum O(1), as it is for the small sizes
    for n in (40, 64):
        for real in (True, False):
            M = rng.standard_normal((n, n))
            if not real:
                M = M + 1j * rng.standard_normal((n, n))
            M /= math.sqrt(n)
            got = expm(M)
            want = taylor_expm(M)
            assert got.dtype == M.dtype
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_expm_diagonal_and_zero() -> None:
    for D in (np.diag([1j, -2j, 0.5j]), np.diag(1j * np.linspace(-2.0, 1.0, 40))):
        # rtol=0: the D = 40 case has ||D||_1 = |lambda|_max, where the
        # Taylor path's truncation error meets its bound
        assert np.allclose(expm(D), np.diag(np.exp(np.diag(D))), rtol=0, atol=1e-14)
    for n in (4, 40):
        Z = np.zeros((n, n))
        assert np.array_equal(expm(Z), np.eye(n))


def test_expm_of_empty_and_scalar_matrices() -> None:
    # 0 x 0 and 1 x 1, with and without a vector, real and complex: the
    # dtype is kept, e^M of a 1 x 1 M is e^(M_00), and a 0 x 0 M gives an
    # empty result of the right shape.  The relative bound grows with |z|,
    # the condition number of e^z
    for dtype in (np.float64, np.complex128):
        E = expm(np.zeros((0, 0), dtype))
        assert E.shape == (0, 0) and E.dtype == dtype
        w = expm(np.zeros((0, 0), dtype), np.zeros(0, dtype))
        assert w.shape == (0,) and w.dtype == dtype
        for a in (0.0, 1e-17, 0.3, 2.0, -40.0, 700.0):
            z = dtype(a) if dtype is np.float64 else dtype(complex(a, -a / 3))
            want, rtol = np.exp(z), 1e-14 * max(1.0, abs(z))
            E = expm(np.full((1, 1), z))
            assert E.shape == (1, 1) and E.dtype == dtype
            assert abs(E[0, 0] - want) <= rtol * abs(want), (dtype, a)
            w = expm(np.full((1, 1), z), np.full(1, 2.0, dtype))
            assert w.shape == (1,) and w.dtype == dtype
            assert abs(w[0] - 2 * want) <= rtol * abs(2 * want), (dtype, a)


def test_expm_large_imaginary_argument_stays_unitary() -> None:
    # exp of a skew-Hermitian matrix is unitary even at huge norms
    rng = np.random.default_rng(11)
    for n in (4, 40):
        H = rng.standard_normal((n, n))
        H = H + H.T
        M = 1j * H * 1e4
        U = expm(M)
        assert np.linalg.norm(U @ U.conj().T - np.eye(n)) <= 1e-8


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from((4, 8, 20, 29, 30, 40, 64)),
    real=st.booleans(),
    normal=st.booleans(),
    log_norm=st.floats(min_value=-3.0, max_value=3.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_expm_agrees_with_scipy_at_every_size(n, real, normal, log_norm, seed) -> None:
    # a Gaussian matrix is non-normal; normal draws are (i times) symmetric.
    # Two backward-stable exponentials may differ by about cond(exp, M) u,
    # and cond(exp, M) >= ||M||, so the relative bound grows with ||M||_1.
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    if not real:
        M = M + 1j * rng.standard_normal((n, n))
    if normal:
        M = M + M.T if real else 1j * (M + M.conj().T)
    norm = 10.0**log_norm
    M *= norm / np.abs(M).sum(axis=0).max()
    got = expm(M)
    want = scipy.linalg.expm(M)
    assert got.dtype == M.dtype
    assert np.linalg.norm(got - want, 1) <= 1e-13 * max(1.0, norm) * np.linalg.norm(want, 1)


@settings(max_examples=80, deadline=None)
@given(
    n=st.sampled_from((4, 8, 10, 20, 29, 30, 40, 64, 126)),
    real=st.booleans(),
    normal=st.booleans(),
    log_norm=st.floats(min_value=-3.0, max_value=3.0),
    unit=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_expm_action_agrees_with_the_dense_product(n, real, normal, log_norm, unit, seed) -> None:
    # ||M||_1 from 1e-3 to 1e3 runs the Taylor action and, above theta_30,
    # the dense Taylor exponential.  Near 1e3 a real symmetric M can have
    # eigenvalues past about 709.8, where e^M v itself overflows
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    if not real:
        M = M + 1j * rng.standard_normal((n, n))
    if normal:
        M = M + M.T if real else 1j * (M + M.conj().T)
    norm = 10.0**log_norm
    M *= norm / np.abs(M).sum(axis=0).max()
    v = np.eye(n)[0] if unit else rng.standard_normal(n)
    with np.errstate(over="ignore", invalid="ignore"):
        got = expm(M, v)
        want = expm(M) @ v
    assert got.shape == (n,) and got.dtype == M.dtype
    if not np.isfinite(want).all():
        assert not np.isfinite(got).all()
        return
    # the same bound on both sides divided by want's largest entry: the
    # 2-norm of entries above about 1e154 overflows, and an infinite bound
    # would pass any finite got
    top = np.abs(want).max()
    assert np.linalg.norm((got - want) / top) <= 1e-13 * max(1.0, norm) * np.linalg.norm(want / top)


def test_expm_action_takes_the_smallest_sufficient_degree(monkeypatch) -> None:
    # on c times the upper shift J, e^(cJ) e_n has entries c^j / j! and a
    # degree-m polynomial stops at j = m: the output's nonzeros count its
    # degree up to n - 1 (J^n = 0), the smallest m in TAYLOR_THETA with
    # theta_m >= ||cJ||_1 = c.  The action's degree is also read off its
    # call, so a size below the degree shows it too.  The action runs up
    # to degree 30 at every size, and just past theta_30 the dense
    # exponential gives all n entries.
    degrees_taken, action = [], linalg._taylor_action

    def spy(M, v, m, sq):
        degrees_taken.append(m)
        return action(M, v, m, sq)

    monkeypatch.setattr(linalg, "_taylor_action", spy)
    degrees = sorted(m for m in TAYLOR_THETA if m <= 30)
    for n in (4, 20, 40):
        J = np.eye(n, k=1)
        e_n = np.eye(n)[-1]
        for lower, m in zip([0] + degrees, degrees):
            for c in (TAYLOR_THETA[m], (TAYLOR_THETA.get(lower, 0.0) + TAYLOR_THETA[m]) / 2):
                degrees_taken.clear()
                w = expm(c * J, e_n)[::-1]
                top = min(m, n - 1)
                want = np.array([c**j / math.factorial(j) for j in range(top + 1)])
                assert degrees_taken == [m], (n, c, m)
                assert np.count_nonzero(w) == top + 1, (n, c, m)
                assert np.allclose(w[: top + 1], want, rtol=1e-15, atol=0), (n, c, m)
        degrees_taken.clear()
        c = math.nextafter(TAYLOR_THETA[30], math.inf)
        assert np.count_nonzero(expm(c * J, e_n)) == n
        assert degrees_taken == []


def test_expm_action_does_not_overflow_where_the_result_is_finite() -> None:
    # ||M||_1 = 3.5 (degree 30): the powers M^j v reach 3.5^30 * 1e300 and
    # overflow unless v is scaled first, while e^M v is about 3.3e301
    n = 40
    M = np.full((n, n), 3.5 / n)
    v = np.full(n, 1e300)
    got = expm(M, v)
    want = expm(M) @ v
    # max norms: the 2-norm of a vector of 1e301s overflows
    assert np.isfinite(got).all() and np.isfinite(want).all()
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_expm_action_rejects_a_wrong_vector() -> None:
    for n in (4, 36):
        M = np.eye(n)
        for v in (np.ones(n + 1), np.ones((n, 1)), np.ones((1, n))):
            with pytest.raises(ValueError, match="vector of length"):
                expm(M, v)
        for bad in (np.nan, np.inf, -np.inf, complex(0, np.nan)):
            v = np.full(n, 1e200, dtype=type(bad))
            v[-1] = bad
            with pytest.raises(ValueError, match="non-finite"):
                expm(M, v)
        # finite entries whose squares overflow are accepted
        assert np.allclose(expm(M, np.full(n, 1e200)), math.e * 1e200, rtol=1e-14)


def test_expm_rejects_a_finite_matrix_whose_norm_overflows(monkeypatch) -> None:
    # 1e307 entries are finite, but every column sums past the largest
    # double from 18 rows up; the nilpotent M (M^2 = 0) has e^M = I + M
    # exactly, yet its last column sums to 2e308.  One rule at every size,
    # with and without a vector: the 1-norm picks the path, so M is
    # refused before any path runs, and no floating-point warning escapes.
    for path in ("_taylor_action", "_taylor_expm"):
        monkeypatch.setattr(linalg, path, lambda *args: pytest.fail("a path ran"))
    nilpotent = np.zeros((3, 3))
    nilpotent[0, 2] = nilpotent[1, 2] = 1e308
    cases = [np.full((n, n), 1e307) for n in (18, 29, 30)]
    cases += [np.full((4, 4), 1e308), nilpotent]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for M in cases:
            for v in (None, np.eye(len(M))[0]):
                with pytest.raises(ValueError, match="^the 1-norm of M overflows$"):
                    expm(M, v)


def test_eigvals_recovers_constructed_spectrum() -> None:
    rng = np.random.default_rng(9)
    lam = np.array([2j, -2j, 0.5j, 1.0 + 0j])
    Q = rng.standard_normal((4, 4))
    A = Q @ np.diag(lam) @ np.linalg.inv(Q)
    got = eigvals(A)
    assert np.allclose(
        got[np.argsort(got.imag)], lam[np.argsort(lam.imag)], atol=1e-10
    )


def test_shape_and_finiteness_validation() -> None:
    with pytest.raises(ValueError):
        expm(np.ones((2, 3)))
    # at a small and a larger size, with and without a vector: the check
    # is read off the 1-norm at every size
    for n in (4, 40):
        for bad in (np.nan, np.inf, -np.inf, complex(0, np.nan)):
            M = np.eye(n, dtype=type(bad))
            M[-1, 0] = bad
            for v in (None, np.eye(n)[0]):
                with pytest.raises(ValueError, match="^M contains non-finite entries$"):
                    expm(M, v)
            with pytest.raises(ValueError, match="^M contains non-finite entries$"):
                eigvals(M)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=126),
    log_scale=st.integers(min_value=-150, max_value=150),
    real=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_squared_norm_is_vdot_bit_for_bit(n, log_scale, real, seed) -> None:
    # the real path's dot of v with itself is np.vdot's sum, bit for bit,
    # at sizes up to D = 126 and magnitudes that overflow or underflow
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n) * 10.0**log_scale
    if not real:
        v = v + 1j * rng.standard_normal(n) * 10.0**log_scale
    with np.errstate(over="ignore", under="ignore"):
        got, want = linalg.squared_norm(v), np.vdot(v, v).real
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
