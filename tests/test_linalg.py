"""Dense linear algebra wrappers: expm, eigvals."""

from __future__ import annotations

import numpy as np
import pytest

from osc_llei.linalg import eigvals, expm


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


def test_expm_diagonal_and_zero() -> None:
    D = np.diag([1j, -2j, 0.5j])
    assert np.allclose(expm(D), np.diag(np.exp(np.diag(D))), atol=1e-14)
    Z = np.zeros((4, 4))
    assert np.array_equal(expm(Z), np.eye(4))


def test_expm_large_imaginary_argument_stays_unitary() -> None:
    # exp of a skew-Hermitian matrix is unitary even at huge norms
    rng = np.random.default_rng(11)
    H = rng.standard_normal((4, 4))
    H = H + H.T
    M = 1j * H * 1e4
    U = expm(M)
    assert np.linalg.norm(U @ U.conj().T - np.eye(4)) <= 1e-8


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
    with pytest.raises(ValueError):
        eigvals(np.array([[np.nan, 0], [0, 1]]))
