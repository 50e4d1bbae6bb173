"""Dense linear algebra kernels that keep the dtype of their input.

Thin validated wrappers over scipy/LAPACK:

- expm: scaling-and-squaring with a degree-13 diagonal Pade approximant
  and 1-norm based scaling (Al-Mohy and Higham), via scipy.linalg.expm.
- eigvals: Hessenberg reduction plus shifted QR iteration (LAPACK
  dgeev/zgeev), via scipy.linalg.eigvals.

Real input stays float64 and complex input complex128, so a real
problem runs in real arithmetic (dgemm, about a quarter of zgemm's
flops).  All operations are pure functions over immutable inputs and
reject non-finite entries up front.

scatter_add is the sum-into-bins kernel both the extension plan and
the jet product use.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg


def _as_square(M, name: str = "M") -> np.ndarray:
    M = np.asarray(M)
    M = M.astype(np.result_type(M, np.float64), copy=False)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError(f"{name} contains non-finite entries")
    return M


def expm(M) -> np.ndarray:
    """Matrix exponential e^M, real for real M."""
    return scipy.linalg.expm(_as_square(M))


def eigvals(M) -> np.ndarray:
    """All eigenvalues of M (unordered, complex)."""
    return scipy.linalg.eigvals(_as_square(M))


def scatter_add(target: np.ndarray, weights: np.ndarray, size: int) -> np.ndarray:
    """out[i] = sum of weights[j] over target[j] == i, in weights' dtype.

    One bincount for real weights, one per part for complex ones.
    """
    if weights.dtype.kind == "c":
        out = np.empty(size, dtype=weights.dtype)
        out.real = np.bincount(target, weights=weights.real, minlength=size)
        out.imag = np.bincount(target, weights=weights.imag, minlength=size)
        return out
    return np.bincount(target, weights=weights, minlength=size)
