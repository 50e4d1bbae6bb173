"""Dense complex linear algebra kernel.

Thin validated wrappers over scipy/LAPACK:

- expm: scaling-and-squaring with a degree-13 diagonal Pade approximant
  and 1-norm based scaling (Al-Mohy and Higham), via scipy.linalg.expm.
- eigvals: Hessenberg reduction plus shifted QR iteration (LAPACK zgeev),
  via scipy.linalg.eigvals.

All operations are pure functions over immutable inputs and reject
non-finite entries up front.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg


def _as_square(M, name: str = "M") -> np.ndarray:
    M = np.asarray(M, dtype=np.complex128)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} contains non-finite entries")
    return M


def expm(M) -> np.ndarray:
    """Matrix exponential e^M."""
    return scipy.linalg.expm(_as_square(M))


def eigvals(M) -> np.ndarray:
    """All eigenvalues of M (unordered)."""
    return scipy.linalg.eigvals(_as_square(M))

