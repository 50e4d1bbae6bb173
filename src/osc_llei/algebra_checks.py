"""Numerical validation of the extension matrices' structural properties.

For A with purely imaginary spectrum, the extended linear part A1k
built on a degree-k catalog must satisfy, at any expansion point xhat:

  * purely imaginary spectrum (so the lifted flow never grows secularly),
  * block lower bidiagonal layout in the degree grading, degenerating to
    block diagonal at xhat = 0,
  * similarity to the xhat = 0 matrix through the recentering map S:
    A1k(xhat) S(xhat) = S(xhat) A1k(0),
  * degree-j block spectrum at xhat = 0 equal to the multiset of j-fold
    sums of the eigenvalues of the augmented matrix A1 (with repetition),
  * uniformly bounded matrix exponentials exp(A1k t / eps) as eps drops.

Each check returns a CheckResult; run_suite wires them together for one
system, building the catalog and matrices itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .extension import build_A1, build_S
from .mindex import MultiIndexCatalog, build_catalog
from .sysdef import augment

DEFAULT_EPS_LIST = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
# relative tolerances of the spectrum and similarity checks
_SPECTRUM_TOL = 1e-8
_SIMILARITY_TOL = 1e-12
# check_bounded_exponential samples t here and allows this much growth
# over its value at the largest eps
_T_GRID = np.linspace(0.0, 6.0, 25)[1:]
_T_GRID.flags.writeable = False
_GROWTH_FACTOR = 10.0
# random_imaginary_system resamples Q until cond(Q) is below this
_COND_MAX = 10.0


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def __str__(self) -> str:
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}: {self.detail}"


def check_spectrum_imaginary(A1k: np.ndarray) -> CheckResult:
    """All eigenvalues of A1k within 1e-8 |A1k| of the imaginary axis."""
    scale = max(float(np.linalg.norm(A1k, 2)), np.finfo(float).tiny)
    worst = float(np.max(np.abs(linalg.eigvals(A1k).real)))
    return CheckResult(
        name="spectrum_imaginary",
        passed=worst <= _SPECTRUM_TOL * scale,
        detail=f"max |Re lambda| = {worst:.3e} (scale {scale:.3e})",
    )


def _greedy_match_distance(expected: np.ndarray, actual: np.ndarray) -> float:
    """Max over expected values of the distance to a distinct nearest actual."""
    remaining = list(actual)
    worst = 0.0
    for e in expected:
        dists = [abs(e - a) for a in remaining]
        i = int(np.argmin(dists))
        worst = max(worst, dists[i])
        remaining.pop(i)
    return worst


def check_spectrum_sums(
    A1k_zero: np.ndarray,
    eigs_aug: np.ndarray,
    catalog: MultiIndexCatalog,
) -> CheckResult:
    """Degree-j diagonal block spectrum = j-fold sums of A1's eigenvalues.

    At xhat = 0 the extension is block diagonal, so each degree block can
    be checked on its own, against one sum per degree-j representative of
    catalog.  Matching is greedy nearest-neighbour without replacement,
    which is robust at these multiplicities and tolerances.
    """
    worst = 0.0
    detail_parts = []
    start = 0
    for j, dim in enumerate(catalog.block_dims):
        block = A1k_zero[start : start + dim, start : start + dim]
        actual = linalg.eigvals(block)
        reps = catalog.representatives[start : start + dim]
        expected = np.array([sum(eigs_aug[c - 1] for c in a) for a in reps], dtype=complex)
        scale = max(1.0, float(np.max(np.abs(expected))))
        dist = _greedy_match_distance(expected, actual) / scale
        worst = max(worst, dist)
        detail_parts.append(f"deg {j}: {dist:.2e}")
        start += dim
    return CheckResult(
        name="spectrum_sums",
        passed=worst <= _SPECTRUM_TOL,
        detail="relative match distances " + ", ".join(detail_parts),
    )


def check_similarity(
    A1k_xhat: np.ndarray,
    A1k_zero: np.ndarray,
    S: np.ndarray,
) -> CheckResult:
    """A1k(xhat) S = S A1k(0) up to 1e-12 in the scaled Frobenius norm."""
    res = float(np.linalg.norm(A1k_xhat @ S - S @ A1k_zero))
    scale = max(
        float(np.linalg.norm(A1k_xhat)) * float(np.linalg.norm(S)),
        np.finfo(float).tiny,
    )
    rel = res / scale
    return CheckResult(
        name="similarity",
        passed=rel <= _SIMILARITY_TOL,
        detail=f"relative residual {rel:.3e}",
    )


def check_block_structure(
    A1k: np.ndarray, catalog: MultiIndexCatalog, xhat_is_zero: bool
) -> CheckResult:
    """Exact zeros above the block diagonal; below it too when xhat = 0."""
    edges = np.concatenate([[0], catalog.n_upto])
    k = catalog.k
    bad = 0
    for j1 in range(k + 1):
        rows = slice(edges[j1], edges[j1 + 1])
        for j2 in range(k + 1):
            cols = slice(edges[j2], edges[j2 + 1])
            if j2 > j1 or (xhat_is_zero and j2 < j1):
                bad += int(np.count_nonzero(A1k[rows, cols]))
    where = "diagonal" if xhat_is_zero else "lower bidiagonal"
    return CheckResult(
        name=f"block_structure({'0' if xhat_is_zero else 'xhat'})",
        passed=bad == 0,
        detail=f"{bad} entries violate the block {where} layout",
    )


def check_bounded_exponential(A1k: np.ndarray, eps_list=DEFAULT_EPS_LIST) -> CheckResult:
    """max_t |exp(A1k t / eps)| over t in (0, 6] stays within 10x of its value at eps_max."""
    eps_list = sorted(eps_list, reverse=True)

    def growth(eps: float) -> float:
        # Overflow to inf/nan counts as unbounded growth, not a crash.
        worst = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            for t in _T_GRID:
                E = linalg.expm(A1k * (t / eps))
                if not np.all(np.isfinite(E)):
                    return math.inf
                worst = max(worst, float(np.linalg.norm(E, 2)))
        return worst

    m_all = [growth(eps) for eps in eps_list]
    m_ref = m_all[0]
    worst = max(m_all)
    return CheckResult(
        name="bounded_exponential",
        passed=math.isfinite(m_ref) and worst <= _GROWTH_FACTOR * m_ref,
        detail=(
            f"max norm {worst:.3e} over eps in [{eps_list[-1]:g}, {eps_list[0]:g}] "
            f"vs {m_ref:.3e} at the largest eps"
        ),
    )


def random_imaginary_system(d: int, rng: np.random.Generator) -> np.ndarray:
    """Random diagonalizable A = Q diag(i lambda) Q^-1 with real lambda.

    Frequencies are drawn from +-[0.3, 3]; Q is resampled until its
    condition number is below 10.  The bound matters: the lifted
    eigenbasis conditioning compounds like cond(Q)^k, and a loose Q
    makes the exponential's norm swing far beyond the 10x growth
    allowance that check_bounded_exponential enforces.
    """
    lam = rng.uniform(0.3, 3.0, size=d) * rng.choice([-1.0, 1.0], size=d)
    while True:
        Q = rng.standard_normal((d, d))
        if np.linalg.cond(Q) < _COND_MAX:
            break
    return Q @ np.diag(1j * lam) @ np.linalg.inv(Q)


def run_suite(A, k: int, xhat, eps_list=DEFAULT_EPS_LIST) -> list[CheckResult]:
    """All structural checks for one (A, k, xhat) triple."""
    A = np.asarray(A, dtype=complex)
    d = A.shape[0]
    xhat = np.asarray(xhat, dtype=complex)
    if xhat.shape != (d + 1,):
        raise ValueError(f"xhat must have {d + 1} components")
    catalog = build_catalog(d + 1, k)
    A1_aug = augment(A)
    zero = np.zeros(d + 1, dtype=complex)
    A1k_zero = build_A1(catalog, A1_aug, zero)
    A1k_xhat = build_A1(catalog, A1_aug, xhat)
    S = build_S(catalog, xhat)
    return [
        check_spectrum_imaginary(A1k_xhat),
        check_block_structure(A1k_xhat, catalog, xhat_is_zero=False),
        check_block_structure(A1k_zero, catalog, xhat_is_zero=True),
        check_similarity(A1k_xhat, A1k_zero, S),
        check_spectrum_sums(A1k_zero, linalg.eigvals(A1_aug), catalog),
        check_bounded_exponential(A1k_xhat, eps_list=eps_list),
    ]
