"""Assembly of the local linear extension matrices.

The extension variable at reference point xhat collects all monomials
(x - xhat)^alpha over the catalog.  Differentiating each monomial along
dx/dt = (1/eps) A1 x + f(x) and Taylor-truncating f at xhat splits the
lifted dynamics into (1/eps) * A1k + A0k plus a remainder the scheme
never evaluates.  Every coefficient lands on the canonical
representative of its target monomial, so duplicate contributions
accumulate by construction.

Row conventions (catalog order): row 0 is the constant monomial and is
identically zero in both matrices; rows 1..d+1 are the degree-1 block.
A1k is block lower bidiagonal in the degree grouping, exactly block
diagonal at xhat = 0.
"""

from __future__ import annotations

import itertools

import numpy as np

from .mindex import MultiIndexCatalog, gamma, remove_component
from .sysdef import DerivativeOracle


def _check_point(catalog: MultiIndexCatalog, xhat) -> np.ndarray:
    xhat = np.asarray(xhat, dtype=complex)
    if xhat.shape != (catalog.d_plus_1,):
        raise ValueError(
            f"reference point has shape {xhat.shape}, expected ({catalog.d_plus_1},)"
        )
    return xhat


def build_A1(catalog: MultiIndexCatalog, A1_aug, xhat) -> np.ndarray:
    """The 1/eps part of the lifted dynamics at reference point xhat.

    For row alpha and each position l, the linear term (A1 x)_{alpha_l}
    = sum_m (A1)_{alpha_l m} (xhat_m + (x - xhat)_m) contributes the
    degree-preserving coefficient at chi(alpha; l) + {m} and the
    degree-lowering coefficient (A1)_{alpha_l m} * xhat_m at
    chi(alpha; l).
    """
    A1_aug = np.asarray(A1_aug, dtype=complex)
    n = catalog.d_plus_1
    if A1_aug.shape != (n, n):
        raise ValueError(f"augmented matrix has shape {A1_aug.shape}, expected ({n}, {n})")
    xhat = _check_point(catalog, xhat)
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


def build_A0(catalog: MultiIndexCatalog, oracle: DerivativeOracle, xhat) -> np.ndarray:
    """The O(1) part of the lifted dynamics at reference point xhat.

    Row alpha of degree j receives, for each position l and each
    representative beta with |beta| <= k - j + 1, the Taylor coefficient
    (1/gamma(beta)) * d^beta f_{alpha_l}(xhat) at column chi(alpha; l)
    + beta.  The augmented time component f_{d+1} = 1 contributes only
    at |beta| = 0.  The truncation order guarantees no target monomial
    exceeds degree k.
    """
    k = catalog.k
    xhat = _check_point(catalog, xhat)
    d = catalog.d_plus_1 - 1
    u, t = xhat[:d], xhat[d]
    # one oracle call per representative beta, shared across all rows
    fvals: dict[tuple[int, ...], np.ndarray] = {}
    for beta in catalog.representatives:
        fvals[beta] = np.asarray(oracle.partial(beta, u, t), dtype=complex)
        if fvals[beta].shape != (d,):
            raise ValueError(f"oracle returned shape {fvals[beta].shape}, expected ({d},)")
    D = catalog.size
    out = np.zeros((D, D), dtype=complex)
    for row, alpha in enumerate(catalog.representatives):
        j = len(alpha)
        for l in range(1, j + 1):
            a_l = alpha[l - 1]
            chi = remove_component(alpha, l)
            max_beta = k - j + 1
            for beta in catalog.representatives:
                if len(beta) > max_beta:
                    break
                if a_l <= d:
                    val = fvals[beta][a_l - 1]
                elif beta == ():
                    val = 1.0
                else:
                    break
                if val == 0:
                    continue
                target = tuple(sorted(chi + beta))
                assert len(target) <= k
                out[row, catalog.position(target)] += val / gamma(beta)
    return out


def build_S(catalog: MultiIndexCatalog, xhat) -> np.ndarray:
    """Basis transition from centered-at-zero to centered-at-xhat monomials.

    Row alpha expands (x - xhat)^alpha = sum over subsets of kept
    factors, so lift(x, xhat) = S @ lift(x, 0).  Lower triangular with
    unit diagonal in the degree-grouped order; identity at xhat = 0.
    """
    xhat = _check_point(catalog, xhat)
    D = catalog.size
    out = np.zeros((D, D), dtype=complex)
    for row, alpha in enumerate(catalog.representatives):
        j = len(alpha)
        for kept in itertools.product((False, True), repeat=j):
            coeff = 1.0 + 0.0j
            target = []
            for keep, c in zip(kept, alpha):
                if keep:
                    target.append(c)
                else:
                    coeff *= -xhat[c - 1]
            if coeff == 0:
                continue
            out[row, catalog.position(tuple(target))] += coeff
    return out


def lift(catalog: MultiIndexCatalog, x, xhat) -> np.ndarray:
    """The extension variable: all representative monomials of x - xhat.

    Component 0 is 1; components 1..d+1 are x - xhat itself.  Equals the
    first canonical basis vector when x = xhat.
    """
    x = _check_point(catalog, x)
    xhat = _check_point(catalog, xhat)
    y = x - xhat
    out = np.empty(catalog.size, dtype=complex)
    for row, alpha in enumerate(catalog.representatives):
        v = 1.0 + 0.0j
        for c in alpha:
            v *= y[c - 1]
        out[row] = v
    return out
