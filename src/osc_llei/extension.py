"""Assembly of the local linear extension matrices.

The extension variable at reference point xhat collects all monomials
(x - xhat)^alpha over the catalog.  Differentiating each monomial along
dx/dt = (1/eps) A1 x + f(x) and Taylor-truncating f at xhat splits the
lifted dynamics into (1/eps) * A1k + A0k plus a remainder the scheme
never evaluates.  Every coefficient lands on the canonical
representative of its target monomial, so duplicate contributions
accumulate by construction.  Where each coefficient lands depends only
on (d+1, k); an ExtensionPlan holds that map, compiled once per pair,
and both builders feed it the Taylor coefficients of their field.  The
matrices keep the dtype of their data: a real field at a real point
gives float64 matrices, anything complex gives complex128 ones.

Row conventions (catalog order): row 0 is the constant monomial and is
identically zero in both matrices; rows 1..d+1 are the degree-1 block.
A1k is block lower bidiagonal in the degree grouping, exactly block
diagonal at xhat = 0.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .linalg import scatter_add
from .mindex import MultiIndexCatalog, build_catalog, remove_component
from .sysdef import DerivativeOracle


def _check_point(catalog: MultiIndexCatalog, xhat) -> np.ndarray:
    """xhat as a float64 or complex128 vector of length d+1."""
    xhat = np.asarray(xhat)
    xhat = xhat.astype(np.result_type(xhat, float), copy=False)
    if xhat.shape != (catalog.d_plus_1,):
        raise ValueError(
            f"reference point has shape {xhat.shape}, expected ({catalog.d_plus_1},)"
        )
    return xhat


@dataclass(frozen=True, eq=False)
class ExtensionPlan:
    """Where each Taylor coefficient of an augmented field lands in the lift.

    For a vector field f on the d+1 augmented variables, let G be the
    (D x (d+1)) array G[beta, c] = d^beta f_c(xhat) / gamma(beta) in
    catalog order.  Differentiating the monomial (x - xhat)^alpha along
    dx/dt = f(x) and truncating at degree k adds, for every position l of
    alpha and every beta with |beta| <= k - |alpha| + 1, the coefficient
    G[beta, alpha_l] at row alpha and column chi(alpha; l) + beta.  The
    plan stores that map as flat (source, target) index pairs into
    G.ravel() and vec(M), so assembly is one gather and one scatter-add.
    The pairs depend only on (d+1, k); plan_for compiles them once.
    Duplicate targets are kept as separate pairs and summed in the
    order of the row-by-row derivation.
    """

    size: int
    source: np.ndarray
    target: np.ndarray

    @classmethod
    def compile(cls, catalog: MultiIndexCatalog) -> "ExtensionPlan":
        n, k, D = catalog.d_plus_1, catalog.k, catalog.size
        reps = catalog.representatives
        index = {alpha: i for i, alpha in enumerate(reps)}
        # n_upto[m]: number of representatives of degree <= m
        n_upto = np.cumsum(catalog.block_dims)
        source: list[int] = []
        target: list[int] = []
        for row, alpha in enumerate(reps):
            j = len(alpha)
            for l in range(1, j + 1):
                c = alpha[l - 1] - 1
                chi = remove_component(alpha, l)
                for b in range(n_upto[k - j + 1]):
                    source.append(b * n + c)
                    target.append(row * D + index[tuple(sorted(chi + reps[b]))])
        source_arr = np.array(source, dtype=np.intp)
        target_arr = np.array(target, dtype=np.intp)
        source_arr.flags.writeable = False
        target_arr.flags.writeable = False
        return cls(D, source_arr, target_arr)

    def assemble(self, G: np.ndarray) -> np.ndarray:
        """The (D x D) lifted matrix of the field whose coefficients are G.

        Real G gives a float64 matrix, complex G a complex128 one.
        """
        w = G.ravel()[self.source]
        return scatter_add(self.target, w, self.size * self.size).reshape(self.size, self.size)


@functools.lru_cache(maxsize=16)
def _compiled(d_plus_1: int, k: int) -> ExtensionPlan:
    return ExtensionPlan.compile(build_catalog(d_plus_1, k))


def plan_for(catalog: MultiIndexCatalog) -> ExtensionPlan:
    """The extension plan of catalog's (d+1, k), compiled on first use."""
    return _compiled(catalog.d_plus_1, catalog.k)


def build_A1(catalog: MultiIndexCatalog, A1_aug, xhat) -> np.ndarray:
    """The 1/eps part of the lifted dynamics at reference point xhat.

    The linear field x -> A1 x has Taylor coefficients A1 xhat at
    beta = () and column m of A1 at beta = (m); every higher one is zero.
    Through the plan this puts, for row alpha and each position l, the
    degree-preserving coefficient (A1)_{alpha_l m} at chi(alpha; l) + {m}
    and the degree-lowering coefficient (A1 xhat)_{alpha_l} at
    chi(alpha; l).
    """
    A1_aug = np.asarray(A1_aug)
    n = catalog.d_plus_1
    if A1_aug.shape != (n, n):
        raise ValueError(f"augmented matrix has shape {A1_aug.shape}, expected ({n}, {n})")
    xhat = _check_point(catalog, xhat)
    G = np.zeros((catalog.size, n), dtype=np.result_type(A1_aug, xhat))
    G[0] = A1_aug @ xhat
    G[1 : n + 1] = A1_aug.T
    return plan_for(catalog).assemble(G)


def build_A0(catalog: MultiIndexCatalog, oracle: DerivativeOracle, xhat) -> np.ndarray:
    """The O(1) part of the lifted dynamics at reference point xhat.

    The augmented field is [F; 1]: its Taylor coefficients are
    oracle.taylor in the state columns and 1 at beta = () in the time
    column.  Row alpha of degree j receives, for each position l and each
    representative beta with |beta| <= k - j + 1, the coefficient
    (1/gamma(beta)) * d^beta f_{alpha_l}(xhat) at column chi(alpha; l)
    + beta, so no target monomial exceeds degree k.
    """
    xhat = _check_point(catalog, xhat)
    d = catalog.d_plus_1 - 1
    taylor = oracle.taylor(catalog, xhat[:d], xhat[d])
    G = np.zeros((catalog.size, d + 1), dtype=np.result_type(taylor, xhat))
    G[:, :d] = taylor
    G[0, d] = 1.0
    return plan_for(catalog).assemble(G)


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
