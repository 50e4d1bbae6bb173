"""Assembly of the local linear extension matrices.

The extension variable at reference point xhat collects all monomials
(x - xhat)^alpha over the catalog.  Differentiating each monomial along
dx/dt = (1/eps) A1 x + f(x) and Taylor-truncating f at xhat splits the
lifted dynamics into (1/eps) * A1k + A0k plus a remainder the scheme
never evaluates.  Every coefficient lands on the canonical
representative of its target monomial chi + beta, read from the
catalog's tables (drops for chi, sums for chi + beta), so duplicate
contributions accumulate by construction.  Where each coefficient
lands depends only on (d+1, k); an ExtensionPlan holds that map,
compiled once per pair, and both builders feed it the Taylor
coefficients of their field.  build_A0 reads every oracle's forcing as
[0; scale * g(u[:m], t)], through a table compiled once per (d+1, k, m)
that gathers from g's own coefficients; for a second-order system
(m = dy) it skips F's zeros in the y rows and in every row with a
momentum derivative, and for any other oracle (m = d) F is g.
build_S and lift use the same tables: row alpha is the product of the
degree-1 row of its first component and the row of the rest.  The
matrices keep the dtype of their data: a real field at a real point
gives float64 matrices, anything complex gives complex128 ones.

Row conventions (catalog order): row 0 is the constant monomial and is
identically zero in both matrices; rows 1..d+1 are the degree-1 block.
A1k is block lower bidiagonal in the degree grouping, exactly block
diagonal at xhat = 0.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .linalg import _COMPLEX, _FLOAT, scatter_add
from .mindex import MultiIndexCatalog, build_catalog
from .sysdef import DerivativeOracle, _momentum_slots


def _check_point(catalog: MultiIndexCatalog, xhat) -> np.ndarray:
    """xhat as a float64 or complex128 vector of length d+1."""
    # a float64 or complex128 array, as every scheme step passes, is used as is
    if not (isinstance(xhat, np.ndarray) and (xhat.dtype == _FLOAT or xhat.dtype == _COMPLEX)):
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

    The pairs that read G's row 0 (beta = (), the only ones that depend
    on xhat for a linear field) are split out for build_A1:
    lower_column[p] is the G column pair p reads, lower_bins the distinct
    entries of vec(M) they land on (no other pair lands there) and
    lower_inverse[p] the position of pair p's entry in lower_bins.

    build_A0 reads the pairs by G column, with no G: the state-column
    pairs (c <= d) through _forcing_pairs, and the time column here.  In
    the time column only G[(), d+1] = 1 is nonzero, so its pairs become
    time_bins, the distinct entries they land on, and time_counts, how
    many land on each (as floats); the time column's other pairs read
    zeros and are dropped.  A time pair lands on row alpha at column
    alpha minus one t, and no state pair of that row does (their columns
    drop a state component or have degree |alpha| or more), so no state
    pair lands on a time bin.

    Every array is read-only, shared by all steps on this (d+1, k).
    """

    size: int
    source: np.ndarray
    target: np.ndarray
    lower_column: np.ndarray
    lower_bins: np.ndarray
    lower_inverse: np.ndarray
    time_bins: np.ndarray
    time_counts: np.ndarray

    @classmethod
    def compile(cls, catalog: MultiIndexCatalog) -> "ExtensionPlan":
        n, k, D = catalog.d_plus_1, catalog.k, catalog.size
        sums, n_upto = catalog.sums, catalog.n_upto
        source: list[np.ndarray] = []
        target: list[np.ndarray] = []
        for row, (alpha, chis) in enumerate(zip(catalog.representatives, catalog.drops)):
            for c, chi in zip(alpha, chis):
                b = np.arange(n_upto[k - len(alpha) + 1])
                source.append(b * n + c - 1)
                target.append(row * D + sums[chi, : b.size])
        source_arr = np.concatenate(source)
        target_arr = np.concatenate(target)
        reads_row0 = source_arr < n
        bins, inverse = np.unique(target_arr[reads_row0], return_inverse=True)
        time_bins, time_counts = np.unique(
            target_arr[source_arr == n - 1], return_counts=True
        )
        arrays = (
            source_arr, target_arr, source_arr[reads_row0], bins, inverse,
            time_bins, time_counts.astype(float),
        )
        for arr in arrays:
            arr.flags.writeable = False
        return cls(D, *arrays)

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


@functools.lru_cache(maxsize=16)
def _A1_parts(
    d_plus_1: int, k: int, dtype: str, A1_bytes: bytes
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(preserving, lowering, multiplicity): A1k's parts, read-only, shared
    by every build_A1 call on this (d+1, k, A1).

    preserving is A1k with G's row 0 left at zero, the part that does not
    depend on xhat.  The pairs landing on one degree-lowering bin all read
    the same row of A1 (the bin's chi drops one value of alpha, repeated
    as often as alpha holds it), so bin b takes multiplicity[b] times row
    b of lowering, a (len(lower_bins), d+1) matrix, dotted with xhat.
    """
    A1_aug = np.frombuffer(A1_bytes, dtype=dtype).reshape(d_plus_1, d_plus_1)
    plan = _compiled(d_plus_1, k)
    G = np.zeros((plan.size, d_plus_1), dtype=np.result_type(A1_aug, float))
    G[1 : d_plus_1 + 1] = A1_aug.T
    row = np.empty(plan.lower_bins.size, dtype=np.intp)
    row[plan.lower_inverse] = plan.lower_column
    parts = (
        plan.assemble(G),
        A1_aug[row].astype(G.dtype),
        np.bincount(plan.lower_inverse).astype(float),
    )
    for part in parts:
        part.flags.writeable = False
    return parts


def build_A1(catalog: MultiIndexCatalog, A1_aug, xhat) -> np.ndarray:
    """The 1/eps part of the lifted dynamics at reference point xhat.

    The linear field x -> A1 x has Taylor coefficients A1 xhat at
    beta = () and column m of A1 at beta = (m); every higher one is zero.
    Through the plan this puts, for row alpha and each position l, the
    degree-preserving coefficient (A1)_{alpha_l m} at chi(alpha; l) + {m}
    and the degree-lowering coefficient (A1 xhat)_{alpha_l} at
    chi(alpha; l).  The two kinds land on disjoint entries, so both
    parts are cached per (d+1, k, A1): each call copies the
    degree-preserving part and writes the degree-lowering entries, one
    product of the cached lowering matrix with xhat scaled by the bins'
    multiplicities.  The whole plan adds (A1 xhat)_c once per pair
    instead; adding y m times rounds as m * y does for m <= 5, so up to
    k = 5 the entries are the plan's bit for bit, and above it m * y is
    the correctly rounded one of the two.
    """
    A1_aug = np.asarray(A1_aug)
    n = catalog.d_plus_1
    if A1_aug.shape != (n, n):
        raise ValueError(f"augmented matrix has shape {A1_aug.shape}, expected ({n}, {n})")
    xhat = _check_point(catalog, xhat)
    preserving, lowering, multiplicity = _A1_parts(
        n, catalog.k, A1_aug.dtype.str, A1_aug.tobytes()
    )
    out = preserving.astype(np.result_type(preserving, xhat))
    out.reshape(-1)[plan_for(catalog).lower_bins] = lowering.dot(xhat) * multiplicity
    return out


@functools.lru_cache(maxsize=16)
def _forcing_pairs(
    d_plus_1: int, k: int, m: int
) -> tuple[MultiIndexCatalog, np.ndarray, np.ndarray]:
    """(g's catalog, source, target): the plan's state pairs that read g.

    For F = [0; scale * g(u[:m], t)], F's first d - m columns and every
    row of taylor with a u[m:] component are zero.  A state pair (G
    column c <= d) reads entry beta * d + c - 1 of the (S x d)
    taylor.ravel(); source[p] indexes the (S_g x m) g.ravel() where that
    entry holds g's coefficient, and target[p] is the pair's entry of
    vec(M), in the plan's order.  The pairs that read a structural zero
    are dropped; for m = d none is, and source indexes taylor itself.
    Read-only, shared by every build_A0 call on this (d+1, k, m).
    """
    plan = _compiled(d_plus_1, k)
    g_catalog, slots = _momentum_slots(d_plus_1, k, m)
    d = d_plus_1 - 1
    beta, column = np.divmod(plan.source, d_plus_1)
    state = column < d
    # the entry of g.ravel() each entry of taylor.ravel() holds, -1 at a zero
    entry = np.full(plan.size * d, -1)
    entry[slots] = np.arange(slots.size)
    source = entry[beta[state] * d + column[state]]
    reads_g = source >= 0
    pairs = (source[reads_g], plan.target[state][reads_g])
    for arr in pairs:
        arr.flags.writeable = False
    return (g_catalog, *pairs)


def build_A0(catalog: MultiIndexCatalog, oracle: DerivativeOracle, xhat) -> np.ndarray:
    """The O(1) part of the lifted dynamics at reference point xhat.

    The augmented field is [F; 1]: its Taylor coefficients are
    oracle.taylor in the state columns and 1 at beta = () in the time
    column.  Row alpha of degree j receives, for each position l and each
    representative beta with |beta| <= k - j + 1, the coefficient
    (1/gamma(beta)) * d^beta f_{alpha_l}(xhat) at column chi(alpha; l)
    + beta, so no target monomial exceeds degree k.

    The oracle's forcing F = [0; scale * g(u[:m], t)] (its _forcing) is
    read from g's own coefficients, one checked g.taylor call over
    (u[:m], t): the state pairs gather from it, each weight is g's
    coefficient times scale (the product taylor holds), and they
    scatter-add into M; the time bins, which no state pair reaches, then
    take their counts.  That is plan.assemble(G) on G = [taylor | e_0],
    bit for bit, without building G: the pairs dropped read structural
    zeros, and would add exact zeros.  For a generic oracle g is the
    oracle itself over all of (u, t), and a unit scale is not applied.
    """
    xhat = _check_point(catalog, xhat)
    d = catalog.d_plus_1 - 1
    plan = plan_for(catalog)
    g, m, scale = oracle._forcing(d)
    g_catalog, source, target = _forcing_pairs(catalog.d_plus_1, catalog.k, m)
    weights = g.taylor(g_catalog, xhat[:m], xhat[d]).ravel()[source]
    if scale != 1.0:
        weights = weights * scale
    if weights.dtype != xhat.dtype:
        weights = weights.astype(np.result_type(weights, xhat), copy=False)
    out = scatter_add(target, weights, plan.size**2)
    out[plan.time_bins] = plan.time_counts
    return out.reshape(plan.size, plan.size)


def _first_and_rest(catalog: MultiIndexCatalog):
    """(row, alpha_1, row of alpha minus alpha_1) for every row of degree >= 1.

    Rows come in catalog order, so the rest's row is always done first.
    """
    return [
        (row, alpha[0], chis[0])
        for row, (alpha, chis) in enumerate(zip(catalog.representatives, catalog.drops))
        if alpha
    ]


def build_S(catalog: MultiIndexCatalog, xhat) -> np.ndarray:
    """Basis transition from centered-at-zero to centered-at-xhat monomials.

    Row alpha expands (x - xhat)^alpha as (x_c - xhat_c) times the row
    of the rest of alpha, c = alpha_1, so lift(x, xhat) = S @ lift(x, 0).
    Lower triangular with unit diagonal in the degree-grouped order;
    identity at xhat = 0.
    """
    xhat = _check_point(catalog, xhat)
    sums, n_upto = catalog.sums, catalog.n_upto
    D = catalog.size
    out = np.zeros((D, D), dtype=complex)
    out[0, 0] = 1.0
    for row, c, rest in _first_and_rest(catalog):
        # the rest's row is zero past its degree |alpha| - 1
        m = n_upto[len(catalog.representatives[row]) - 1]
        out[row, sums[c, :m]] = out[rest, :m]
        out[row, :m] -= xhat[c - 1] * out[rest, :m]
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
    out[0] = 1.0
    for row, c, rest in _first_and_rest(catalog):
        out[row] = y[c - 1] * out[rest]
    return out
