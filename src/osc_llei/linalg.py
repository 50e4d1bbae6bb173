"""Dense linear algebra kernels that keep the dtype of their input.

Thin validated wrappers over LAPACK, and one kernel of its own.  expm
follows two rules:

- One Taylor family at every size.  e^M is a degree-m Taylor
  polynomial evaluated by Paterson-Stockmeyer, matrix products only
  (Bader, Blanes and Casas, Mathematics 7 (2019) 1174), with s
  squarings; taylor_plan picks m and s from the backward-error
  thresholds theta_m of Al-Mohy and Higham, SIAM J. Sci. Comput. 33(2)
  (2011), Table 3.1.  When v is given and ||M||_1 <= theta_30 (no
  squarings), expm(M, v) applies the degree-m Taylor polynomial to v
  instead, m the smallest degree with theta_m >= ||M||_1, summed
  forward as in Al-Mohy and Higham (2011), Section 3: the m products
  M^j v go into one stack, one matrix-vector product each, and one
  product with the 1/j! sums them (v is scaled by a power of two
  first, so the powers cannot overflow where the sum does not).  Above
  theta_30, e^M times v.
- One input contract at every size, with and without v.  The 1-norm
  that picks the path also checks M: a non-finite entry raises
  ValueError, and so does a finite M whose 1-norm overflows.  A
  non-finite entry of v raises ValueError too.

Real input stays float64 and complex input complex128, so a real
problem runs in real arithmetic (dgemm, about a quarter of zgemm's
flops).  All operations are pure functions over immutable inputs.
eigvals (Hessenberg reduction plus shifted QR iteration, LAPACK
dgeev/zgeev, via scipy.linalg.eigvals) rejects non-finite entries as
expm does.

scatter_add is the sum-into-bins kernel both the extension plan and
the jet product use.
"""

from __future__ import annotations

import bisect
import functools
import math

import numpy as np
import scipy.linalg

# theta_m: the largest ||2^-s M||_1 for which the degree-m Taylor
# polynomial of e^(2^-s M), squared s times, is the exact exponential of
# a matrix within relative backward error 2^-53.  m <= 30 from Higham and
# Al-Mohy, Acta Numerica 19 (2010), Table A.3; m >= 35 from Al-Mohy and
# Higham (2011), Table 3.1.
TAYLOR_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3,
    6: 9.07e-3, 7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1,
    11: 2.14e-1, 12: 3.00e-1, 13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1,
    16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44,
    21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54,
    35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9,
}

# (m, q): the degrees that Paterson-Stockmeyer evaluates in the fewest
# products for their degree, with their block size q.  Degree m costs
# q - 1 products for the powers M^2..M^q and ceil(m/q) - 1 for Horner:
# 0, 1, 2, ..., 9 products in this order.  The table's higher degrees
# reach a smaller norm than m = 30 with squarings at the same cost.
_PS_DEGREES = ((1, 1), (2, 2), (4, 2), (6, 3), (9, 3), (12, 4), (16, 4), (20, 5), (25, 5), (30, 6))


def taylor_plan(norm1: float) -> tuple[int, int, int]:
    """(m, q, s) for the Taylor path at ||M||_1 = norm1.

    Degree m with Paterson-Stockmeyer block size q and s squarings:
    the fewest matrix products for which ||2^-s M||_1 <= theta_m, and
    among those the fewest squarings.
    """
    best = None
    for products, (m, q) in enumerate(_PS_DEGREES):
        theta = TAYLOR_THETA[m]
        s = 0 if norm1 <= theta else math.ceil(math.log2(norm1 / theta))
        if best is None or products + s <= best[0]:
            best = (products + s, (m, q, s))
        if s == 0:
            # every later degree costs more products and cannot square less
            break
    return best[1]


@functools.lru_cache(maxsize=None)
def _block_coefficients(m: int, q: int) -> np.ndarray:
    """C[i, j] = 1/(iq + j)!, the coefficient of M^j in Horner block i.

    Blocks i < r take M^0..M^(q-1) and the last, r = ceil(m/q) - 1, takes
    M^0..M^(m - rq), which may include M^q.  Read-only, shared.
    """
    r = -(-m // q) - 1
    C = np.zeros((r + 1, q + 1))
    for i in range(r + 1):
        for j in range(q if i < r else m - r * q + 1):
            C[i, j] = 1.0 / math.factorial(i * q + j)
    C.flags.writeable = False
    return C


def _taylor_expm(M: np.ndarray, norm1: float) -> np.ndarray:
    """e^M by a Paterson-Stockmeyer Taylor polynomial, scaling and squaring.

    norm1 is ||M||_1.
    """
    n = M.shape[0]
    m, q, s = taylor_plan(norm1)
    if s:
        M = M * 2.0**-s
    # powers[j] = M^j for j = 0..q, in one stack
    powers = np.empty((q + 1, n, n), dtype=M.dtype)
    powers[0] = 0.0
    np.fill_diagonal(powers[0], 1.0)
    powers[1] = M
    for j in range(2, q + 1):
        np.matmul(powers[j - 1], M, out=powers[j])
    C = _block_coefficients(m, q)
    blocks = (C @ powers.reshape(q + 1, n * n)).reshape(len(C), n, n)
    out = blocks[-1]
    for block in blocks[-2::-1]:
        block += powers[q] @ out
        out = block
    for _ in range(s):
        out = out @ out
    return out


# The action e^M v runs without squarings up to this degree's threshold,
# where taylor_plan's s turns positive; beyond it, the dense path.
_ACTION_MAX_DEGREE = _PS_DEGREES[-1][0]
_ACTION_DEGREES = tuple(m for m in sorted(TAYLOR_THETA) if m <= _ACTION_MAX_DEGREE)
_ACTION_THETAS = tuple(TAYLOR_THETA[m] for m in _ACTION_DEGREES)
# 1/j! as float64: an array of Python factorials past 20! is an object
# array, and numpy's arithmetic on it is many times slower
_INVERSE_FACTORIALS = np.array([1.0 / math.factorial(j) for j in range(_ACTION_MAX_DEGREE + 1)])
_INVERSE_FACTORIALS.flags.writeable = False


def _action_degree(norm1: float) -> int:
    """The smallest m <= _ACTION_MAX_DEGREE with theta_m >= norm1."""
    return _ACTION_DEGREES[bisect.bisect_left(_ACTION_THETAS, norm1)]


def _taylor_action(M: np.ndarray, v: np.ndarray, m: int, sq: float) -> np.ndarray:
    """T_m(M) v = sum_{j<=m} M^j v / j!, summed forward: m matrix-vector products.

    The powers P[j] = M^j v go into one (m+1) x n stack, one
    matrix-vector product each, and the sum is one product of 1/j! with
    the stack.  Unlike Horner, the powers can grow past the sum, up to
    ||M||_1^m ||v||_1, so v is first scaled by a power of two (exact) to
    entries below 2 in modulus, and the coefficients undo the scaling.
    sq = ||v||_2^2, which bounds every |v_i|^2; where it overflows, the
    largest |v_i| sets the power instead.  e_1 needs no scaling.
    """
    big = math.sqrt(sq) if math.isfinite(sq) else float(np.abs(v).max())
    e = max(0, math.frexp(big)[1] - 1)
    if M.dtype != v.dtype:
        dtype = np.promote_types(M.dtype, v.dtype)
        M, v = M.astype(dtype, copy=False), v.astype(dtype, copy=False)
    P = np.empty((m + 1, v.size), dtype=v.dtype)
    coefficients = _INVERSE_FACTORIALS[: m + 1]
    if e:
        np.multiply(v, 2.0**-e, out=P[0])
        coefficients = coefficients * 2.0**e
    else:
        P[0] = v
    prev = P[0]
    # the bound method and the row iterator: about a third less per
    # product than np.dot on indexed rows at D = 56 (one BLAS thread)
    dot = M.dot
    for row in P[1:]:
        dot(prev, out=row)
        prev = row
    return coefficients.dot(P)


# the dtypes the kernels compute in, float64 for real input and complex128
# otherwise; the one definition, read by the jets, the lift and the oracles
_FLOAT, _COMPLEX = _WORKING_DTYPES = (np.dtype(np.float64), np.dtype(np.complex128))


@functools.lru_cache(maxsize=16)
def _column_weights(n: int) -> np.ndarray:
    """n entries 2^-b, with 2^b > n.  Read-only, shared."""
    out = np.full(n, 2.0 ** -n.bit_length())
    out.flags.writeable = False
    return out


def _norm1(M: np.ndarray) -> float:
    """||M||_1; inf when it overflows, non-finite when an entry is.

    The column sums are one matrix-vector product with 2^-b, under half
    of np.sum's cost from 4 to 126 rows (one BLAS thread), and no scaled
    sum can overflow, so none sets off a floating-point warning.  The
    scaling is exact (short of subnormals), so the norm is the unscaled
    sum's.
    """
    n = M.shape[0]
    if not n:
        return 0.0
    sums = _column_weights(n).dot(np.abs(M))
    # argmax finds the first nan, as max() does, at a fifth of its cost
    return sums.item(sums.argmax()) * 2.0 ** n.bit_length()


def _as_square(M) -> np.ndarray:
    """M as a working-dtype square matrix; its finiteness is the caller's to check."""
    M = np.asarray(M)
    if M.dtype not in _WORKING_DTYPES:
        M = M.astype(np.promote_types(M.dtype, np.float64))
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"M must be a square matrix, got shape {M.shape}")
    return M


def _as_vector(v, n: int) -> tuple[np.ndarray, float]:
    """v as a validated working-dtype vector of length n, and ||v||_2^2."""
    v = np.asarray(v)
    if v.shape != (n,):
        raise ValueError(f"v must be a vector of length {n}, got shape {v.shape}")
    if v.dtype not in _WORKING_DTYPES:
        v = v.astype(np.promote_types(v.dtype, np.float64))
    # the sum of squares is finite exactly when every entry is, unless it
    # overflows; only then does the entrywise check run
    sq = squared_norm(v)
    if not (math.isfinite(sq) or np.isfinite(v).all()):
        raise ValueError("v contains non-finite entries")
    return v, sq


def squared_norm(v: np.ndarray) -> float:
    """||v||_2^2 of a float64 or complex128 vector: np.vdot(v, v).real.

    A float64 vector's dot with itself is the same BLAS ddot, bit for
    bit, without numpy 2's Python-level dispatcher for np.vdot (about
    0.25 us a call).
    """
    if v.dtype is _FLOAT:
        return v.dot(v)
    return np.vdot(v, v).real


def expm(M, v=None) -> np.ndarray:
    """Matrix exponential e^M, real for real M; e^M v when v is given.

    Raises ValueError when M or v has a non-finite entry, or when M is
    finite but its 1-norm overflows.
    """
    M = _as_square(M)
    # the 1-norm that picks the path and the degree also checks finiteness:
    # it is finite exactly when every entry is, unless a column sum overflows
    norm1 = _norm1(M)
    if not math.isfinite(norm1):
        if not np.isfinite(M).all():
            raise ValueError("M contains non-finite entries")
        raise ValueError("the 1-norm of M overflows")
    if v is not None:
        v, sq = _as_vector(v, M.shape[0])
        if norm1 <= TAYLOR_THETA[_ACTION_MAX_DEGREE]:
            return _taylor_action(M, v, _action_degree(norm1), sq)
    E = _taylor_expm(M, norm1)
    return E if v is None else E.dot(v)


def eigvals(M) -> np.ndarray:
    """All eigenvalues of M (unordered, complex).

    Raises ValueError when M has a non-finite entry.
    """
    M = _as_square(M)
    if not np.isfinite(M).all():
        raise ValueError("M contains non-finite entries")
    return scipy.linalg.eigvals(M, check_finite=False)


def scatter_add(target: np.ndarray, weights: np.ndarray, size: int) -> np.ndarray:
    """out[i] = sum of weights[j] over target[j] == i, in weights' dtype.

    One bincount for real weights, one per part for complex ones.
    """
    # positional arguments: bincount's keyword parsing costs about 0.1 us a call
    if weights.dtype.kind != "c":
        return np.bincount(target, weights, size)
    out = np.empty(size, dtype=weights.dtype)
    out.real = np.bincount(target, weights.real, size)
    out.imag = np.bincount(target, weights.imag, size)
    return out
