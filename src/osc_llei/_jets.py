"""Truncated multivariate Taylor arithmetic (forward-mode jets).

A Jet stores the Taylor coefficients of a scalar function of n
variables around a base point, truncated at total degree K, as one 1-D
array in the order of its catalog, mindex's catalog over n symbols up
to degree K (degree blocks 0..K, lexicographic on the sorted components
inside each block): row i holds the coefficient of the i-th
representative, i.e. d^beta / gamma(beta).  The array has one entry
more than the catalog's S rows, the zero slot, which is 0.0 at finite
values; Jet.c is the view of the S coefficients without it.

The product of two jets (the dense-coefficient Taylor arithmetic of
Griewank and Walther, Evaluating Derivatives, ch. 13) takes one of two
paths by catalog size, with the same coefficients up to rounding.  Up
to _DENSE_PRODUCT_MAX_ROWS rows it is one gather of a through the
catalog's product_index, which reads the zero slot wherever a row sum
does not exist, and one BLAS matrix-vector product with b.  Above it,
it is one gather and one scatter-add through the catalog's pairs: every
pair of rows whose degrees sum to at most K, with the row their sum
lands on.  At complex points the constant term is then set to numpy's
scalar a0 * b0, the number F computes on plain values; BLAS's complex
dot and numpy's array multiply round it differently.  At real points
the matrix-vector product gives a0 * b0 exactly, since the rest of row
0 multiplies the zero slot.  A non-finite coefficient spreads further
on the dense path: 0 * inf = NaN reaches every coefficient of the
product, where the pairs reach only the rows that coefficient's pairs
land on.  A scheme step fails on either, since M then holds a
non-finite entry.
Arithmetic propagates exact coefficients, so mixed partials recovered
from a jet are accurate to machine precision.
Analytic functions (cos, sin, exp, and powers other than non-negative
integers, which multiply out) are applied by composing their scalar
Taylor series with the zero-constant part w of the jet, which terminates
at degree K because w is nilpotent under truncation; the series runs by
Horner on w's multiplication matrix, split by size as the product is:
gathered through product_index, or written from the pairs
(matrix_index) above _DENSE_PRODUCT_MAX_ROWS rows.
With no __array_ufunc__, np.cos, np.sin and np.exp reach the methods of
those names through numpy's object loop.  The coefficient dtype follows the
base point: float64 at real points, complex128 otherwise.

Affine path.  A jet may carry a tag q, the index of one variable: its
coefficients are then a constant plus a * x_q (a = c[q + 1]) and zero on
every other row.  Only the seed jets of sysdef.JetOracle are tagged at
construction; adding, subtracting or multiplying by a number and
negating keep the tag, and every other operation drops it.  The tag is
set where the jet is made, never read off the values.  Composing a
series with a tagged jet writes series[m] * a^m straight onto x_q's pure
powers (MultiIndexCatalog.power_rows), with the multiplications in
Horner's order, so cos(w * t) and exp(t + c) skip W and Horner and give
Horner's numbers, bit for bit at real points.  A non-finite constant,
slope or coefficient takes the Horner path, whose NaN and inf follow
numpy's rules.

The series coefficients are computed on Python floats at real points
(math.cos, float ** and division gave numpy's doubles on every one of
10^5 inputs tried, x86-64, numpy 2.4) and on numpy scalars elsewhere:
at complex points, where Python's complex arithmetic rounds
differently, and wherever Python would raise or go complex
(math.cos(inf), a negative base to a fractional power, an overflowing
power).  exp keeps numpy's exp, which differs from math.exp in the
last bit on about 5% of inputs.

The engine of sysdef.JetOracle; not part of the public API.
"""

from __future__ import annotations

import cmath
import math
import numbers

import numpy as np

from .linalg import scatter_add
from .mindex import MultiIndexCatalog

_FLOAT, _COMPLEX = np.dtype(float), np.dtype(complex)

# the largest catalog, in rows S, whose jet products take the dense
# product_index gather; larger ones take the pairs' gather and
# scatter-add.  Dense over pairs per product (one BLAS thread, median of 9
# interleaved rounds): S = 20 0.70, S = 35 0.79-0.88, S = 36 0.73 at 2
# variables but 1.04 at 7, S = 45 1.04-1.05, S = 56 1.04.  The pairs cost
# grows with their count, the dense product with S^2, so the crossover
# moves with the number of variables; 35 is the largest size at which the
# dense product won for every shape measured
_DENSE_PRODUCT_MAX_ROWS = 35


def _keeps_dtype(c: np.ndarray, value) -> bool:
    """Whether np.result_type(c, value) is c's own dtype, decided without numpy."""
    if c.dtype == _FLOAT:
        return isinstance(value, (int, float))
    return c.dtype == _COMPLEX and isinstance(value, (int, float, complex))


def _series_dtype(dtype: np.dtype, series) -> np.dtype:
    """np.result_type(dtype, *series) for series of Python or numpy numbers."""
    if dtype == _COMPLEX:
        return dtype
    if dtype == _FLOAT:
        for s in series:
            if isinstance(s, complex):
                break
        else:
            return dtype
    return np.result_type(dtype, *series)


def _binomial_series(a0, p, K: int) -> list:
    """binom(p, m) * a0^(p - m), m = 0..K: the Taylor series of x^p at a0."""
    series = []
    binom = 1.0
    for m in range(K + 1):
        series.append(binom * a0 ** (p - m))
        binom *= (p - m) / (m + 1)
    return series


def _jet(catalog: MultiIndexCatalog, buf: np.ndarray, tag: int | None = None) -> "Jet":
    """A Jet on buf, S + 1 coefficients whose last is the zero slot, not copied."""
    jet = object.__new__(Jet)
    jet.catalog = catalog
    jet._c = buf
    jet.tag = tag
    return jet


class Jet:
    """Coefficients c of a jet in the order of catalog, truncated at its degree K = catalog.k.

    The jet keeps its S coefficients in a buffer of S + 1 whose last
    entry, the zero slot, is 0.0 at finite values; c is the view
    without it.  tag is None, or the variable q (0-based) of an affine
    jet: c is a constant plus c[q + 1] x_q and zero elsewhere (see the
    module docstring).  Only a seed jet is made with a tag.
    """

    __slots__ = ("catalog", "_c", "tag")

    def __init__(self, catalog: MultiIndexCatalog, c: np.ndarray, tag: int | None = None):
        self.catalog = catalog
        self._c = np.append(c, 0)
        self.tag = tag

    @property
    def c(self) -> np.ndarray:
        return self._c[:-1]

    @classmethod
    def constant(cls, value, catalog: MultiIndexCatalog) -> "Jet":
        c = np.zeros(catalog.size + 1, dtype=np.result_type(value, float))
        c[0] = value
        return _jet(catalog, c)

    @property
    def K(self) -> int:
        return self.catalog.k

    def __add__(self, other) -> "Jet":
        if isinstance(other, Jet):
            return _jet(self.catalog, self._c + other._c)
        c = self._c
        c = c.copy() if _keeps_dtype(c, other) else c.astype(np.result_type(c, other))
        c[0] += other
        return _jet(self.catalog, c, self.tag)

    __radd__ = __add__

    def __neg__(self) -> "Jet":
        return _jet(self.catalog, -self._c, self.tag)

    def __sub__(self, other) -> "Jet":
        if isinstance(other, Jet):
            return _jet(self.catalog, self._c - other._c)
        return self + (-other)

    def __rsub__(self, other) -> "Jet":
        # (-self) + other, with the negation as the one array operation
        c = -self._c
        if not _keeps_dtype(c, other):
            c = c.astype(np.result_type(c, other))
        c[0] += other
        return _jet(self.catalog, c, self.tag)

    def __mul__(self, other) -> "Jet":
        if not isinstance(other, Jet):
            tag = self.tag if isinstance(other, numbers.Number) else None
            return _jet(self.catalog, self._c * other, tag)
        a = self._c
        b = other._c
        if a.size > _DENSE_PRODUCT_MAX_ROWS + 1:
            I, J, target = self.catalog.pairs
            c = scatter_add(target, a[I] * b[J], a.size)
        else:
            c = a[self.catalog.product_index].dot(b)
        if c.dtype is not _FLOAT:
            # numpy's scalar a0 * b0, as F computes it on numbers; BLAS's
            # complex dot and numpy's array multiply round it differently
            c[0] = a[0] * b[0]
        return _jet(self.catalog, c)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Jet":
        if not isinstance(other, Jet):
            return _jet(self.catalog, self._c / other)
        return self * other.power(-1)

    def __rtruediv__(self, other) -> "Jet":
        return other * self.power(-1)

    def __pow__(self, p) -> "Jet":
        if isinstance(p, (int, np.integer)) and p >= 0:
            out = Jet.constant(1.0, self.catalog) if p == 0 else self
            for _ in range(p - 1):
                out = out * self
            return out
        return self.power(p)

    def compose_series(self, series) -> "Jet":
        """Evaluate sum_m series[m] * (self - const)^m, m = 0..K.

        series holds K + 1 Python or numpy numbers.  An affine (tagged)
        jet with finite numbers takes _compose_affine.  Otherwise by
        Horner on W, the truncated multiplication matrix of w = self -
        const (W @ x is the coefficient vector of w * x): K
        matrix-vector products in place of K jet products.  Up to
        _DENSE_PRODUCT_MAX_ROWS rows W is gathered through product_index
        and pads x with the zero slot; above, it is written from
        matrix_index's pairs, S x S, and the result is padded once.
        """
        if self.tag is not None:
            out = self._compose_affine(series)
            if out is not None:
                return out
        c = self._c
        size = c.size
        if size > _DENSE_PRODUCT_MAX_ROWS + 1:
            # S x S from the pairs alone: product_index would hold all
            # (S + 1)^2 entries
            n = size - 1
            I, flat = self.catalog.matrix_index
            W = np.zeros(n * n, dtype=c.dtype)
            W[flat] = c[I]
            W = W.reshape(n, n)
        else:
            n = size
            w = c.copy()
            w[0] = 0
            W = w[self.catalog.product_index]
        out = np.zeros(n, dtype=_series_dtype(W.dtype, series))
        out[0] = series[self.K]
        dot = W.dot
        for m in range(self.K - 1, -1, -1):
            out = dot(out)
            out[0] += series[m]
        if n < size:
            padded = np.zeros(size, dtype=out.dtype)
            padded[:n] = out
            out = padded
        return _jet(self.catalog, out)

    def _compose_affine(self, series) -> "Jet | None":
        """compose_series of constant + a x_q: series[m] a^m on the row of x_q^m.

        Each value is multiplied by a m times, innermost first, as Horner
        on W does, so the numbers are Horner's at real points.  None
        where the constant or a value is not finite (or their sum
        overflows): there Horner's products of zeros and infinities give
        numpy's NaN, which the short path would not.
        """
        q = self.tag
        c = self._c
        # at K = 0 the jet has no degree-1 row and no power of a is taken
        a = c.item(q + 1) if self.K else 0.0
        values = []
        for m, v in enumerate(series):
            for _ in range(m):
                v = a * v
            values.append(v)
        if not cmath.isfinite(c.item(0) + sum(values)):
            return None
        # Horner's dtype: W is gathered from c
        out = np.zeros(c.size, dtype=_series_dtype(c.dtype, series))
        out[self.catalog.power_rows[q]] = values
        return _jet(self.catalog, out)

    def cos(self) -> "Jet":
        a0 = self._c[0]
        K = self.K
        if type(a0) is np.float64 and math.isfinite(a0):
            # math.cos is numpy's cos on finite doubles, without a numpy call per term
            a0 = float(a0)
            series = [math.cos(a0 + m * math.pi / 2) / math.factorial(m) for m in range(K + 1)]
        else:
            series = [np.cos(a0 + m * np.pi / 2) / math.factorial(m) for m in range(K + 1)]
        return self.compose_series(series)

    def sin(self) -> "Jet":
        return (self - np.pi / 2).cos()

    def exp(self) -> "Jet":
        e0 = np.exp(self._c[0])
        if type(e0) is np.float64:
            e0 = float(e0)
        return self.compose_series([e0 / math.factorial(m) for m in range(self.K + 1)])

    def power(self, p: float) -> "Jet":
        """self**p by the binomial series; the constant term must be nonzero."""
        a0 = self._c[0]
        if a0 == 0:
            raise ZeroDivisionError("jet power with zero constant term")
        series = None
        # Python floats where they keep numpy's answer: a real power of a
        # positive base or an integer power, and no overflow
        if type(a0) is np.float64 and (a0 > 0 and isinstance(p, float) or isinstance(p, int)):
            try:
                series = _binomial_series(float(a0), p, self.K)
            except OverflowError:
                pass
        if series is None:
            series = _binomial_series(a0, p, self.K)
        return self.compose_series(series)
