"""Truncated multivariate Taylor arithmetic (forward-mode jets).

A Jet stores the Taylor coefficients of a scalar function of n
variables around a base point, truncated at total degree K, as one 1-D
array in the order of its catalog, mindex's catalog over n symbols up
to degree K (degree blocks 0..K, lexicographic on the sorted components
inside each block): row i holds the coefficient of the i-th
representative, i.e. d^beta / gamma(beta).

The product of two jets is one gather and one scatter-add through the
catalog's pairs: every pair of rows whose degrees sum to at most K,
with the row their sum lands on (the dense-coefficient Taylor
arithmetic of Griewank and Walther, Evaluating Derivatives, ch. 13).
Arithmetic propagates exact coefficients, so mixed partials recovered
from a jet are accurate to machine precision.
Analytic functions (cos, sin, exp, and powers other than non-negative
integers, which multiply out) are applied by composing their scalar
Taylor series with the zero-constant part w of the jet, which terminates
at degree K because w is nilpotent under truncation; the series runs by
Horner on w's multiplication matrix, scattered through the same pairs.
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


class Jet:
    """Coefficients c of a jet in the order of catalog, truncated at its degree K = catalog.k.

    tag is None, or the variable q (0-based) of an affine jet: c is a
    constant plus c[q + 1] x_q and zero elsewhere (see the module
    docstring).  Only a seed jet is made with a tag.
    """

    __slots__ = ("catalog", "c", "tag")

    def __init__(self, catalog: MultiIndexCatalog, c: np.ndarray, tag: int | None = None):
        self.catalog = catalog
        self.c = c
        self.tag = tag

    @classmethod
    def constant(cls, value, catalog: MultiIndexCatalog) -> "Jet":
        c = np.zeros(catalog.size, dtype=np.result_type(value, float))
        c[0] = value
        return cls(catalog, c)

    @property
    def K(self) -> int:
        return self.catalog.k

    def __add__(self, other) -> "Jet":
        if isinstance(other, Jet):
            return Jet(self.catalog, self.c + other.c)
        c = self.c
        c = c.copy() if _keeps_dtype(c, other) else c.astype(np.result_type(c, other))
        c[0] += other
        return Jet(self.catalog, c, self.tag)

    __radd__ = __add__

    def __neg__(self) -> "Jet":
        return Jet(self.catalog, -self.c, self.tag)

    def __sub__(self, other) -> "Jet":
        if isinstance(other, Jet):
            return Jet(self.catalog, self.c - other.c)
        return self + (-other)

    def __rsub__(self, other) -> "Jet":
        # (-self) + other, with the negation as the one array operation
        c = -self.c
        if not _keeps_dtype(c, other):
            c = c.astype(np.result_type(c, other))
        c[0] += other
        return Jet(self.catalog, c, self.tag)

    def __mul__(self, other) -> "Jet":
        if not isinstance(other, Jet):
            tag = self.tag if isinstance(other, numbers.Number) else None
            return Jet(self.catalog, self.c * other, tag)
        I, J, target = self.catalog.pairs
        return Jet(self.catalog, scatter_add(target, self.c[I] * other.c[J], self.c.size))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Jet":
        if not isinstance(other, Jet):
            return Jet(self.catalog, self.c / other)
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
        matrix-vector products in place of K jet products.
        """
        if self.tag is not None:
            out = self._compose_affine(series)
            if out is not None:
                return out
        S = self.c.size
        I, flat = self.catalog.matrix_index
        W = scatter_add(flat, self.c[I], S * S).reshape(S, S)
        out = np.zeros(S, dtype=_series_dtype(W.dtype, series))
        out[0] = series[self.K]
        dot = W.dot
        for m in range(self.K - 1, -1, -1):
            out = dot(out)
            out[0] += series[m]
        return Jet(self.catalog, out)

    def _compose_affine(self, series) -> "Jet | None":
        """compose_series of constant + a x_q: series[m] a^m on the row of x_q^m.

        Each value is multiplied by a m times, innermost first, as Horner
        on W does, so the numbers are Horner's at real points.  None
        where the constant or a value is not finite (or their sum
        overflows): there Horner's products of zeros and infinities give
        numpy's NaN, which the short path would not.
        """
        q = self.tag
        # at K = 0 the jet has no degree-1 row and no power of a is taken
        a = self.c.item(q + 1) if self.K else 0.0
        values = []
        for m, v in enumerate(series):
            for _ in range(m):
                v = a * v
            values.append(v)
        if not cmath.isfinite(self.c.item(0) + sum(values)):
            return None
        # Horner's dtype: W, from scatter_add, is float64 unless c is complex
        w_dtype = self.c.dtype if self.c.dtype.kind == "c" else _FLOAT
        out = np.zeros(self.c.size, dtype=_series_dtype(w_dtype, series))
        out[self.catalog.power_rows[q]] = values
        return Jet(self.catalog, out)

    def cos(self) -> "Jet":
        a0 = self.c[0]
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
        e0 = np.exp(self.c[0])
        if type(e0) is np.float64:
            e0 = float(e0)
        return self.compose_series([e0 / math.factorial(m) for m in range(self.K + 1)])

    def power(self, p: float) -> "Jet":
        """self**p by the binomial series; the constant term must be nonzero."""
        a0 = self.c[0]
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
