"""Truncated multivariate Taylor arithmetic (forward-mode jets).

A Jet stores the Taylor coefficients of a scalar function of n
variables around a base point, truncated at total degree K, as one 1-D
array in the catalog order of mindex (degree blocks 0..K, lexicographic
on the sorted components inside each block): row i holds the
coefficient of the i-th representative, i.e. d^beta / gamma(beta).

The product of two jets is one gather and one scatter-add through the
pairs of mindex's multiset-sum table for (n, K): every pair of rows
whose degrees sum to at most K, with the row their sum lands on (the
dense-coefficient Taylor arithmetic of Griewank and Walther, Evaluating
Derivatives, ch. 13).  Arithmetic propagates exact coefficients, so
mixed partials recovered from a jet are accurate to machine precision.
Analytic functions (cos, sin, exp, and powers other than non-negative
integers, which multiply out) are applied by composing their scalar
Taylor series with the zero-constant part of the jet, which terminates
at degree K because that part is nilpotent under truncation.  With no
__array_ufunc__, np.cos, np.sin and np.exp reach the methods of those
names through numpy's object loop.  The coefficient dtype follows the
base point: float64 at real points, complex128 otherwise.

The engine of sysdef.JetOracle; not part of the public API.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .linalg import scatter_add
from .mindex import _sum_table


@functools.lru_cache(maxsize=32)
def _pairs(n: int, K: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(I, J, target): every pair of rows whose degrees sum to at most K."""
    sums = _sum_table(n, K)
    I, J = np.nonzero(sums >= 0)
    target = sums[I, J]
    # shared by every jet of this (n, K) through the cache
    for arr in (I, J, target):
        arr.flags.writeable = False
    return I, J, target


def _product(n: int, K: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    I, J, target = _pairs(n, K)
    return scatter_add(target, a[I] * b[J], a.size)


class Jet:
    __slots__ = ("n", "K", "c")

    def __init__(self, n: int, K: int, c: np.ndarray):
        self.n = n
        self.K = K
        self.c = c

    @classmethod
    def constant(cls, value, n: int, K: int) -> "Jet":
        c = np.zeros(_sum_table(n, K).shape[0], dtype=np.result_type(value, float))
        c[0] = value
        return cls(n, K, c)

    def __add__(self, other) -> "Jet":
        if isinstance(other, Jet):
            return Jet(self.n, self.K, self.c + other.c)
        c = self.c.astype(np.result_type(self.c, other))
        c[0] += other
        return Jet(self.n, self.K, c)

    __radd__ = __add__

    def __neg__(self) -> "Jet":
        return Jet(self.n, self.K, -self.c)

    def __sub__(self, other) -> "Jet":
        return self + (-other)

    def __rsub__(self, other) -> "Jet":
        return (-self) + other

    def __mul__(self, other) -> "Jet":
        if not isinstance(other, Jet):
            return Jet(self.n, self.K, self.c * other)
        return Jet(self.n, self.K, _product(self.n, self.K, self.c, other.c))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Jet":
        if not isinstance(other, Jet):
            return Jet(self.n, self.K, self.c / other)
        return self * other.power(-1)

    def __rtruediv__(self, other) -> "Jet":
        return other * self.power(-1)

    def __pow__(self, p) -> "Jet":
        if isinstance(p, (int, np.integer)) and p >= 0:
            out = Jet.constant(1.0, self.n, self.K) if p == 0 else self
            for _ in range(p - 1):
                out = out * self
            return out
        return self.power(p)

    def compose_series(self, series) -> "Jet":
        """Evaluate sum_m series[m] * (self - const)^m, m = 0..K."""
        series = np.asarray(series)
        w = self.c.copy()
        w[0] = 0.0
        out = np.zeros(w.size, dtype=np.result_type(w, series))
        out[0] = series[0]
        wp = w
        for m in range(1, self.K + 1):
            if m > 1:
                wp = _product(self.n, self.K, wp, w)
            out += series[m] * wp
        return Jet(self.n, self.K, out)

    def cos(self) -> "Jet":
        a0 = self.c[0]
        series = [np.cos(a0 + m * np.pi / 2) / math.factorial(m) for m in range(self.K + 1)]
        return self.compose_series(series)

    def sin(self) -> "Jet":
        return (self - np.pi / 2).cos()

    def exp(self) -> "Jet":
        e0 = np.exp(self.c[0])
        return self.compose_series([e0 / math.factorial(m) for m in range(self.K + 1)])

    def power(self, p: float) -> "Jet":
        """self**p by the binomial series; the constant term must be nonzero."""
        a0 = self.c[0]
        if a0 == 0:
            raise ZeroDivisionError("jet power with zero constant term")
        series = []
        binom = 1.0
        for m in range(self.K + 1):
            series.append(binom * a0 ** (p - m))
            binom *= (p - m) / (m + 1)
        return self.compose_series(series)
