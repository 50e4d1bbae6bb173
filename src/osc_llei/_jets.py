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

The engine of sysdef.JetOracle; not part of the public API.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import scatter_add
from .mindex import MultiIndexCatalog


class Jet:
    """Coefficients c of a jet in the order of catalog, truncated at its degree K = catalog.k."""

    __slots__ = ("catalog", "c")

    def __init__(self, catalog: MultiIndexCatalog, c: np.ndarray):
        self.catalog = catalog
        self.c = c

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
        c = self.c.astype(np.result_type(self.c, other))
        c[0] += other
        return Jet(self.catalog, c)

    __radd__ = __add__

    def __neg__(self) -> "Jet":
        return Jet(self.catalog, -self.c)

    def __sub__(self, other) -> "Jet":
        return self + (-other)

    def __rsub__(self, other) -> "Jet":
        return (-self) + other

    def __mul__(self, other) -> "Jet":
        if not isinstance(other, Jet):
            return Jet(self.catalog, self.c * other)
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

        By Horner on W, the truncated multiplication matrix of
        w = self - const (W @ x is the coefficient vector of w * x):
        K matrix-vector products in place of K jet products.
        """
        series = np.asarray(series)
        S = self.c.size
        I, flat = self.catalog.matrix_index
        W = scatter_add(flat, self.c[I], S * S).reshape(S, S)
        out = np.zeros(S, dtype=np.result_type(W, series))
        out[0] = series[self.K]
        for m in range(self.K - 1, -1, -1):
            out = W @ out
            out[0] += series[m]
        return Jet(self.catalog, out)

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
