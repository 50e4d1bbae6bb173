"""Truncated multivariate Taylor arithmetic (forward-mode jets).

A Jet stores the Taylor coefficients of a scalar function of n
variables around a base point, truncated at total degree K, as one 1-D
array over the exponent vectors of total degree <= K.  The rows follow
the catalog order of mindex.build_catalog(n, K): degree blocks 0..K,
lexicographic on the sorted components inside each block, so row i
holds the coefficient of the i-th catalog representative.

The product of two jets is one gather and one scatter-add through an
(I, J, target) table listing every pair of rows whose degrees sum to
at most K, compiled once per (n, K) on first use (the dense-coefficient
Taylor arithmetic of Griewank and Walther, Evaluating Derivatives,
ch. 13).  Arithmetic propagates exact coefficients, so mixed partials
recovered from a jet are accurate to machine precision.  Analytic
functions are applied by composing their scalar Taylor series with the
zero-constant part of the jet, which terminates at degree K because
that part is nilpotent under truncation.  The coefficient dtype follows
the base point: float64 at real points, complex128 otherwise.

Internal helper for derivative oracles; not part of the public API.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import scatter_add


@dataclass(frozen=True, eq=False)
class _Layout:
    """Row order, exponent lookup and product table of the (n, K) jets."""

    index: dict[tuple[int, ...], int]
    I: np.ndarray
    J: np.ndarray
    target: np.ndarray

    @property
    def size(self) -> int:
        return len(self.index)


@functools.lru_cache(maxsize=32)
def _layout(n: int, K: int) -> _Layout:
    exps = []
    for j in range(K + 1):
        for comps in itertools.combinations_with_replacement(range(n), j):
            exps.append(tuple(comps.count(q) for q in range(n)))
    index = {e: i for i, e in enumerate(exps)}
    pairs = [
        (i, j, index[tuple(a + b for a, b in zip(e1, e2))])
        for i, e1 in enumerate(exps)
        for j, e2 in enumerate(exps)
        if sum(e1) + sum(e2) <= K
    ]
    I, J, target = (np.array(col, dtype=np.intp) for col in zip(*pairs))
    # shared by every jet of this (n, K) through the cache
    for arr in (I, J, target):
        arr.flags.writeable = False
    return _Layout(index, I, J, target)


def _product(lay: _Layout, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return scatter_add(lay.target, a[lay.I] * b[lay.J], lay.size)


class Jet:
    # numpy scalars defer to Jet's reflected operators
    __array_ufunc__ = None
    __slots__ = ("n", "K", "c")

    def __init__(self, n: int, K: int, c: np.ndarray):
        self.n = n
        self.K = K
        self.c = c

    @property
    def _layout(self) -> _Layout:
        return _layout(self.n, self.K)

    @classmethod
    def constant(cls, value, n: int, K: int) -> "Jet":
        c = np.zeros(_layout(n, K).size, dtype=np.result_type(value, float))
        c[0] = value
        return cls(n, K, c)

    @classmethod
    def variable(cls, i: int, value, n: int, K: int) -> "Jet":
        out = cls.constant(value, n, K)
        if K > 0:
            out.c[1 + i] = 1.0
        return out

    def coeff(self, e: tuple[int, ...]):
        row = self._layout.index.get(tuple(e))
        return self.c[row] if row is not None else 0.0

    def partial(self, e: tuple[int, ...]):
        """Mixed partial with exponent vector e: coefficient times prod e_q!."""
        return self.coeff(e) * math.prod(math.factorial(q) for q in e)

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
        return Jet(self.n, self.K, _product(self._layout, self.c, other.c))

    __rmul__ = __mul__

    def compose_series(self, series) -> "Jet":
        """Evaluate sum_m series[m] * (self - const)^m, m = 0..K."""
        lay = self._layout
        w = self.c.copy()
        w[0] = 0.0
        out = np.zeros(lay.size, dtype=np.result_type(w, *series))
        out[0] = series[0]
        wp = w
        for m in range(1, self.K + 1):
            if m > 1:
                wp = _product(lay, wp, w)
            out += series[m] * wp
        return Jet(self.n, self.K, out)

    def cos(self) -> "Jet":
        a0 = self.c[0]
        series = [np.cos(a0 + m * np.pi / 2) / math.factorial(m) for m in range(self.K + 1)]
        return self.compose_series(series)

    def sin(self) -> "Jet":
        a0 = self.c[0]
        series = [np.sin(a0 + m * np.pi / 2) / math.factorial(m) for m in range(self.K + 1)]
        return self.compose_series(series)

    def power(self, p: float) -> "Jet":
        """self**p for non-integer p; the constant term must be nonzero."""
        a0 = self.c[0]
        if a0 == 0:
            raise ZeroDivisionError("jet power with zero constant term")
        series = []
        binom = 1.0
        for m in range(self.K + 1):
            series.append(binom * a0 ** (p - m))
            binom *= (p - m) / (m + 1)
        return self.compose_series(series)
