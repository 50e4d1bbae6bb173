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
those names through numpy's object loop, once per recording (see Tape
below).  The coefficient dtype follows the base point: float64 at real
points, complex128 otherwise.

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

Tape.  Every Jet operation is one call to a kernel, a module function
on padded coefficient buffers that returns a new buffer.  sysdef.JetOracle
runs F once per catalog and working dtype on taped jets, which append
each call to a Tape as (kernel, operand slots, constants).  The tape is
then compiled, once, into one straight-line Python function, its
replay: a line per entry, the same kernels in the same order on each new
point's buffers, without F, Jet objects, numpy's object loop or an
interpreter loop over the entries, so the coefficients are the live
ones bit for bit (the operator-overloading tape of ADOL-C; Griewank and
Walther, ch. 13).  The kernels and F's constants reach the function
through its namespace, never through its source text.  A tape is valid
because a Jet has no ordering, truth value or float conversion: F can
branch on a value only by reading Jet.c, which it must not do, so the
operations depend only on the catalog, the dtype and F's constants.
Recording fixes the tags, the dense-or-pairs path for the catalog's
size, each slot's dtype and which outputs are plain numbers, and the
replay is written for them (Tape._compile): a float64 product on the
dense path is its gather and dot inline, each slot's gather made once,
and a series on an untagged jet calls its series constants and Horner
in the slot's dtype.  The kernels decide again at every replay what depends on the
values: the affine path's fallback at non-finite values, the series
constants of cos, exp and powers from the operand's constant term (on
Python or numpy numbers), the complex product's constant term and the
ZeroDivisionError of a power at a zero constant term.  No buffer is
reused across replays, so a result never aliases a later one.

The engine of sysdef.JetOracle; not part of the public API.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers

import numpy as np

from .linalg import _COMPLEX, _FLOAT, scatter_add
from .mindex import MultiIndexCatalog

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
    dtype = c.dtype
    if dtype is _FLOAT:
        return isinstance(value, (int, float))
    return dtype is _COMPLEX and isinstance(value, (int, float, complex))


def _series_dtype(dtype: np.dtype, series) -> np.dtype:
    """np.result_type(dtype, *series) for series of Python or numpy numbers."""
    if dtype is _COMPLEX:
        return dtype
    if dtype is _FLOAT:
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


# The kernels: every operation on padded coefficient buffers, the one
# arithmetic that Jet's operators run and a Tape replays.  A kernel takes
# its operands' buffers first, then the constants its Jet operator fixed
# (numbers, and the catalog's tables for its size's path), and returns a
# new buffer; it never writes to an operand.


def _constant(size: int, value) -> np.ndarray:
    c = np.zeros(size, dtype=np.result_type(value, float))
    c[0] = value
    return c


def _add_number(c: np.ndarray, value) -> np.ndarray:
    c = c.copy() if _keeps_dtype(c, value) else c.astype(np.result_type(c, value))
    c[0] += value
    return c


def _subtract_from(c: np.ndarray, value) -> np.ndarray:
    """value - c, with the negation as the one array operation."""
    c = -c
    if not _keeps_dtype(c, value):
        c = c.astype(np.result_type(c, value))
    c[0] += value
    return c


def _product_dense(a: np.ndarray, b: np.ndarray, product_index: np.ndarray) -> np.ndarray:
    c = a[product_index].dot(b)
    if c.dtype is not _FLOAT:
        # numpy's scalar a0 * b0, as F computes it on numbers; BLAS's
        # complex dot and numpy's array multiply round it differently
        c[0] = a[0] * b[0]
    return c


def _product_pairs(a: np.ndarray, b: np.ndarray, pairs: tuple) -> np.ndarray:
    I, J, target = pairs
    c = scatter_add(target, a[I] * b[J], a.size)
    if c.dtype is not _FLOAT:
        c[0] = a[0] * b[0]
    return c


def _horner(W: np.ndarray, series, dtype: np.dtype, out: np.ndarray | None = None) -> np.ndarray:
    """sum_m series[m] w^m in dtype for W, w's multiplication matrix: K
    matrix-vector products in place of K jet products.  The last product
    is written into out, len(W) entries of dtype, when it is given."""
    K = len(series) - 1
    x = np.zeros(len(W), dtype)
    x[0] = series[K]
    dot = W.dot
    for m in range(K - 1, -1, -1):
        x = dot(x, None if m else out)
        x[0] += series[m]
    return x


def _horner_dense(c: np.ndarray, series, product_index: np.ndarray, dtype: np.dtype) -> np.ndarray:
    w = c.copy()
    w[0] = 0
    return _horner(w[product_index], series, dtype)


def _horner_pairs(c: np.ndarray, series, matrix_index: tuple, dtype: np.dtype) -> np.ndarray:
    # S x S from the pairs alone: product_index would hold all (S + 1)^2
    # entries.  The last product lands in the padded result, with the same
    # numbers as a copy of it (a pairs catalog has K >= 1, so there is one)
    n = c.size - 1
    I, flat = matrix_index
    W = np.zeros(n * n, dtype=c.dtype)
    W[flat] = c[I]
    padded = np.zeros(c.size, dtype)
    _horner(W.reshape(n, n), series, dtype, padded[:n])
    return padded


def _compose_affine(c: np.ndarray, series, rows: np.ndarray, dtype: np.dtype) -> np.ndarray | None:
    """The composition for c = constant + a x_q, in dtype: series[m] a^m on
    rows[m], the row of x_q^m.

    Each value is multiplied by a m times, innermost first, as Horner
    on W does, so the numbers are Horner's at real points.  None
    where the constant or a value is not finite (or their sum
    overflows): there Horner's products of zeros and infinities give
    numpy's NaN, which the short path would not.
    """
    # at K = 0 the jet has no degree-1 row and no power of a is taken
    a = c.item(rows[1]) if len(rows) > 1 else 0.0
    values = []
    for m, v in enumerate(series):
        for _ in range(m):
            v = a * v
        values.append(v)
    if not cmath.isfinite(c.item(0) + sum(values)):
        return None
    out = np.zeros(c.size, dtype)
    out[rows] = values
    return out


def _analytic(c: np.ndarray, series_at, params: tuple, rows, horner, table):
    """sum_m series[m] (c - c0)^m, series = series_at(c0, *params): the
    affine path if rows (the tagged variable's power rows) is given and it
    returns, else horner on table."""
    series = series_at(c[0], *params)
    # Horner's dtype (W is gathered from c), and so the affine path's
    dtype = _series_dtype(c.dtype, series)
    if rows is not None:
        out = _compose_affine(c, series, rows, dtype)
        if out is not None:
            return out
    return horner(c, series, table, dtype)


def _given(a0, series) -> list:
    return series


@functools.lru_cache(maxsize=32)
def _series_terms(K: int) -> tuple[tuple, tuple]:
    """(m pi / 2, m!) for m = 0..K: what the series of cos and exp take from K."""
    return tuple(m * math.pi / 2 for m in range(K + 1)), tuple(map(math.factorial, range(K + 1)))


def _cos_series(a0, turns: tuple, factorials: tuple) -> list:
    if type(a0) is np.float64 and math.isfinite(a0):
        # math.cos is numpy's cos on finite doubles, without a numpy call per term
        a0 = float(a0)
        return [math.cos(a0 + h) / f for h, f in zip(turns, factorials)]
    return [np.cos(a0 + h) / f for h, f in zip(turns, factorials)]


def _exp_series(a0, turns: tuple, factorials: tuple) -> list:
    e0 = np.exp(a0)
    if type(e0) is np.float64:
        e0 = float(e0)
    return [e0 / f for f in factorials]


def _power_series(a0, p, K: int) -> list:
    if a0 == 0:
        raise ZeroDivisionError("jet power with zero constant term")
    # Python floats where they keep numpy's answer: a real power of a
    # positive base or an integer power, and no overflow
    if type(a0) is np.float64 and (a0 > 0 and isinstance(p, float) or isinstance(p, int)):
        try:
            return _binomial_series(float(a0), p, K)
        except OverflowError:
            pass
    return _binomial_series(a0, p, K)


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
    module docstring).  Only a seed jet is made with a tag.  Each
    operation is one kernel call, through _apply.
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
        return _jet(catalog, _constant(catalog.size + 1, value))

    @property
    def K(self) -> int:
        return self.catalog.k

    def _apply(self, kernel, operands: tuple, args: tuple, tag: int | None = None) -> "Jet":
        """The jet on kernel(*operands' buffers, *args), tagged with tag."""
        return _jet(self.catalog, kernel(*[x._c for x in operands], *args), tag)

    def __add__(self, other) -> "Jet":
        if isinstance(other, Jet):
            return self._apply(np.add, (self, other), ())
        return self._apply(_add_number, (self,), (other,), self.tag)

    __radd__ = __add__

    def __neg__(self) -> "Jet":
        return self._apply(np.negative, (self,), (), self.tag)

    def __sub__(self, other) -> "Jet":
        if isinstance(other, Jet):
            return self._apply(np.subtract, (self, other), ())
        return self + (-other)

    def __rsub__(self, other) -> "Jet":
        return self._apply(_subtract_from, (self,), (other,), self.tag)

    def __mul__(self, other) -> "Jet":
        if not isinstance(other, Jet):
            tag = self.tag if isinstance(other, numbers.Number) else None
            return self._apply(np.multiply, (self,), (other,), tag)
        catalog = self.catalog
        if catalog.size > _DENSE_PRODUCT_MAX_ROWS:
            return self._apply(_product_pairs, (self, other), (catalog.pairs,))
        return self._apply(_product_dense, (self, other), (catalog.product_index,))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Jet":
        if not isinstance(other, Jet):
            return self._apply(np.true_divide, (self,), (other,))
        return self * other.power(-1)

    def __rtruediv__(self, other) -> "Jet":
        return other * self.power(-1)

    def __pow__(self, p) -> "Jet":
        if isinstance(p, (int, np.integer)) and p >= 0:
            if p == 0:
                return self._apply(_constant, (), (self._c.size, 1.0))
            out = self
            for _ in range(p - 1):
                out = out * self
            return out
        return self.power(p)

    def compose_series(self, series) -> "Jet":
        """Evaluate sum_m series[m] * (self - const)^m, m = 0..K.

        series holds K + 1 Python or numpy numbers.  An affine (tagged)
        jet with finite numbers takes _compose_affine.  Otherwise by
        Horner on W, the truncated multiplication matrix of w = self -
        const (W @ x is the coefficient vector of w * x).  Up to
        _DENSE_PRODUCT_MAX_ROWS rows W is gathered through product_index
        and pads x with the zero slot; above, it is written from
        matrix_index's pairs, S x S, and the result is padded once.
        """
        return self._series(_given, series)

    def _series(self, series_at, *params) -> "Jet":
        catalog = self.catalog
        rows = None if self.tag is None else catalog.power_rows[self.tag]
        if catalog.size > _DENSE_PRODUCT_MAX_ROWS:
            horner, table = _horner_pairs, catalog.matrix_index
        else:
            horner, table = _horner_dense, catalog.product_index
        return self._apply(_analytic, (self,), (series_at, params, rows, horner, table))

    def cos(self) -> "Jet":
        return self._series(_cos_series, *_series_terms(self.K))

    def sin(self) -> "Jet":
        return (self - np.pi / 2).cos()

    def exp(self) -> "Jet":
        return self._series(_exp_series, *_series_terms(self.K))

    def power(self, p: float) -> "Jet":
        """self**p by the binomial series; the constant term must be nonzero."""
        return self._series(_power_series, p, self.K)


class _TapedJet(Jet):
    """A Jet of a recording pass: each operation also appends its kernel call to tape."""

    __slots__ = ("tape", "slot")

    def _apply(self, kernel, operands, args, tag=None):
        tape = self.tape
        slots = tuple(map(tape.slot, operands))
        slot = tape.n_seeds + len(tape.entries)
        jet = tape.jet(kernel(*[x._c for x in operands], *args), tag, slot)
        tape.entries.append((kernel, slots, args))
        return jet


class Tape:
    """F's operations on one catalog and dtype, recorded once and replayed after.

    entries holds (kernel, operand slots, constants) in the order F ran
    them, and dtypes each slot's dtype.  Slots 0..n_seeds - 1 are the
    seed jets, and entry i writes slot n_seeds + i.  outputs are the
    slots F returned; a plain number among them is a _constant entry.
    replay is the tape compiled into one function of the seeds (see
    _compile), and source its text.
    """

    __slots__ = ("catalog", "n_seeds", "entries", "dtypes", "outputs", "replay", "source")

    def __init__(self, catalog: MultiIndexCatalog, n_seeds: int):
        self.catalog = catalog
        self.n_seeds = n_seeds
        self.entries: list = []
        self.dtypes: list = []

    def jet(self, buf: np.ndarray, tag: int | None, slot: int) -> _TapedJet:
        jet = object.__new__(_TapedJet)
        jet.catalog, jet._c, jet.tag, jet.tape, jet.slot = self.catalog, buf, tag, self, slot
        self.dtypes.append(buf.dtype)
        return jet

    def slot(self, x) -> int:
        if isinstance(x, _TapedJet) and x.tape is self:
            return x.slot
        raise TypeError("F combined its arguments with a jet not computed from them")

    @classmethod
    def record(cls, F, catalog: MultiIndexCatalog, seeds: np.ndarray) -> tuple["Tape", np.ndarray]:
        """(tape, F's Taylor coefficients, S x outputs): F called once on the
        rows of seeds as jets, each tagged with its row q, as F(state, t)
        with t the last row; the tape comes back compiled."""
        tape = cls(catalog, len(seeds))
        *u, t = (tape.jet(c, q, q) for q, c in enumerate(seeds))
        state = np.empty(len(u), dtype=object)
        state[:] = u
        outputs = [
            f if isinstance(f, Jet) else t._apply(_constant, (), (catalog.size + 1, f))
            for f in F(state, t)
        ]
        tape.outputs = [tape.slot(f) for f in outputs]
        tape._compile()
        return tape, _coefficients([f._c for f in outputs])

    def _compile(self) -> None:
        """Set replay to the entries written out as one straight-line function.

        replay(seeds) gives F's Taylor coefficients at the point in
        seeds: each entry's kernel called again, in order, on this
        point's buffers.  The source names only slots (v0, v1, ...),
        gathered multiplication matrices (m0, ...) and namespace entries
        (k1, k2, ...): every kernel, table and constant reaches the
        function through its namespace, as dataclasses and namedtuple
        build their methods, so nothing of F or of a point is formatted
        into it.  What the recording fixed for every point is written
        out.  A dense product into a float64 slot is _product_dense's
        gather and dot, which skip the complex constant-term fix-up
        there, and each slot's gather is made once for all its products.
        A series on an untagged jet, which has no affine path to try,
        calls its series constants and Horner directly, in the slot's
        recorded dtype (_analytic's _series_dtype).  Every decision on
        the values stays in the kernels.
        """
        namespace = {"_coefficients": _coefficients}

        def name(value) -> str:
            key = f"k{len(namespace)}"
            namespace[key] = value
            return key

        slots = [f"v{i}" for i in range(self.n_seeds + len(self.entries))]
        # a row each: indexing is cheaper than unpacking the array
        lines = ["def replay(seeds):"] + [f"    {slots[q]} = seeds[{q}]" for q in range(self.n_seeds)]
        gathered = set()
        for i, (kernel, operands, args) in enumerate(self.entries, self.n_seeds):
            x = [slots[j] for j in operands]
            if kernel is _product_dense and self.dtypes[i] is _FLOAT:
                a = operands[0]
                if a not in gathered:
                    gathered.add(a)
                    lines.append(f"    m{a} = {x[0]}[{name(args[0])}]")
                call = f"m{a}.dot({x[1]})"
            elif kernel is _analytic and args[2] is None:
                series_at, params, _, horner, table = args
                series = f"{name(series_at)}({', '.join([f'{x[0]}[0]', *map(name, params)])})"
                call = f"{name(horner)}({x[0]}, {series}, {name(table)}, {name(self.dtypes[i])})"
            else:
                call = f"{name(kernel)}({', '.join(x + [name(arg) for arg in args])})"
            lines.append(f"    {slots[i]} = {call}")
        lines.append(f"    return _coefficients([{', '.join(slots[i] for i in self.outputs)}])")
        self.source = "\n".join(lines) + "\n"
        exec(self.source, namespace)
        self.replay = namespace["replay"]


def _coefficients(buffers: list) -> np.ndarray:
    """The S x outputs array of buffers without their zero slots, in a new array."""
    return np.array(buffers).T[:-1]
