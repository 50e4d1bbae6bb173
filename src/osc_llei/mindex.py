"""Multi-index combinatorics for the polynomial extension basis.

A multi-index is a tuple of components in [1, d+1], each naming one
coordinate of the augmented state x = [u_1, ..., u_d, t].  Two
multi-indices are equivalent when one is a permutation of the other;
the sorted tuple is the canonical representative.  The catalog
enumerates one representative per equivalence class for all degrees
0..k and fixes the ordering that every extension matrix and lifted
vector in this package relies on: degree blocks 0, 1, ..., k, with
lexicographic order on the sorted components inside each block (so the
degree-1 block is exactly u_1, ..., u_d, t).

This module is the only one that knows the layout.  The catalog owns
every index table derived from it, each built on first read and kept on
the catalog: the rows of all multiset sums reps[i] + reps[j] (sums, its
pairs within degree k, and the jets' multiplication matrices: padded,
as a gather, product_index, or from the pairs alone, matrix_index),
each representative with one component dropped (drops), the exponent
vectors, the float gamma weights, the block offsets, the rows of each
variable's pure powers (power_rows) and the coefficients of the
variables themselves (seeds).  Jets read product_index in small
catalogs only and the pairs in large ones; the extension plan, build_S
and lift land each chi + beta on sums.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

MultiIndex = tuple[int, ...]

# the largest catalog enumerated, in rows D: it keeps the D x D
# table of sums of intp entries at or below 128 MiB, and still allows
# k <= 27 at d = 2, k <= 15 at d = 3 and k <= 10 at d = 4
MAX_CATALOG_SIZE = 4096


def representative(alpha) -> MultiIndex:
    """Canonical (sorted) representative of alpha's equivalence class."""
    out = []
    for c in alpha:
        try:
            c = operator.index(c)
        except TypeError:
            raise ValueError(f"multi-index component not an integer: {c!r}") from None
        if c < 1:
            raise ValueError(f"multi-index component out of range: {c!r}")
        out.append(c)
    return tuple(sorted(out))


def gamma(alpha) -> int:
    """Product of factorials of the per-value multiplicities of alpha.

    This is the combinatorial weight that turns a sum over sorted
    representatives into the classical Taylor coefficients: for the
    exponent vector e of alpha, gamma(alpha) = prod_q e_q!.
    """
    return math.prod(math.factorial(m) for m in Counter(alpha).values())


def remove_component(alpha, l: int) -> MultiIndex:
    """Drop the l-th component (1-based) of alpha, keeping the rest in order."""
    alpha = tuple(alpha)
    if not 1 <= l <= len(alpha):
        raise ValueError(f"component position {l} out of range for |alpha|={len(alpha)}")
    return alpha[: l - 1] + alpha[l:]


@dataclass(frozen=True)
class MultiIndexCatalog:
    """Ordered representatives of all multisets over {1..d+1} of size <= k.

    gammas[i] is gamma(representatives[i]).  The fields are immutable.
    The index tables below are derived from them on first read and cached
    on the instance; each is a read-only array or a tuple, and the frozen
    instance refuses to rebind or delete them.  _catalog shares one
    catalog per (d+1, k), so each table is built once per pair; two
    threads racing on a first read at worst build it twice, alike.
    """

    d_plus_1: int
    k: int
    representatives: tuple[MultiIndex, ...]
    block_dims: tuple[int, ...]
    gammas: tuple[int, ...]
    _pos: dict[MultiIndex, int] = field(repr=False)

    @functools.cached_property
    def size(self) -> int:
        return len(self.representatives)

    def position(self, alpha) -> int:
        """0-based catalog index of alpha's representative.

        Accepts unsorted input; raises ValueError for indices outside the
        catalog (bad component or degree > k).
        """
        key = tuple(sorted(alpha))
        try:
            return self._pos[key]
        except KeyError:
            raise ValueError(
                f"multi-index {tuple(alpha)} not in catalog (d+1={self.d_plus_1}, k={self.k})"
            ) from None

    @functools.cached_property
    def n_upto(self) -> np.ndarray:
        """n_upto[m] = number of representatives of degree <= m, m = 0..k."""
        return _read_only(np.cumsum(self.block_dims))

    @functools.cached_property
    def sums(self) -> np.ndarray:
        """sums[i, j] = row of reps[i] + reps[j], or -1 where the degrees add past k."""
        reps = self.representatives
        sums = np.full((self.size, self.size), -1, dtype=np.intp)
        for i, a in enumerate(reps):
            fits = reps[: self.n_upto[self.k - len(a)]]
            sums[i, : len(fits)] = [self._pos[tuple(sorted(a + b))] for b in fits]
        return _read_only(sums)

    @functools.cached_property
    def pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(I, J, target): every pair of rows whose degrees sum to at most k,
        with target = sums[I, J]."""
        I, J = np.nonzero(self.sums >= 0)
        return _read_only(I), _read_only(J), _read_only(self.sums[I, J])

    @functools.cached_property
    def product_index(self) -> np.ndarray:
        """product_index[t, j] = the row i with reps[i] + reps[j] = reps[t], or S = size.

        (S + 1) x (S + 1): with a and b padded by a zero at S,
        a[product_index] is the multiplication matrix of a, so
        a[product_index] @ b is the product a * b, truncated at k and
        again padded by a zero (row S and column S gather only a[S])."""
        I, J, target = self.pairs
        S = self.size
        index = np.full((S + 1, S + 1), S, dtype=np.intp)
        index[target, J] = I
        return _read_only(index)

    @functools.cached_property
    def matrix_index(self) -> tuple[np.ndarray, np.ndarray]:
        """(I, flat) of the pairs with I >= 1: a[I] lands at flat = target * D + J
        of the D x D multiplication matrix of a's zero-constant part."""
        I, J, target = self.pairs
        keep = I > 0
        return _read_only(I[keep]), _read_only(target[keep] * self.size + J[keep])

    @functools.cached_property
    def drops(self) -> tuple[tuple[int, ...], ...]:
        """drops[row][l - 1] = row of reps[row] with its l-th component removed."""
        return tuple(
            tuple(self._pos[remove_component(alpha, l)] for l in range(1, len(alpha) + 1))
            for alpha in self.representatives
        )

    @functools.cached_property
    def exponents(self) -> np.ndarray:
        """exponents[i, q] = multiplicity of q + 1 in reps[i]."""
        n = self.d_plus_1
        exps = [[alpha.count(q) for q in range(1, n + 1)] for alpha in self.representatives]
        return _read_only(np.array(exps, dtype=np.intp))

    @functools.cached_property
    def power_rows(self) -> np.ndarray:
        """power_rows[q, m] = row of (q + 1,) * m, the pure power x_{q+1}^m, m = 0..k."""
        variables = range(1, self.d_plus_1 + 1)
        rows = [[self._pos[(q,) * m] for m in range(self.k + 1)] for q in variables]
        return _read_only(np.array(rows, dtype=np.intp))

    @functools.cached_property
    def seeds(self) -> np.ndarray:
        """seeds[q] = the coefficients of x_{q+1} at 0: one 1 on its degree-1 row q + 1,
        padded by the jets' zero slot at size (so at k = 0, with no degree-1 row, all zero)."""
        seeds = np.zeros((self.d_plus_1, self.size + 1))
        seeds[:, :-1] = np.eye(self.d_plus_1, self.size, 1)
        return _read_only(seeds)

    @functools.cached_property
    def float_gammas(self) -> np.ndarray:
        """gammas as float64."""
        return _read_only(np.array(self.gammas, dtype=float))


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def build_catalog(d_plus_1: int, k: int) -> MultiIndexCatalog:
    """Enumerate the extension basis layout for d+1 symbols up to degree k.

    The first entry is the empty index (the constant 1); entries
    1..d+1 (0-based) are the degree-1 indices in coordinate order.
    """
    if d_plus_1 < 2:
        raise ValueError(f"d_plus_1 must be >= 2, got {d_plus_1}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return _catalog(d_plus_1, k)


@functools.lru_cache(maxsize=32)
def _catalog(n: int, k: int) -> MultiIndexCatalog:
    """The catalog over n >= 1 symbols up to degree k >= 0, unvalidated, cached.

    Also serves the jets and DerivativeOracle.partial, whose n = 1 and
    k = 0 cases build_catalog rejects as extension layouts.  Raises
    ValueError, before enumerating, above MAX_CATALOG_SIZE rows.
    """
    size = math.comb(n + k, k)
    if size > MAX_CATALOG_SIZE:
        raise ValueError(
            f"catalog for {n} variables at degree {k} has {size} rows, "
            f"above the limit of {MAX_CATALOG_SIZE}"
        )
    reps: list[MultiIndex] = []
    dims: list[int] = []
    for j in range(k + 1):
        # combinations_with_replacement yields sorted tuples in
        # lexicographic order, exactly the prescribed block layout
        block = list(itertools.combinations_with_replacement(range(1, n + 1), j))
        reps.extend(block)
        dims.append(len(block))
    return MultiIndexCatalog(
        d_plus_1=n,
        k=k,
        representatives=tuple(reps),
        block_dims=tuple(dims),
        gammas=tuple(gamma(alpha) for alpha in reps),
        _pos={alpha: i for i, alpha in enumerate(reps)},
    )
