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

    gammas[i] is gamma(representatives[i]).  Immutable after
    construction; safe to share across threads.
    """

    d_plus_1: int
    k: int
    representatives: tuple[MultiIndex, ...]
    block_dims: tuple[int, ...]
    gammas: tuple[int, ...]
    _pos: dict[MultiIndex, int] = field(repr=False)

    @property
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

    def degree_range(self, j: int) -> range:
        """Row/column index range of the degree-j block."""
        if not 0 <= j <= self.k:
            raise ValueError(f"degree {j} outside 0..{self.k}")
        start = sum(self.block_dims[:j])
        return range(start, start + self.block_dims[j])


def build_catalog(d_plus_1: int, k: int) -> MultiIndexCatalog:
    """Enumerate the extension basis layout for d+1 symbols up to degree k.

    The first entry is the empty index (the constant 1); entries
    1..d+1 (0-based) are the degree-1 indices in coordinate order.
    """
    if d_plus_1 < 2:
        raise ValueError(f"d_plus_1 must be >= 2, got {d_plus_1}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    reps: list[MultiIndex] = []
    dims: list[int] = []
    for j in range(k + 1):
        # combinations_with_replacement yields sorted tuples in
        # lexicographic order, exactly the prescribed block layout
        block = list(itertools.combinations_with_replacement(range(1, d_plus_1 + 1), j))
        reps.extend(block)
        dims.append(len(block))
    pos = {alpha: i for i, alpha in enumerate(reps)}
    return MultiIndexCatalog(
        d_plus_1=d_plus_1,
        k=k,
        representatives=tuple(reps),
        block_dims=tuple(dims),
        gammas=tuple(gamma(alpha) for alpha in reps),
        _pos=pos,
    )


@dataclass(frozen=True, eq=False)
class Restriction:
    """The rows of a catalog whose multi-index uses only some variables.

    catalog is build_catalog(m, k) over the m kept variables, renumbered
    1..m in their order.  Row rows[i] of the parent catalog and row
    sub_rows[i] of catalog hold the same multi-index up to that
    renumbering, so their gamma weights agree.  Every other parent row
    involves a dropped variable.
    """

    catalog: MultiIndexCatalog
    rows: np.ndarray
    sub_rows: np.ndarray


def restrict(catalog: MultiIndexCatalog, variables: tuple[int, ...]) -> Restriction:
    """The restriction of catalog to the sorted 1-based variables, cached."""
    return _restriction(catalog.d_plus_1, catalog.k, tuple(variables))


@functools.lru_cache(maxsize=32)
def _restriction(d_plus_1: int, k: int, variables: tuple[int, ...]) -> Restriction:
    sub = build_catalog(len(variables), k)
    sub_index = {alpha: i for i, alpha in enumerate(sub.representatives)}
    renumber = {v: i + 1 for i, v in enumerate(variables)}
    rows, sub_rows = [], []
    for row, alpha in enumerate(build_catalog(d_plus_1, k).representatives):
        if all(c in renumber for c in alpha):
            rows.append(row)
            sub_rows.append(sub_index[tuple(renumber[c] for c in alpha)])
    rows_arr, sub_rows_arr = (np.array(r, dtype=np.intp) for r in (rows, sub_rows))
    # shared by every caller through the cache
    rows_arr.flags.writeable = False
    sub_rows_arr.flags.writeable = False
    return Restriction(sub, rows_arr, sub_rows_arr)
