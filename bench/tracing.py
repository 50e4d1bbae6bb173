"""Spans around the library's layer entry points, recorded from outside.

The tracer replaces each entry point at the place its caller looks it
up (a module attribute or a class attribute) with a wrapper that opens
a span, calls through and closes the span.  The library itself is not
changed; ``Tracer.installed()`` restores every original on exit.

A span records its name, start, end, parent span and operation id.
Spans stay in memory in flat arrays and are written out once, at the
end of the run (``Tracer.save``).  A span is *outer* when no enclosing
span has the same name; ``calls`` and ``s`` count outer spans only, so
an oracle that delegates to an inner oracle counts once.  Self time is
a span's duration minus the durations of its direct children.

``MultiIndexCatalog.position`` is a dict lookup called thousands of
times per step, so it is counted without a span.  An entry point that
no longer exists is reported in ``Tracer.absent`` and its metrics read
zero; the benchmark does not crash.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

# Entry points as recorded in design.json: span name, "module:attribute
# path" where the caller looks the entry point up, and how it is wrapped.
ENTRY_POINTS = json.loads((Path(__file__).with_name("design.json")).read_text())["entry_points"]
SPAN_NAMES = tuple(dict.fromkeys(e["span"] for e in ENTRY_POINTS if e["mode"] != "count"))

# Pade degree m -> (theta_m, matrix products) for scaling and squaring
# (Al-Mohy & Higham 2009, Table 2.3); the solve is counted separately.
_PADE = ((3, 1.495585217958292e-2, 2), (5, 2.539398330063230e-1, 3),
         (7, 9.504178996162932e-1, 4), (9, 2.097847961257068e0, 5),
         (13, 5.371920351148152e0, 6))


def expm_flops(dim: int, norm1: float) -> float:
    """Computed (not measured) real flops of one complex dense expm.

    Picks the Pade degree and squaring count from ||M||_1 alone, which
    is an upper estimate of what scipy's norm-estimate selection does.
    A complex multiply-add is 8 real flops; a product is dim^3 of them,
    the LU solve with dim right-hand sides about 4/3 dim^3.
    """
    for _, theta, products in _PADE:
        if norm1 <= theta:
            squarings = 0
            break
    else:
        theta = _PADE[-1][1]
        products = _PADE[-1][2]
        squarings = max(0, math.ceil(math.log2(norm1 / theta)))
    return 8.0 * dim**3 * (products + 4.0 / 3.0 + squarings)


def _resolve(target: str):
    """(owner object, attribute name) for "module:Attr.path"; raises if absent."""
    modname, path = target.split(":")
    owner = importlib.import_module(modname)
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    if attr not in vars(owner):
        raise AttributeError(f"{target} is not defined")
    return owner, attr


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


class Tracer:
    """Spans and counts of the wrapped entry points, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ix: dict[str, int] = {}
        self.name = array("B")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.outer = array("b")
        self.counts: Counter = Counter()
        self.stats: dict[str, float] = {}
        self.absent: list[str] = []
        self.op_id = -1
        self._stack = [-1]
        self._depth: Counter = Counter()

    # -- recording -------------------------------------------------------
    def _open(self, name: str) -> int:
        ix = self._name_ix.get(name)
        if ix is None:
            ix = self._name_ix[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name.append(ix)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.outer.append(self._depth[name] == 0)
        self.end.append(math.nan)
        self._depth[name] += 1
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int, name: str) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()
        self._depth[name] -= 1

    def add(self, key: str, value: float) -> None:
        self.stats[key] = self.stats.get(key, 0.0) + value

    def maximum(self, key: str, value: float) -> None:
        self.stats[key] = max(self.stats.get(key, value), value)

    def _note(self, name, fn):
        """Post-call bookkeeping for spans that carry a count or size."""
        if name == "linalg.expm":
            def note(args, kwargs, out):
                M = np.asarray(args[0])
                norm1 = float(np.max(np.sum(np.abs(M), axis=0)))
                self.maximum("linalg.expm.norm1_max", norm1)
                self.maximum("linalg.expm.dim", M.shape[0])
                self.add("linalg.expm.gflop_computed", expm_flops(M.shape[0], norm1) / 1e9)
            return note
        if name == "llei.integrate":
            return lambda args, kwargs, out: self.add("llei.steps", out.n_steps)
        if name == "refsolve":
            sig = inspect.signature(fn)

            def note(args, kwargs, out):
                stride = sig.bind(*args, **kwargs).arguments.get("sample_stride", 1)
                self.add("refsolve.steps", out.n_steps * int(stride))
            return note
        return None

    def _spanned(self, name: str, fn):
        note = self._note(name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(i, name)
            if note is not None:
                note(args, kwargs, out)
            return out

        return traced

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def installed(self):
        """Wrap every entry point for the duration of the block."""
        targets = []
        for e in ENTRY_POINTS:
            if e["mode"] == "span-value-methods":
                try:
                    base = getattr(*_resolve(e["target"]))
                except (AttributeError, ImportError):
                    self.absent.append(f"{e['span']} ({e['target']})")
                    continue
                targets += [(e["span"], f"{c.__module__}:{c.__qualname__}.value", self._spanned)
                            for c in _subclasses(base) if "value" in vars(c)]
            else:
                wrap = self._counted if e["mode"] == "count" else self._spanned
                targets.append((e["span"], e["target"], wrap))
        patches = []
        try:
            for name, target, wrap in targets:
                try:
                    owner, attr = _resolve(target)
                except (AttributeError, ImportError):
                    self.absent.append(f"{name} ({target})")
                    continue
                orig = vars(owner)[attr]
                setattr(owner, attr, wrap(name, orig))
                patches.append((owner, attr, orig))
            yield self
        finally:
            for owner, attr, orig in reversed(patches):
                setattr(owner, attr, orig)

    # -- reading ---------------------------------------------------------
    def mark(self) -> int:
        """Index of the next span; spans from a mark on belong to one batch."""
        return len(self.start)

    def reset_counters(self) -> None:
        self.counts.clear()
        self.stats.clear()

    def summarize(self, lo: int, hi: int, op_scale: np.ndarray) -> dict[str, float]:
        """Per-name calls, s and self_s over spans lo..hi-1.

        Durations are multiplied by op_scale[op id] of the span's
        operation (reference seconds).  "top.s" and "top.raw_s" are the
        scaled and unscaled time covered by spans that have no parent.
        """
        name = _col(self.name, np.uint8, lo, hi)
        raw = _col(self.end, np.float64, lo, hi) - _col(self.start, np.float64, lo, hi)
        dur = raw * op_scale[_col(self.op, np.int32, lo, hi)]
        parent = _col(self.parent, np.int32, lo, hi).astype(np.int64) - lo
        outer = _col(self.outer, np.int8, lo, hi).astype(bool)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_t = dur - child
        out: dict[str, float] = {}
        for n in SPAN_NAMES:
            sel = name == self._name_ix.get(n, -1)
            out[f"{n}.calls"] = int(np.count_nonzero(sel & outer))
            out[f"{n}.s"] = float(dur[sel & outer].sum())
            out[f"{n}.self_s"] = float(self_t[sel].sum())
        out["top.s"] = float(dur[~has_parent].sum())
        out["top.raw_s"] = float(raw[~has_parent].sum())
        return out

    def save(self, path, op_scale: np.ndarray) -> None:
        """Write every span, and each operation's time scale, to an .npz file."""
        n = self.mark()
        np.savez(
            path,
            names=np.array(self.names),
            name=_col(self.name, np.uint8, 0, n),
            start=_col(self.start, np.float64, 0, n),
            end=_col(self.end, np.float64, 0, n),
            parent=_col(self.parent, np.int32, 0, n),
            op=_col(self.op, np.int32, 0, n),
            outer=_col(self.outer, np.int8, 0, n),
            op_scale=op_scale,
        )


def _col(arr: array, dtype, lo: int, hi: int) -> np.ndarray:
    """Copy of arr[lo:hi] as a numpy array (the span arrays keep growing)."""
    return np.frombuffer(arr[lo:hi], dtype=dtype)
