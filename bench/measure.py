"""Timed runs of one workload: the closed loop, its metrics and its summary.

One client runs the workload's batch again and again, each operation
after the previous one returns (a closed loop), until the next batch
would overrun ``seconds``; at least one batch always runs.  Outputs are
checked after each batch, outside the timed region.

Host-speed normalisation.  On a shared host the same operation runs at
speeds up to 1.5x apart for seconds at a time, and thread CPU time
follows wall time, so the variation comes from the host, not from the
process.  A fixed ~1 ms calibration kernel, half a pure-Python integer
loop and half small numpy calls in a Python loop (the two kinds of work
the library's hot loops do), is timed before and after every operation
and every PROBE_PERIOD_S during it, from a SIGALRM handler (which runs
between bytecodes of the main thread).  A sample during an operation is
taken only while the process runs a single thread and has no child
process: library threads or processes would slow the kernel down, and
that slowdown would then be divided out of the result.  An operation's
time, less the time its samples took, is multiplied by the mean of
CAL_REF_S / kernel time over its samples: every bounded time is in
*reference seconds*, the time on a host where the kernel takes exactly
1 ms.  On a 2-core shared VM, sampling during converge-h operations
(1-2 s each) rather than only between them cut the IQR/median over five
seeds of wall_s from 7.7% to 3.8% and of op_s_p50 from 11.1% to 2.0%.
Raw wall times are printed in the summary and, in the traced run,
reported as per-layer metrics beside the scaled ones.

Untraced run (``trace=False``): the end-to-end metrics.
Traced run (``trace=True``): half the time untraced, half with every
layer entry point wrapped (see ``tracing``); per-layer numbers come from
the traced batches, and the ratio of the two halves is the tracing
overhead.
"""

from __future__ import annotations

import os
import resource
import signal
import statistics
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import workloads
from tracing import SPAN_NAMES, Tracer

SETUP_SAMPLES = 5              # fresh-process set-ups per untraced run
SETUP_TIMEOUT_S = 120
CAL_REF_S = 1e-3
PROBE_PERIOD_S = 0.1
_CAL_A = np.array([[0.0, 1.0], [-1.0, 0.0]])
# per-layer numbers that are counts: identical in every batch of a run
COUNT_KEYS = tuple(f"{n}.calls" for n in SPAN_NAMES) + (
    "mindex.position.calls", "llei.steps", "refsolve.steps", "linalg.expm.dim",
)


def _kernel() -> float:
    s = 0
    for i in range(7500):
        s += i * i
    u = np.ones(2)
    for _ in range(100):
        u = _CAL_A @ u + 0.01 * np.sin(u)
    return s + float(u[0])


def host_cal() -> float:
    """Seconds the calibration kernel takes now."""
    t0 = perf_counter()
    _kernel()
    return perf_counter() - t0


def _alone() -> bool:
    """True when this process runs one thread and has no child process."""
    try:
        tasks = os.listdir("/proc/self/task")
        if len(tasks) != 1:
            return False
        with open(f"/proc/self/task/{tasks[0]}/children") as f:
            return not f.read().strip()
    except OSError:
        return False


class SpeedProbe:
    """Times operations and samples the host's speed while they run."""

    def __init__(self):
        self._last = host_cal()
        self._samples: list[float] = []
        self._stolen = 0.0
        self.taken = 0      # samples taken during operations
        self.skipped = 0    # ticks skipped: the process was not alone

    def _tick(self, signum, frame):
        t0 = perf_counter()
        if _alone():
            self._samples.append(host_cal())
            self.taken += 1
        else:
            self.skipped += 1
        self._stolen += perf_counter() - t0

    @contextmanager
    def installed(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def call(self, fn, *args):
        """(fn(*args), raw seconds, seconds the samples took, scale to reference seconds).

        Raw seconds exclude the samples taken during the call.
        """
        self._samples = [self._last]
        self._stolen = 0.0
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        t0 = perf_counter()
        try:
            out = fn(*args)
        finally:
            dt = perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
        self._last = host_cal()
        self._samples.append(self._last)
        scale = statistics.fmean(CAL_REF_S / c for c in self._samples)
        return out, dt - self._stolen, self._stolen, scale


@dataclass
class Batches:
    """What a sequence of batches did; times are reference seconds."""

    walls: list[float] = field(default_factory=list)
    raw_walls: list[float] = field(default_factory=list)
    op_s: list[float] = field(default_factory=list)
    raw_op_s: list[float] = field(default_factory=list)
    scale: list[float] = field(default_factory=list)   # per op: CAL_REF_S / kernel time
    checks: list = field(default_factory=list)
    layers: list[dict] = field(default_factory=list)
    probe_taken: int = 0
    probe_skipped: int = 0


def run_batches(wl, seconds: float, tracer: Tracer | None = None) -> Batches:
    out = Batches()
    deadline = perf_counter() + seconds
    probe = SpeedProbe()
    with probe.installed():
        while True:
            if tracer is not None:
                tracer.reset_counters()
                lo = tracer.mark()
                first_op = len(out.scale)
            results = []
            wall = raw = stolen = 0.0
            for op in wl.batch:
                if tracer is not None:
                    tracer.op_id += 1
                result, dt, sampling, scale = probe.call(wl.run, op)
                results.append(result)
                out.op_s.append(dt * scale)
                out.raw_op_s.append(dt)
                out.scale.append(scale)
                wall += dt * scale
                raw += dt
                stolen += sampling
            out.walls.append(wall)
            out.raw_walls.append(raw)
            if tracer is not None:
                out.layers.append(
                    _layer_metrics(tracer, lo, out.scale, first_op, wall, raw + stolen))
            out.checks.extend(wl.check(op, r) for op, r in zip(wl.batch, results))
            if perf_counter() + statistics.median(out.raw_walls) > deadline:
                out.probe_taken, out.probe_skipped = probe.taken, probe.skipped
                return out


def _layer_metrics(tracer: Tracer, lo: int, scale, first_op: int, wall: float,
                   elapsed: float) -> dict:
    """Per-layer numbers of one traced batch.

    Span times carry the samples the speed probe took inside them (about
    1%); elapsed is the batch's raw time including those samples.
    """
    s = tracer.summarize(lo, tracer.mark(), np.asarray(scale))
    m = {key: v for key, v in s.items() if not key.startswith("top.")}
    m.update({f"{name}.calls": n for name, n in tracer.counts.items()})
    m.update(tracer.stats)
    m.update({
        "bench.wall_s_traced": wall,
        "bench.untraced_share": 1.0 - s["top.raw_s"] / elapsed,
        "bench.traced_op_s": s["top.s"],
        "bench.cal_ms": 1e3 * CAL_REF_S / statistics.median(scale[first_op:]),
    })
    for key in ("linalg.expm.norm1_max", "linalg.expm.gflop_computed"):
        m.setdefault(key, 0.0)
    for key in COUNT_KEYS:
        m[key] = int(m.get(key, 0))
    m["refsolve.us_per_step"] = (
        1e6 * m["refsolve.s"] / m["refsolve.steps"] if m["refsolve.steps"] else 0.0
    )
    m["harness.ref_share"] = (
        m["refsolve.s"] / m["harness.sweep.s"] if m["harness.sweep.s"] else 0.0
    )
    return m


def setup_seconds(workload: str, seed: int, samples: int = SETUP_SAMPLES):
    """Reference and raw wall times of fresh processes that import, set up and exit."""
    run_py = Path(__file__).resolve().parent / "run.py"
    cmd = [sys.executable, str(run_py), "--workload", workload, "--seed", str(seed),
           "--setup-only"]
    ref, raw = [], []
    cal = host_cal()
    for _ in range(samples):
        t0 = perf_counter()
        subprocess.run(cmd, check=True, timeout=SETUP_TIMEOUT_S, stdout=subprocess.DEVNULL)
        dt = perf_counter() - t0
        cal_after = host_cal()
        ref.append(dt * 0.5 * (CAL_REF_S / cal + CAL_REF_S / cal_after))
        raw.append(dt)
        cal = cal_after
    return ref, raw


def _accuracy(checks) -> dict:
    errs = [c.err_u for c in checks if c.err_u is not None]
    devs = [c.slope_dev for c in checks if c.slope_dev is not None]
    margins = [c.ref_margin for c in checks if c.ref_margin is not None]
    return {
        "check.err_u": max(errs) if errs else 0.0,
        "check.slope_dev": max(devs) if devs else 0.0,
        "harness.ref_margin_min": min(margins) if margins else 0.0,
        "harness.points_failed": sum(c.points_failed for c in checks),
    }


@dataclass
class Result:
    attempted: int
    failed: int
    correct: bool
    metrics: dict          # name -> value
    lines: list[str]       # human-readable summary, printed before the JSON


def _common_lines(wl, seed, checks, acc: dict) -> list[str]:
    n_fail = sum(not c.ok for c in checks)
    lines = [
        f"workload {wl.name} seed={seed}: closed loop, 1 client, "
        f"{len(wl.batch)} ops per batch",
        f"failed_ops {n_fail}/{len(checks)} = {n_fail / len(checks):g} share",
        f"err_u {acc['check.err_u']:.3e} abs (max over ops; "
        + ("vs DOP853 reference)" if wl.name == "integrate-charged" else "harness errors)"),
        f"slope_dev {acc['check.slope_dev']:.4f} order (max |slope - expected|"
        + (", no fits on this workload)" if wl.name == "integrate-charged" else ")"),
    ]
    if wl.name == "converge-eps":
        missed = [c.out_of_band for c in checks if c.out_of_band]
        lines.append(f"criterion-7 slope bands (reported, not gated): {len(missed)}/{len(checks)} "
                     "ops outside" + (f", {missed[0]}" if missed else ""))
    lines += [f"FAILED op {i}: {c.detail}" for i, c in enumerate(checks) if not c.ok][:5]
    return lines


def untraced(workload: str, seed: int, seconds: float) -> Result:
    setups, raw_setups = setup_seconds(workload, seed)
    wl = workloads.setup(workload, seed)
    b = run_batches(wl, seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    n_fail = sum(not c.ok for c in b.checks)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(b.walls),
        "op_s_p50": float(np.percentile(b.op_s, 50)),
        "op_s_p90": float(np.percentile(b.op_s, 90)),
        "peak_rss_mb": rss_mb,
    }
    raw_op = b.raw_op_s
    acc = _accuracy(b.checks)
    lines = _common_lines(wl, seed, b.checks, acc) + [
        "times in reference seconds (raw wall seconds in brackets), calibration kernel "
        f"median {1e3 * CAL_REF_S / statistics.median(b.scale):.3f} ms; {b.probe_taken} "
        f"samples during operations, {b.probe_skipped} skipped (threads or child processes alive)",
        f"wall_s {metrics['wall_s']:.4f} s [{statistics.median(b.raw_walls):.4f}] "
        f"(median batch time, {len(b.walls)} batches)",
        f"op_s_p50 {metrics['op_s_p50']:.4f} s [{np.percentile(raw_op, 50):.4f}], "
        f"op_s_p90 {metrics['op_s_p90']:.4f} s [{np.percentile(raw_op, 90):.4f}] "
        f"({len(b.op_s)} ops)",
        f"setup_s {metrics['setup_s']:.4f} s [{statistics.median(raw_setups):.4f}] "
        f"(median of {len(setups)} fresh-process set-ups)",
        f"peak_rss_mb {rss_mb:.1f} MB",
    ]
    return Result(len(b.checks), n_fail, n_fail == 0, metrics, lines)


def traced(workload: str, seed: int, seconds: float, trace_dir: Path | None = None) -> Result:
    wl = workloads.setup(workload, seed)
    base = run_batches(wl, seconds / 2)
    tracer = Tracer()
    with tracer.installed():
        tb = run_batches(wl, seconds / 2, tracer)
    if trace_dir is not None:
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.save(trace_dir / f"{workload}-seed{seed}.npz", np.asarray(tb.scale))

    first = tb.layers[0]
    metrics = {
        key: first[key] if key in COUNT_KEYS else statistics.median(l[key] for l in tb.layers)
        for key in first
    }
    counts_stable = all(l[k] == first[k] for l in tb.layers for k in COUNT_KEYS)
    metrics["bench.wall_s_untraced"] = statistics.median(base.walls)
    # raw wall seconds of the untraced half, to check a change on both scales
    metrics["bench.wall_s_untraced_raw"] = statistics.median(base.raw_walls)
    metrics["bench.op_s_p50_untraced_raw"] = float(np.percentile(base.raw_op_s, 50))
    metrics["bench.op_s_p90_untraced_raw"] = float(np.percentile(base.raw_op_s, 90))
    metrics["bench.trace_overhead"] = (
        metrics["bench.wall_s_traced"] / metrics["bench.wall_s_untraced"] - 1.0
    )
    checks = base.checks + tb.checks
    metrics.update(_accuracy(checks))
    n_fail = sum(not c.ok for c in checks)

    wall = metrics["bench.wall_s_traced"]

    def share(key):
        # spans include the probe's samples, so divide by span time, not wall
        return metrics[key] / metrics["bench.traced_op_s"]

    lines = _common_lines(wl, seed, checks, metrics) + [
        f"traced batches {len(tb.walls)}, untraced batches {len(base.walls)}; "
        f"trace_overhead {metrics['bench.trace_overhead']:.3f} "
        f"(traced {wall:.4f} s / untraced {metrics['bench.wall_s_untraced']:.4f} s - 1, "
        "reference seconds)",
        "design, as shares of traced operation time: refsolve.calls={} refsolve.s={:.3f} "
        "llei.integrate.s={:.3f} extension.build_A0+A1 (incl. sysdef.partial)={:.3f} "
        "linalg.expm.s={:.3f}".format(
            metrics["refsolve.calls"], share("refsolve.s"), share("llei.integrate.s"),
            share("extension.build_A0.s") + share("extension.build_A1.s"),
            share("linalg.expm.s"),
        ),
        f"counts repeat across traced batches: {counts_stable}",
    ]
    if tracer.absent:
        lines.append("absent entry points (reported as 0): " + ", ".join(tracer.absent))
    return Result(len(checks), n_fail, n_fail == 0 and counts_stable, metrics, lines)
