"""Convergence-study harness: error sweeps over h and over epsilon.

Errors are global: the max over the shared uniform grid of the
Euclidean norm of the state difference against an RK4 reference.  For
phase-space systems ([y; p] with p = eps * dy/dt) the error is also
split into error(y) and error(dy/dt) = |p - p_ref| / eps.

sweep_h and sweep_eps only build a list of (param, system, n) runs;
one engine, _sweep, runs the scheme, measures and certifies both.  Runs
that share a system (all of sweep_h's, one per eps in sweep_eps) share
one RK4 reference on the lcm L of their step counts, refined by an even
m.  One reference per sweep is certified, by _certified_reference: that
of the smallest eps with a run that held.  m starts at the smallest
value whose step is at most eps / (8 rho), so even the partner below
resolves the oscillation; sweep_eps's h_ref_factor can only start it
finer.  The reference's accuracy is estimated by Richardson
extrapolation against a partner run at m / 2 (RK4 is fourth order, so
their disagreement over 15 estimates the finer run's error), and m
doubles, the previous run becoming the partner, until the smallest
error the reference measures is REF_MARGIN_TARGET times that estimate.
Refinement stops early when a doubling cuts the estimate less than 4x
(round-off, not truncation, is left) or when the next run would pass
REF_STEP_CAP steps; the report's margin note names the rule that
stopped it.  Every other system runs its reference at the step-to-eps
ratio that certification ended at.

Order fits are least-squares slopes on log-log data, done separately
for the small-step regime (h below h0 = pi eps / (2 rho)) and the
large-step regime (h above 2 pi eps / mu), with points at the accuracy
floor excluded.  Fewer than three usable points means no fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .llei import BlowUpError, Trajectory, integrate
from .refsolve import rk4_integrate
from .sysdef import OscillatorySystem, check_finite_positive

ACCURACY_FLOOR = 1e-10
REF_STEP_CAP = 20_000_000
# a reference counts as trusted when the smallest error it measures is
# at least this many times its own Richardson error estimate
REF_MARGIN_TARGET = 100.0


@dataclass(frozen=True)
class Thresholds:
    """Regime boundaries for a system: h0 (small-step) and h0_lower (large-step).

    rho and mu are the largest and smallest |eigenvalue| of A; mu is None
    when A is singular (no large-step boundary exists then).
    """

    rho: float
    mu: float | None
    h0: float | None
    h0_lower: float | None


def thresholds(system: OscillatorySystem) -> Thresholds:
    rho, mu = system.rho, system.mu
    if mu <= 1e-12 * max(1.0, rho):
        mu = None
    return Thresholds(
        rho=rho,
        mu=mu,
        h0=math.pi * system.epsilon / (2.0 * rho) if rho > 0 else None,
        h0_lower=2.0 * math.pi * system.epsilon / mu if mu else None,
    )


@dataclass(frozen=True)
class ErrorValues:
    """Global max errors: u always; y and ydot only for [y; p] systems."""

    u: float
    y: float | None = None
    ydot: float | None = None


def global_max_error(traj: Trajectory, ref: Trajectory) -> ErrorValues:
    """Max over the grid of the Euclidean state difference, with splits."""
    if traj.states.shape != ref.states.shape:
        raise ValueError(
            f"trajectory shapes differ: {traj.states.shape} vs {ref.states.shape}"
        )
    t_tol = 1e-12 * max(1.0, float(traj.times[-1]))
    if float(np.max(np.abs(traj.times - ref.times))) > t_tol:
        raise ValueError("trajectories are not sampled on the same grid")
    diff = traj.states - ref.states
    err_u = float(np.max(np.linalg.norm(diff, axis=1)))
    y_dim = traj.y_dim if traj.y_dim is not None else ref.y_dim
    if y_dim is None:
        return ErrorValues(u=err_u)
    err_y = float(np.max(np.linalg.norm(diff[:, :y_dim], axis=1)))
    err_p = float(np.max(np.linalg.norm(diff[:, y_dim:], axis=1)))
    return ErrorValues(u=err_u, y=err_y, ydot=err_p / traj.epsilon)


def fit_order(params, errors, floor: float = ACCURACY_FLOOR) -> float | None:
    """Log-log least-squares slope, or None with fewer than 3 usable points.

    Points with errors at or below the accuracy floor (or non-finite, or
    None) are excluded: they measure the exponential's tolerance, not
    the scheme's order.
    """
    xs, ys = [], []
    for p, e in zip(params, errors):
        if e is None or not np.isfinite(e) or e <= floor:
            continue
        xs.append(math.log(p))
        ys.append(math.log(e))
    if len(xs) < 3:
        return None
    slope = np.polyfit(xs, ys, 1)[0]
    return float(slope)


@dataclass(frozen=True)
class SweepPoint:
    """One sweep sample: the axis value, its errors, and its regime."""

    param: float
    error_u: float | None
    error_y: float | None
    error_ydot: float | None
    regime: str
    floored: bool = False
    failed: str | None = None


@dataclass
class ErrorReport:
    """Result of a sweep: per-point errors, per-regime slopes, diagnostics."""

    axis: str
    k: int
    points: list[SweepPoint]
    slopes: dict[str, float | None]
    thresholds: dict[str, float | None]
    ref_error_estimate: ErrorValues | None = None
    ref_margin: float | None = None
    notes: list[str] = field(default_factory=list)
    # RK4 steps spent on the reference, Richardson partners included
    ref_steps: int = 0

    def regime_points(self, regime: str) -> list[SweepPoint]:
        return [p for p in self.points if p.regime == regime and p.failed is None]


def _components(system: OscillatorySystem) -> list[str]:
    return ["u", "y", "ydot"] if system.y_dim is not None else ["u"]


def _fit_regime_slopes(system, points) -> dict[str, float | None]:
    slopes: dict[str, float | None] = {}
    for regime in ("small", "large"):
        sel = [p for p in points if p.regime == regime and p.failed is None]
        for comp in _components(system):
            key = f"{regime}_{comp}"
            slopes[key] = fit_order(
                [p.param for p in sel],
                [getattr(p, f"error_{comp}") for p in sel],
            )
    return slopes


def _rk4_nested(system, n: int, m: int) -> Trajectory:
    """RK4 with m steps per interval of the n-interval grid on [0, T], sampled on it."""
    return rk4_integrate(system, system.T / (n * m), sample_stride=m)


def _first_refinement(system, interval: float, step: float) -> int:
    """Smallest even m >= 2 with interval / m at most step and at most eps / (8 rho).

    eps / (8 rho) resolves the oscillation with a factor 2 to spare, so
    the Richardson partner at m / 2 resolves it too.
    """
    rho = thresholds(system).rho
    if rho > 0:
        step = min(step, system.epsilon / (8.0 * rho))
    m = max(2, math.ceil(interval / step))
    return m + m % 2


def _richardson_estimate(ref: Trajectory, partner: Trajectory) -> ErrorValues:
    """Error estimate of ref: |ref - partner| / 15, partner at twice ref's step."""
    errs = global_max_error(ref, partner)
    scale = 1.0 / 15.0
    return ErrorValues(
        u=errs.u * scale,
        y=None if errs.y is None else errs.y * scale,
        ydot=None if errs.ydot is None else errs.ydot * scale,
    )


# what a margin note advises, by the rule that stopped the refinement
_STOP_ADVICE = {
    "round-off": "halving the step no longer cut the Richardson estimate 4x "
    "(round-off), so a finer reference step will not help",
    "step cap": "a finer reference would pass the REF_STEP_CAP step cap",
}


def _certified_reference(system, n: int, m: int, min_error):
    """Certify an RK4 reference on the n-interval grid, from m steps per interval.

    min_error(ref) measures the scheme against a reference run and
    returns the smallest error, or None.  Returns (m, Richardson
    estimate, margin, RK4 steps spent, "round-off", "step cap" or None);
    the last min_error call was against the run at the returned m.
    """
    partner, ref = _rk4_nested(system, n, m // 2), _rk4_nested(system, n, m)
    steps = n * (m // 2 + m)
    est = _richardson_estimate(ref, partner)
    stop = None
    while True:
        error = min_error(ref)
        margin = error / est.u if error is not None and est.u > 0 else None
        if stop or margin is None or margin >= REF_MARGIN_TARGET:
            return m, est, margin, steps, stop
        if 2 * n * m > REF_STEP_CAP:
            return m, est, margin, steps, "step cap"
        m *= 2
        partner, ref = ref, _rk4_nested(system, n, m)
        steps += n * m
        prev_est, est = est, _richardson_estimate(ref, partner)
        if est.u > prev_est.u / 4.0:
            stop = "round-off"


def _regime(system: OscillatorySystem, h: float) -> str:
    th = thresholds(system)
    if th.h0 is not None and h < th.h0:
        return "small"
    if th.h0_lower is not None and h > th.h0_lower:
        return "large"
    return "intermediate"


def _decreasing(name: str, values) -> list[float]:
    values = [float(v) for v in values]
    if not values or not all(math.isfinite(v) and v > 0 for v in values):
        raise ValueError(f"{name} must be finite and positive")
    if any(b >= a for a, b in zip(values, values[1:])):
        raise ValueError(f"{name} must be strictly decreasing")
    return values


def _sweep(axis: str, k: int, runs, factor: float | None, bounds: dict) -> ErrorReport:
    """Run, measure and certify a sweep of (param, system, n) runs.

    The scheme runs once per triple at h = T / n; a blow-up marks the
    point failed, and h against thresholds(system) gives its regime.
    Runs that share a system share one RK4 reference on the lcm of their
    grids.  The system of smallest epsilon with a run that held (of all
    systems, if none held) gets the certified reference, starting at a
    step of at most factor * eps (default eps / (8 rho)).  Every other
    system with a run that held gets one reference run at the
    step-to-eps ratio that certification ended at.
    """
    points: list[SweepPoint] = []
    by_system: dict[int, tuple] = {}  # id(system): (system, [(point, n, trajectory)])
    for param, system, n in runs:
        h = system.T / n
        try:
            traj, failed = integrate(system, k, h), None
        except BlowUpError as exc:
            traj, failed = None, str(exc)
        by_system.setdefault(id(system), (system, []))[1].append((len(points), n, traj))
        points.append(SweepPoint(param, None, None, None, _regime(system, h), failed=failed))

    def measure(members, L: int, ref: Trajectory) -> float | None:
        errors = []
        for i, n, traj in members:
            if traj is None:
                continue
            stride = L // n
            sub = replace(ref, times=ref.times[::stride], states=ref.states[::stride])
            errs = global_max_error(traj, sub)
            points[i] = replace(points[i], error_u=errs.u, error_y=errs.y,
                                error_ydot=errs.ydot, floored=errs.u <= ACCURACY_FLOOR)
            errors.append(errs.u)
        return min(errors, default=None)

    groups = [(s, math.lcm(*(n for _, n, _ in ms)), ms) for s, ms in by_system.values()]
    held = [g for g in groups if any(traj is not None for _, _, traj in g[2])]
    certified = min(held or groups, key=lambda g: g[0].epsilon)
    system, L, members = certified
    rho = thresholds(system).rho
    # a factor above 1 / (8 rho) starts at the resolution bound instead,
    # and is scaled down from there if the reference has to be refined
    resolved = 1.0 / (8.0 * rho) if rho > 0 else math.inf
    factor = resolved if factor is None else min(factor, resolved)
    m0 = _first_refinement(system, system.T / L, factor * system.epsilon)
    if L * m0 > REF_STEP_CAP:  # sweep_h's grids set L, sweep_eps's h_ref_factor can set m0
        advice = "nested step sizes" if axis == "h" else "a larger h_ref_factor"
        raise ValueError(f"reference would need {L * m0} steps (cap {REF_STEP_CAP}); use {advice}")
    m, est, margin, ref_steps, stop = _certified_reference(
        system, L, m0, partial(measure, members, L)
    )
    factor *= m0 / m
    for group in held:
        if group is not certified:
            system, L, members = group
            stride = _first_refinement(system, system.T / L, factor * system.epsilon)
            measure(members, L, _rk4_nested(system, L, stride))
            ref_steps += L * stride

    report = ErrorReport(
        axis=axis,
        k=k,
        points=points,
        slopes=_fit_regime_slopes(runs[0][1], points),
        thresholds=bounds,
        ref_error_estimate=est,
        ref_margin=margin,
        ref_steps=ref_steps,
    )
    if margin is not None and margin < REF_MARGIN_TARGET:
        advice = _STOP_ADVICE[stop]
        report.notes.append(
            f"reference accuracy margin is {margin:.1f}x, below the "
            f"{REF_MARGIN_TARGET:g}x target; {advice}"
        )
    n_failed = sum(1 for p in points if p.failed)
    if n_failed:
        report.notes.append(f"{n_failed} point(s) aborted (state blow-up)")
    n_floored = sum(1 for p in points if p.floored)
    if n_floored:
        report.notes.append(
            f"{n_floored} point(s) at the {ACCURACY_FLOOR:g} accuracy floor were "
            "excluded from fits"
        )
    return report


def sweep_h(
    system: OscillatorySystem,
    k: int,
    h_values,
) -> ErrorReport:
    """Error vs step size at fixed epsilon, against one shared reference.

    h_values must be positive and strictly decreasing.  Each h is snapped
    to divide T exactly, and the scheme runs once per h.  The reference
    starts at the coarsest step of at most eps / (8 rho) on the common
    refinement grid and is certified as the module docstring describes;
    errors are taken against its last run.  report.ref_steps counts every
    RK4 step spent.
    """
    h_values = _decreasing("h_values", h_values)
    th = thresholds(system)
    T = system.T
    n_values = dict.fromkeys(max(1, round(T / h)) for h in h_values)
    return _sweep(
        "h",
        k,
        [(T / n, system, n) for n in n_values],
        None,
        {"h0": th.h0, "h0_lower": th.h0_lower, "rho": th.rho, "mu": th.mu},
    )


def sweep_eps(
    system: OscillatorySystem,
    k: int,
    h: float,
    eps_values,
    h_ref_factor: float | None = None,
) -> ErrorReport:
    """Error vs epsilon at fixed step size h.

    system is rebuilt per epsilon by system.with_epsilon, and the scheme
    runs once per epsilon, with h snapped to divide T exactly.  The
    reference starts at a step of at most h_ref_factor * eps (default
    eps / (8 rho)) and is certified at the smallest epsilon as the module
    docstring describes; every other epsilon whose run held gets one
    reference run at the step-to-eps ratio it ended at.
    """
    eps_values = _decreasing("eps_values", eps_values)
    check_finite_positive("h", h)
    if h_ref_factor is not None:
        check_finite_positive("h_ref_factor", h_ref_factor)
    systems = [system.with_epsilon(eps) for eps in eps_values]
    T = systems[0].T
    if any(abs(s.T - T) > 1e-12 * T for s in systems):
        raise ValueError("with_epsilon changed the horizon T between epsilons")
    th = thresholds(systems[0])
    N = max(1, round(T / h))
    h_snap = T / N
    return _sweep(
        "epsilon",
        k,
        [(eps, s, N) for eps, s in zip(eps_values, systems)],
        h_ref_factor,
        {
            "eps0": 2.0 * h_snap * th.rho / math.pi if th.rho > 0 else None,
            "eps0_lower": h_snap * th.mu / (2.0 * math.pi) if th.mu else None,
            "rho": th.rho,
            "mu": th.mu,
        },
    )
