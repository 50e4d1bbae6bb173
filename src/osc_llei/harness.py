"""Convergence-study harness: error sweeps over h and over epsilon.

Errors are global: the max over the shared uniform grid of the
Euclidean norm of the state difference against an RK4 reference.  For
phase-space systems ([y; p] with p = eps * dy/dt) the error is also
split into error(y) and error(dy/dt) = |p - p_ref| / eps.

Step-size sweeps share a single reference trajectory: the scheme grids
are nested into one fine RK4 grid (lcm L of the step counts times an
even refinement m), so every comparison point is an exact reference
sample.  The reference's own accuracy is estimated by Richardson
extrapolation against a partner run at half the refinement (RK4 is
fourth order, so the disagreement overestimates the fine run's error by
about 15x), and the report records the margin between measured scheme
errors and that estimate.  sweep_h sizes the reference from that
margin: it starts at the coarsest m that resolves the oscillation,
doubles m until the margin reaches REF_MARGIN_TARGET, and each doubled
run takes the previous one as its partner.  It stops early when a
doubling no longer cuts the estimate 4x (round-off, not truncation, is
left) or when the next run would pass REF_STEP_CAP steps.

Order fits are least-squares slopes on log-log data, done separately
for the small-step regime (h below h0 = pi eps / (2 rho)) and the
large-step regime (h above 2 pi eps / mu), with points at the accuracy
floor excluded.  Fewer than three usable points means no fit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

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
    eigs = np.abs(system._spectrum)
    rho = float(np.max(eigs))
    mu = float(np.min(eigs))
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

    def get(self, component: str) -> float | None:
        return getattr(self, component)


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


def _point_from_errors(param, errs: ErrorValues, regime: str) -> SweepPoint:
    return SweepPoint(
        param=param,
        error_u=errs.u,
        error_y=errs.y,
        error_ydot=errs.ydot,
        regime=regime,
        floored=errs.u <= ACCURACY_FLOOR,
    )


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


def _rk4_nested(system, n: int, m: int, partner: bool = False) -> Trajectory:
    """RK4 with m steps per interval of the n-interval grid on [0, T].

    The run is sampled on that grid.  A Richardson partner (half the
    refinement of the run it checks) may not resolve the oscillation;
    its resolution warning is silenced, since only its disagreement with
    the finer run is used.
    """
    with warnings.catch_warnings():
        if partner:
            warnings.simplefilter("ignore")
        return rk4_integrate(
            system, system.T / (n * m), sample_stride=m, allow_unresolved=partner
        )


def _richardson_estimate(ref: Trajectory, partner: Trajectory) -> ErrorValues:
    """Error estimate of ref: |ref - partner| / 15, partner at twice ref's step."""
    errs = global_max_error(ref, partner)
    scale = 1.0 / 15.0
    return ErrorValues(
        u=errs.u * scale,
        y=None if errs.y is None else errs.y * scale,
        ydot=None if errs.ydot is None else errs.ydot * scale,
    )


def _ref_margin(est: ErrorValues, min_error: float | None) -> float | None:
    """Smallest measured error over the reference-error estimate, if defined."""
    if min_error is None or est.u <= 0:
        return None
    return min_error / est.u


def _margin_note(report: ErrorReport, est: ErrorValues, min_error: float | None):
    report.ref_error_estimate = est
    margin = report.ref_margin = _ref_margin(est, min_error)
    if margin is not None and margin < REF_MARGIN_TARGET:
        report.notes.append(
            f"reference accuracy margin is {margin:.1f}x, below the "
            f"{REF_MARGIN_TARGET:g}x target; decrease the reference step"
        )


def _point_notes(report: ErrorReport) -> None:
    """Append the aborted-point and floored-point notes to a finished sweep."""
    n_failed = sum(1 for p in report.points if p.failed)
    if n_failed:
        report.notes.append(f"{n_failed} point(s) aborted (state blow-up)")
    n_floored = sum(1 for p in report.points if p.floored)
    if n_floored:
        report.notes.append(
            f"{n_floored} point(s) at the {ACCURACY_FLOOR:g} accuracy floor were "
            "excluded from fits"
        )


def sweep_h(
    system: OscillatorySystem,
    k: int,
    h_values,
    h_ref_target: float | None = None,
) -> ErrorReport:
    """Error vs step size at fixed epsilon, against one shared reference.

    h_values must be positive and strictly decreasing.  Each h is snapped
    to divide T exactly, and the scheme runs once per h.  The shared RK4
    grid refines the lcm L of the step counts by an even m, starting at
    the smallest m whose step is at most h_ref_target (default:
    eps / (8 rho), which resolves the oscillation).  m then doubles until
    the smallest scheme error is REF_MARGIN_TARGET times the reference's
    Richardson estimate, a doubling cuts the estimate less than 4x, or
    the next run would pass REF_STEP_CAP steps; errors are taken against
    the last run.  report.ref_steps counts every RK4 step spent.
    """
    h_values = [float(h) for h in h_values]
    if not h_values or not all(math.isfinite(h) and h > 0 for h in h_values):
        raise ValueError("h_values must be finite and positive")
    if any(b >= a for a, b in zip(h_values, h_values[1:])):
        raise ValueError("h_values must be strictly decreasing")
    if h_ref_target is not None:
        check_finite_positive("h_ref_target", h_ref_target)

    th = thresholds(system)
    T = system.T
    n_values = list(dict.fromkeys(max(1, round(T / h)) for h in h_values))
    L = math.lcm(*n_values)

    if h_ref_target is None:
        h_ref_target = system.epsilon / (8.0 * th.rho) if th.rho > 0 else math.inf
    m = max(2, math.ceil((T / L) / h_ref_target))
    m += m % 2
    if L * m > REF_STEP_CAP:
        raise ValueError(
            f"shared reference would need {L * m} steps (cap {REF_STEP_CAP}); "
            "use nested step sizes or a coarser h_ref_target"
        )

    def classify(h: float) -> str:
        if th.h0 is not None and h < th.h0:
            return "small"
        if th.h0_lower is not None and h > th.h0_lower:
            return "large"
        return "intermediate"

    runs = []  # (n, scheme trajectory, blow-up message): one of the two is None
    for n in n_values:
        try:
            runs.append((n, integrate(system, k, T / n), None))
        except BlowUpError as exc:
            runs.append((n, None, str(exc)))

    def compare(ref: Trajectory) -> list[SweepPoint]:
        points = []
        for n, traj, failed in runs:
            h = T / n
            if failed is not None:
                points.append(SweepPoint(h, None, None, None, classify(h), failed=failed))
                continue
            stride = L // n
            sub = Trajectory(
                times=ref.times[::stride],
                states=ref.states[::stride],
                epsilon=ref.epsilon,
                h=h,
                y_dim=ref.y_dim,
            )
            points.append(_point_from_errors(h, global_max_error(traj, sub), classify(h)))
        return points

    def min_error(points) -> float | None:
        ok_errors = [p.error_u for p in points if p.error_u is not None]
        return min(ok_errors) if ok_errors else None

    partner = _rk4_nested(system, L, m // 2, partner=True)
    ref = _rk4_nested(system, L, m)
    ref_steps = L * (m // 2 + m)
    points = compare(ref)
    est = _richardson_estimate(ref, partner)
    while True:
        margin = _ref_margin(est, min_error(points))
        if margin is None or margin >= REF_MARGIN_TARGET or 2 * L * m > REF_STEP_CAP:
            break
        m *= 2
        partner, ref = ref, _rk4_nested(system, L, m)
        ref_steps += L * m
        points = compare(ref)
        prev_est, est = est, _richardson_estimate(ref, partner)
        if est.u > prev_est.u / 4.0:
            break  # round-off, not truncation, dominates the estimate

    report = ErrorReport(
        axis="h",
        k=k,
        points=points,
        slopes=_fit_regime_slopes(system, points),
        thresholds={
            "h0": th.h0,
            "h0_lower": th.h0_lower,
            "rho": th.rho,
            "mu": th.mu,
        },
        ref_steps=ref_steps,
    )
    _margin_note(report, est, min_error(points))
    _point_notes(report)
    return report


def sweep_eps(
    system: OscillatorySystem,
    k: int,
    h: float,
    eps_values,
    h_ref_factor: float = 1.0 / 1024.0,
) -> ErrorReport:
    """Error vs epsilon at fixed step size h.

    system is rebuilt per epsilon by system.with_epsilon.  Each epsilon
    gets its own RK4 reference with step about h_ref_factor * epsilon;
    the Richardson accuracy estimate is run at the smallest epsilon,
    where the reference works hardest.
    """
    eps_values = [float(e) for e in eps_values]
    if not eps_values or any(e <= 0 for e in eps_values):
        raise ValueError("eps_values must be positive")
    if any(b >= a for a, b in zip(eps_values, eps_values[1:])):
        raise ValueError("eps_values must be strictly decreasing")
    check_finite_positive("h", h)
    check_finite_positive("h_ref_factor", h_ref_factor)

    base = system.with_epsilon(eps_values[0])
    th = thresholds(base)
    T = base.T
    N = max(1, round(T / h))
    h_snap = T / N
    eps0 = 2.0 * h_snap * th.rho / math.pi if th.rho > 0 else None
    eps0_lower = h_snap * th.mu / (2.0 * math.pi) if th.mu else None

    def classify(eps: float) -> str:
        if eps0 is not None and eps > eps0:
            return "small"
        if eps0_lower is not None and eps < eps0_lower:
            return "large"
        return "intermediate"

    def ref_stride(eps: float) -> int:
        stride = math.ceil(h_snap / (h_ref_factor * eps))
        if th.rho > 0:
            stride = max(stride, math.ceil(4.0 * th.rho * h_snap / eps))
        stride = max(2, stride)
        return stride + stride % 2

    def run_one(eps: float):
        sys_e = system.with_epsilon(eps)
        if abs(sys_e.T - T) > 1e-12 * T:
            raise ValueError("with_epsilon changed the horizon T between epsilons")
        regime = classify(eps)
        stride = ref_stride(eps)
        if N * stride > REF_STEP_CAP:
            raise ValueError(
                f"reference for eps = {eps:g} would need {N * stride} steps "
                f"(cap {REF_STEP_CAP})"
            )
        ref = _rk4_nested(sys_e, N, stride)
        try:
            traj = integrate(sys_e, k, h_snap)
        except BlowUpError as exc:
            return SweepPoint(eps, None, None, None, regime, failed=str(exc)), None
        return _point_from_errors(eps, global_max_error(traj, ref), regime), (
            sys_e,
            ref,
            stride,
        )

    results = [run_one(eps) for eps in eps_values]
    points = [r[0] for r in results]
    ref_steps = sum(N * ref_stride(eps) for eps in eps_values)

    report = ErrorReport(
        axis="epsilon",
        k=k,
        points=points,
        slopes=_fit_regime_slopes(base, points),
        thresholds={
            "eps0": eps0,
            "eps0_lower": eps0_lower,
            "rho": th.rho,
            "mu": th.mu,
        },
    )
    smallest = results[-1][1]
    if smallest is not None:
        sys_e, ref, stride = smallest
        partner = _rk4_nested(sys_e, N, stride // 2, partner=True)
        ref_steps += N * (stride // 2)
        _margin_note(report, _richardson_estimate(ref, partner), points[-1].error_u)
    report.ref_steps = ref_steps
    _point_notes(report)
    return report
