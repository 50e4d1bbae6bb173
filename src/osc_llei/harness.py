"""Convergence-study harness: error sweeps over h and over epsilon.

Errors are global: the max over the shared uniform grid of the
Euclidean norm of the state difference against an RK4 reference.  For
phase-space systems ([y; p] with p = eps * dy/dt) the error is also
split into error(y) and error(dy/dt) = |p - p_ref| / eps.

Step-size sweeps share a single reference trajectory: the scheme grids
are nested into one fine RK4 grid (lcm of the step counts times an even
refinement), so every comparison point is an exact reference sample.
The reference's own accuracy is estimated by Richardson extrapolation
against a second run at twice the step (RK4 is fourth order, so the
disagreement overestimates the fine run's error by about 15x), and the
report records the margin between measured scheme errors and that
estimate.

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


def _richardson_estimate(system, ref, h_fine, stride) -> ErrorValues:
    """Reference-error estimate: |ref - run at 2 h_fine| / 15 on ref's grid."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ref2 = rk4_integrate(
            system, 2.0 * h_fine, sample_stride=stride // 2, allow_unresolved=True
        )
    errs = global_max_error(ref, ref2)
    scale = 1.0 / 15.0
    return ErrorValues(
        u=errs.u * scale,
        y=None if errs.y is None else errs.y * scale,
        ydot=None if errs.ydot is None else errs.ydot * scale,
    )


def _margin_note(report: ErrorReport, est: ErrorValues, min_error: float | None):
    report.ref_error_estimate = est
    if min_error is None or est.u <= 0:
        return
    margin = min_error / est.u
    report.ref_margin = margin
    if margin < 100.0:
        report.notes.append(
            f"reference accuracy margin is {margin:.1f}x, below the 100x target; "
            "decrease the reference step"
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
    to divide T exactly; the shared RK4 grid refines the lcm of the step
    counts, so its step is at most h_ref_target (default: fine enough to
    resolve the oscillation and the finest scheme grid).
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
        resolve = system.epsilon / (8.0 * th.rho) if th.rho > 0 else math.inf
        h_ref_target = min(resolve, T / (16.0 * L))
    m = max(2, math.ceil((T / L) / h_ref_target))
    m += m % 2
    n_ref = L * m
    if n_ref > REF_STEP_CAP:
        raise ValueError(
            f"shared reference would need {n_ref} steps (cap {REF_STEP_CAP}); "
            "use nested step sizes or a coarser h_ref_target"
        )
    h_ref = T / n_ref
    ref = rk4_integrate(system, h_ref, sample_stride=m)

    def classify(h: float) -> str:
        if th.h0 is not None and h < th.h0:
            return "small"
        if th.h0_lower is not None and h > th.h0_lower:
            return "large"
        return "intermediate"

    def run_one(n: int) -> SweepPoint:
        h = T / n
        regime = classify(h)
        try:
            traj = integrate(system, k, h)
        except BlowUpError as exc:
            return SweepPoint(h, None, None, None, regime, failed=str(exc))
        stride = L // n
        sub = Trajectory(
            times=ref.times[::stride],
            states=ref.states[::stride],
            epsilon=ref.epsilon,
            h=h,
            y_dim=ref.y_dim,
        )
        return _point_from_errors(h, global_max_error(traj, sub), regime)

    points = [run_one(n) for n in n_values]

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
    )
    est = _richardson_estimate(system, ref, h_ref, m)
    ok_errors = [p.error_u for p in points if p.error_u is not None]
    _margin_note(report, est, min(ok_errors) if ok_errors else None)
    _point_notes(report)
    return report


def sweep_eps(
    system_or_factory,
    k: int,
    h: float,
    eps_values,
    h_ref_factor: float = 1.0 / 1024.0,
) -> ErrorReport:
    """Error vs epsilon at fixed step size h.

    system_or_factory is an OscillatorySystem (rebuilt per epsilon via
    with_epsilon) or a callable epsilon -> OscillatorySystem.  Each
    epsilon gets its own RK4 reference with step about h_ref_factor *
    epsilon; the Richardson accuracy estimate is run at the smallest
    epsilon, where the reference works hardest.
    """
    if isinstance(system_or_factory, OscillatorySystem):
        factory = system_or_factory.with_epsilon
    else:
        factory = system_or_factory
    eps_values = [float(e) for e in eps_values]
    if not eps_values or any(e <= 0 for e in eps_values):
        raise ValueError("eps_values must be positive")
    if any(b >= a for a, b in zip(eps_values, eps_values[1:])):
        raise ValueError("eps_values must be strictly decreasing")
    check_finite_positive("h", h)
    check_finite_positive("h_ref_factor", h_ref_factor)

    base = factory(eps_values[0])
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
        sys_e = factory(eps)
        if abs(sys_e.T - T) > 1e-12 * T:
            raise ValueError("factory changed the horizon T between epsilons")
        regime = classify(eps)
        stride = ref_stride(eps)
        if N * stride > REF_STEP_CAP:
            raise ValueError(
                f"reference for eps = {eps:g} would need {N * stride} steps "
                f"(cap {REF_STEP_CAP})"
            )
        ref = rk4_integrate(sys_e, h_snap / stride, sample_stride=stride)
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
        est = _richardson_estimate(sys_e, ref, h_snap / stride, stride)
        last = points[-1]
        _margin_note(report, est, last.error_u)
    _point_notes(report)
    return report
