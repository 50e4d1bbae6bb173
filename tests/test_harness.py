"""Convergence harness: error metrics, thresholds, sweeps, order fits."""

from __future__ import annotations

import math

import numpy as np
import pytest

import osc_llei.harness as harness_mod
from osc_llei import (
    ACCURACY_FLOOR,
    BlowUpError,
    OscillatorySystem,
    PolynomialOracle,
    Trajectory,
    builtin,
    fit_order,
    global_max_error,
    sweep_eps,
    sweep_h,
    thresholds,
)


def test_fit_order_exact_power_law() -> None:
    hs = [0.1 * 2.0**-i for i in range(5)]
    errs = [3.7 * h**2 for h in hs]
    slope = fit_order(hs, errs)
    assert abs(slope - 2.0) <= 1e-12


def test_fit_order_with_noise() -> None:
    rng = np.random.default_rng(3)
    hs = [0.5 * 2.0**-i for i in range(8)]
    errs = [2.0 * h**3 * (1.0 + 0.01 * rng.uniform(-1, 1)) for h in hs]
    slope = fit_order(hs, errs)
    assert abs(slope - 3.0) <= 0.05


def test_fit_order_floor_and_minimum_points() -> None:
    hs = [0.1, 0.05, 0.025, 0.0125]
    assert fit_order(hs, [1e-12, 1e-13, 1e-14, 1e-15]) is None  # all floored
    assert fit_order(hs[:2], [1e-3, 1e-4]) is None  # too few
    # floored points are dropped, the rest still fit
    errs = [1e-2, 1e-3, 1e-4, 1e-11]
    slope = fit_order(hs, errs)
    assert slope is not None and abs(slope - math.log2(10) * 1) < 3.5
    assert fit_order(hs, [None, 1e-3, 1e-4, 1e-5]) is not None


def test_thresholds_worked_examples() -> None:
    s1 = builtin("example1", 1 / 2**8)
    th = thresholds(s1)
    assert math.isclose(th.h0, math.pi * s1.epsilon / 2)
    assert math.isclose(th.h0_lower, 2 * math.pi * s1.epsilon)
    assert math.isclose(th.rho, 1.0) and math.isclose(th.mu, 1.0)

    s2 = builtin("example2-E6", 0.125)
    th2 = thresholds(s2)
    assert math.isclose(th2.rho, 3.0, abs_tol=1e-12)
    assert math.isclose(th2.mu, 2.0, abs_tol=1e-12)
    assert math.isclose(th2.h0, math.pi * s2.epsilon / 6, rel_tol=1e-12)
    assert math.isclose(th2.h0_lower, math.pi * s2.epsilon, rel_tol=1e-12)

    flat = OscillatorySystem(
        d=2,
        A=np.diag([1j, 0.0]),
        epsilon=1.0,
        nu=0.0,
        u_in=np.zeros(2),
        T=1.0,
        oracle=PolynomialOracle(2, []),
    )
    th3 = thresholds(flat)
    assert th3.mu is None and th3.h0_lower is None
    assert math.isclose(th3.h0, math.pi / 2)


def make_traj(times, states, eps=1.0, y_dim=None) -> Trajectory:
    return Trajectory(
        times=np.asarray(times, dtype=float),
        states=np.asarray(states, dtype=complex),
        epsilon=eps,
        h=float(times[1] - times[0]),
        y_dim=y_dim,
    )


def test_global_max_error_basics() -> None:
    times = np.linspace(0, 1, 5)
    states = np.outer(np.arange(5.0), np.ones(2))
    traj = make_traj(times, states)
    assert global_max_error(traj, traj).u == 0.0
    shifted = states.copy()
    shifted[2] += np.array([3.0, 4.0])
    assert math.isclose(global_max_error(traj, make_traj(times, shifted)).u, 5.0)
    with pytest.raises(ValueError):
        global_max_error(traj, make_traj(times[:4], states[:4]))
    with pytest.raises(ValueError):
        global_max_error(traj, make_traj(times + 0.5, states))


def test_global_max_error_split_components() -> None:
    times = np.linspace(0, 1, 3)
    eps = 0.25
    a = make_traj(times, np.zeros((3, 2)), eps=eps, y_dim=1)
    states = np.zeros((3, 2))
    states[1] = [0.3, 0.8]  # y off by .3, p off by .8
    b = make_traj(times, states, eps=eps, y_dim=1)
    errs = global_max_error(a, b)
    assert math.isclose(errs.y, 0.3)
    assert math.isclose(errs.ydot, 0.8 / eps)
    assert math.isclose(errs.u, math.hypot(0.3, 0.8))


def test_sweep_h_regime_assignment() -> None:
    system = builtin("example1", 0.25)  # h0 = 0.3927, h0_lower = 1.5708
    hs = [2.0, 1.0, 0.5, 0.25, 0.125]
    report = sweep_h(system, 1, hs, h_ref_target=2e-3)
    regimes = [p.regime for p in report.points]
    assert regimes == ["large", "intermediate", "intermediate", "small", "small"]
    for p in report.points:
        assert p.failed is None and p.error_u is not None and p.error_u >= 0
    # too few points per regime for fits
    assert report.slopes["small_u"] is None
    assert report.slopes["large_u"] is None
    assert set(p.param for p in report.regime_points("small")) == {0.25, 0.125}
    assert report.thresholds["h0"] == pytest.approx(math.pi / 8)


def test_sweep_h_small_regime_slope_and_margin() -> None:
    system = builtin("example1", 0.25)
    hs = [6 / 24, 6 / 48, 6 / 96, 6 / 192]
    report = sweep_h(system, 1, hs, h_ref_target=1e-3)
    slope = report.slopes["small_u"]
    assert slope is not None and abs(slope - 2.0) <= 0.3
    assert report.ref_margin is not None and report.ref_margin >= 100
    assert report.ref_error_estimate is not None
    assert report.ref_error_estimate.u < min(p.error_u for p in report.points)
    # small-step errors decrease monotonically (2x noise allowance)
    errs = [p.error_u for p in report.points]
    for a, b in zip(errs, errs[1:]):
        assert b <= 2.0 * a


def test_sweep_h_linear_problem_sits_at_floor() -> None:
    system = OscillatorySystem(
        d=1,
        A=np.array([[1j]]),
        epsilon=1.0,
        nu=0.0,
        u_in=np.array([1.0 + 0j]),
        T=1.0,
        oracle=PolynomialOracle(1, []),
    )
    report = sweep_h(system, 2, [1 / 4, 1 / 8, 1 / 16, 1 / 32], h_ref_target=1e-4)
    assert all(p.error_u <= ACCURACY_FLOOR for p in report.points)
    assert all(p.floored for p in report.points)
    assert report.slopes["small_u"] is None  # degenerate fit reported absent
    assert any("floor" in note for note in report.notes)


def test_sweep_h_validation() -> None:
    system = builtin("example1", 0.25)
    with pytest.raises(ValueError):
        sweep_h(system, 1, [0.1, 0.2])  # not descending
    with pytest.raises(ValueError):
        sweep_h(system, 1, [])
    with pytest.raises(ValueError):
        sweep_h(system, 1, [0.5, -0.1])
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite and positive"):
            sweep_h(system, 1, [bad, 0.1])


def test_sweep_h_records_blow_up_as_failed_point(monkeypatch) -> None:
    system = builtin("example1", 0.25)
    real_integrate = harness_mod.integrate

    def flaky(sys_, k, h):
        if h > 0.2:
            raise BlowUpError(3, 0.75, 2e12)
        return real_integrate(sys_, k, h)

    monkeypatch.setattr(harness_mod, "integrate", flaky)
    report = sweep_h(system, 1, [6 / 12, 6 / 48, 6 / 96], h_ref_target=2e-3)
    assert report.points[0].failed is not None
    assert report.points[0].error_u is None
    assert all(p.failed is None for p in report.points[1:])
    assert any("blow-up" in note for note in report.notes)


def test_sweep_eps_small_step_regime() -> None:
    system = builtin("example1", 0.5)
    h = 1 / 2**6
    report = sweep_eps(system, 1, h, [1 / 2, 1 / 4, 1 / 8])
    assert all(p.regime == "small" for p in report.points)
    # error(y) scales like eps; error(ydot) is eps-uniform (4x allowance)
    slope = report.slopes["small_y"]
    assert slope is not None and abs(slope - 1.0) <= 0.3, report.slopes
    ydots = [p.error_ydot for p in report.points]
    assert max(ydots) <= 4.0 * min(ydots)
    assert report.ref_error_estimate is not None
    assert report.thresholds["eps0"] == pytest.approx(2 * (6 / 384) * 1 / math.pi)


def test_sweep_eps_validation() -> None:
    system = builtin("example1", 0.5)
    with pytest.raises(ValueError):
        sweep_eps(system, 1, 0.1, [0.1, 0.2])
    with pytest.raises(ValueError):
        sweep_eps(system, 1, -0.1, [0.2, 0.1])
    with pytest.raises(ValueError):
        sweep_eps(system, 1, 0.1, [])
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite and positive"):
            sweep_eps(system, 1, bad, [0.2, 0.1])


def test_sweep_eps_accepts_factory() -> None:
    report = sweep_eps(
        lambda eps: builtin("example1", eps, T=1.0),
        1,
        1 / 8,
        [1.0, 0.5],
        h_ref_factor=1 / 256,
    )
    assert len(report.points) == 2
    assert all(p.error_u is not None for p in report.points)
    assert report.slopes["small_y"] is None  # two points never fit
