"""Convergence harness: error metrics, thresholds, sweeps, order fits."""

from __future__ import annotations

import dataclasses
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
    integrate,
    rk4_integrate,
    sweep_eps,
    sweep_h,
    thresholds,
)


def test_fit_order_exact_power_law() -> None:
    hs = [0.1 * 2.0**-i for i in range(5)]
    errs = [3.7 * h**2 for h in hs]
    slope = fit_order(hs, errs)
    assert abs(slope - 2.0) <= 1e-12


def test_sweep_references_record_no_snap(monkeypatch) -> None:
    # the sweeps pass rk4_integrate exact divisors of T: no reference is snapped
    seen = []

    def spy(*args, **kwargs):
        traj = rk4_integrate(*args, **kwargs)
        seen.append(traj.h_requested)
        return traj

    monkeypatch.setattr(harness_mod, "rk4_integrate", spy)
    system = builtin("example1", 0.25, T=0.75)
    sweep_h(system, 1, [1 / 8, 1 / 16, 1 / 32])
    sweep_eps(system, 1, 0.25, [0.25, 0.125])
    assert seen and seen == [None] * len(seen)


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
    report = sweep_h(system, 1, hs)
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
    report = sweep_h(system, 1, hs)
    slope = report.slopes["small_u"]
    assert slope is not None and abs(slope - 2.0) <= 0.3
    assert report.ref_margin is not None and report.ref_margin >= 100
    assert report.ref_error_estimate is not None
    assert report.ref_error_estimate.u < min(p.error_u for p in report.points)
    # small-step errors decrease monotonically (2x noise allowance)
    errs = [p.error_u for p in report.points]
    for a, b in zip(errs, errs[1:]):
        assert b <= 2.0 * a


def test_sweep_h_linear_problem_sits_at_floor(monkeypatch) -> None:
    system = OscillatorySystem(
        d=1,
        A=np.array([[1j]]),
        epsilon=1.0,
        nu=0.0,
        u_in=np.array([1.0 + 0j]),
        T=1.0,
        oracle=PolynomialOracle(1, []),
    )
    runs = recorded_rk4(monkeypatch)
    report = sweep_h(system, 2, [1 / 4, 1 / 8, 1 / 16, 1 / 32])
    assert all(p.error_u <= ACCURACY_FLOOR for p in report.points)
    assert all(p.floored for p in report.points)
    assert report.slopes["small_u"] is None  # degenerate fit reported absent
    assert any("floor" in note for note in report.notes)
    # no margin is reached at the floor: the reference doubles while each
    # doubling cuts the Richardson estimate 4x, stops at the first that
    # does not (round-off), and the margin note says so
    trajs = [traj for _, _, traj in runs]
    ests = [global_max_error(b, a).u * (1.0 / 15.0) for a, b in zip(trajs, trajs[1:])]
    assert len(ests) >= 2 and report.ref_error_estimate.u == ests[-1]
    assert all(e <= prev / 4 for prev, e in zip(ests[:-2], ests[1:-1]))
    assert ests[-1] > ests[-2] / 4
    (note,) = [note for note in report.notes if "margin" in note]
    assert "round-off" in note and "decrease the reference step" not in note


def test_sweep_h_margin_note_names_the_step_cap(monkeypatch) -> None:
    # k = 3 needs one doubling of the reference here; a cap that admits the
    # first pair but not the doubled run stops the refinement short
    system = builtin("example1", 0.25, T=1.5)
    L = math.lcm(*(round(system.T / h) for h in CH_H))
    monkeypatch.setattr(harness_mod, "REF_STEP_CAP", 3 * L)
    report = sweep_h(system, 3, CH_H)
    assert report.ref_steps == 3 * L  # L (m = 2) plus its partner, L (m = 1)
    assert report.ref_margin < 100
    (note,) = [note for note in report.notes if "margin" in note]
    assert "step cap" in note and "decrease the reference step" not in note


def test_reference_past_the_step_cap_advises_what_the_caller_can_change(monkeypatch) -> None:
    # sweep_h's reference grid is the lcm of its step counts; sweep_eps
    # can set a start finer than eps / (8 rho) only through h_ref_factor,
    # and without one it already starts at eps / (8 rho)
    system = builtin("example1", 0.25, T=1.5)
    monkeypatch.setattr(harness_mod, "REF_STEP_CAP", 50)  # below L m = 36 * 2
    with pytest.raises(ValueError, match=r"\(cap 50\); use nested step sizes$"):
        sweep_h(system, 1, [1 / 8, 1 / 12])
    with pytest.raises(ValueError, match=r"\(cap 50\); use a larger h_ref_factor$"):
        sweep_eps(system, 1, 1 / 8, [0.25, 0.125], h_ref_factor=1 / 64)
    with pytest.raises(ValueError, match=r"\(cap 50\); use a larger eps or a shorter T$"):
        sweep_eps(system, 1, 1 / 8, [0.25, 0.125])


def recorded_rk4(monkeypatch) -> list:
    """Record (h_ref, sample_stride, trajectory) of every harness RK4 run.

    The stand-in accepts only rk4_integrate(system, h_ref, sample_stride=s),
    the one call the benchmark's tracer spans; every run a sweep makes must
    pass its resolution guard.
    """
    runs = []

    def recording(system, h_ref, *, sample_stride):
        traj = rk4_integrate(system, h_ref, sample_stride=sample_stride)
        runs.append((h_ref, sample_stride, traj))
        return traj

    monkeypatch.setattr(harness_mod, "rk4_integrate", recording)
    return runs


CH_H = [2.0**-j for j in range(4, 10)]  # the h grid of acceptance criterion 5


@pytest.mark.parametrize("k", [1, 2, 3])
def test_sweep_h_default_reference_is_sized_by_its_margin(k) -> None:
    system = builtin("example1", 0.25, T=1.5)
    L = math.lcm(*(round(system.T / h) for h in CH_H))
    report = sweep_h(system, k, CH_H)
    assert report.ref_margin is not None and report.ref_margin >= 100
    assert not any("margin" in note for note in report.notes)
    # a reference at the old fixed refinement T / (16 L) took 24 L steps
    assert 0 < report.ref_steps <= (3 if k == 1 else 15) * L


@pytest.mark.parametrize("eps", [0.25, 0.5])
def test_sweep_h_estimate_bounds_the_stopping_reference_error(monkeypatch, eps) -> None:
    system = builtin("example1", eps, T=1.5)
    runs = recorded_rk4(monkeypatch)
    report = sweep_h(system, 3, CH_H)
    h_ref, stride, ref = runs[-1]  # the run the errors were taken against
    finer = rk4_integrate(system, h_ref / 4, sample_stride=4 * stride)
    assert global_max_error(ref, finer).u <= 2 * report.ref_error_estimate.u


def test_sweep_h_explicit_target_that_meets_the_margin_runs_one_pair() -> None:
    # one run at the default start and a partner at half of it, written
    # out here as the reference computation
    system = builtin("example1", 0.25)
    ns = [24, 48, 96, 192]
    report = sweep_h(system, 1, [system.T / n for n in ns])
    L, m = 192, 2  # smallest even m with T / (L m) <= eps / (8 rho)
    ref = rk4_integrate(system, system.T / (L * m), sample_stride=m)
    partner = rk4_integrate(system, 2 * system.T / (L * m), sample_stride=m // 2)
    for p, n in zip(report.points, ns):
        stride = L // n
        sub = dataclasses.replace(
            ref, times=ref.times[::stride], states=ref.states[::stride]
        )
        errs = global_max_error(integrate(system, 1, system.T / n), sub)
        assert (p.error_u, p.error_y, p.error_ydot) == (errs.u, errs.y, errs.ydot)
    est = global_max_error(ref, partner).u * (1.0 / 15.0)
    assert report.ref_error_estimate.u == est
    assert report.ref_margin == min(p.error_u for p in report.points) / est
    assert report.ref_steps == L * m + L * m // 2
    assert report.notes == []


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
    report = sweep_h(system, 1, [6 / 12, 6 / 48, 6 / 96])
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


def test_sweep_eps_explicit_factor_that_meets_the_margin_keeps_its_strides(
    monkeypatch,
) -> None:
    # one reference per eps at stride ceil(h / (f eps)) rounded up to even,
    # and one partner at half the stride at the smallest eps, written out
    # here as the reference computation
    system = builtin("example1", 0.25)
    h, f, eps_values = 1 / 8, 1 / 64, [1 / 4, 1 / 8]
    runs = recorded_rk4(monkeypatch)
    report = sweep_eps(system, 1, h, eps_values, h_ref_factor=f)
    T = system.T
    N = round(T / h)
    strides = [s + s % 2 for s in (math.ceil(h / (f * eps)) for eps in eps_values)]
    systems = [system.with_epsilon(eps) for eps in eps_values]
    refs = [
        rk4_integrate(s, T / (N * stride), sample_stride=stride)
        for s, stride in zip(systems, strides)
    ]
    half = strides[-1] // 2
    partner = rk4_integrate(systems[-1], T / (N * half), sample_stride=half)
    want_runs = [(T / (N * s), s) for s in strides + [half]]
    assert sorted((h_ref, s) for h_ref, s, _ in runs) == sorted(want_runs)
    for p, s, ref in zip(report.points, systems, refs):
        errs = global_max_error(integrate(s, 1, h), ref)
        assert (p.error_u, p.error_y, p.error_ydot) == (errs.u, errs.y, errs.ydot)
    est = global_max_error(refs[-1], partner).u * (1.0 / 15.0)
    assert report.ref_error_estimate.u == est
    assert report.ref_margin == report.points[-1].error_u / est >= 100
    assert report.ref_steps == N * (sum(strides) + half)
    assert report.notes == []


def test_sweep_eps_default_reference_is_sized_by_its_margin() -> None:
    # acceptance criterion 7's large-step inputs; with a fixed step of
    # eps / 1024 the references took 3,735,552 RK4 steps, against 135,168
    # when sized by the margin
    system = builtin("example1", 0.25)
    report = sweep_eps(system, 1, 0.5, [1 / 32, 1 / 64, 1 / 128, 1 / 256])
    assert report.ref_margin is not None and report.ref_margin >= 100
    assert not any("margin" in note for note in report.notes)
    assert 0 < report.ref_steps <= 140_000


def test_sweep_eps_coarse_factor_starts_at_the_resolution_bound() -> None:
    # the certified reference doubles once here; every eps must follow it,
    # also when the requested factor was coarser than 1 / (8 rho)
    system = builtin("example1", 0.25, T=1.5)
    eps_values = [1 / 16, 1 / 32, 1 / 64]
    default = sweep_eps(system, 1, 1 / 4, eps_values)
    assert default.ref_steps == 3840  # N = 6: 6 * (64 + 128 + 256) + 6 * (128 + 64)
    assert sweep_eps(system, 1, 1 / 4, eps_values, h_ref_factor=1.0) == default


def test_sweep_eps_blown_up_point_runs_no_reference(monkeypatch) -> None:
    system = builtin("example1", 0.25)
    real_integrate = harness_mod.integrate

    def flaky(sys_, k, h):
        if sys_.epsilon < 0.1:
            raise BlowUpError(3, 0.75, 2e12)
        return real_integrate(sys_, k, h)

    monkeypatch.setattr(harness_mod, "integrate", flaky)
    runs = recorded_rk4(monkeypatch)
    report = sweep_eps(system, 1, 1 / 8, [1 / 4, 1 / 8, 1 / 16], h_ref_factor=1 / 64)
    failed = report.points[-1]
    assert failed.failed is not None and failed.error_u is None
    assert all(p.failed is None and p.error_u > 0 for p in report.points[:2])
    assert runs and all(ref.epsilon != 1 / 16 for _, _, ref in runs)
    # the smallest eps that held is the one certified
    assert report.ref_margin == report.points[1].error_u / report.ref_error_estimate.u
    assert any("blow-up" in note for note in report.notes)


def test_sweep_eps_certifies_the_smallest_eps_when_every_run_blew_up(monkeypatch) -> None:
    # as sweep_h does, so a reference that blows up as well is reported
    system = builtin("example1", 0.25)

    def blow_up(sys_, k, h):
        raise BlowUpError(3, 0.75, 2e12)

    monkeypatch.setattr(harness_mod, "integrate", blow_up)
    runs = recorded_rk4(monkeypatch)
    report = sweep_eps(system, 1, 1 / 8, [1 / 4, 1 / 8, 1 / 16], h_ref_factor=1 / 64)
    assert all(p.failed is not None and p.error_u is None for p in report.points)
    # one certified pair at eps = 1/16 (stride 128 and its partner at 64)
    N = round(system.T * 8)
    assert [(ref.epsilon, s) for _, s, ref in runs] == [(1 / 16, 64), (1 / 16, 128)]
    assert report.ref_steps == N * (64 + 128)
    assert report.ref_margin is None and report.ref_error_estimate.u > 0
    assert any("3 point(s) aborted" in note for note in report.notes)


def test_sweep_h_and_sweep_eps_agree_on_a_shared_point() -> None:
    system = builtin("example1", 0.25, T=1.5)
    by_h = sweep_h(system, 2, [1 / 16])
    by_eps = sweep_eps(system, 2, 1 / 16, [0.25])
    (p_h,), (p_eps,) = by_h.points, by_eps.points
    assert dataclasses.replace(p_h, param=0.25) == p_eps
    assert p_eps.regime == "small"
    assert by_h.ref_error_estimate == by_eps.ref_error_estimate
    assert by_h.ref_margin == by_eps.ref_margin >= 100
    assert by_h.ref_steps == by_eps.ref_steps > 0


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
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="finite and positive"):
            sweep_eps(system, 1, 0.1, [0.2, 0.1], h_ref_factor=bad)


def test_sweep_eps_integrates_over_the_system_s_own_horizon(monkeypatch) -> None:
    # every eps runs over the T of the system passed in, also after a replace
    system = dataclasses.replace(builtin("example1", 0.25), T=1.5)
    real_integrate, runs = harness_mod.integrate, []

    def spy(sys_, k, h):
        traj = real_integrate(sys_, k, h)
        runs.append((sys_.epsilon, sys_.T, traj.times[-1]))
        return traj

    monkeypatch.setattr(harness_mod, "integrate", spy)
    eps_values = [1 / 16, 1 / 32]
    sweep_eps(system, 1, 1 / 4, eps_values)
    assert runs == [(eps, 1.5, 1.5) for eps in eps_values]


def test_with_epsilon_matches_a_fresh_builtin() -> None:
    # sweep_eps rebuilds its system only through with_epsilon; example2's
    # oracle does not depend on epsilon, so replace gives the same system
    a, b = 1 / 16, 1 / 64
    moved = builtin("example2-E6", a).with_epsilon(b)
    fresh = builtin("example2-E6", b)
    assert moved.epsilon == b
    got, want = integrate(moved, 2, b / 4), integrate(fresh, 2, b / 4)
    assert got.states.dtype == want.states.dtype
    assert np.array_equal(got.states, want.states)
