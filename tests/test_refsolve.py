"""RK4 reference solver."""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from osc_llei import (
    BlowUpError,
    DerivativeOracle,
    OscillatorySystem,
    PolynomialOracle,
    builtin,
    fit_order,
    integrate,
    load_config,
    rk4_integrate,
    second_order_to_first_order,
)

README = Path(__file__).resolve().parents[1] / "README.md"


def identity_growth_system(T: float) -> OscillatorySystem:
    # du/dt = u expressed through F (A = 0)
    return OscillatorySystem(
        d=1,
        A=np.zeros((1, 1)),
        epsilon=1.0,
        nu=0.0,
        u_in=np.array([1.0]),
        T=T,
        oracle=PolynomialOracle(1, [(1, (1,), 1.0)]),
    )


def test_one_step_rk4_polynomial() -> None:
    h = 0.1
    traj = rk4_integrate(identity_growth_system(T=h), h)
    want = 1.0 + h + h**2 / 2 + h**3 / 6 + h**4 / 24
    assert abs(traj.states[-1, 0] - want) <= 1e-15 * want
    assert len(traj.times) == 2


def test_fourth_order_self_convergence() -> None:
    system = builtin("example1", 1.0, T=1.0)
    fine = rk4_integrate(system, 1 / 5120)
    hs = [1 / 10, 1 / 20, 1 / 40, 1 / 80]
    errs = []
    for h in hs:
        got = rk4_integrate(system, h)
        errs.append(float(np.linalg.norm(got.states[-1] - fine.states[-1])))
    slope = fit_order(hs, errs)
    assert slope is not None and abs(slope - 4.0) <= 0.2, (slope, errs)


def test_harmonic_oscillator_closed_form() -> None:
    system = second_order_to_first_order(
        M=np.array([[1.0]]),
        g_oracle=PolynomialOracle(1, []),
        y_in=[1.0],
        ydot_in=[0.5],
        epsilon=1.0,
        nu=0.0,
        T=3.0,
    )
    traj = rk4_integrate(system, 1e-3)
    t = traj.times
    y = np.cos(t) + 0.5 * np.sin(t)
    p = -np.sin(t) + 0.5 * np.cos(t)
    assert np.max(np.abs(traj.states[:, 0] - y)) <= 1e-11
    assert np.max(np.abs(traj.states[:, 1] - p)) <= 1e-11


def test_resolution_guard_checks_the_step_taken() -> None:
    system = builtin("example1", 0.01, T=0.5)  # rho = 1, eps/(4 rho) = 0.0025
    with pytest.raises(ValueError):
        rk4_integrate(system, 0.01)
    # h_ref meets the bound, but 0.5 / (0.0025 * 150) rounds to one sample
    # of 150 steps, each T / 150 = 0.00333 long
    with pytest.raises(ValueError, match="does not resolve"):
        rk4_integrate(system, 0.0025, sample_stride=150)
    assert rk4_integrate(system, 0.0025, sample_stride=100).h == 0.25


def test_snapped_sample_spacing_is_recorded() -> None:
    system = builtin("example1", 0.25, T=1.5)
    snapped = rk4_integrate(system, 0.003, sample_stride=7)
    assert snapped.n_steps == 71 and snapped.h == 1.5 / 71
    assert snapped.h_requested == 0.003 * 7
    # an exact divisor of T, as the harness passes, records no snap
    assert rk4_integrate(system, 1.5 / (24 * 8), sample_stride=8).h_requested is None


def test_sampling_aligns_with_scheme_grid() -> None:
    system = builtin("example1", 0.5)
    n = 24
    stride = 50
    h = system.T / n
    ref = rk4_integrate(system, h / stride, sample_stride=stride)
    traj = integrate(system, 1, h)
    assert ref.states.shape == traj.states.shape
    assert np.max(np.abs(ref.times - traj.times)) <= 1e-12 * system.T


def test_blow_up_detection() -> None:
    system = OscillatorySystem(
        d=1,
        A=np.zeros((1, 1)),
        epsilon=1.0,
        nu=0.0,
        u_in=np.array([3.0]),
        T=2.0,
        oracle=PolynomialOracle(1, [(1, (1, 1), 1.0)]),
    )
    with pytest.raises(BlowUpError):
        rk4_integrate(system, 1e-3)


@pytest.mark.parametrize(
    "solver, stride",
    [("rk4", 1), ("rk4", 10), ("integrate", None)],
    ids=["rk4-stride-1", "rk4-stride-10", "integrate"],
)
def test_blow_up_names_a_step_and_its_start_time(solver, stride) -> None:
    # du/dt = u^2 from u(0) = 3 blows up at t = 1/3; both solvers name
    # the step after which the state is found too large, with its start time
    system = OscillatorySystem(
        d=1,
        A=np.zeros((1, 1)),
        epsilon=1.0,
        nu=0.0,
        u_in=np.array([3.0]),
        T=2.0,
        oracle=PolynomialOracle(1, [(1, (1, 1), 1.0)]),
    )
    h = 1e-3
    with pytest.raises(BlowUpError) as info:
        if solver == "rk4":
            rk4_integrate(system, h, sample_stride=stride)
        else:
            integrate(system, 2, h)
    err = info.value
    assert 0.3 < err.t < 0.4
    assert math.isclose(err.t, err.step_index * h, rel_tol=1e-12)


def test_argument_validation() -> None:
    system = identity_growth_system(T=1.0)
    with pytest.raises(ValueError):
        rk4_integrate(system, -0.1)
    with pytest.raises(ValueError):
        rk4_integrate(system, 0.1, sample_stride=0)


def test_real_fast_path_matches_complex_path() -> None:
    # the same trajectory computed with real and complex arithmetic
    real_sys = builtin("example1", 0.5, T=1.0)
    traj_real = rk4_integrate(real_sys, 1e-3)

    complex_sys = OscillatorySystem(
        d=2,
        A=real_sys.A + 0j,
        epsilon=0.5,
        nu=1.0,
        u_in=real_sys.u_in.astype(complex),
        T=1.0,
        oracle=_ComplexWrap(real_sys.oracle),
        y_dim=1,
    )
    traj_cplx = rk4_integrate(complex_sys, 1e-3)
    # the real run reads g on y alone, the complex run all of F
    assert real_sys.oracle._forcing(2)[1] == 1
    assert complex_sys.oracle._forcing(2)[1] == 2
    assert np.allclose(traj_real.states, traj_cplx.states, rtol=0, atol=1e-13)


class _ComplexWrap(DerivativeOracle):
    """Force the generic complex path: not real-valued, F as its own g."""

    def __init__(self, inner):
        self.inner = inner

    def _taylor(self, catalog, u, t):
        return self.inner.taylor(catalog, u, t)

    def value(self, u, t):
        return self.inner.value(u, t).astype(complex)


def test_pi_period_sanity() -> None:
    # example1's linear part has period 2 pi eps; a quarter period of the
    # fast phase rotates [y; p] by 90 degrees when g is switched off
    system = second_order_to_first_order(
        M=np.array([[1.0]]),
        g_oracle=PolynomialOracle(1, []),
        y_in=[1.0],
        ydot_in=[0.0],
        epsilon=0.125,
        nu=0.0,
        T=0.125 * math.pi / 2,
    )
    traj = rk4_integrate(system, 1e-5)
    assert np.allclose(traj.states[-1], [0.0, -1.0], atol=1e-8)


def textbook_rk4(system, n_steps: int) -> np.ndarray:
    """Every state of n_steps classical RK4 steps, k_i = (A/eps) u_i + F(u_i, t_i)."""
    L = np.asarray(system.A, dtype=complex) / system.epsilon
    F = system.oracle.value
    h = system.T / n_steps
    u = np.asarray(system.initial_state, dtype=complex)
    out = [u]
    for n in range(n_steps):
        t = n * h
        k1 = L @ u + F(u, t)
        k2 = L @ (u + h / 2 * k1) + F(u + h / 2 * k1, t + h / 2)
        k3 = L @ (u + h / 2 * k2) + F(u + h / 2 * k2, t + h / 2)
        k4 = L @ (u + h * k3) + F(u + h * k3, t + h)
        u = u + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        out.append(u)
    return np.array(out)


def readme_inline_system() -> OscillatorySystem:
    blocks = re.findall(r"^```json\n(.*?)^```$", README.read_text(), flags=re.S | re.M)
    return load_config(json.loads(next(b for b in blocks if "poly_F" in b)))


def complex_phase_space_system() -> OscillatorySystem:
    # complex y_in and a complex coefficient in g: the complex path, with
    # F read through the [0; eps I] embedding of g
    return second_order_to_first_order(
        M=np.array([[2.0, 0.5], [0.5, 1.0]]),
        g_oracle=PolynomialOracle(2, [(1, (1, 2), 0.3), (2, (1, 1, 3), -1.0 + 0.5j)]),
        y_in=[1.0 + 0.5j, 0.2],
        ydot_in=[0.1, -0.3j],
        epsilon=1 / 16,
        nu=1.0,
        T=1.0,
    )


@pytest.mark.parametrize(
    "make",
    [
        lambda: builtin("example1", 1 / 16, T=1.0),
        lambda: builtin("example2-E3", 1 / 16, T=0.5),
        readme_inline_system,
        complex_phase_space_system,
    ],
    ids=["example1", "example2-E3", "readme-poly_F", "complex-phase-space"],
)
def test_matches_textbook_rk4_with_four_value_calls_per_step(make, monkeypatch) -> None:
    # the stage-increment kernel is the classical method on the full F up
    # to rounding, and asks the value of the oracle's _forcing g (g of a
    # second-order system, F itself otherwise) exactly at t, t + h/2,
    # t + h/2 and t + h
    system = make()
    n_steps = 300
    h = system.T / n_steps
    want = textbook_rk4(system, n_steps)

    called_at = []
    owner = system.oracle._forcing(system.d)[0]
    value = owner.value

    def counting(u, t):
        called_at.append(t)
        return value(u, t)

    monkeypatch.setattr(owner, "value", counting)
    got = rk4_integrate(system, h).states
    err = np.max(np.abs(got - want)) / np.max(np.abs(want))
    assert err <= 1e-13, err

    assert len(called_at) == 4 * n_steps
    stage_times = np.arange(n_steps)[:, None] * h + np.array([0.0, 0.5, 0.5, 1.0]) * h
    assert np.max(np.abs(np.array(called_at) - stage_times.ravel())) <= 1e-12 * system.T


def test_long_run_round_off_stays_at_truncation_level() -> None:
    # 40,000 steps of a harmonic oscillator: rounding the step's propagator
    # at every step (the identity folded into the increment maps) shows
    # as a 1e-12 error, the increment form stays near the 1e-14 truncation
    eps = 0.05
    system = second_order_to_first_order(
        M=np.array([[1.0]]),
        g_oracle=PolynomialOracle(1, []),
        y_in=[1.0],
        ydot_in=[0.5],
        epsilon=eps,
        nu=0.0,
        T=1.0,
    )
    traj = rk4_integrate(system, 1.0 / 40_000, sample_stride=100)
    assert len(traj.times) == 401
    phase = traj.times / eps
    y = np.cos(phase) + 0.5 * np.sin(phase)
    p = -np.sin(phase) + 0.5 * np.cos(phase)
    err = max(np.max(np.abs(traj.states[:, 0] - y)), np.max(np.abs(traj.states[:, 1] - p)))
    assert err <= 1e-13, err
