"""The exponential stepper and its driver."""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from osc_llei import (
    BlowUpError,
    DerivativeOracle,
    MultiIndexCatalog,
    OscillatorySystem,
    PolynomialOracle,
    build_catalog,
    builtin,
    fit_order,
    integrate,
    linalg,
    load_config,
    rk4_integrate,
    step,
)
from osc_llei._jets import _pairs
from osc_llei.extension import _compiled
from osc_llei.mindex import _restriction, _sum_table


def linear_system(eps: float) -> OscillatorySystem:
    return OscillatorySystem(
        d=1,
        A=np.array([[1j]]),
        epsilon=eps,
        nu=0.0,
        u_in=np.array([1.0 - 0.5j]),
        T=1.0,
        oracle=PolynomialOracle(1, []),
    )


def test_step_is_exact_for_linear_problems() -> None:
    for eps in (1.0, 1e-4):
        system = linear_system(eps)
        catalog = build_catalog(2, 2)
        Un = np.array([0.8 + 0.1j])
        for h in (0.5, 0.05, 5e-3):
            got = step(system, catalog, Un, 0.3, h)
            want = np.exp(1j * h / eps) * Un
            assert np.allclose(got, want, rtol=0, atol=1e-12)


def test_step_continuity_as_h_vanishes() -> None:
    system = builtin("example1", 0.25)
    catalog = build_catalog(3, 2)
    Un = system.initial_state
    out = step(system, catalog, Un, 0.0, 1e-10)
    assert np.allclose(out, Un, atol=1e-9)


def test_step_validation() -> None:
    system = linear_system(1.0)
    catalog = build_catalog(2, 2)
    with pytest.raises(ValueError):
        step(system, catalog, np.array([1.0]), 0.0, -0.1)
    with pytest.raises(ValueError):
        step(system, build_catalog(3, 2), np.array([1.0]), 0.0, 0.1)


def test_single_step_local_order() -> None:
    # one step from t = 0 matches a fine RK4 run with local order k + 2
    k = 1
    catalog = build_catalog(3, k)
    hs = [1 / 2**j for j in range(4, 9)]
    errs = []
    for h in hs:
        system = builtin("example1", 0.25, T=h)
        got = step(system, catalog, system.initial_state, 0.0, h)
        ref = rk4_integrate(system, h / 2**10)
        errs.append(float(np.linalg.norm(got - ref.states[-1])))
    slope = fit_order(hs, errs)
    assert slope is not None and abs(slope - (k + 2)) <= 0.3, (slope, errs)


def test_integrate_linear_final_state() -> None:
    for eps in (1.0, 1e-4):
        system = linear_system(eps)
        for k in (1, 3):
            traj = integrate(system, k, 0.25)
            want = np.exp(1j * system.T / eps) * system.u_in
            assert np.allclose(traj.states[-1], want, atol=1e-10)


def test_integrate_grid_and_metadata() -> None:
    system = builtin("example1", 0.5)
    traj = integrate(system, 1, 0.5)  # T = 6: N = 12, no snap
    assert traj.n_steps == 12
    assert traj.h == 0.5 and traj.h_requested is None
    assert traj.k == 1 and traj.epsilon == 0.5 and traj.y_dim == 1
    assert np.allclose(np.diff(traj.times), 0.5, atol=1e-15)
    assert np.array_equal(traj.states[0], system.initial_state)

    snapped = integrate(system, 1, 0.7)  # N = round(6/0.7) = 9, h -> 2/3
    assert snapped.n_steps == 9
    assert np.isclose(snapped.h, 6.0 / 9.0)
    assert snapped.h_requested == 0.7


def test_integrate_single_step_boundary() -> None:
    system = linear_system(1.0)
    traj = integrate(system, 1, system.T)
    assert len(traj.times) == 2
    assert traj.times[-1] == system.T


def test_integrate_is_deterministic() -> None:
    system = builtin("example2-E6", 0.25)
    a = integrate(system, 2, 0.125)
    b = integrate(system, 2, 0.125)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.times, b.times)


def test_blow_up_aborts_with_step_index() -> None:
    # du/dt = u^2 from u(0) = 2 blows up at t = 0.5
    system = OscillatorySystem(
        d=1,
        A=np.zeros((1, 1)),
        epsilon=1.0,
        nu=0.0,
        u_in=np.array([2.0]),
        T=10.0,
        oracle=PolynomialOracle(1, [(1, (1, 1), 1.0)]),
    )
    with pytest.raises(BlowUpError) as info:
        integrate(system, 2, 0.05)
    assert 0 <= info.value.step_index < 200
    assert info.value.norm > 1e12 or not np.isfinite(info.value.norm)


def test_step_raises_blow_up_past_threshold() -> None:
    # du/dt = (i + 100) u: one unit step multiplies |u| by e^100
    system = OscillatorySystem(
        d=1,
        A=np.array([[1j]]),
        epsilon=1.0,
        nu=0.0,
        u_in=np.ones(1),
        T=1.0,
        oracle=PolynomialOracle(1, [(1, (1,), 100.0)]),
    )
    with pytest.raises(BlowUpError) as info:
        step(system, build_catalog(2, 1), system.initial_state, 0.0, 1.0)
    assert info.value.norm > 1e12
    assert info.value.step_index is None
    assert "at step" not in str(info.value)


def test_real_problem_keeps_imaginary_residue_small() -> None:
    # real problems run in real arithmetic: the imaginary part is exactly 0
    for name, h in (("example1", 1 / 2**5), ("example2-E6", 1 / 2**7)):
        system = builtin(name, 0.25)
        assert system.is_real
        assert not integrate(system, 2, h).states.imag.any()
        assert not rk4_integrate(system, 1 / 2**9).states.imag.any()


def oracle_classes(cls=DerivativeOracle):
    yield cls
    for sub in cls.__subclasses__():
        yield from oracle_classes(sub)


def test_step_takes_all_taylor_coefficients_in_one_oracle_call(monkeypatch) -> None:
    # one example2-E6 step: one taylor call, which makes one taylor call
    # on the jet oracle of the force g; no per-beta partials, no value
    # calls (the RK4 reference alone evaluates F), and no catalog lookups,
    # even while compiling (the extension plan reads its targets from the
    # sum table); one example1 step: one taylor call on the pendulum
    # forcing g as well
    calls: Counter = Counter()

    def counting(owner, name):
        method = getattr(owner, name)

        def wrapped(self, *args, **kwargs):
            calls[f"{type(self).__name__}.{name}"] += 1
            return method(self, *args, **kwargs)

        monkeypatch.setattr(owner, name, wrapped)

    # cold: the plan, the sum table, the jet pairs and the restrictions
    # are all compiled inside the counted steps
    for cache in (_compiled, _sum_table, _pairs, _restriction):
        cache.cache_clear()
    counting(DerivativeOracle, "taylor")
    counting(DerivativeOracle, "partial")
    for cls in oracle_classes():
        if "value" in vars(cls):
            counting(cls, "value")
    counting(MultiIndexCatalog, "position")
    system = builtin("example2-E6", 1 / 64, T=1 / 1024)
    traj = integrate(system, 3, 1 / 1024)
    assert traj.n_steps == 1
    assert calls == Counter({"_TransformedOracle.taylor": 1, "JetOracle.taylor": 1})

    calls.clear()
    system = builtin("example1", 0.25, T=1 / 16)
    traj = integrate(system, 3, 1 / 16)
    assert traj.n_steps == 1
    assert calls == Counter({"_TransformedOracle.taylor": 1, "_PendulumForcingOracle.taylor": 1})


def poly_config(coeff) -> dict:
    # u1' = u2 / eps, u2' = -u1 / eps + c u1^2 t with a real or complex c
    return {
        "d": 2, "A": [0, 1, -1, 0], "epsilon": 0.1, "nu": 0.0, "u_in": [1.0, 0.5], "T": 0.5,
        "poly_F": [{"row": 2, "alpha": [1, 1, 3], "coeff": coeff}],
    }


class ComplexView(DerivativeOracle):
    """The same oracle, not marked real-valued, so the scheme runs complex."""

    def __init__(self, inner: DerivativeOracle):
        self.inner = inner

    def _taylor(self, catalog, u, t):
        return self.inner.taylor(catalog, u, t)

    def value(self, u, t):
        return self.inner.value(u, t)


def test_expm_runs_in_the_problem_dtype(monkeypatch) -> None:
    seen = []
    expm = linalg.expm

    def spy(M):
        seen.append(M.dtype)
        return expm(M)

    monkeypatch.setattr(linalg, "expm", spy)
    cases = [
        (builtin("example1", 0.25, T=0.25), np.float64),
        (builtin("example2-E6", 1 / 16, T=1 / 16), np.float64),
        (load_config(poly_config([0.5, 0.0])), np.float64),
        (load_config(poly_config([0.5, 0.25])), np.complex128),
    ]
    for system, dtype in cases:
        seen.clear()
        traj = integrate(system, 2, 1 / 64)
        assert seen and set(seen) == {np.dtype(dtype)}, (system.name, seen)
        assert traj.states.dtype == np.complex128


def test_time_row_drift_past_tolerance_raises(monkeypatch) -> None:
    system = builtin("example1", 0.25, T=0.5)
    h, expm = 1 / 8, linalg.expm
    clean = integrate(system, 2, h)

    def shifted(shift):
        """linalg.expm with shift added to the lifted step's time entry [d + 1, 0]."""
        def expm_shifted(M):
            E = expm(M).copy()
            E[system.d + 1, 0] += shift
            return E
        return expm_shifted

    monkeypatch.setattr(linalg, "expm", shifted(1e-13))  # inside the 1e-12 tolerance
    assert np.array_equal(integrate(system, 2, h).states, clean.states)
    monkeypatch.setattr(linalg, "expm", shifted(1e-9))
    with pytest.raises(ArithmeticError, match=r"^time component .* expected h = 0\.125$"):
        integrate(system, 2, h)


def test_non_finite_lifted_step_is_a_blow_up_not_a_drift(monkeypatch) -> None:
    system = builtin("example1", 0.25, T=0.5)
    expm = linalg.expm
    monkeypatch.setattr(linalg, "expm", lambda M: np.full_like(expm(M), np.nan))
    with pytest.raises(BlowUpError):
        integrate(system, 2, 1 / 8)


def test_real_and_complex_arithmetic_agree() -> None:
    cases = [
        builtin("example1", 0.25, T=1.0),
        builtin("example2-E3", 1 / 16, T=0.25),
        load_config(poly_config([0.5, 0.0])),
    ]
    for system in cases:
        forced = replace(system, oracle=ComplexView(system.oracle))
        assert system.is_real and not forced.is_real
        real = integrate(system, 3, 1 / 64).states
        cplx = integrate(forced, 3, 1 / 64).states
        assert np.abs(real - cplx).max() <= 1e-13 * np.abs(cplx).max(), system.name
