"""The exponential stepper and its driver."""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from osc_llei import (
    BlowUpError,
    DerivativeOracle,
    MultiIndexCatalog,
    OscillatorySystem,
    PolynomialOracle,
    augment,
    build_A0,
    build_A1,
    build_catalog,
    builtin,
    fit_order,
    integrate,
    linalg,
    load_config,
    rk4_integrate,
    step,
)
from osc_llei.extension import _A1_parts, _compiled, _forcing_pairs
from osc_llei.llei import _StepKernel
from osc_llei.mindex import _catalog
from osc_llei.sysdef import _momentum_slots


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
    # a state of the wrong shape is not broadcast into [Un; tn]
    example1 = builtin("example1", 0.25)
    for Un in ([0.1], [[0.1, 0.2]]):
        with pytest.raises(ValueError, match="state has shape"):
            step(example1, build_catalog(3, 2), Un, 0.0, 0.05)


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
    # one example2-E6 step: build_A0 reads A0k straight from the force g,
    # one taylor call on its jet oracle and none on the phase-space
    # oracle [0; g]; no per-beta partials, no value calls (the RK4
    # reference alone evaluates F), and no catalog lookups, even while
    # compiling (the extension plan and its gather from g read their
    # targets from the catalog's tables); one example1 step: one taylor
    # call on the pendulum forcing g alone as well
    calls: Counter = Counter()

    def counting(owner, name):
        method = getattr(owner, name)

        def wrapped(self, *args, **kwargs):
            calls[f"{type(self).__name__}.{name}"] += 1
            return method(self, *args, **kwargs)

        monkeypatch.setattr(owner, name, wrapped)

    # cold: the catalogs and their tables, the plan, its gather from g,
    # A1k's xhat-free part and g's slots are all built inside the counted
    # steps
    for cache in (_catalog, _compiled, _forcing_pairs, _A1_parts, _momentum_slots):
        cache.cache_clear()
    counting(DerivativeOracle, "partial")
    for cls in oracle_classes():
        for name in ("taylor", "value"):
            if name in vars(cls):
                counting(cls, name)
    counting(MultiIndexCatalog, "position")
    system = builtin("example2-E6", 1 / 64, T=1 / 1024)
    traj = integrate(system, 3, 1 / 1024)
    assert traj.n_steps == 1
    assert calls == Counter({"JetOracle.taylor": 1})

    calls.clear()
    system = builtin("example1", 0.25, T=1 / 16)
    traj = integrate(system, 3, 1 / 16)
    assert traj.n_steps == 1
    assert calls == Counter({"_PendulumForcingOracle.taylor": 1})


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

    def spy(M, v=None):
        seen.append(M.dtype)
        return expm(M, v)

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


def test_step_takes_one_exponential_action(monkeypatch) -> None:
    # at D = 56 each step makes one linalg.expm call, on e_1, and never
    # forms all of exp(M)
    calls, dense = [], []
    expm, taylor_expm = linalg.expm, linalg._taylor_expm

    def spy(M, v=None):
        calls.append(None if v is None else np.asarray(v).copy())
        return expm(M, v)

    def dense_spy(M, norm1):
        dense.append(M.shape)
        return taylor_expm(M, norm1)

    monkeypatch.setattr(linalg, "expm", spy)
    monkeypatch.setattr(linalg, "_taylor_expm", dense_spy)
    system = builtin("example2-E6", 1 / 16, T=1 / 16)
    catalog = build_catalog(system.d + 1, 3)
    assert catalog.size == 56
    traj = integrate(system, 3, 1 / 128)
    assert len(calls) == traj.n_steps == 8
    e1 = np.eye(catalog.size)[0]
    assert all(v is not None and np.array_equal(v, e1) for v in calls)
    assert dense == []


def test_time_row_drift_past_tolerance_raises(monkeypatch) -> None:
    system = builtin("example1", 0.25, T=0.5)
    h, expm = 1 / 8, linalg.expm
    clean = integrate(system, 2, h)

    def shifted(shift):
        """linalg.expm with shift added to the lifted step's time entry d + 1."""
        def expm_shifted(M, v=None):
            w = expm(M, v).copy()
            w[system.d + 1] += shift
            return w
        return expm_shifted

    monkeypatch.setattr(linalg, "expm", shifted(1e-13))  # inside the 1e-12 tolerance
    assert np.array_equal(integrate(system, 2, h).states, clean.states)
    monkeypatch.setattr(linalg, "expm", shifted(1e-9))
    with pytest.raises(ArithmeticError, match=r"^time component .* expected h = 0\.125$"):
        integrate(system, 2, h)


def test_non_finite_lifted_step_is_a_blow_up_not_a_drift(monkeypatch) -> None:
    system = builtin("example1", 0.25, T=0.5)
    expm = linalg.expm
    monkeypatch.setattr(linalg, "expm", lambda M, v=None: np.full_like(expm(M, v), np.nan))
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


# (system, k, h, the exponential's path), the path the same at every point
# the tests draw: ||M||_1 lies below theta_30 (the Taylor action) or above
# it (the dense Taylor exponential) at every size.  D = 21 (example2-E6,
# k = 2) at h = 1/64 reads 3.7-5.8 (dense), and D = 20 (complex poly,
# k = 3) at h = 1/40 reads 1.3-2.5 (the action at a higher degree than at
# h = 1/640)
KERNEL_CASES = [
    ("example2-E6", 2, 1 / 2048, "action"),
    ("example2-E6", 2, 1 / 64, "dense"),
    ("example2-E6", 3, 1 / 256, "action"),
    ("example2-E6", 3, 1 / 64, "dense"),
    ("complex poly", 3, 1 / 640, "action"),
    ("complex poly", 3, 1 / 40, "action"),
    ("complex poly", 5, 1 / 160, "action"),
    ("complex poly", 5, 1 / 16, "dense"),
]


def spy_paths(mp: pytest.MonkeyPatch) -> list:
    """Record the path of every linalg.expm call, "action" or "dense".

    A call of scipy.linalg.expm fails the test.
    """
    taken = []

    def spy(path, f):
        def wrapped(*args):
            taken.append(path)
            return f(*args)
        return wrapped

    mp.setattr(linalg, "_taylor_action", spy("action", linalg._taylor_action))
    mp.setattr(linalg, "_taylor_expm", spy("dense", linalg._taylor_expm))
    mp.setattr(scipy.linalg, "expm", lambda *args: pytest.fail("scipy.linalg.expm was called"))
    return taken


def kernel_system(name: str) -> OscillatorySystem:
    if name == "complex poly":
        return load_config(poly_config([0.5, 0.25]))
    return builtin(name, 1 / 16)


@pytest.mark.parametrize("name, k, h, path", KERNEL_CASES)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_kernel_steps_match_a_fresh_exponential(name, k, h, path, data) -> None:
    # consecutive steps of one kernel from unrelated points: each applies
    # the exponential of a step matrix built from scratch to e_1, so
    # nothing of an earlier step carries over
    system = kernel_system(name)
    d = system.d
    catalog = build_catalog(d + 1, k)
    kernel = _StepKernel(system, catalog)
    A1 = system.working(augment(system.A))
    e1 = np.eye(catalog.size)[0]
    expm, seen = linalg.expm, []

    def spy(M, v=None):
        seen.append(expm(M, v))
        return seen[-1]

    coords = st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "expm", spy)
        taken = spy_paths(mp)
        for _ in range(3):
            u = np.array(data.draw(coords))
            if not system.is_real:
                u = u + 1j * np.array(data.draw(coords))
            u = system.working(u)
            t = data.draw(st.floats(0.0, 1.0))
            taken.clear()
            out = kernel(u, t, h)
            assert taken == [path]
            xhat = np.append(u, t)
            M = h * (build_A1(catalog, A1, xhat) / system.epsilon + build_A0(catalog, system.oracle, xhat))
            want = expm(M, e1)
            assert np.linalg.norm(seen[-1] - want) <= 1e-14 * np.linalg.norm(want)
            assert np.array_equal(out, u + seen[-1][1 : d + 1])


@pytest.mark.parametrize("eps", [1 / 24, 1 / 256])
def test_large_steps_below_30_rows_take_the_dense_exponential(eps, monkeypatch) -> None:
    # the converge-eps benchmark's step matrices: example1 at k = 1 (D = 4),
    # h = 1/2, ||M||_1 = h / eps = 12 and 128, above theta_30.  A sub-stepped
    # Taylor action costs many times the dense exponential there
    system = builtin("example1", eps, T=3.0)
    taken = spy_paths(monkeypatch)
    integrate(system, 1, 0.5)
    assert taken == ["dense"] * 6


@pytest.mark.parametrize("name, k, h, path", KERNEL_CASES)
def test_step_is_the_first_step_of_integrate(name, k, h, path) -> None:
    system = replace(kernel_system(name), T=2 * h)
    traj = integrate(system, k, h)
    assert traj.h == h
    one = step(system, build_catalog(system.d + 1, k), system.initial_state, 0.0, h)
    assert np.array_equal(one, traj.states[1])
