"""Problem definitions, derivative oracles, and the builtin benchmarks."""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from osc_llei import (
    ConfigError,
    DerivativeOracle,
    JetOracle,
    OscillatorySystem,
    PolynomialOracle,
    SpectrumWarning,
    augment,
    build_catalog,
    builtin,
    integrate,
    load_config,
    load_config_file,
    rk4_integrate,
    second_order_to_first_order,
)
from osc_llei.sysdef import _charged_particle_force, _PendulumForcingOracle

_EPS = float(np.finfo(float).eps)


def make_linear_system(eps: float = 1.0) -> OscillatorySystem:
    return OscillatorySystem(
        d=1,
        A=np.array([[1j]]),
        epsilon=eps,
        nu=0.0,
        u_in=np.array([1.0]),
        T=1.0,
        oracle=PolynomialOracle(1, []),
    )


def test_polynomial_oracle_hand_computed_partials() -> None:
    # F_1(u, t) = 3 u^2 t  on d = 1 (variables u, t)
    oracle = PolynomialOracle(1, [(1, (1, 1, 2), 3.0)])
    u = np.array([2.0])
    t = 0.5
    assert np.allclose(oracle.partial((), u, t), [6.0])          # 3*4*0.5
    assert np.allclose(oracle.partial((1,), u, t), [6.0])        # 6ut
    assert np.allclose(oracle.partial((2,), u, t), [12.0])       # 3u^2
    assert np.allclose(oracle.partial((1, 2), u, t), [12.0])     # 6u
    assert np.allclose(oracle.partial((1, 1), u, t), [3.0])      # 6t
    assert np.allclose(oracle.partial((1, 1, 1), u, t), [0.0])
    assert np.allclose(oracle.partial((2, 2), u, t), [0.0])


def test_oracle_partials_are_permutation_invariant() -> None:
    oracle = PolynomialOracle(2, [(1, (1, 2, 2, 3), 1.5), (2, (1, 1, 3, 3), -0.5)])
    rng = np.random.default_rng(21)
    u = np.array([0.7, -0.3])
    t = 0.9
    for _ in range(20):
        size = int(rng.integers(1, 5))
        alpha = [int(c) for c in rng.integers(1, 4, size=size)]
        base = oracle.partial(tuple(alpha), u, t)
        rng.shuffle(alpha)
        assert np.array_equal(oracle.partial(tuple(alpha), u, t), base)


def fd_partial(F, alpha, u, t) -> np.ndarray:
    """d^alpha F(u, t) by iterated central differences of a black-box F.

    The step eps^(1/(|alpha|+2)) * max(1, |u|_inf, |t|) balances
    truncation against cancellation; accuracy degrades with order (about
    1e-9 relative at order 1, 1e-4 at order 3), which is enough for a
    cross-check that shares no code with the oracles' Taylor arithmetic.
    """
    u = np.asarray(u, dtype=float)
    eta = _EPS ** (1.0 / (len(alpha) + 2)) * max(1.0, float(np.max(np.abs(u))), abs(t))

    def diff(comps, u, t):
        if not comps:
            return np.asarray(F(u, t))
        q, rest = comps[0], comps[1:]
        if q <= len(u):
            up, um = u.copy(), u.copy()
            up[q - 1] += eta
            um[q - 1] -= eta
            return (diff(rest, up, t) - diff(rest, um, t)) / (2 * eta)
        return (diff(rest, u, t + eta) - diff(rest, u, t - eta)) / (2 * eta)

    return diff(tuple(alpha), u, t)


def test_finite_difference_matches_polynomial() -> None:
    # the difference reference below is itself checked against exact partials
    terms = [(1, (1, 1, 3), 2.0), (2, (2, 2), 1.0), (1, (), -0.7)]
    exact = PolynomialOracle(2, terms)
    u = np.array([0.4, -1.1])
    t = 0.6
    for alpha in [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 2), (1, 2, 3), (3, 3, 3)]:
        want = exact.partial(alpha, u, t)
        got = fd_partial(exact.value, alpha, u, t)
        assert np.allclose(got, want, rtol=1e-4, atol=1e-4)


def test_builtin_oracles_match_finite_differences() -> None:
    # the closed-form and jet partials cross-checked against differences
    # of each oracle's value, which shares no code with its taylor
    cases = [
        (builtin("example1", 0.25), np.array([0.3, -0.2]), 0.7),
        (builtin("example2-E6", 0.25), np.array([0.3, 0.4, -0.1, 0.2]), 0.45),
    ]
    for system, u, t in cases:
        n_vars = system.d + 1
        rng = np.random.default_rng(5)
        for _ in range(15):
            size = int(rng.integers(0, 4))
            alpha = tuple(int(c) for c in rng.integers(1, n_vars + 1, size=size))
            want = fd_partial(system.oracle.value, alpha, u, t)
            got = system.oracle.partial(alpha, u, t)
            scale = max(1.0, float(np.max(np.abs(want))))
            assert np.allclose(got, want, rtol=0, atol=1e-4 * scale), (
                system.name,
                alpha,
            )


def test_pendulum_forcing_closed_form() -> None:
    s = builtin("example1", 0.5)
    w = 2.0 * math.sqrt(6.0)
    y, t = 0.4, 1.3
    u = np.array([y, 0.9])
    g = -(t + math.cos(w * t)) * math.sin(y)
    # F = [0; eps * g]
    assert np.allclose(s.oracle.value(u, t), [0.0, 0.5 * g], atol=1e-14)
    # d/dy once: -(t + cos(w t)) cos(y), appears in F row 2 times eps
    got = s.oracle.partial((1,), u, t)
    assert np.allclose(got, [0.0, -0.5 * (t + math.cos(w * t)) * math.cos(y)])
    # any momentum derivative vanishes
    assert np.allclose(s.oracle.partial((2,), u, t), [0.0, 0.0])


def test_charged_particle_value_formula() -> None:
    s = builtin("example2-E3", 0.125)
    u = np.array([0.3, -0.4, 1.0, 2.0])
    t = 0.6
    c = 2.0 - math.cos(math.pi * t)
    denom = (0.3**2 + 0.4**2 + c * c) ** 1.5
    want = [0.0, 0.0, 0.3 / denom, -0.4 / denom]
    assert np.allclose(s.oracle.value(u, t), want, atol=1e-14)
    # momentum derivatives vanish (components 3, 4 of the multi-index)
    assert np.allclose(s.oracle.partial((3,), u, t), np.zeros(4))
    assert np.allclose(s.oracle.partial((1, 4), u, t), np.zeros(4))


def test_initial_state_scaling_and_validation() -> None:
    s = make_linear_system(eps=0.25)
    assert np.allclose(s.initial_state, s.u_in)  # nu = 0
    s2 = builtin("example1", 0.25)
    assert np.allclose(s2.initial_state, 0.25 * s2.u_in)  # nu = 1
    with pytest.raises(ValueError):
        OscillatorySystem(
            d=2,
            A=np.eye(3),
            epsilon=1.0,
            nu=0.0,
            u_in=np.zeros(2),
            T=1.0,
            oracle=PolynomialOracle(2, []),
        )
    with pytest.raises(ValueError):
        OscillatorySystem(
            d=1,
            A=np.array([[1j]]),
            epsilon=-1.0,
            nu=0.0,
            u_in=np.zeros(1),
            T=1.0,
            oracle=PolynomialOracle(1, []),
        )


def test_spectrum_warning_for_real_eigenvalues() -> None:
    with pytest.warns(SpectrumWarning):
        OscillatorySystem(
            d=1,
            A=np.array([[1.0]]),  # eigenvalue on the real axis
            epsilon=1.0,
            nu=0.0,
            u_in=np.ones(1),
            T=1.0,
            oracle=PolynomialOracle(1, []),
        )


def test_is_real_flag() -> None:
    assert builtin("example1", 0.5).is_real
    assert builtin("example2-E6", 0.5).is_real
    assert not make_linear_system().is_real  # complex A


def test_augmented_system_layout() -> None:
    s = builtin("example1", 0.5)
    A1 = augment(s.A)
    assert A1.shape == (3, 3)
    assert np.array_equal(A1[:2, :2], s.A)
    assert np.all(A1[2, :] == 0) and np.all(A1[:, 2] == 0)


def test_second_order_transform_structure() -> None:
    s = builtin("example1", 0.25)
    assert s.d == 2 and s.y_dim == 1
    assert np.allclose(s.A, [[0.0, 1.0], [-1.0, 0.0]])
    assert np.allclose(s.u_in, [1.0, math.sqrt(3.0)])
    assert s.T == 6.0
    # with_epsilon rebuilds the oracle so F keeps its eps factor
    s8 = s.with_epsilon(1 / 2**8)
    u = np.array([0.2, 0.1])
    f_ratio = s.F(u, 0.3)[1] / s8.F(u, 0.3)[1]
    assert np.isclose(f_ratio.real, 0.25 * 2**8)


def test_with_epsilon_keeps_every_field_of_a_replaced_system() -> None:
    # with_epsilon works from the system's current fields: after a
    # dataclasses.replace only eps and the forcing's eps scale move
    u_in = np.array([0.5, -2.0])
    s = dataclasses.replace(builtin("example1", 0.25), T=1.5, u_in=u_in, nu=0.5, name="mine")
    moved = s.with_epsilon(0.125)
    assert moved.epsilon == 0.125
    assert (moved.T, moved.nu, moved.name, moved.y_dim) == (1.5, 0.5, "mine", 1)
    assert np.array_equal(moved.u_in, u_in) and np.array_equal(moved.A, s.A)
    # its oracle is the fresh builtin's, bit for bit
    fresh = builtin("example1", 0.125, T=1.5).oracle
    catalog = build_catalog(3, 3)
    rng = np.random.default_rng(5)
    for _ in range(4):
        u, t = rng.standard_normal(2), float(rng.uniform(0.0, 1.5))
        assert np.array_equal(moved.oracle.taylor(catalog, u, t), fresh.taylor(catalog, u, t))
        assert np.array_equal(moved.oracle.value(u, t), fresh.value(u, t))


def test_second_order_rejects_bad_mass_matrix() -> None:
    oracle = PolynomialOracle(1, [])
    with pytest.raises(ValueError):
        second_order_to_first_order(
            np.array([[0.0, 1.0], [0.0, 0.0]]), oracle, [0, 0], [0, 0], 1.0, 1.0, 1.0
        )
    with pytest.raises(ValueError):
        second_order_to_first_order(
            np.array([[-1.0]]), oracle, [0.0], [0.0], 1.0, 1.0, 1.0
        )


def test_second_order_rejects_forcing_of_wrong_size() -> None:
    # a 3-component g for a 2 x 2 M fails at construction, naming both sizes
    g3 = PolynomialOracle(3, [(1, (1,), 0.1)])
    with pytest.raises(ValueError, match=r"shape \(1, 3\) for a 2 x 2 M, expected \(1, 2\)"):
        second_order_to_first_order(np.eye(2), g3, [1, 0], [0, 1], 0.25, 1.0, 1.0)
    g2 = PolynomialOracle(2, [(1, (1,), 0.1)])
    system = second_order_to_first_order(np.eye(2), g2, [1, 0], [0, 1], 0.25, 1.0, 1.0)
    assert system.F(np.ones(4), 0.0).shape == (4,)


@pytest.mark.parametrize("d", [1, 3, 4])
def test_system_refuses_an_oracle_built_for_another_d(d) -> None:
    # example1's forcing [0; eps g(y, t)] has dy = 1: an oracle for d = 2
    # alone, refused at construction rather than inside the RK4's matmul
    oracle = builtin("example1", 0.25).oracle
    with pytest.raises(ValueError, match=rf"forcing of dy = 1 needs d = 2, got {d}"):
        OscillatorySystem(d=d, A=1j * np.eye(d), epsilon=0.25, nu=1.0, u_in=np.ones(d),
                          T=1.0, oracle=oracle)


def test_y_dim_is_none_or_half_the_state() -> None:
    # p = eps dy/dt has y's dimension; any other split of [y; p] would
    # report y and dy/dt errors over the wrong components
    s = builtin("example2-E3", 1 / 16, T=0.25)
    for y_dim in (0, 4, 5, -1, 2.5, 2.0):
        with pytest.raises(ValueError, match=r"y_dim must be None or d / 2 = 2"):
            dataclasses.replace(s, y_dim=y_dim)
    with pytest.raises(ValueError, match="got True"):
        dataclasses.replace(builtin("example1", 0.25), y_dim=True)
    assert dataclasses.replace(s, y_dim=None).y_dim is None
    assert dataclasses.replace(s, y_dim=2).y_dim == 2


def test_working_dtype_is_chosen_by_the_system() -> None:
    real = builtin("example1", 0.25)
    assert real.working([1.0, 2.0]).dtype == np.float64
    assert real.working([1.0, 2.0j]).dtype == np.complex128
    assert make_linear_system().working([1.0]).dtype == np.complex128  # complex A


def test_spectral_radius_and_smallest_modulus() -> None:
    s = builtin("example2-E6", 0.5)
    assert math.isclose(s.rho, 3.0) and math.isclose(s.mu, 2.0)
    assert s.with_epsilon(0.25).rho == s.rho


def _cubic_g(y, t):
    return [-y[0] ** 3 + 0.1 * np.sin(t) * y[1], 0.2 * y[0] * y[1] - y[1] ** 2]


def _cubic_g_complex_typed(y, t):
    # the same numbers, typed complex: every imaginary part is exactly 0
    return [(1 + 0j) * f for f in _cubic_g(y, t)]


def test_real_valued_oracle_gives_float64_at_real_points() -> None:
    oracle = JetOracle(_cubic_g_complex_typed, real_valued=True)
    y = np.array([0.3, -0.2])
    assert oracle.value(y, 0.5).dtype == np.float64
    assert oracle.value(y + 0.1j, 0.5).dtype == np.complex128
    assert np.array_equal(oracle.value(y, 0.5), JetOracle(_cubic_g).value(y, 0.5))

    def system(g):
        M = np.diag([1.0, 4.0])
        return second_order_to_first_order(M, g, [0.5, 0.2], [1.0, -1.0], 0.1, 1.0, 0.5)

    typed = system(oracle)
    real = system(JetOracle(_cubic_g, real_valued=True))
    assert typed.is_real and real.is_real
    for k in (1, 2, 3):
        want = integrate(real, k, 1 / 32).states
        assert np.array_equal(integrate(typed, k, 1 / 32).states, want)
    want = rk4_integrate(real, 1 / 1024, sample_stride=32).states
    assert np.array_equal(rk4_integrate(typed, 1 / 1024, sample_stride=32).states, want)


def test_example2_spectra() -> None:
    e6 = np.sort(np.linalg.eigvals(builtin("example2-E6", 1.0).A).imag)
    assert np.allclose(e6, [-3, -2, 2, 3], atol=1e-12)
    e3 = np.sort(np.abs(np.linalg.eigvals(builtin("example2-E3", 1.0).A).imag))
    lo = math.sqrt((7 - math.sqrt(13)) / 2)
    hi = math.sqrt((7 + math.sqrt(13)) / 2)
    assert np.allclose(e3, [lo, lo, hi, hi], atol=1e-12)


def test_unknown_builtin_raises() -> None:
    with pytest.raises(ConfigError):
        builtin("example9", 1.0)


def test_load_config_builtin_and_inline(tmp_path) -> None:
    s = load_config({"name": "example1", "epsilon": 0.25})
    assert s.name == "example1" and s.epsilon == 0.25
    with pytest.raises(ConfigError):
        load_config({"name": "example1"})  # epsilon missing

    inline = {
        "d": 1,
        "A": [[0.0, 1.0]],
        "epsilon": 0.5,
        "nu": 0.0,
        "u_in": [1.0],
        "T": 2.0,
        "poly_F": [{"row": 1, "alpha": [1, 1], "coeff": [0.25, 0.0]}],
    }
    s2 = load_config(inline)
    assert s2.d == 1 and s2.A[0, 0] == 1j
    assert load_config({**inline, "d": 1.0}).d == 1  # a whole number written as a float
    assert np.allclose(s2.F(np.array([3.0]), 0.0), [2.25])

    path = tmp_path / "sys.json"
    path.write_text(json.dumps(inline))
    s3 = load_config_file(path)
    assert s3.T == 2.0
    with pytest.raises(ConfigError):
        load_config_file(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config_file(bad)
    with pytest.raises(ConfigError):
        load_config({"d": 1, "A": [[0, 1]]})  # keys missing
    with pytest.raises(ConfigError):
        load_config(
            {"d": 2, "A": [0.0], "epsilon": 1, "nu": 0, "u_in": [0, 0], "T": 1}
        )


class ExpInTime(DerivativeOracle):
    """F(u, t) = [exp(t), 0] for d = 2, with _taylor as its only override.

    Only pure t-derivatives (component 3) of F_1 are nonzero, so value is
    the base class's: F read out of taylor's degree-0 row.
    """

    real_valued = True

    def _taylor(self, catalog, u, t):
        return np.array([[np.exp(t) / g if all(c == 3 for c in beta) else 0.0, 0.0]
                         for beta, g in zip(catalog.representatives, catalog.gammas)])


def test_taylor_only_oracle_reads_value_out_of_taylor() -> None:
    twin = JetOracle(lambda u, t: [np.exp(t), 0.0], real_valued=True)
    systems = [
        OscillatorySystem(d=2, A=np.array([[0.0, 1.0], [-1.0, 0.0]]), epsilon=0.5, nu=0.0,
                          u_in=np.array([0.5, 0.0]), T=1.0, oracle=oracle)
        for oracle in (ExpInTime(), twin)
    ]
    assert all(s.is_real for s in systems)
    real_u = np.array([0.3, -0.2])
    for u in (real_u, real_u + [0.1j, 0.0]):
        got, want = (s.F(u, 0.7) for s in systems)
        # F does not read u, yet a complex point gives complex128
        assert got.dtype == want.dtype == (np.complex128 if np.iscomplexobj(u) else np.float64)
        assert np.allclose(got, want, rtol=1e-14, atol=0)
    # the RK4 reference calls the value of _forcing's g, here F's own value
    got, want = (rk4_integrate(s, 1 / 64, sample_stride=4).states for s in systems)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize(
    "F",
    [
        # a negative base to a fractional power, exp past overflow and the
        # cosine of an infinite argument: numpy gives NaN (or inf) where
        # Python's math would go complex or raise
        lambda u, t: [0.0, (-2.0 - u[0] * u[0]) ** -1.5],
        lambda u, t: [0.0, np.exp(800.0 + t)],
        lambda u, t: [0.0, np.cos(np.inf * (t + 1.0))],
    ],
    ids=["negative-base-power", "exp-overflow", "cos-of-infinity"],
)
def test_jet_oracle_non_finite_coefficients_follow_numpy(F) -> None:
    oracle = JetOracle(F, real_valued=True)
    with np.errstate(all="ignore"):
        got = oracle.taylor(build_catalog(3, 2), np.array([0.5, 0.25]), 0.125)
    assert got.dtype == np.float64
    assert np.array_equal(got[:, 0], np.zeros(10))
    assert np.isnan(got[:, 1]).all()
    system = OscillatorySystem(d=2, A=np.array([[0.0, 1.0], [-1.0, 0.0]]), epsilon=0.1,
                               nu=0.0, u_in=np.array([0.5, 0.25]), T=0.1, oracle=oracle)
    with pytest.raises(ValueError, match="M contains non-finite entries"):
        integrate(system, 2, 0.05)


# (oracle factory on real_valued, d, whether F itself is complex)
DTYPE_ORACLES = {
    "jet": (lambda rv: JetOracle(lambda u, t: [u[0] * t + np.cos(u[1]), u[1]], rv), 2, False),
    "jet-complex-constant": (lambda rv: JetOracle(lambda u, t: [u[0] * t + 0.5j, u[1]], rv),
                             2, True),
    "taylor-only": (lambda rv: ExpInTime(), 2, False),
    "pendulum": (lambda rv: _PendulumForcingOracle(), 1, False),
    "charged-particle": (lambda rv: JetOracle(_charged_particle_force, rv), 2, False),
}
DTYPE_STATES = {
    "int-list": lambda d: [1] * d,
    "int64": lambda d: np.arange(1, d + 1),
    "float32": lambda d: np.full(d, 0.5, np.float32),
    "float64": lambda d: np.full(d, 0.5),
    "complex64": lambda d: np.full(d, 0.5 + 0.25j, np.complex64),
    "complex128": lambda d: np.full(d, 0.5 + 0.25j),
}
DTYPE_TIMES = [1, 0.25, np.float32(0.25), np.float64(0.25), 0.25 + 0.5j,
               np.complex128(0.25 + 0.5j), np.array(0.25), np.array(0.25 + 0.5j)]


@pytest.mark.parametrize("real_valued", [True, False])
@pytest.mark.parametrize("name", sorted(DTYPE_ORACLES))
def test_dtype_rule_table(name, real_valued) -> None:
    # taylor and value at every state and time type: complex128 at a complex
    # point, float64 at a real one unless F itself is complex and the oracle
    # not real-valued; _taylor sees u in np.result_type(u, t, float)
    factory, d, complex_F = DTYPE_ORACLES[name]
    oracle = factory(real_valued)
    oracle.real_valued = real_valued
    catalog = build_catalog(d + 1, 2)
    seen = []
    _taylor = oracle._taylor

    def spy(catalog, u, t):
        seen.append(u.dtype)
        return _taylor(catalog, u, t)

    oracle._taylor = spy
    for (state, u_of), t in itertools.product(DTYPE_STATES.items(), DTYPE_TIMES):
        u = u_of(d)
        working = np.result_type(np.asarray(u), t, float)
        want = np.complex128 if working.kind == "c" or (complex_F and not real_valued) else np.float64
        cell = (state, t)
        assert oracle.taylor(catalog, u, t).dtype == want, cell
        assert seen.pop() == working, cell
        assert np.asarray(oracle.value(u, t)).dtype == want, cell


def test_polynomial_oracle_terms_are_the_ones_F_sums() -> None:
    # a recorded tape never reruns F, so taylor, value and partial agree
    # only if terms cannot change after construction
    oracle = PolynomialOracle(1, [(1, (1,), 1.0)])
    catalog = build_catalog(2, 1)
    u, t = np.array([0.5]), 0.25
    oracle.taylor(catalog, u, t)
    with contextlib.suppress(AttributeError):
        oracle.terms.append((0, (2, 0), 3.0))
    assert oracle.terms == ((0, (1, 0), 1.0),)
    assert oracle.taylor(catalog, u, t)[0, 0] == 0.5
    assert oracle.value(u, t)[0] == oracle.partial((), u, t)[0] == 0.5
