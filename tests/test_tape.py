"""JetOracle's tape: F recorded once per catalog and dtype, compiled into a
straight-line replay and replayed after.

live_taylor is the reference: F run on plain seed jets, the evaluation
JetOracle made on every call before it recorded F.  A replay must give
its coefficients bit for bit, or raise what it raises.
"""

from __future__ import annotations

import operator
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osc_llei import JetOracle, builtin, integrate
from osc_llei._jets import (
    _DENSE_PRODUCT_MAX_ROWS,
    Jet,
    _analytic,
    _horner_dense,
    _horner_pairs,
    _product_dense,
    _product_pairs,
    _series_dtype,
)
from osc_llei.mindex import _catalog
from osc_llei.sysdef import _charged_particle_force

NUMBER = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, allow_infinity=False)
POWERS = (-1.5, -1, 0.5, 2.5, 0, 1, 2, 3, 0.5 + 0.5j)


def seeds(catalog, u, t) -> np.ndarray:
    dtype = np.result_type(u, t, float)
    c = catalog.seeds.astype(dtype)
    c[:-1, 0] = u
    c[-1, 0] = t
    return c


def live_taylor(F, catalog, u, t) -> np.ndarray:
    """F's coefficients from plain jets, seed q tagged with q."""
    c = seeds(catalog, u, t)
    jets = [Jet(catalog, row[:-1], q) for q, row in enumerate(c)]
    state = np.empty(len(jets) - 1, dtype=object)
    state[:] = jets[:-1]
    outputs = F(state, jets[-1])
    return np.array([
        (f if isinstance(f, Jet) else Jet.constant(f, catalog)).c for f in outputs
    ]).T


def outcome(taylor, *args):
    """taylor(*args), or the type of the exception it raised."""
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            return taylor(*args)
        except (ArithmeticError, ValueError) as exc:
            return type(exc)


def assert_same(got, want) -> None:
    """Equal outcomes: the same exception type, or arrays equal bit for bit."""
    if isinstance(want, type):
        assert got is want
        return
    assert not isinstance(got, type), got
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


def check_against_live(oracle, catalog, points) -> list:
    """Each point's taylor against live_taylor under taylor's dtype rule,
    in order, on one oracle, and the point's compiled replay, once a tape
    is recorded, against live_taylor itself; the results, which later
    calls must leave as they were.  F gives one output per state."""
    results = []
    for u, t in points:
        dtype = np.result_type(u, t, float)
        got = outcome(oracle.taylor, catalog, u, t)
        live = outcome(live_taylor, oracle.F, catalog, u, t)
        assert_same(got, live if isinstance(live, type) else oracle._in_working(live, dtype))
        tape = oracle._tapes.get((catalog.d_plus_1, catalog.k, dtype))
        if tape is not None:
            assert_same(outcome(tape.replay, seeds(catalog, u, t)), live)
        results.append((got, got if isinstance(got, type) else got.copy()))
    for got, kept in results:
        assert_same(got, kept)
    return [got for got, _ in results]


# -- F drawn from the operations JetOracle documents -------------------------

UNARY = {"neg": operator.neg, "sin": np.sin, "cos": np.cos, "exp": np.exp}
BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
leaves = st.one_of(
    st.tuples(st.just("var"), st.integers(min_value=0, max_value=2)),
    st.tuples(st.just("const"), st.one_of(
        NUMBER,
        st.integers(min_value=-3, max_value=3),
        st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
        # far from 1: exp and powers overflow, the affine path falls back
        st.sampled_from([0.0, 1e300, -1e300, 700.0]),
    )),
)
expressions = st.recursive(
    leaves,
    lambda sub: st.one_of(
        st.tuples(st.sampled_from(sorted(UNARY)), sub),
        st.tuples(st.just("pow"), sub, st.sampled_from(POWERS)),
        st.tuples(st.sampled_from(sorted(BINARY)), sub, sub),
    ),
    max_leaves=8,
)


def evaluate(e, u, t):
    op = e[0]
    if op == "var":
        return t if e[1] == len(u) else u[e[1] % len(u)]
    if op == "const":
        return e[1]
    if op == "pow":
        return evaluate(e[1], u, t) ** e[2]
    if op in UNARY:
        return UNARY[op](evaluate(e[1], u, t))
    return BINARY[op](evaluate(e[1], u, t), evaluate(e[2], u, t))


def point(draw, d: int):
    u = np.array(draw(st.lists(NUMBER, min_size=d, max_size=d)))
    t = draw(NUMBER)
    if draw(st.booleans()):
        u = u + 1j * np.array(draw(st.lists(NUMBER, min_size=d, max_size=d)))
    elif draw(st.booleans()):
        t = complex(t, draw(NUMBER))
    return u, t


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_replay_matches_live_jets(data) -> None:
    # three calls on one oracle: each result equals F on plain jets at its
    # point bit for bit (or raises the same error), whether the call
    # recorded (a new catalog and dtype) or replayed, and so does the
    # compiled replay of the tape; no result changes after a later call.
    # F's outputs may be plain numbers, its constants complex; points are
    # real or complex in u or t
    d = data.draw(st.integers(min_value=1, max_value=2))
    # k = 5 at d = 2 is 56 rows, the pairs path; every other draw is dense
    k = data.draw(st.integers(min_value=0, max_value=3) | st.just(5))
    exprs = data.draw(st.lists(expressions, min_size=d, max_size=d))
    catalog = _catalog(d + 1, k)

    def F(u, t):
        return [evaluate(e, u, t) for e in exprs]

    oracle = JetOracle(F)
    points = [point(data.draw, d) for _ in range(3)]
    check_against_live(oracle, catalog, points)
    # one tape per dtype recorded without raising
    assert len(oracle._tapes) <= 2


@pytest.mark.parametrize("F, points", [
    # plain-number outputs, a real and a complex one
    (lambda u, t: [2.0, 1j], [([0.5, 0.0], 0.25), ([0.5j, 0.0], 0.25)]),
    # exp(1e300 t): the affine path at t < 0 and Horner's fallback where
    # exp overflows at t > 0, on one tape, each point deciding for itself
    (lambda u, t: [np.exp(1e300 * t) + u[0]], [([0.5], -1.0), ([0.5], 1.0), ([0.5], -0.5)]),
    # powers at a negative and a zero constant term: numpy's series
    # (NaN at a fractional power), Python floats at an integer one, and
    # ZeroDivisionError at zero
    (lambda u, t: [(u[0] - 1.0) ** -1.5, 1.0 / (u[0] - 1.0), (u[0] - 1.0) ** -2],
     [([x, 0.0, 0.0], 0.0) for x in (2.0, 0.5, 1.0, -3.0)]),
])
def test_replay_decides_from_values(F, points) -> None:
    catalog = _catalog(len(points[0][0]) + 1, 3)
    check_against_live(JetOracle(F), catalog, [(np.array(u), t) for u, t in points])


def test_failed_recording_leaves_no_tape() -> None:
    # the charged particle's g has a pole where y1^2 + y2^2 + c(t)^2 = 0:
    # at y = (0, i), t = 0 its power of the zero constant term raises.  A
    # recording pass that raises keeps no tape; a replay that raises keeps
    # its tape
    oracle = JetOracle(_charged_particle_force, real_valued=True)
    catalog = _catalog(3, 3)
    pole, regular = (np.array([0.0, 1j]), 0.0), (np.array([0.3, 0.2j]), 0.5)
    with pytest.raises(ZeroDivisionError):
        oracle.taylor(catalog, *pole)
    assert oracle._tapes == {}
    check_against_live(oracle, catalog, [regular, pole, regular])
    assert len(oracle._tapes) == 1


def test_real_then_complex_records_two_tapes() -> None:
    oracle = JetOracle(_charged_particle_force, real_valued=True)
    catalog = _catalog(3, 3)
    real, complex_ = (np.array([0.3, -0.2]), 0.5), (np.array([0.3, -0.2j]), 0.5)
    first, second, third = check_against_live(oracle, catalog, [real, complex_, real])
    assert (first.dtype, second.dtype) == (np.float64, np.complex128)
    assert len(oracle._tapes) == 2


def test_assigning_F_records_again() -> None:
    oracle = JetOracle(lambda u, t: [u[0] * t])
    catalog = _catalog(2, 2)
    oracle.taylor(catalog, np.array([0.5]), 0.25)
    oracle.F = lambda u, t: [np.cos(u[0])]
    check_against_live(oracle, catalog, [(np.array([0.5]), 0.25)])


def test_foreign_jet_is_refused() -> None:
    # a jet kept from another recording would read another tape's slot
    kept = []

    def F(u, t):
        if kept:
            return [u[0] * kept[0]]
        kept.append(u[0])
        return [u[0]]

    catalog = _catalog(2, 2)
    JetOracle(F).taylor(catalog, np.array([0.5]), 0.25)
    with pytest.raises(TypeError, match="not computed from them"):
        JetOracle(F).taylor(catalog, np.array([0.5]), 0.25)


@pytest.mark.parametrize("k, product, horner", [
    (3, _product_dense, _horner_dense),
    (5, _product_pairs, _horner_pairs),
])
def test_charged_particle_replay_on_both_product_paths(k, product, horner) -> None:
    # g over (y_1, y_2, t): 20 rows at k = 3 take the dense products, 56
    # at k = 5 the pairs; the tape fixes the path per catalog, and its
    # replays equal the live jets at real and complex points
    catalog = _catalog(3, k)
    assert (catalog.size > _DENSE_PRODUCT_MAX_ROWS) == (product is _product_pairs)
    oracle = JetOracle(_charged_particle_force, real_valued=True)
    rng = np.random.default_rng(k)
    points = []
    for _ in range(4):
        y, t = rng.uniform(-1.0, 1.0, 2), rng.uniform(0.0, 2.0)
        points += [(y, t), (y + 1j * rng.uniform(-0.5, 0.5, 2), t)]
    check_against_live(oracle, catalog, points)
    for tape in oracle._tapes.values():
        kernels = [entry[0] for entry in tape.entries]
        assert {_product_dense, _product_pairs}.intersection(kernels) == {product}
        # _analytic's constants: (series_at, params, rows, horner, table)
        composed = {args[3] for kernel, _, args in tape.entries if kernel is _analytic}
        assert composed == {horner}


def test_step_replays_the_recorded_tape() -> None:
    # a second integrate on the same system replays the first run's tape:
    # the same states, and no new recording
    system = builtin("example2-E6", 1 / 64, T=4 / 1024)
    first = integrate(system, 3, 1 / 1024).states
    g = system.oracle._forcing(system.d)[0]
    tapes = dict(g._tapes)
    assert len(tapes) == 1
    assert np.array_equal(integrate(system, 3, 1 / 1024).states, first)
    assert g._tapes == tapes


def test_compiled_replay_decides_from_values() -> None:
    # recorded at a regular point, the compiled tape still raises at a zero
    # constant term, and at exp(1e300 t) with t > 0 the series overflows and
    # the affine path falls back to Horner, whose 0 * inf rows are NaN
    oracle = JetOracle(lambda u, t: [(u[0] - 1.0) ** -1.5 + np.exp(1e300 * t)])
    catalog = _catalog(2, 3)
    check_against_live(oracle, catalog, [(np.array([2.0]), -1.0)])
    (tape,) = oracle._tapes.values()
    with pytest.raises(ZeroDivisionError):
        tape.replay(seeds(catalog, np.array([1.0]), -1.0))
    with np.errstate(all="ignore"):
        fallback = tape.replay(seeds(catalog, np.array([2.0]), 1.0))
    assert np.isnan(fallback).any()
    check_against_live(oracle, catalog, [(np.array([1.0]), -1.0), (np.array([2.0]), 1.0)])
    assert oracle._tapes == {(2, 3, np.dtype(float)): tape}


def test_replay_source_holds_no_constant_of_F() -> None:
    # F's constants reach the replay through its namespace: neither the
    # source nor the compiled code holds them
    def F(u, t):
        return [0.123456789 * np.cos(u[0] * 0.987654321) + t ** 2.5, 0.123456789]

    oracle = JetOracle(F)
    for k in (3, 5):  # dense and pairs products at d = 2
        for u in (np.array([0.3, 0.4]), np.array([0.3, 0.4j])):
            check_against_live(oracle, _catalog(3, k), [(u, 0.5)])
    assert len(oracle._tapes) == 4
    for tape in oracle._tapes.values():
        for text in ("0.123456789", "0.987654321", "123456789", "2.5"):
            assert text not in tape.source
        consts = tape.replay.__code__.co_consts
        assert not {0.123456789, 0.987654321, 2.5, np.pi}.intersection(consts)


def test_assigning_F_drops_every_compiled_replay() -> None:
    oracle = JetOracle(lambda u, t: [u[0] * t])
    catalog = _catalog(2, 2)
    points = [(np.array([0.5]), 0.25), (np.array([0.5j]), 0.25)]
    check_against_live(oracle, catalog, points)
    old = [tape.replay for tape in oracle._tapes.values()]
    assert len(old) == 2
    oracle.F = lambda u, t: [np.cos(u[0]) - t]
    assert oracle._tapes == {}
    check_against_live(oracle, catalog, points)
    assert not {tape.replay for tape in oracle._tapes.values()}.intersection(old)


@pytest.mark.parametrize("k", [5, 6])
def test_horner_pairs_writes_the_copied_result(k) -> None:
    # the last Horner product written into the padded buffer equals a
    # fresh product copied into one, bit for bit, at real and complex
    # jets and series, with NaN and inf entries too
    catalog = _catalog(3, k)
    assert catalog.size > _DENSE_PRODUCT_MAX_ROWS
    n = catalog.size
    rng = np.random.default_rng(k)
    for trial in range(40):
        c = np.append(rng.standard_normal(n) * 10.0 ** rng.integers(-5, 5), 0.0)
        series = list(rng.standard_normal(k + 1))
        if trial % 2:
            c = c + 1j * np.append(rng.standard_normal(n), 0.0)
        if trial % 3 == 0:
            series[1] = complex(series[1], 0.5)
        if trial % 5 == 0:
            c[rng.integers(1, n)] = (np.inf, np.nan)[trial % 2]
        dtype = _series_dtype(c.dtype, series)
        # the copying Horner the pairs path ran before: every product fresh
        I, flat = catalog.matrix_index
        W = np.zeros(n * n, dtype=c.dtype)
        W[flat] = c[I]
        W = W.reshape(n, n)
        x = np.zeros(n, dtype)
        x[0] = series[k]
        with np.errstate(all="ignore"):
            for m in range(k - 1, -1, -1):
                x = W.dot(x)
                x[0] += series[m]
            want = np.zeros(n + 1, dtype)
            want[:n] = x
            got = _horner_pairs(c, series, catalog.matrix_index, dtype)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
