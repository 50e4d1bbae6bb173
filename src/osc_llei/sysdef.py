"""Problem definitions: oscillatory systems, derivative oracles, builtins.

An OscillatorySystem is the initial value problem

    du/dt = (1/epsilon) A u + F(u, t),   u(0) = epsilon^nu * u_in

on [0, T], with A diagonalizable and purely imaginary in spectrum.  The
nonlinearity F enters the integrator only through a DerivativeOracle
supplying, at a point, its Taylor coefficients d^beta F / gamma(beta)
for every multi-index beta over the d+1 variables (u_1, ..., u_d, t) up
to a degree k, in the order of a multi-index catalog.  JetOracle
derives them from F(u, t) written as a plain function; PolynomialOracle
is a JetOracle on its monomials, and the charged particle's force is
one too.  The pendulum forcing alone uses a closed form.  Each supplies
_taylor; DerivativeOracle.taylor is every oracle's one front, with one
dtype rule.  An oracle's _forcing(d) is the one statement of F's structure, F = [0; scale *
g(u[:m], t)]: extension.build_A0 reads A0k from g's own Taylor
coefficients over (u[:m], t), one g.taylor call per step, and the RK4
reference calls only g's value, so for a second-order system neither
evaluates F's zero rows.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
import numbers
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import linalg
from ._jets import Tape
from .linalg import _COMPLEX, _FLOAT
from .mindex import MultiIndexCatalog, _catalog, gamma, representative


class ConfigError(ValueError):
    """Malformed problem configuration."""


class SpectrumWarning(UserWarning):
    """A's eigenvalues sit measurably off the imaginary axis."""


def check_finite_positive(name: str, value) -> None:
    """Raise ValueError unless value is a finite number > 0."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value:g}")


def _at_working(u, t) -> tuple[np.ndarray, np.dtype]:
    """(u as an array in dtype, dtype), dtype = np.result_type(u, t, float),
    the working dtype of the point (u, t).

    Read off dtype tests for a float64 u at a float t or a complex128 u at
    a float or complex t, as every scheme step and RK4 stage passes;
    numpy's call (about 1 us) for any other input.
    """
    u = np.asarray(u)
    dtype = u.dtype
    if dtype is _FLOAT and isinstance(t, float) or (
        dtype is _COMPLEX and isinstance(t, (float, complex))
    ):
        return u, dtype
    dtype = np.result_type(u, t, float)
    return u.astype(dtype), dtype


class DerivativeOracle:
    """Evaluator of the Taylor coefficients of F(u, t) at a point.

    Subclasses implement _taylor(catalog, u, t), the one override point:
    row i holds d^beta F(u, t) / gamma(beta) for the i-th representative
    beta of catalog, a multi-index with components in [1, d+1] where
    component d+1 differentiates in t.  taylor, the one front of every
    oracle, passes u already in the point's working dtype
    np.result_type(u, t, float) (t as given), applies the dtype rule
    (_in_working) to the result and checks its shape.  partial and value
    read their numbers out of taylor; value may be overridden by a
    direct formula that keeps the rule.  An oracle that wraps a smaller
    forcing also overrides _forcing, which the scheme, the RK4 reference
    and the system's own check all read.
    """

    real_valued: bool = False

    def partial(self, alpha, u, t) -> np.ndarray:
        """d^alpha F(u, t): gamma(alpha) times alpha's row of taylor.

        Depends only on the multiset of alpha (mixed partials commute);
        |alpha| = 0 gives F itself.
        """
        alpha = representative(alpha)
        u = np.asarray(u)
        catalog = _catalog(len(u) + 1, len(alpha))
        row = catalog.position(alpha)
        return gamma(alpha) * self.taylor(catalog, u, t)[row]

    def taylor(self, catalog: MultiIndexCatalog, u, t) -> np.ndarray:
        """Taylor coefficients d^beta F(u, t) / gamma(beta) for |beta| <= k.

        Row i belongs to catalog.representatives[i]; the result has shape
        (catalog.size, d), in the working dtype of (u, t) (_in_working):
        complex128 at a complex point, float64 at a real one unless F itself
        is complex there and the oracle is not real_valued.
        """
        u, dtype = _at_working(u, t)
        out = self._taylor(catalog, u, t)
        if not isinstance(out, np.ndarray) or out.dtype is not dtype:
            out = self._in_working(np.asarray(out), dtype)
        d = catalog.d_plus_1 - 1
        if out.shape != (catalog.size, d):
            raise ValueError(
                f"oracle returned shape {out.shape}, expected ({catalog.size}, {d})"
            )
        return out

    def _taylor(self, catalog: MultiIndexCatalog, u: np.ndarray, t) -> np.ndarray:
        raise NotImplementedError

    def value(self, u, t) -> np.ndarray:
        """F(u, t), with taylor's dtype rule; overridden where a direct formula is cheaper."""
        return self.partial((), u, t)

    def _in_working(self, out: np.ndarray, dtype: np.dtype) -> np.ndarray:
        """The dtype rule of taylor and value: out in its point's working
        dtype, complex128 at a complex point and float64 at a real one,
        except that a complex out (F itself complex) at a real point stays
        complex128, or gives its real part for a real-valued oracle."""
        if out.dtype.kind == "c" and dtype.kind != "c":
            if not self.real_valued:
                return out.astype(complex, copy=False)
            out = out.real
        return out.astype(dtype, copy=False)

    def _forcing(self, d: int) -> tuple[DerivativeOracle, int, float]:
        """(g, m, scale): F(u, t) = [0; scale * g(u[:m], t)] on d states,
        g an oracle of m components.  build_A0 reads A0k from g's Taylor
        coefficients and the RK4 reference calls g's value; generically
        F is its own g, (self, d, 1.0).  Raises ValueError for a d the
        oracle was not built for."""
        return self, d, 1.0


class JetOracle(DerivativeOracle):
    """Exact Taylor coefficients of a user's F(u, t) by jet arithmetic.

    F(u, t) returns the d components of F at the state u (a length-d
    array) and the time t.  value calls F on plain numbers.  taylor
    runs F on jets of degree k in the d+1 variables (u, t) (see
    _jets), so F may use + - * / and ** on them, np.sin, np.cos and
    np.exp, and numeric constants.  Each output jet holds its
    component's coefficients d^beta F_i / gamma(beta) in catalog order;
    an output that does not depend on (u, t) may be a plain number.

    The first taylor call for a catalog and working dtype (float64 or
    complex128) calls F, records its operations on a tape and compiles
    the tape into one straight-line function; every later call runs that
    function without calling F.  So F must not read a jet's coefficients
    or branch on a value (a jet has no ordering and no truth value), and
    must not depend on state that changes between calls; assigning a new
    F discards the tapes and their compiled replays.  value and taylor
    both call F on u in the point's working dtype.  Replay still makes
    the choices that depend on the point's values: the affine path's
    fallback to Horner at a non-finite value, power's series on Python
    or numpy numbers, the complex product's constant term, the series
    constants of cos, exp and ** and the ZeroDivisionError of a power
    or division at a zero constant term.
    """

    def __init__(self, F: Callable, real_valued: bool = False):
        self.F = F
        self.real_valued = real_valued

    @property
    def F(self) -> Callable:
        return self._F

    @F.setter
    def F(self, F: Callable) -> None:
        self._F = F
        # (d + 1, k, dtype) -> the Tape of F on that catalog and dtype
        self._tapes: dict = {}

    def _taylor(self, catalog, u, t):
        dtype = u.dtype
        # variable q is x_q plus one unit coefficient on its degree-1 row q+1;
        # each row of seeds is a jet's padded buffer
        seeds = catalog.seeds.astype(dtype)
        seeds[:-1, 0] = u
        seeds[-1, 0] = t
        key = (catalog.d_plus_1, catalog.k, dtype)
        tape = self._tapes.get(key)
        if tape is not None:
            return tape.replay(seeds)
        # stored only once recorded: a pass that raises leaves no tape
        tape, out = Tape.record(self._F, catalog, seeds)
        self._tapes[key] = tape
        return out

    def value(self, u, t):
        u, dtype = _at_working(u, t)
        out = np.asarray(self._F(u, t))
        return out if out.dtype is dtype else self._in_working(out, dtype)


class PolynomialOracle(JetOracle):
    """A JetOracle on a polynomial F given as monomial terms.

    terms: sequence of (row, alpha, coeff) with row in [1, d] (1-based F
    component), alpha a multi-index over [1, d+1] naming the monomial
    x^alpha in the variables x = (u_1, ..., u_d, t), and coeff complex.
    An empty term list is the zero nonlinearity.  Real-valued when every
    coefficient is real.  terms is the tuple of (0-based row, exponents
    of x, coeff) that F sums, fixed at construction, so a recorded tape
    and value always read the same terms.
    """

    def __init__(self, d: int, terms):
        self.d = d
        parsed = []
        for row, alpha, coeff in terms:
            if not 1 <= row <= d:
                raise ValueError(f"term row {row} outside 1..{d}")
            exps = [0] * (d + 1)
            for c in representative(alpha):
                if c > d + 1:
                    raise ValueError(f"monomial component {c} outside 1..{d + 1}")
                exps[c - 1] += 1
            coeff = complex(coeff)
            if not cmath.isfinite(coeff):
                raise ValueError(f"term coeff must be finite, got {coeff}")
            parsed.append((row - 1, tuple(exps), coeff))
        real_valued = all(c.imag == 0 for _, _, c in parsed)
        self.terms = tuple((row, exps, c.real if real_valued else c) for row, exps, c in parsed)
        super().__init__(functools.partial(_sum_monomials, self.terms, d), real_valued)


def _sum_monomials(terms, d: int, u, t) -> list:
    """F(u, t) of a PolynomialOracle: its terms summed into d components."""
    x = list(u) + [t]
    out = [0.0] * d
    for row, exps, coeff in terms:
        term = coeff
        for xq, e in zip(x, exps):
            if e:
                term = term * xq**e
        out[row] = out[row] + term
    return out


@dataclass
class OscillatorySystem:
    """The problem (A, epsilon, nu, u_in, T) plus F's derivative oracle.

    y_dim marks systems with the [y; p] phase-space layout (p = epsilon
    * dy/dt), enabling split error reporting for y and dy/dt; p has y's
    dimension, so y_dim is None or d / 2.  The oracle must be one for d
    states (its _forcing(d)).
    """

    d: int
    A: np.ndarray
    epsilon: float
    nu: float
    u_in: np.ndarray
    T: float
    oracle: DerivativeOracle
    y_dim: int | None = None
    name: str = ""
    # largest and smallest |eigenvalue| of A (mu is 0 up to rounding for a singular A)
    rho: float = field(init=False, repr=False, compare=False)
    mu: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=complex)
        self.u_in = np.asarray(self.u_in, dtype=complex)
        if self.A.shape != (self.d, self.d):
            raise ValueError(f"A has shape {self.A.shape}, expected ({self.d}, {self.d})")
        if self.u_in.shape != (self.d,):
            raise ValueError(f"u_in has shape {self.u_in.shape}, expected ({self.d},)")
        check_finite_positive("epsilon", self.epsilon)
        check_finite_positive("T", self.T)
        if not math.isfinite(self.nu):
            raise ValueError(f"nu must be finite, got {self.nu:g}")
        # type(), not isinstance: a bool is not a dimension
        if self.y_dim is not None and (type(self.y_dim) is not int or 2 * self.y_dim != self.d):
            raise ValueError(f"y_dim must be None or d / 2 = {self.d / 2:g}, got {self.y_dim!r}")
        self.oracle._forcing(self.d)  # raises for an oracle built for another d
        for name, value in (("A", self.A), ("u_in", self.u_in)):
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must have finite entries")
        spectrum = linalg.eigvals(self.A)
        self.rho = float(np.max(np.abs(spectrum)))
        self.mu = float(np.min(np.abs(spectrum)))
        norm_a = float(np.linalg.norm(self.A, 2))
        if norm_a > 0:
            off_axis = float(np.max(np.abs(spectrum.real)))
            if off_axis > 1e-9 * norm_a:
                warnings.warn(
                    f"eigenvalues of A deviate from the imaginary axis by {off_axis:.3e}",
                    SpectrumWarning,
                    stacklevel=2,
                )

    @property
    def initial_state(self) -> np.ndarray:
        return (self.epsilon**self.nu) * self.u_in

    @property
    def is_real(self) -> bool:
        # .any() builds no temporary, and like np.all(x == 0) it reads
        # -0.0 as zero and NaN as nonzero
        return not (self.A.imag.any() or self.u_in.imag.any()) and self.oracle.real_valued

    def working(self, x) -> np.ndarray:
        """x as float64 when the problem (is_real) and x are real, else as complex128."""
        return as_working(x, self.is_real)

    def F(self, u, t) -> np.ndarray:
        return np.asarray(self.oracle.value(u, t))

    def with_epsilon(self, epsilon: float) -> "OscillatorySystem":
        """The same problem at a different epsilon.

        Every field but epsilon is kept, except that a second-order
        system's forcing [0; eps g] is rebuilt at the new eps.
        """
        oracle = self.oracle
        if isinstance(oracle, _TransformedOracle) and oracle.eps_scaled:
            oracle = _TransformedOracle(oracle.g_oracle, oracle.dy, epsilon, eps_scaled=True)
        return replace(self, epsilon=epsilon, oracle=oracle)


def as_working(x, real: bool) -> np.ndarray:
    """x as float64 when real (a system's is_real) holds and x is real, else
    as complex128.

    The one place the scheme and the RK4 reference choose their
    arithmetic.  A run reads is_real once (about 2.5 us: two arrays'
    imaginary parts) and passes it to each call.
    """
    x = np.asarray(x, dtype=complex)
    if real and not x.imag.any():
        return x.real.copy()
    return x


def augment(A) -> np.ndarray:
    """A1 of the time-augmented form x = [u; t], dx/dt = (1/eps) A1 x + [F; 1].

    A (d x d) sits in the upper-left block; the last row and column are
    zero.
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"A has shape {A.shape}, expected a square matrix")
    d = A.shape[0]
    A1 = np.zeros((d + 1, d + 1), dtype=complex)
    A1[:d, :d] = A
    return A1


class _TransformedOracle(DerivativeOracle):
    """Oracle for F(u, t) = [0; scale * g(y, t)] with u = [y; p].

    Remaps multi-indices over (y_1..y_dy, p_1..p_dy, t) to g's variables
    (y_1..y_dy, t); any p-derivative is identically zero.  eps_scaled
    marks a scale that is the system's epsilon, which with_epsilon
    follows.  _forcing returns (g_oracle, dy, scale), so build_A0 reads
    g's coefficients and skips this oracle's taylor, and the RK4
    reference calls g_oracle's value alone.
    """

    def __init__(
        self, g_oracle: DerivativeOracle, dy: int, scale: float, eps_scaled: bool = False
    ):
        self.g_oracle = g_oracle
        self.dy = dy
        self.scale = scale
        self.eps_scaled = eps_scaled
        self.real_valued = g_oracle.real_valued

    def _taylor(self, catalog, u, t):
        # the rows without a p component are g's Taylor coefficients with
        # the same multiplicities, so the gamma weights carry over
        d = catalog.d_plus_1 - 1
        g_oracle, dy, scale = self._forcing(d)
        g_catalog, slots = _momentum_slots(catalog.d_plus_1, catalog.k, dy)
        g = g_oracle.taylor(g_catalog, u[:dy], t)
        out = np.zeros((catalog.size, d), dtype=g.dtype)
        out.put(slots, scale * g)
        return out

    def _forcing(self, d: int):
        """(g_oracle, dy, scale); d must be the phase-space 2 dy."""
        if d != 2 * self.dy:
            raise ValueError(f"forcing of dy = {self.dy} needs d = {2 * self.dy}, got {d}")
        return self.g_oracle, self.dy, self.scale

    def value(self, u, t):
        u = np.asarray(u)
        g_oracle, dy, scale = self._forcing(len(u))
        g = scale * g_oracle.value(u[:dy], t)
        out = np.zeros(2 * dy, dtype=g.dtype)
        # an add, not a copy: a zero of g lands as +0.0, as in [0; scale I] @ g
        out[dy:] += g
        return out


@functools.lru_cache(maxsize=16)
def _momentum_slots(d_plus_1: int, k: int, m: int):
    """(g's catalog, slots) for F = [0; g(u[:m], t)]: g's (S_g x m)
    coefficients land on the flat entries slots of the (S x d) taylor
    array, row rows[i] and column d - m + j for g's entry (i, j), read
    in C order.  rows, the catalog's rows with no u[m:] component, hold
    g's multi-indices in order (t renumbered m + 1, same gammas); for
    m = d, slots is every entry."""
    d = d_plus_1 - 1
    rows = np.flatnonzero(~_catalog(d_plus_1, k).exponents[:, m:d].any(axis=1))
    slots = (rows[:, None] * d + np.arange(d - m, d)).ravel()
    slots.flags.writeable = False
    return _catalog(m + 1, k), slots


def second_order_to_first_order(
    M,
    g_oracle: DerivativeOracle,
    y_in,
    ydot_in,
    epsilon: float,
    nu: float,
    T: float,
    name: str = "",
) -> OscillatorySystem:
    """First-order phase-space form of y'' + (1/eps^2) M y = g(y, t).

    With the scaled momentum p = eps * dy/dt and u = [y; p]:

        A = [[0, I], [-M, 0]],   F(u, t) = [0; eps * g(y, t)],
        u(0) = eps^nu * [y_in; ydot_in].

    M must be symmetric positive definite; its square-rooted spectrum
    becomes the oscillator frequencies of A.  g_oracle is read once, at the
    initial point: one without dy = len(M) components raises ValueError.
    """
    M = np.asarray(M, dtype=float)
    dy = M.shape[0]
    if M.shape != (dy, dy) or not np.allclose(M, M.T, atol=1e-12 * max(1.0, np.abs(M).max())):
        raise ValueError("M must be symmetric")
    if np.min(np.linalg.eigvalsh(M)) <= 0:
        raise ValueError("M must be positive definite")
    A = np.zeros((2 * dy, 2 * dy))
    A[:dy, dy:] = np.eye(dy)
    A[dy:, :dy] = -M
    u_in = np.concatenate([np.asarray(y_in, dtype=complex), np.asarray(ydot_in, dtype=complex)])
    system = OscillatorySystem(
        d=2 * dy,
        A=A,
        epsilon=epsilon,
        nu=nu,
        u_in=u_in,
        T=T,
        oracle=_TransformedOracle(g_oracle, dy, epsilon, eps_scaled=True),
        y_dim=dy,
        name=name,
    )
    y0 = system.working(system.initial_state[:dy])
    shape = np.shape(g_oracle._taylor(_catalog(dy + 1, 0), y0, 0.0))
    if shape != (1, dy):
        raise ValueError(f"g_oracle gave shape {shape} for a {dy} x {dy} M, expected (1, {dy})")
    return system


_OMEGA1 = 2.0 * math.sqrt(6.0)


class _PendulumForcingOracle(DerivativeOracle):
    """Exact Taylor coefficients of g(y, t) = -(t + cos(2 sqrt(6) t)) sin(y), d = 1.

    d^m_y d^n_t g = -a_n(t) * sin(y + m pi/2), where a_0 = t + cos(w t),
    a_n = [n == 1] + w^n cos(w t + n pi/2) for n >= 1, w = 2 sqrt(6).
    """

    real_valued = True

    # closed form, not a JetOracle: 8 vs 52 us at k = 3 (one BLAS thread, 2-CPU x86-64 host)
    def _taylor(self, catalog, u, t):
        shifts, scales, offsets = _pendulum_series(catalog.k)
        # a_0 = cos(w t) + t; shifts[0], scales[0] and offsets[0] leave it as is
        a = scales * np.cos(_OMEGA1 * t + shifts) + offsets
        a[0] += t
        s = np.sin(u[0] + shifts)
        # (m, n) of each row: its multiplicities of y and t
        m, n = catalog.exponents.T
        return (-a[n] * s[m] / catalog.float_gammas)[:, None]

    def value(self, u, t):
        # the RK4 reference's hot path: four calls per step.  np.float64 is a
        # float subclass, so a real state takes math's scalar cos and sin
        y = u[0]
        if isinstance(y, float) and isinstance(t, (float, int)):
            return np.array([-(t + math.cos(_OMEGA1 * t)) * math.sin(y)])
        # y in the working dtype keeps taylor's dtype rule
        y = _at_working(u, t)[0][0]
        return np.array([-(t + np.cos(_OMEGA1 * t)) * np.sin(y)])


@functools.lru_cache(maxsize=16)
def _pendulum_series(K: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(n pi/2, w^n, [n == 1]) for n = 0..K: the terms of a_n; read-only, shared."""
    n = np.arange(K + 1)
    tables = (n * np.pi / 2, np.array([_OMEGA1**j for j in range(K + 1)]), (n == 1) * 1.0)
    for table in tables:
        table.flags.writeable = False
    return tables


def _charged_particle_force(y, t):
    """g(y, t) = y / (y_1^2 + y_2^2 + (2 - cos(pi t))^2)^(3/2), the charged particle's force."""
    c = 2.0 - np.cos(np.pi * t)
    s32 = (y[0] * y[0] + y[1] * y[1] + c * c) ** -1.5
    return y[0] * s32, y[1] * s32


def builtin(name: str, epsilon: float, T: float | None = None) -> OscillatorySystem:
    """One of the benchmark problems: example1, example2-E6, example2-E3.

    example1: the forced pendulum y'' + y/eps^2 = g(y, t)/... with
    g(y, t) = -(t + cos(2 sqrt(6) t)) sin(y), y(0) = eps, dy/dt(0) =
    sqrt(3), in phase-space form (d = 2), default T = 6.

    example2-E*: 2D charged particle dynamics in strong electric (E) and
    magnetic (B = 1) fields, d = 4 state [y; p] with eigenvalues
    {+-2i, +-3i} (E = 6, resonant) or {+-i sqrt((7 +- sqrt(13))/2)}
    (E = 3, non-resonant), y(0) = [0, 0], dy/dt(0) = [3, 4], default
    T = 1.
    """
    if name == "example1":
        return second_order_to_first_order(
            M=np.array([[1.0]]),
            g_oracle=_PendulumForcingOracle(),
            y_in=[1.0],
            ydot_in=[math.sqrt(3.0)],
            epsilon=epsilon,
            nu=1.0,
            T=6.0 if T is None else T,
            name="example1",
        )
    if name in ("example2-E6", "example2-E3"):
        E = 6.0 if name.endswith("E6") else 3.0
        B = 1.0
        A = np.array(
            [
                [0.0, 0.0, 1.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
                [-E, 0.0, 0.0, B],
                [0.0, -E, -B, 0.0],
            ]
        )
        return OscillatorySystem(
            d=4,
            A=A,
            epsilon=epsilon,
            nu=1.0,
            u_in=np.array([0.0, 0.0, 3.0, 4.0]),
            T=1.0 if T is None else T,
            oracle=_TransformedOracle(
                JetOracle(_charged_particle_force, real_valued=True), dy=2, scale=1.0
            ),
            y_dim=2,
            name=name,
        )
    raise ConfigError(f"unknown builtin problem {name!r}")


def _complex_entry(v, what: str) -> complex:
    """v, a number or an [re, im] pair of numbers, as a complex; a bool is neither."""
    parts = v if isinstance(v, (list, tuple)) and len(v) == 2 else (v,)
    if all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in parts):
        return complex(*parts)
    raise ConfigError(f"{what} must be a number or an [re, im] pair, got {v!r}")


# the keys of each config form; only the last is optional
_BUILTIN_KEYS = ("name", "epsilon", "T")
_INLINE_KEYS = ("d", "A", "epsilon", "nu", "u_in", "T", "poly_F")


def _check_keys(obj, allowed, what: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} must be a JSON object")
    unknown = [str(key) for key in obj if key not in allowed]
    if unknown:
        raise ConfigError(
            f"unknown {what} key(s): {', '.join(unknown)} (allowed: {', '.join(allowed)})"
        )


def _number(cfg: dict, key: str) -> float:
    v = cfg[key]
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise ConfigError(f"{key} must be a number, got {json.dumps(v, default=repr)}")
    return float(v)


def _integer(v, what: str) -> int:
    """v as an int >= 1: an integral float is one, a bool or a fraction is a ConfigError."""
    n = int(v) if isinstance(v, float) and v.is_integer() else v
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ConfigError(f"{what} must be an integer >= 1, got {v!r}")
    return n


def load_config(cfg: dict) -> OscillatorySystem:
    """Build a system from a JSON-style dict.

    Either {"name": <builtin>, "epsilon": e, "T"?: t} or the inline form
    {"d", "A", "epsilon", "nu", "u_in", "T", "poly_F"?} where A is a
    row-major list of d*d [re, im] pairs, u_in a list of d entries, and
    poly_F a list of {"row": 1-based F row, "alpha": [components in
    1..d+1], "coeff": [re, im]} monomial terms.  Any other key is a
    ConfigError.
    """
    builtin_form = isinstance(cfg, dict) and "name" in cfg
    keys = _BUILTIN_KEYS if builtin_form else _INLINE_KEYS
    _check_keys(cfg, keys, "config")
    missing = [k for k in keys[:-1] if k not in cfg]
    if missing:
        raise ConfigError(f"config missing keys: {', '.join(missing)}")
    if builtin_form:
        T = _number(cfg, "T") if "T" in cfg else None
        return builtin(cfg["name"], _number(cfg, "epsilon"), T)
    d = _integer(cfg["d"], "d")
    epsilon, nu, T = (_number(cfg, key) for key in ("epsilon", "nu", "T"))
    try:
        flat = [_complex_entry(v, "A entry") for v in cfg["A"]]
        if len(flat) != d * d:
            raise ConfigError(f"A must have d*d = {d * d} entries, got {len(flat)}")
        A = np.array(flat, dtype=complex).reshape(d, d)
        u_in = np.array([_complex_entry(v, "u_in entry") for v in cfg["u_in"]])
        if u_in.shape != (d,):
            raise ConfigError(f"u_in must have {d} entries")
        terms = []
        for item in cfg.get("poly_F", []):
            _check_keys(item, ("row", "alpha", "coeff"), "poly_F term")
            coeff = _complex_entry(item["coeff"], "poly_F coeff")
            row = _integer(item["row"], "poly_F row")
            alpha = tuple(_integer(c, "poly_F alpha entry") for c in item["alpha"])
            terms.append((row, alpha, coeff))
        oracle = PolynomialOracle(d, terms)
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad config: {exc}") from exc
    return OscillatorySystem(d=d, A=A, epsilon=epsilon, nu=nu, u_in=u_in, T=T, oracle=oracle)


def load_config_file(path) -> OscillatorySystem:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return load_config(cfg)
