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
one too.  The pendulum forcing alone uses a closed form.  An oracle's
forcing_parts describe F itself as E @ g(u[rows], t), which lets the
RK4 reference evaluate only the forcing a second-order system has.
"""

from __future__ import annotations

import json
import math
import numbers
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import linalg
from ._jets import Jet
from .mindex import MultiIndexCatalog, _catalog, _exponent_table, gamma, representative, restrict


class ConfigError(ValueError):
    """Malformed problem configuration."""


class SpectrumWarning(UserWarning):
    """A's eigenvalues sit measurably off the imaginary axis."""


def check_finite_positive(name: str, value) -> None:
    """Raise ValueError unless value is a finite number > 0."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value:g}")


class DerivativeOracle:
    """Evaluator of the Taylor coefficients of F(u, t) at a point.

    Subclasses implement _taylor(catalog, u, t), the one override point:
    row i holds d^beta F(u, t) / gamma(beta) for the i-th representative
    beta of catalog, a multi-index with components in [1, d+1] where
    component d+1 differentiates in t.  partial and value read their
    numbers out of it; value may be overridden by a direct formula.
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
        (catalog.size, d).  The dtype follows the data: float64 at real
        points (u, t) of a real-valued oracle, complex128 at complex points
        or where F itself is complex.
        """
        u = np.asarray(u)
        out = self._real_at(np.asarray(self._taylor(catalog, u, t)), u, t)
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

    def _real_at(self, out: np.ndarray, u, t) -> np.ndarray:
        """The dtype rule of taylor and value: a real-valued F at a real point is float64."""
        if out.dtype.kind == "c" and self.real_valued:
            if not (np.iscomplexobj(u) or np.iscomplexobj(t)):
                return out.real
        return out

    def forcing_parts(self, d: int) -> tuple[Callable, slice, np.ndarray]:
        """F as (g, rows, E) with F(u, t) = E @ g(u[rows], t).

        g is a value callable, rows a slice (so u[rows] is a view of u)
        and E a d x m embedding matrix.  Generically F is its own g:
        (value, all of u, I_d).  An oracle whose F depends on part of u
        and lives in a few directions returns the smaller g, which the
        RK4 reference then evaluates in place of F.
        """
        return self.value, slice(None), np.eye(d)


class JetOracle(DerivativeOracle):
    """Exact Taylor coefficients of a user's F(u, t) by jet arithmetic.

    F(u, t) returns the d components of F at the state u (a length-d
    array) and the time t.  value calls F on plain numbers.  taylor
    calls F once, on jets of degree k in the d+1 variables (u, t) (see
    _jets), so F may use + - * / and ** on them, np.sin, np.cos and
    np.exp, and numeric constants.  Each output jet holds its
    component's coefficients d^beta F_i / gamma(beta) in catalog order;
    an output that does not depend on (u, t) may be a plain number.
    """

    def __init__(self, F: Callable, real_valued: bool = False):
        self.F = F
        self.real_valued = real_valued

    def _taylor(self, catalog, u, t):
        # variable q is x_q plus one unit coefficient on its degree-1 row q+1
        n, K = catalog.d_plus_1, catalog.k
        c = np.eye(n, catalog.size, 1, dtype=np.result_type(u, t, float))
        c[:-1, 0] = u
        c[-1, 0] = t
        jets = [Jet(n, K, row) for row in c]
        outputs = self.F(np.array(jets[:-1], dtype=object), jets[-1])
        return np.array([
            (f if isinstance(f, Jet) else Jet.constant(f, n, K)).c for f in outputs
        ]).T

    def value(self, u, t):
        u = np.asarray(u)
        return self._real_at(np.asarray(self.F(u, t)), u, t)


class PolynomialOracle(JetOracle):
    """A JetOracle on a polynomial F given as monomial terms.

    terms: sequence of (row, alpha, coeff) with row in [1, d] (1-based F
    component), alpha a multi-index over [1, d+1] naming the monomial
    x^alpha in the variables x = (u_1, ..., u_d, t), and coeff complex.
    An empty term list is the zero nonlinearity.  Real-valued when every
    coefficient is real.
    """

    def __init__(self, d: int, terms):
        self.d = d
        self.terms: list[tuple[int, tuple[int, ...], complex]] = []
        for row, alpha, coeff in terms:
            if not 1 <= row <= d:
                raise ValueError(f"term row {row} outside 1..{d}")
            exps = [0] * (d + 1)
            for c in representative(alpha):
                if c > d + 1:
                    raise ValueError(f"monomial component {c} outside 1..{d + 1}")
                exps[c - 1] += 1
            self.terms.append((row - 1, tuple(exps), complex(coeff)))
        real_valued = all(c.imag == 0 for _, _, c in self.terms)
        if real_valued:
            self.terms = [(row, exps, c.real) for row, exps, c in self.terms]
        super().__init__(self._sum_monomials, real_valued)

    def _sum_monomials(self, u, t):
        x = list(u) + [t]
        out = [0.0] * self.d
        for row, exps, coeff in self.terms:
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
    * dy/dt), enabling split error reporting for y and dy/dt.
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
    eps_factory: Callable[[float], "OscillatorySystem"] | None = field(
        default=None, repr=False, compare=False
    )
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
        return (
            bool(np.all(self.A.imag == 0))
            and bool(np.all(self.u_in.imag == 0))
            and self.oracle.real_valued
        )

    def working(self, x) -> np.ndarray:
        """x as float64 when the problem (is_real) and x are real, else as complex128.

        The one place the scheme and the RK4 reference choose their arithmetic.
        """
        x = np.asarray(x, dtype=complex)
        if self.is_real and not x.imag.any():
            return x.real.copy()
        return x

    def F(self, u, t) -> np.ndarray:
        return np.asarray(self.oracle.value(u, t))

    def with_epsilon(self, epsilon: float) -> "OscillatorySystem":
        """The same problem family at a different epsilon."""
        if self.eps_factory is not None:
            return self.eps_factory(epsilon)
        return replace(self, epsilon=epsilon)


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
    (y_1..y_dy, t); any p-derivative is identically zero.
    """

    def __init__(self, g_oracle: DerivativeOracle, dy: int, scale: float):
        self.g_oracle = g_oracle
        self.dy = dy
        self.scale = scale
        self.real_valued = g_oracle.real_valued
        self._embed = np.zeros((2 * dy, dy))
        self._embed[dy:] = scale * np.eye(dy)
        self._embed.flags.writeable = False

    def _taylor(self, catalog, u, t):
        # the rows without a p component are g's Taylor coefficients with
        # the same multiplicities, so the gamma weights carry over
        dy = self.dy
        sub = restrict(catalog, tuple(range(1, dy + 1)) + (2 * dy + 1,))
        g = self.g_oracle.taylor(sub.catalog, u[:dy], t)
        out = np.zeros((catalog.size, 2 * dy), dtype=g.dtype)
        out[sub.rows, dy:] = self.scale * g
        return out

    def forcing_parts(self, d: int):
        """(g, y rows, [0; scale I]): F(u, t) = [0; scale * g(y, t)], d = 2 dy."""
        # g_oracle.value is looked up per call, not stored, so a wrapper
        # installed on its class later is the g a run reads
        return self.g_oracle.value, slice(0, self.dy), self._embed

    def value(self, u, t):
        g, rows, E = self.forcing_parts(2 * self.dy)
        return E.dot(g(np.asarray(u)[rows], t))


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
    factory = lambda eps: second_order_to_first_order(
        M, g_oracle, y_in, ydot_in, eps, nu, T, name
    )
    system = OscillatorySystem(
        d=2 * dy,
        A=A,
        epsilon=epsilon,
        nu=nu,
        u_in=u_in,
        T=T,
        oracle=_TransformedOracle(g_oracle, dy, scale=epsilon),
        y_dim=dy,
        name=name,
        eps_factory=factory,
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

    # closed form, not a JetOracle: 15 vs 61 us at k = 3, of a 106 us example1 step
    def _taylor(self, catalog, u, t):
        K = catalog.k
        a = [t + np.cos(_OMEGA1 * t)] + [
            (1.0 if n == 1 else 0.0) + _OMEGA1**n * np.cos(_OMEGA1 * t + n * np.pi / 2)
            for n in range(1, K + 1)
        ]
        s = [np.sin(u[0] + m * np.pi / 2) for m in range(K + 1)]
        # (m, n) of each row: its multiplicities of y and t
        m, n = _exponent_table(2, K).T
        return (-np.array(a)[n] * np.array(s)[m] / np.array(catalog.gammas))[:, None]

    def value(self, u, t):
        return np.array([-(t + np.cos(_OMEGA1 * t)) * np.sin(u[0])])


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
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(v[0], v[1])
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
    d = cfg["d"]
    if isinstance(d, float) and d.is_integer():
        d = int(d)
    if isinstance(d, bool) or not isinstance(d, int) or d < 1:
        raise ConfigError(f"d must be an integer >= 1, got {cfg['d']!r}")
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
            terms.append((int(item["row"]), tuple(int(c) for c in item["alpha"]), coeff))
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
