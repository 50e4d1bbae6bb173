"""Problem definitions: oscillatory systems, derivative oracles, builtins.

An OscillatorySystem is the initial value problem

    du/dt = (1/epsilon) A u + F(u, t),   u(0) = epsilon^nu * u_in

on [0, T], with A diagonalizable and purely imaginary in spectrum.  The
nonlinearity F enters the integrator only through a DerivativeOracle
supplying mixed partials d^alpha F evaluated at a point, where alpha is
a multi-index over the d+1 variables (u_1, ..., u_d, t).
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import linalg
from ._jets import Jet
from .mindex import MultiIndex, MultiIndexCatalog, representative, restrict

_EPS = float(np.finfo(float).eps)
# FiniteDifferenceOracle's largest measured relative error at orders 1..6
# (table in its docstring) and the last order that stays below 1e-6
_FD_MAX_REL_ERROR = (3.8e-10, 2.4e-6, 9.1e-5, 2.0e-3, 1.1e-2, 5.8e-2)
_FD_ACCURATE_ORDER = max(j for j, e in enumerate(_FD_MAX_REL_ERROR, 1) if e < 1e-6)


class ConfigError(ValueError):
    """Malformed problem configuration."""


class UnsupportedOrderError(ValueError):
    """A derivative of order beyond the oracle's max_order was requested."""


class SpectrumWarning(UserWarning):
    """A's eigenvalues sit measurably off the imaginary axis."""


class DerivativeOracle:
    """Evaluator of mixed partials d^alpha F(u, t).

    alpha is a multi-index with components in [1, d+1]; component d+1
    differentiates in t.  The value depends only on the multiset of
    alpha (mixed partials commute), and |alpha| = 0 returns F itself.
    Subclasses implement _partial on the sorted alpha, and may override
    _taylor where all coefficients of one point come cheaper together.
    """

    max_order: int = 64
    real_valued: bool = False

    def partial(self, alpha, u, t) -> np.ndarray:
        alpha = representative(alpha)
        if len(alpha) > self.max_order:
            raise UnsupportedOrderError(
                f"order {len(alpha)} exceeds oracle max_order {self.max_order}"
            )
        return np.asarray(self._partial(alpha, np.asarray(u), t))

    def _partial(self, alpha: MultiIndex, u: np.ndarray, t) -> np.ndarray:
        raise NotImplementedError

    def taylor(self, catalog: MultiIndexCatalog, u, t) -> np.ndarray:
        """Taylor coefficients d^beta F(u, t) / gamma(beta) for |beta| <= k.

        Row i belongs to catalog.representatives[i]; the result has shape
        (catalog.size, d).  The dtype follows the data: float64 at real
        points (u, t) of a real-valued oracle, complex128 at complex points
        or where F itself is complex.
        """
        if catalog.k > self.max_order:
            raise UnsupportedOrderError(
                f"order {catalog.k} exceeds oracle max_order {self.max_order}"
            )
        u = np.asarray(u)
        out = np.asarray(self._taylor(catalog, u, t))
        if self.real_valued and not (np.iscomplexobj(u) or np.iscomplexobj(t)):
            out = out.real
        d = catalog.d_plus_1 - 1
        if out.shape != (catalog.size, d):
            raise ValueError(
                f"oracle returned shape {out.shape}, expected ({catalog.size}, {d})"
            )
        return out

    def _taylor(self, catalog: MultiIndexCatalog, u, t) -> np.ndarray:
        """One _partial per representative, divided by its gamma weight."""
        partials = np.array([self._partial(beta, u, t) for beta in catalog.representatives])
        return partials / np.array(catalog.gammas)[:, None]

    def value(self, u, t) -> np.ndarray:
        """F(u, t) itself; overridden where a direct formula is cheaper."""
        return self.partial((), u, t)


class PolynomialOracle(DerivativeOracle):
    """Exact partials of a polynomial F given as monomial terms.

    terms: sequence of (row, alpha, coeff) with row in [1, d] (1-based F
    component), alpha a multi-index over [1, d+1] naming the monomial
    x^alpha in the variables x = (u_1, ..., u_d, t), and coeff complex.
    An empty term list is the zero nonlinearity.
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
        self.real_valued = all(c.imag == 0 for _, _, c in self.terms)
        if self.real_valued:
            self.terms = [(row, exps, c.real) for row, exps, c in self.terms]
        self._dtype = np.dtype(float if self.real_valued else complex)

    def _partial(self, alpha, u, t):
        beta = [0] * (self.d + 1)
        for c in alpha:
            if c > self.d + 1:
                raise ValueError(f"multi-index component {c} outside 1..{self.d + 1}")
            beta[c - 1] += 1
        x = list(u) + [t]
        out = np.zeros(self.d, dtype=np.result_type(self._dtype, u, t))
        for row, exps, coeff in self.terms:
            val = coeff
            for q in range(self.d + 1):
                e, b = exps[q], beta[q]
                if b > e:
                    val = 0.0
                    break
                # falling factorial e*(e-1)*...*(e-b+1), then x^(e-b)
                for i in range(b):
                    val *= e - i
                if e - b:
                    val *= x[q] ** (e - b)
            out[row] += val
        return out


class FiniteDifferenceOracle(DerivativeOracle):
    """Iterated central differences of a black-box F(u, t) -> d-vector.

    The step for an order-j derivative is eps^(1/(j+2)) * max(1, |u|_inf,
    |t|), balancing truncation against cancellation; accuracy degrades
    with order.  Measured against the exact partials of the example1
    forcing g(y, t) = -(t + cos(2 sqrt(6) t)) sin(y) at three points
    (y, t), as the largest error over all order-j partials divided by the
    largest such partial:

        order j:          1        2        3        4        5        6
        (0.3, 0.7)        7.7e-11  1.2e-07  4.5e-06  9.7e-05  5.4e-04  2.9e-03
        (1.1, 2.0)        3.8e-10  4.8e-07  2.6e-05  3.9e-04  2.7e-03  1.2e-02
        (-0.8, 4.5)       2.3e-10  2.4e-06  9.1e-05  2.0e-03  1.1e-02  5.8e-02

    Only order 1 stays below 1e-6 at all three points, so a k_max above
    it warns at construction (UserWarning).
    """

    def __init__(self, F: Callable, k_max: int, real_valued: bool = False):
        self.F = F
        self.max_order = k_max
        self.real_valued = real_valued
        if k_max > _FD_ACCURATE_ORDER:
            worst = _FD_MAX_REL_ERROR[min(k_max, len(_FD_MAX_REL_ERROR)) - 1]
            warnings.warn(
                f"finite-difference partials above order {_FD_ACCURATE_ORDER} lose "
                f"accuracy: k_max = {k_max} (measured relative error up to "
                f"{worst:.0e} at order {min(k_max, len(_FD_MAX_REL_ERROR))})",
                UserWarning,
                stacklevel=2,
            )

    def _partial(self, alpha, u, t):
        j = len(alpha)
        if j == 0:
            return np.asarray(self.F(u, t))
        scale = max(1.0, float(np.max(np.abs(u))) if len(u) else 1.0, abs(t))
        eta = _EPS ** (1.0 / (j + 2)) * scale
        return self._diff(alpha, u.astype(np.result_type(u, float)), t, eta)

    def _diff(self, comps, u, t, eta):
        if not comps:
            return np.asarray(self.F(u, t))
        q, rest = comps[0], comps[1:]
        if q <= len(u):
            up, um = u.copy(), u.copy()
            up[q - 1] += eta
            um[q - 1] -= eta
            hi = self._diff(rest, up, t, eta)
            lo = self._diff(rest, um, t, eta)
        else:
            hi = self._diff(rest, u, t + eta, eta)
            lo = self._diff(rest, u, t - eta, eta)
        return (hi - lo) / (2 * eta)

    def value(self, u, t):
        return np.asarray(self.F(u, t))


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
    max_order: int = 0
    y_dim: int | None = None
    name: str = ""
    eps_factory: Callable[[float], "OscillatorySystem"] | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=complex)
        self.u_in = np.asarray(self.u_in, dtype=complex)
        if self.A.shape != (self.d, self.d):
            raise ValueError(f"A has shape {self.A.shape}, expected ({self.d}, {self.d})")
        if self.u_in.shape != (self.d,):
            raise ValueError(f"u_in has shape {self.u_in.shape}, expected ({self.d},)")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if not self.T > 0:
            raise ValueError("T must be positive")
        if self.max_order == 0:
            self.max_order = self.oracle.max_order
        norm_a = float(np.linalg.norm(self.A, 2))
        if norm_a > 0:
            off_axis = float(np.max(np.abs(linalg.eigvals(self.A).real)))
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
    """Oracle for F(u, t) = [0; epsilon * g(y, t)] with u = [y; p].

    Remaps multi-indices over (y_1..y_dy, p_1..p_dy, t) to g's variables
    (y_1..y_dy, t); any p-derivative is identically zero.
    """

    def __init__(self, g_oracle: DerivativeOracle, dy: int, epsilon: float):
        self.g_oracle = g_oracle
        self.dy = dy
        self.epsilon = epsilon
        self.max_order = g_oracle.max_order
        self.real_valued = g_oracle.real_valued

    def _partial(self, alpha, u, t):
        dy = self.dy
        g_alpha = []
        for c in alpha:
            if c <= dy:
                g_alpha.append(c)
            elif c <= 2 * dy:
                return np.zeros(2 * dy, dtype=np.result_type(u, t))
            else:
                g_alpha.append(dy + 1)
        g = self.g_oracle.partial(tuple(g_alpha), u[:dy], t)
        out = np.zeros(2 * dy, dtype=g.dtype)
        out[dy:] = self.epsilon * g
        return out

    def _taylor(self, catalog, u, t):
        # the rows without a p component are g's Taylor coefficients with
        # the same multiplicities, so the gamma weights carry over
        dy = self.dy
        sub = restrict(catalog, tuple(range(1, dy + 1)) + (2 * dy + 1,))
        g = self.g_oracle.taylor(sub.catalog, u[:dy], t)
        out = np.zeros((catalog.size, 2 * dy), dtype=g.dtype)
        out[sub.rows, dy:] = self.epsilon * g[sub.sub_rows]
        return out

    def value(self, u, t):
        u = np.asarray(u)
        g = np.asarray(self.g_oracle.value(u[: self.dy], t))
        if g.dtype.kind == "c" and self.real_valued and u.dtype.kind != "c":
            g = g.real
        out = np.zeros(2 * self.dy, dtype=np.result_type(g.dtype, float))
        out[self.dy :] = self.epsilon * g
        return out


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
    becomes the oscillator frequencies of A.
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
    return OscillatorySystem(
        d=2 * dy,
        A=A,
        epsilon=epsilon,
        nu=nu,
        u_in=u_in,
        T=T,
        oracle=_TransformedOracle(g_oracle, dy, epsilon),
        y_dim=dy,
        name=name,
        eps_factory=factory,
    )


_OMEGA1 = 2.0 * math.sqrt(6.0)


class _PendulumForcingOracle(DerivativeOracle):
    """Exact partials of g(y, t) = -(t + cos(2 sqrt(6) t)) sin(y), d = 1.

    d^m_y d^n_t g = -a_n(t) * sin(y + m pi/2), where a_0 = t + cos(w t),
    a_n = [n == 1] + w^n cos(w t + n pi/2) for n >= 1, w = 2 sqrt(6).
    """

    real_valued = True

    def _partial(self, alpha, u, t):
        m = sum(1 for c in alpha if c == 1)
        n = len(alpha) - m
        if n == 0:
            a_n = t + np.cos(_OMEGA1 * t)
        else:
            a_n = (1.0 if n == 1 else 0.0) + _OMEGA1**n * np.cos(_OMEGA1 * t + n * np.pi / 2)
        return np.array([-a_n * np.sin(u[0] + m * np.pi / 2)])

    def value(self, u, t):
        return np.array([-(t + np.cos(_OMEGA1 * t)) * np.sin(u[0])])


class _ChargedParticleOracle(DerivativeOracle):
    """Exact partials of F = [0, 0, g_1, g_2] for the charged-particle force.

    g_i(y, t) = y_i / (y_1^2 + y_2^2 + (2 - cos(pi t))^2)^(3/2), evaluated
    through truncated Taylor (jet) arithmetic in the active variables
    (y_1, y_2, t); derivatives in the momentum variables vanish.
    """

    max_order = 10
    real_valued = True

    @staticmethod
    def _jets(y1, y2, t, K):
        j_y1 = Jet.variable(0, y1, 3, K)
        j_y2 = Jet.variable(1, y2, 3, K)
        j_t = Jet.variable(2, t, 3, K)
        c = 2.0 - (np.pi * j_t).cos()
        s = j_y1 * j_y1 + j_y2 * j_y2 + c * c
        s32 = s.power(-1.5)
        return j_y1 * s32, j_y2 * s32

    def _partial(self, alpha, u, t):
        out = np.zeros(4, dtype=np.result_type(u, t))
        if 3 not in alpha and 4 not in alpha:
            g1, g2 = self._jets(u[0], u[1], t, len(alpha))
            e = (alpha.count(1), alpha.count(2), alpha.count(5))
            out[2] = g1.partial(e)
            out[3] = g2.partial(e)
        return out

    def _taylor(self, catalog, u, t):
        # jet row i holds d^beta g / prod e_q! for the i-th representative
        # beta of the (y_1, y_2, t) catalog: its gamma-weighted Taylor
        # coefficient
        g1, g2 = self._jets(u[0], u[1], t, catalog.k)
        sub = restrict(catalog, (1, 2, 5))
        out = np.zeros((catalog.size, 4), dtype=g1.c.dtype)
        out[sub.rows, 2] = g1.c[sub.sub_rows]
        out[sub.rows, 3] = g2.c[sub.sub_rows]
        return out

    def value(self, u, t):
        c = 2.0 - np.cos(np.pi * t)
        s = u[0] * u[0] + u[1] * u[1] + c * c
        w = s**-1.5
        return np.array([0.0 * w, 0.0 * w, u[0] * w, u[1] * w])


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
        Tval = 1.0 if T is None else T
        return OscillatorySystem(
            d=4,
            A=A,
            epsilon=epsilon,
            nu=1.0,
            u_in=np.array([0.0, 0.0, 3.0, 4.0]),
            T=Tval,
            oracle=_ChargedParticleOracle(),
            y_dim=2,
            name=name,
            eps_factory=lambda eps: builtin(name, eps, Tval),
        )
    raise ConfigError(f"unknown builtin problem {name!r}")


def _complex_entry(v, what: str) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(v[0], v[1])
    raise ConfigError(f"{what} must be a number or an [re, im] pair, got {v!r}")


def load_config(cfg: dict) -> OscillatorySystem:
    """Build a system from a JSON-style dict.

    Either {"name": <builtin>, "epsilon": e, "T"?: t} or the inline form
    {"d", "A", "epsilon", "nu", "u_in", "T", "poly_F"?} where A is a
    row-major list of d*d [re, im] pairs, u_in a list of d entries, and
    poly_F a list of {"row": 1-based F row, "alpha": [components in
    1..d+1], "coeff": [re, im]} monomial terms.
    """
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    if "name" in cfg:
        if "epsilon" not in cfg:
            raise ConfigError("builtin config requires 'epsilon'")
        return builtin(cfg["name"], float(cfg["epsilon"]), cfg.get("T"))
    missing = [k for k in ("d", "A", "epsilon", "nu", "u_in", "T") if k not in cfg]
    if missing:
        raise ConfigError(f"config missing keys: {', '.join(missing)}")
    try:
        d = int(cfg["d"])
        flat = [_complex_entry(v, "A entry") for v in cfg["A"]]
        if len(flat) != d * d:
            raise ConfigError(f"A must have d*d = {d * d} entries, got {len(flat)}")
        A = np.array(flat, dtype=complex).reshape(d, d)
        u_in = np.array([_complex_entry(v, "u_in entry") for v in cfg["u_in"]])
        if u_in.shape != (d,):
            raise ConfigError(f"u_in must have {d} entries")
        terms = []
        for item in cfg.get("poly_F", []):
            terms.append(
                (
                    int(item["row"]),
                    tuple(int(c) for c in item["alpha"]),
                    _complex_entry(item["coeff"], "poly_F coeff"),
                )
            )
        oracle = PolynomialOracle(d, terms)
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad config: {exc}") from exc
    return OscillatorySystem(
        d=d,
        A=A,
        epsilon=float(cfg["epsilon"]),
        nu=float(cfg["nu"]),
        u_in=u_in,
        T=float(cfg["T"]),
        oracle=oracle,
        name=str(cfg.get("name", "")),
    )


def load_config_file(path) -> OscillatorySystem:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return load_config(cfg)
