"""The explicit local-linear-extension exponential stepper.

One step from state U_n at time t_n: lift x = [u; t] around xhat =
[U_n; t_n] (where the lifted vector is the first basis vector e_1),
advance the truncated lifted dynamics exactly with one matrix
exponential,

    w = exp((A1k / eps + A0k) h) e_1,

and read the increment off the degree-1 block: the u-rows give
U_{n+1} - U_n, and the t-row must equal h (checked, since time is
transported exactly).  The scheme is fully explicit; accuracy is set by
the extension order k of the catalog.

Both entry points run the one private step kernel, _StepKernel:
integrate builds it once per run and step builds a one-shot one.  It
holds the catalog, e_1 and A1 / eps, and each step makes one build_A1,
one build_A0 and one linalg.expm call.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .extension import build_A0, build_A1
from .mindex import MultiIndexCatalog, build_catalog
from .sysdef import OscillatorySystem, as_working, augment, check_finite_positive

BLOWUP_NORM = 1e12


class BlowUpError(RuntimeError):
    """Trajectory norm exceeded the abort threshold (or went non-finite)."""

    def __init__(self, step_index: int | None, t: float, norm: float):
        where = "" if step_index is None else f" at step {step_index}"
        super().__init__(f"state blew up{where} (t = {t:.6g}): |U| = {norm:.3e}")
        self.step_index = step_index
        self.t = t
        self.norm = norm


@dataclass(frozen=True)
class Trajectory:
    """Uniform-grid solution samples with the run's metadata.

    states[n] is the state at times[n]; states[0] is the initial value
    eps^nu * u_in.  h is the actual (snapped) step; h_requested records
    the pre-snap request when they differ.  y_dim marks [y; p] layouts.
    """

    times: np.ndarray
    states: np.ndarray
    epsilon: float
    h: float
    k: int | None = None
    h_requested: float | None = None
    y_dim: int | None = None

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1


def _uniform_grid(T: float, h: float) -> tuple[int, float, float | None]:
    """(N, T / N, h_requested): N = max(1, round(T / h)) uniform steps over [0, T].

    h_requested is h when the snapped step T / N differs from it, else
    None.  A step T / n gives back exactly n steps.
    """
    N = max(1, round(T / h))
    h_snap = T / N
    return N, h_snap, h if abs(h_snap - h) > 1e-12 * h else None


def check_blow_up(u: np.ndarray, step_index: int | None, t: float) -> None:
    """Raise BlowUpError when |u| is non-finite or exceeds BLOWUP_NORM."""
    norm = math.sqrt(linalg.squared_norm(u))
    if not math.isfinite(norm) or norm > BLOWUP_NORM:
        raise BlowUpError(step_index, t, norm)


class _StepKernel:
    """The scheme's one step, set up once per run of (system, catalog).

    Holds the catalog, e_1 and A1 / eps, so build_A1's cached
    xhat-free part already carries the 1/eps and M is formed with one
    addition and one scaling in place.
    """

    def __init__(self, system: OscillatorySystem, catalog: MultiIndexCatalog):
        if catalog.d_plus_1 != system.d + 1:
            raise ValueError("catalog dimension does not match the system")
        self.system = system
        self.catalog = catalog
        # system.is_real, read once per run: the run's states take it too
        self.real = system.is_real
        self.A1 = as_working(augment(system.A) / system.epsilon, self.real)
        # e_1: the lifted expansion point, the vector a step exponentiates
        self.e1 = np.zeros(catalog.size)
        self.e1[0] = 1.0

    def __call__(self, Un: np.ndarray, tn: float, h: float) -> np.ndarray:
        """U_{n+1} from (Un, tn): w = exp(h (A1k / eps + A0k)) e_1, read off rows 1..d."""
        d = self.system.d
        # [Un; tn], filled in place: a third of concatenate's cost at d <= 4
        xhat = np.empty(d + 1, dtype=Un.dtype)
        xhat[:d] = Un
        xhat[d] = tn
        M = build_A1(self.catalog, self.A1, xhat)
        M += build_A0(self.catalog, self.system.oracle, xhat)
        M *= h
        w = linalg.expm(M, self.e1)
        t_comp = w[d + 1]
        # a non-finite w falls through to the caller's blow-up check
        if cmath.isfinite(t_comp) and abs(t_comp - h) > 1e-12 * max(1.0, abs(h)):
            raise ArithmeticError(
                f"time component of the lifted step is {t_comp!r}, expected h = {h!r}"
            )
        return Un + w[1 : d + 1]


def step(
    system: OscillatorySystem,
    catalog: MultiIndexCatalog,
    Un,
    tn: float,
    h: float,
) -> np.ndarray:
    """One scheme step from (Un, tn) with step size h.

    Raises ValueError unless Un has shape (d,), and BlowUpError, with
    no step index, when the new state's norm passes 1e12 or goes
    non-finite.
    """
    check_finite_positive("step size", h)
    kernel = _StepKernel(system, catalog)
    Un = as_working(Un, kernel.real)
    if Un.shape != (system.d,):
        raise ValueError(f"state has shape {Un.shape}, expected ({system.d},)")
    out = kernel(Un, tn, h)
    check_blow_up(out, None, tn)
    return out.astype(complex)


def integrate(system: OscillatorySystem, k: int, h: float) -> Trajectory:
    """Run N = round(T/h) uniform steps over [0, T].

    Steps in as_working's dtype (float64 for a real problem); the
    returned states are complex128 either way.

    h is snapped so the uniform grid covers [0, T] exactly; the snap is
    recorded on the returned trajectory.  Aborts with BlowUpError when
    the state norm passes 1e12 or goes non-finite.
    """
    check_finite_positive("step size", h)
    kernel = _StepKernel(system, build_catalog(system.d + 1, k))
    N, h_snap, h_requested = _uniform_grid(system.T, h)
    times = np.linspace(0.0, system.T, N + 1)
    u0 = as_working(system.initial_state, kernel.real)
    states = np.empty((N + 1, system.d), dtype=u0.dtype)
    states[0] = u0
    # a state that blows up overflows inside the exponential; check_blow_up
    # reports it as one error rather than a stream of numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(N):
            states[n + 1] = kernel(states[n], times[n], h_snap)
            check_blow_up(states[n + 1], n, float(times[n]))
    return Trajectory(
        times=times,
        states=states.astype(complex),
        epsilon=system.epsilon,
        h=h_snap,
        k=k,
        h_requested=h_requested,
        y_dim=system.y_dim,
    )
