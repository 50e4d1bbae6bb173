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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .extension import build_A0, build_A1
from .mindex import MultiIndexCatalog, build_catalog
from .sysdef import OscillatorySystem, UnsupportedOrderError, augment, check_finite_positive

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


def check_blow_up(u, step_index: int | None, t: float) -> None:
    """Raise BlowUpError when |u| is non-finite or exceeds BLOWUP_NORM."""
    norm = float(np.linalg.norm(u))
    if not np.isfinite(norm) or norm > BLOWUP_NORM:
        raise BlowUpError(step_index, t, norm)


def _check_args(system: OscillatorySystem, k: int, h: float) -> None:
    check_finite_positive("step size", h)
    if k > system.max_order:
        raise UnsupportedOrderError(
            f"k = {k} exceeds the oracle's max_order {system.max_order}"
        )


def _working_state(system: OscillatorySystem, U) -> np.ndarray:
    """U as float64 when the problem and U are real, else as complex128."""
    U = np.asarray(U, dtype=complex)
    if system.is_real and not U.imag.any():
        return U.real.copy()
    return U


def _augmented_A(system: OscillatorySystem) -> np.ndarray:
    A1 = augment(system.A)
    return A1.real.copy() if system.is_real else A1


def _step_matrices(system, catalog, A1, Un, tn, h):
    xhat = np.concatenate([Un, [tn]])
    A1k = build_A1(catalog, A1, xhat)
    A0k = build_A0(catalog, system.oracle, xhat)
    return (A1k / system.epsilon + A0k) * h


def _advance(system, catalog, A1, Un, tn, h):
    M = _step_matrices(system, catalog, A1, Un, tn, h)
    w = linalg.expm(M)[:, 0]
    d = system.d
    t_comp = w[d + 1]
    # a non-finite w falls through to the caller's blow-up check
    if np.isfinite(t_comp) and abs(t_comp - h) > 1e-12 * max(1.0, abs(h)):
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

    Raises BlowUpError, with no step index, when the new state's norm
    passes 1e12 or goes non-finite.
    """
    _check_args(system, catalog.k, h)
    if catalog.d_plus_1 != system.d + 1:
        raise ValueError("catalog dimension does not match the system")
    out = _advance(system, catalog, _augmented_A(system), _working_state(system, Un), tn, h)
    check_blow_up(out, None, tn)
    return out.astype(complex)


def integrate(system: OscillatorySystem, k: int, h: float) -> Trajectory:
    """Run N = round(T/h) uniform steps over [0, T].

    A real problem (system.is_real) steps in float64 arithmetic and any
    other in complex128; the returned states are complex128 either way.

    h is snapped so the uniform grid covers [0, T] exactly; the snap is
    recorded on the returned trajectory.  Aborts with BlowUpError when
    the state norm passes 1e12 or goes non-finite.
    """
    _check_args(system, k, h)
    catalog = build_catalog(system.d + 1, k)
    A1 = _augmented_A(system)
    N = max(1, round(system.T / h))
    h_snap = system.T / N
    times = np.linspace(0.0, system.T, N + 1)
    u0 = _working_state(system, system.initial_state)
    states = np.empty((N + 1, system.d), dtype=u0.dtype)
    states[0] = u0
    for n in range(N):
        states[n + 1] = _advance(system, catalog, A1, states[n], times[n], h_snap)
        check_blow_up(states[n + 1], n, float(times[n]))
    return Trajectory(
        times=times,
        states=states.astype(complex),
        epsilon=system.epsilon,
        h=h_snap,
        k=k,
        h_requested=h if abs(h_snap - h) > 1e-12 * h else None,
        y_dim=system.y_dim,
    )
