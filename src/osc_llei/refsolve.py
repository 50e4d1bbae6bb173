"""Fixed-step RK4 reference solver for the unscaled right-hand side.

Integrates du/dt = (1/eps) A u + F(u, t) with the classical four-stage
Runge-Kutta rule on a uniform grid.  Meant to produce trustworthy
reference trajectories for convergence studies, so the step must
resolve the fast rotation: h_ref <= eps / (4 rho) with rho the spectral
radius of A, unless the caller explicitly opts out.

The sample_stride argument keeps memory bounded on fine runs: only
every stride-th state is stored, so a run with N_total = N * stride
interior steps returns N + 1 samples on the coarse grid, which can be
lined up exactly with a scheme trajectory on that grid.
"""

from __future__ import annotations

import warnings

import numpy as np

from .llei import Trajectory, check_blow_up
from .sysdef import OscillatorySystem


def rk4_integrate(
    system: OscillatorySystem,
    h_ref: float,
    sample_stride: int = 1,
    allow_unresolved: bool = False,
) -> Trajectory:
    """Reference trajectory sampled every sample_stride RK4 steps."""
    if h_ref <= 0:
        raise ValueError("reference step must be positive")
    if sample_stride < 1 or int(sample_stride) != sample_stride:
        raise ValueError("sample_stride must be a positive integer")
    sample_stride = int(sample_stride)

    rho = float(np.max(np.abs(system._spectrum)))
    if rho > 0:
        h_max = system.epsilon / (4.0 * rho)
        if h_ref > h_max * (1 + 1e-12):
            msg = (
                f"h_ref = {h_ref:.3e} does not resolve the oscillation: "
                f"need h_ref <= eps / (4 rho) = {h_max:.3e}"
            )
            if not allow_unresolved:
                raise ValueError(msg)
            warnings.warn(msg, UserWarning, stacklevel=2)

    n_samples = max(1, round(system.T / (h_ref * sample_stride)))
    n_total = n_samples * sample_stride
    h = system.T / n_total

    real_path = system.is_real
    A_fast = np.asarray(system.A, dtype=complex) / system.epsilon
    if real_path:
        A_fast = A_fast.real.astype(float)
    oracle_value = system.oracle.value

    def rhs(u, t):
        f = oracle_value(u, t)
        if real_path:
            f = f.real
        return A_fast @ u + f

    u0 = np.asarray(system.initial_state)
    u = u0.real.astype(float) if real_path else u0.astype(complex)
    states = np.empty((n_samples + 1, system.d), dtype=complex)
    states[0] = u
    times = np.linspace(0.0, system.T, n_samples + 1)

    half = 0.5 * h
    sixth = h / 6.0
    t = 0.0
    # a state that blows up inside a sample overflows here; check_blow_up
    # reports it once the sample ends
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(n_samples):
            for _ in range(sample_stride):
                k1 = rhs(u, t)
                k2 = rhs(u + half * k1, t + half)
                k3 = rhs(u + half * k2, t + half)
                k4 = rhs(u + h * k3, t + h)
                u = u + sixth * (k1 + 2.0 * (k2 + k3) + k4)
                t += h
            states[s + 1] = u
            check_blow_up(u, s * sample_stride, t)
            t = float(times[s + 1])

    return Trajectory(
        times=times,
        states=states,
        epsilon=system.epsilon,
        h=system.T / n_samples,
        k=None,
        y_dim=system.y_dim,
    )
