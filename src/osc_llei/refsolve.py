"""Fixed-step RK4 reference solver for the unscaled right-hand side.

Integrates du/dt = L u + F(u, t), L = A / eps, with the classical
four-stage Runge-Kutta rule on a uniform grid.  Meant to produce
trustworthy reference trajectories for convergence studies, so the step
it takes must resolve the fast rotation: T / N_total <= eps / (4 rho),
with rho the spectral radius of A and N_total the step count below.

The linear part is applied in stage-increment form.  L and h are fixed
for a whole run, so every stage state is u plus a fixed linear map of
z = [u; f1; ...; f4], the state and the stage forcings f_i = F(u_i, t_i)
found so far; the maps are built once per run (_stage_increments).  A
stage then costs one oracle value call, one small matmul and one add,
and the step ends with u += C_step @ z.  Each step still calls the
oracle's value exactly four times, at t, t + h/2, t + h/2 and t + h.
The identity on u stays out of every map: the maps hold only the O(h)
increments, at full relative precision, and u meets them in one add.
Folding the identity in would round the step's propagator to the
spacing of 1 at every step, a relative error that grows with the step
count: 1.8e-12 after 40,000 steps of a harmonic oscillator, against
1.5e-14 in this form, about the method's own truncation error.

The sample_stride argument keeps memory bounded on fine runs: only
every stride-th state is stored, so a run with N_total = N * stride
interior steps returns N + 1 samples on the coarse grid, which can be
lined up exactly with a scheme trajectory on that grid.
"""

from __future__ import annotations

import numpy as np

from .llei import Trajectory, check_blow_up
from .sysdef import OscillatorySystem, check_finite_positive


# classical RK4 tableau: stage coupling a[i][j] and weights b
_RK4_A = ((), (0.5,), (0.0, 0.5), (0.0, 0.0, 1.0))
_RK4_B = (1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0)


def _stage_increments(L: np.ndarray, h: float) -> list[np.ndarray]:
    """Increment matrices of one RK4 step of du/dt = L u + f.

    With z = [u; f1; f2; f3; f4], f_i the forcing at stage i, stage i
    (i = 2, 3, 4) is at u + C_i @ z[:i*d] and the step ends at
    u + C_step @ z; returns [C_2, C_3, C_4, C_step].  No C holds the
    identity on u (see the module docstring).
    """
    d = L.shape[0]
    eye = np.eye(d, dtype=L.dtype)
    # slopes[j] = k_j = L u_j + f_j as a d x 5d map of z
    slopes = []
    increments = []
    for i, coupling in enumerate(_RK4_A):
        delta = np.zeros((d, 5 * d), dtype=L.dtype)  # u_i - u
        for j, a in enumerate(coupling):
            delta += (h * a) * slopes[j]
        if i:
            increments.append(delta[:, : (i + 1) * d])
        slope = L @ delta
        slope[:, :d] += L
        slope[:, (i + 1) * d : (i + 2) * d] += eye
        slopes.append(slope)
    step = sum((h * b) * k for b, k in zip(_RK4_B, slopes))
    increments.append(step)
    return increments


def rk4_integrate(
    system: OscillatorySystem,
    h_ref: float,
    sample_stride: int = 1,
) -> Trajectory:
    """Reference trajectory sampled every sample_stride RK4 steps.

    h_ref is snapped so that a whole number of samples fits T; the step
    taken, not h_ref, must resolve the oscillation.
    """
    check_finite_positive("reference step", h_ref)
    if sample_stride < 1 or int(sample_stride) != sample_stride:
        raise ValueError("sample_stride must be a positive integer")
    sample_stride = int(sample_stride)

    n_samples = max(1, round(system.T / (h_ref * sample_stride)))
    n_total = n_samples * sample_stride
    h = system.T / n_total
    rho = float(np.max(np.abs(system._spectrum)))
    if rho > 0:
        h_max = system.epsilon / (4.0 * rho)
        if h > h_max * (1 + 1e-12):
            raise ValueError(
                f"reference step T / {n_total} = {h:.3e} does not resolve the "
                f"oscillation: need at most eps / (4 rho) = {h_max:.3e}"
            )

    real_path = system.is_real
    L = np.asarray(system.A, dtype=complex) / system.epsilon
    if real_path:
        L = L.real.astype(float)
    C2, C3, C4, C_step = _stage_increments(L, h)
    oracle_value = system.oracle.value
    if real_path:
        def forcing(u, t):
            return oracle_value(u, t).real
    else:
        forcing = oracle_value
    d = system.d

    # z = [u; f1; f2; f3; f4]: the state and the four stage forcings
    z = np.zeros(5 * d, dtype=L.dtype)
    u0 = np.asarray(system.initial_state)
    z[:d] = u0.real if real_path else u0
    u = z[:d]
    f1, f2, f3, f4 = (z[i * d : (i + 1) * d] for i in range(1, 5))
    z2, z3, z4 = z[: 2 * d], z[: 3 * d], z[: 4 * d]
    states = np.empty((n_samples + 1, d), dtype=complex)
    states[0] = u
    times = np.linspace(0.0, system.T, n_samples + 1)

    half = 0.5 * h
    t = 0.0
    # a state that blows up inside a sample overflows here; check_blow_up
    # reports it once the sample ends, naming the sample's last step and
    # that step's start time, as integrate names its steps
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(n_samples):
            for _ in range(sample_stride):
                f1[:] = forcing(u, t)
                f2[:] = forcing(u + C2 @ z2, t + half)
                f3[:] = forcing(u + C3 @ z3, t + half)
                f4[:] = forcing(u + C4 @ z4, t + h)
                u += C_step @ z
                t += h
            states[s + 1] = u
            last = (s + 1) * sample_stride - 1
            check_blow_up(u, last, last * h)
            t = float(times[s + 1])

    return Trajectory(
        times=times,
        states=states,
        epsilon=system.epsilon,
        h=system.T / n_samples,
        k=None,
        y_dim=system.y_dim,
    )
