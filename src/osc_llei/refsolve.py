"""Fixed-step RK4 reference solver for the unscaled right-hand side.

Integrates du/dt = L u + F(u, t), L = A / eps, with the classical
four-stage Runge-Kutta rule on a uniform grid.  Meant to produce
trustworthy reference trajectories for convergence studies, so the step
it takes must resolve the fast rotation: T / N_total <= eps / (4 rho),
with rho the spectral radius of A and N_total the step count below.

The forcing is read through the oracle's _forcing(d), F(u, t) = [0;
scale * g(u[:m], t)], as E @ g(u[rows], t) with rows = :m and E =
[0; scale I_m] a d x m embedding.  A second-order system in
phase-space form has g its m = d/2 forcing components, rows the
positions y and E = [0; eps I]; any other oracle is its own g (all
rows, E = I).

The linear part is applied in stage-increment form.  L, E and h are
fixed for a whole run, so every stage input u_i[rows] is u[rows] plus
a fixed linear map of z = [u; g1; ...; g4], the state and the stage
values g_i = g(u_i[rows], t_i) found so far, and the step's increment
is one more such map with E folded in; the maps are built once per run
(_stage_increments).  A stage then costs one call of g, one small
matmul and one add, and the step ends with u += C_step @ z.  Each
step still calls g exactly four times, at t, t + h/2, t + h/2 and
t + h.  The loop multiplies with ndarray.dot, which skips the matmul
ufunc's dispatch: 0.6 against 1.4 us for a 1 x 3 matrix (numpy 2.4,
2-CPU x86-64 host).
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

from .llei import Trajectory, _uniform_grid, check_blow_up
from .sysdef import OscillatorySystem, as_working, check_finite_positive


# classical RK4 tableau: stage coupling a[i][j] and weights b
_RK4_A = ((), (0.5,), (0.0, 0.5), (0.0, 0.0, 1.0))
_RK4_B = (1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0)


def _stage_increments(L: np.ndarray, h: float, rows: slice, E: np.ndarray) -> list[np.ndarray]:
    """Increment matrices of one RK4 step of du/dt = L u + E g.

    With z = [u; g1; g2; g3; g4], g_i the forcing's g at stage i, stage i
    (i = 2, 3, 4) reads g at u[rows] + C_i @ z[:d + (i-1) m] and the
    step ends at u + C_step @ z; returns [C_2, C_3, C_4, C_step].  No C
    holds the identity on u (see the module docstring).
    """
    d, m = E.shape
    # slopes[j] = k_j = L u_j + E g_j as a d x (d + 4m) map of z
    slopes = []
    increments = []
    for i, coupling in enumerate(_RK4_A):
        delta = np.zeros((d, d + 4 * m), dtype=L.dtype)  # u_i - u
        for j, a in enumerate(coupling):
            delta += (h * a) * slopes[j]
        if i:
            increments.append(delta[rows, : d + i * m])
        slope = L @ delta
        slope[:, :d] += L
        slope[:, d + i * m : d + (i + 1) * m] += E
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
    taken, not h_ref, must resolve the oscillation.  A snap of the sample
    spacing is recorded as h_requested = h_ref * sample_stride.  Steps in
    system.working's dtype; the returned states are complex128 either way.
    """
    check_finite_positive("reference step", h_ref)
    if sample_stride < 1 or int(sample_stride) != sample_stride:
        raise ValueError("sample_stride must be a positive integer")
    sample_stride = int(sample_stride)

    n_samples, h_sample, h_requested = _uniform_grid(system.T, h_ref * sample_stride)
    n_total = n_samples * sample_stride
    h = system.T / n_total
    rho = system.rho
    if rho > 0:
        h_max = system.epsilon / (4.0 * rho)
        if h > h_max * (1 + 1e-12):
            raise ValueError(
                f"reference step T / {n_total} = {h:.3e} does not resolve the "
                f"oscillation: need at most eps / (4 rho) = {h_max:.3e}"
            )

    real = system.is_real
    L = as_working(system.A / system.epsilon, real)
    d = system.d
    g_oracle, m, scale = system.oracle._forcing(d)
    g, rows = g_oracle.value, slice(0, m)
    E = np.zeros((d, m))
    E[d - m :] = scale * np.eye(m)
    C2, C3, C4, C_step = _stage_increments(L, h, rows, E)

    # z = [u; g1; g2; g3; g4]: the state and the four stage values of g
    z = np.zeros(d + 4 * m, dtype=L.dtype)
    z[:d] = as_working(system.initial_state, real)
    u = z[:d]
    y = u[rows]  # a view: follows u's in-place updates
    g1, g2, g3, g4 = (z[d + i * m : d + (i + 1) * m] for i in range(4))
    z2, z3, z4 = z[: d + m], z[: d + 2 * m], z[: d + 3 * m]
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
                g1[:] = g(y, t)
                g2[:] = g(y + C2.dot(z2), t + half)
                g3[:] = g(y + C3.dot(z3), t + half)
                g4[:] = g(y + C4.dot(z4), t + h)
                u += C_step.dot(z)
                t += h
            states[s + 1] = u
            last = (s + 1) * sample_stride - 1
            check_blow_up(u, last, last * h)
            t = float(times[s + 1])

    return Trajectory(
        times=times,
        states=states,
        epsilon=system.epsilon,
        h=h_sample,
        k=None,
        h_requested=h_requested,
        y_dim=system.y_dim,
    )
