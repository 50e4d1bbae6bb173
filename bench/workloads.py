"""The benchmark's workloads: inputs from a seed, one call per operation, checks.

Each workload turns ``--seed`` into a fixed *batch* of operations.  A
batch is the unit of fixed input size: the work in a batch barely
depends on the seed while the individual inputs do, because the draws
are stratified, one per stratum of the drawn range, or (converge-eps)
the work does not depend on the drawn value.  Every operation is one
public-API call; its output is checked after the batch, outside the
timed region.  bench/design.json records the reasons for each choice.

- integrate-charged: ``integrate`` on the charged particle at k = 3,
  D = 56, checked against a DOP853 reference computed in set-up.
- converge-h: ``sweep_h`` on the forced pendulum, k cycling 1, 2, 3,
  checked against the slope bands of acceptance criterion 5.
- converge-eps: ``sweep_eps`` on the forced pendulum, k = 1, h = 1/2,
  top eps drawn in [1/32, 1/24], checked against eps-uniform bounds on
  err_y / eps^2 and err_ydot / eps; the slope bands of acceptance
  criterion 7 are reported, not gated (see CE_BOUNDS).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

import osc_llei

# -- integrate-charged ------------------------------------------------------
IC_BATCH = 16                  # operations per batch, alternating E6 / E3
IC_STEPS = 16                  # N: every call does the same 16 steps at D = 56
IC_K = 3
IC_EPS = (1.0 / 256.0, 1.0 / 16.0)
IC_STEPS_PER_EPS = 16          # h = eps / 16
# Largest error on the seed code is 6.5e-10 (E3 at eps = 1/16, where the
# error peaks: it grows like eps^6); the bound leaves 15x headroom.
IC_ERR_BOUND = 1e-8
IC_REF_TOL = {"rtol": 1e-13, "atol": 1e-15}

# -- converge-h -------------------------------------------------------------
CH_KS = (1, 2, 3)              # one operation per k in a batch
CH_EPS = (0.25, 0.5)
CH_T = 1.5                     # every h below divides T; 4x cheaper than T = 6
CH_H = tuple(2.0**-j for j in range(4, 10))
CH_SLOPE_TOL = 0.3             # acceptance criterion 5: k+1 +- 0.3
MIN_REF_MARGIN = 100.0

# -- converge-eps -----------------------------------------------------------
CE_K = 1
CE_H = 0.5
CE_T = 3.0
CE_INV_EPS = (24.0, 32.0)      # 1 / top eps, drawn uniformly
CE_N_EPS = 4                   # top eps and three halvings
# The reference step at eps = top eps / 2^j is CE_REF_STEP / 2^j whatever
# top eps the seed draws: 1/64 of eps at 1/eps = 28, the middle of the
# range.  Every operation then does the same reference work, and the
# reference error stays more than 1000x below the scheme error.
CE_REF_STEP = 1.0 / (64.0 * 28.0)
CE_SLOPES = {"large_y": (2.0, 0.4), "large_ydot": (1.0, 0.3)}  # criterion 7
# The check: at every eps, err_y <= 1.5 eps^2 and err_ydot <= 1.5 eps, the
# orders criterion 7's slopes stand for, with one constant for all eps.
# Over 81 draws of 1/eps on a 0.1 grid of [24, 32] the seed code peaks
# at 0.66 (y) and 0.70 (ydot).  A lost order (err_y ~ eps) would reach 8x
# its top-eps constant at the smallest eps and fail.  The slope bands are
# not the gate: the error constant swings with h/eps mod 2 pi, and 16 of
# those 81 draws fit a slope outside a band because one eps lands on a
# cancellation (a smaller error, e.g. h = 4 pi eps at 1/eps = 25.13).
# Out-of-band slopes are counted and printed on every run.
CE_BOUNDS = {"y": (2, 1.5), "ydot": (1, 1.5)}   # component: (order, constant)


# exception types that count as a failed operation rather than a crash
FAILURES = (osc_llei.BlowUpError, ArithmeticError, ValueError)


@dataclass
class Check:
    """Outcome of one operation's correctness check."""

    ok: bool
    detail: str = ""
    err_u: float | None = None
    slope_dev: float | None = None
    ref_margin: float | None = None
    points_failed: int = 0
    out_of_band: str = ""      # reported slope bands missed (converge-eps)


@dataclass
class Workload:
    name: str
    batch: list

    def run(self, op):
        """One operation: a single public-API call.  Failures are returned."""
        try:
            return SPECS[self.name].run(op)
        except FAILURES as exc:
            return exc

    def check(self, op, out) -> Check:
        if isinstance(out, BaseException):
            return Check(False, f"{type(out).__name__}: {out}")
        return SPECS[self.name].check(op, out)


# -- integrate-charged ------------------------------------------------------
def _ic_batch(rng) -> list:
    lo, hi = IC_EPS
    u = rng.random(IC_BATCH)
    ops = []
    for i in range(IC_BATCH):
        # one draw per stratum of log-uniform eps keeps the batch's spread fixed
        eps = math.exp(math.log(lo) + (i + u[i]) / IC_BATCH * math.log(hi / lo))
        name = "example2-E6" if i % 2 == 0 else "example2-E3"
        h = eps / IC_STEPS_PER_EPS
        system = osc_llei.builtin(name, eps, T=IC_STEPS * h)
        ops.append((system, h, ic_reference(system)))
    return ops


def ic_reference(system) -> np.ndarray:
    """DOP853 solution of du/dt = A u / eps + F(u, t) on the scheme grid."""
    if not system.is_real:
        raise ValueError("the charged-particle reference integrates real states")
    A = system.A.real / system.epsilon
    times = np.linspace(0.0, system.T, IC_STEPS + 1)
    sol = solve_ivp(
        lambda t, u: A @ u + system.F(u, t).real,
        (0.0, system.T),
        system.initial_state.real,
        method="DOP853",
        t_eval=times,
        **IC_REF_TOL,
    )
    if not sol.success:
        raise RuntimeError(f"reference solve failed: {sol.message}")
    return sol.y.T


def _ic_run(op):
    system, h, _ = op
    return osc_llei.integrate(system, IC_K, h)


def _ic_check(op, traj) -> Check:
    ref = op[2]
    if traj.states.shape != ref.shape:
        return Check(False, f"trajectory shape {traj.states.shape} != {ref.shape}")
    err = float(np.max(np.linalg.norm(traj.states - ref, axis=1)))
    ok = err <= IC_ERR_BOUND
    return Check(ok, "" if ok else f"error {err:.3e} > {IC_ERR_BOUND:g}", err_u=err)


# -- converge-h -------------------------------------------------------------
def _ch_batch(rng) -> list:
    lo, hi = CH_EPS
    strata = rng.permutation(len(CH_KS))
    u = rng.random(len(CH_KS))
    ops = []
    for j, k in enumerate(CH_KS):
        eps = lo + (strata[j] + u[j]) / len(CH_KS) * (hi - lo)
        ops.append((osc_llei.builtin("example1", eps, T=CH_T), k))
    return ops


def _ch_run(op):
    system, k = op
    return osc_llei.sweep_h(system, k, CH_H)


def _ch_check(op, report) -> Check:
    _, k = op
    bands = {key: (k + 1.0, CH_SLOPE_TOL) for key in report.slopes if key.startswith("small_")}
    return _gate(report, bands, required=("small_u",))


# -- converge-eps -----------------------------------------------------------
def _ce_batch(rng) -> list:
    top = 1.0 / rng.uniform(*CE_INV_EPS)
    eps_values = [top * 2.0**-j for j in range(CE_N_EPS)]
    return [(osc_llei.builtin("example1", top, T=CE_T), eps_values)]


def _ce_run(op):
    system, eps_values = op
    return osc_llei.sweep_eps(system, CE_K, CE_H, eps_values,
                              h_ref_factor=CE_REF_STEP / eps_values[0])


def _ce_check(op, report) -> Check:
    problems = []
    for p in report.points:
        if p.regime != "large":
            problems.append(f"eps {p.param:.4g} in the {p.regime} regime, not large")
        if p.failed:
            continue
        for comp, (order, bound) in CE_BOUNDS.items():
            c = getattr(p, f"error_{comp}") / p.param**order
            if not c <= bound:
                problems.append(f"err_{comp} = {c:.3g} eps^{order} > {bound:g} eps^{order} "
                                f"at eps {p.param:.4g}")
    return _gate(report, CE_SLOPES, required=tuple(CE_SLOPES), problems=problems,
                 bands_gate=False)


def _gate(report, bands: dict, required: tuple, problems=(), bands_gate=True) -> Check:
    """Slope bands, reference margin and aborted points of one sweep.

    With bands_gate False a slope outside its band is recorded in
    Check.out_of_band instead of failing the operation.
    """
    problems = list(problems)
    missed = []
    devs = []
    for key in required:
        if report.slopes.get(key) is None:
            problems.append(f"no {key} slope")
    for key, (want, tol) in bands.items():
        s = report.slopes.get(key)
        if s is None:
            continue
        devs.append(abs(s - want))
        if abs(s - want) > tol:
            missed.append(f"{key} slope {s:.3f} outside {want:g} +- {tol:g}")
    if bands_gate:
        problems += missed
    margin = report.ref_margin
    if margin is None or margin < MIN_REF_MARGIN:
        problems.append(f"reference margin {margin} below {MIN_REF_MARGIN:g}")
    failed = sum(1 for p in report.points if p.failed)
    if failed:
        problems.append(f"{failed} point(s) aborted")
    errors = [p.error_u for p in report.points if p.error_u is not None]
    return Check(
        not problems,
        "; ".join(problems),
        err_u=max(errors) if errors else None,
        slope_dev=max(devs) if devs else None,
        ref_margin=margin,
        points_failed=failed,
        out_of_band="" if bands_gate else "; ".join(missed),
    )


@dataclass(frozen=True)
class Spec:
    batch: Callable     # numpy Generator -> list of operations
    run: Callable       # operation -> library output
    check: Callable     # (operation, output) -> Check


SPECS = {
    "integrate-charged": Spec(_ic_batch, _ic_run, _ic_check),
    "converge-h": Spec(_ch_batch, _ch_run, _ch_check),
    "converge-eps": Spec(_ce_batch, _ce_run, _ce_check),
}
NAMES = tuple(SPECS)


def setup(name: str, seed: int) -> Workload:
    """Build the batch for (workload, seed), with any reference it needs."""
    if name not in SPECS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    return Workload(name, SPECS[name].batch(np.random.default_rng(seed)))
