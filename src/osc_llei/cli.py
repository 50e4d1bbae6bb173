"""Command-line interface: catalog inspection, matrix dumps, integration,
reference runs, convergence sweeps, and structural validation.

All outputs are deterministic CSV (or plain check lines for validate):
a header row naming the columns, numbers with 17 significant digits,
and "# "-prefixed trailing summary lines where a sweep has slopes and
thresholds to report.  Exit codes: 0 success, 1 failed checks, failed
CI assertions or a numerical failure (state blow-up or time-row drift),
2 usage or configuration errors, including a request too large for
memory (a step count in the trillions).  Every error is reported as one
"error: ..." line on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys

import numpy as np

from .algebra_checks import random_imaginary_system, run_suite
from .extension import build_A0, build_A1, build_S
from .harness import ErrorReport, sweep_eps, sweep_h
from .llei import BlowUpError, Trajectory, _uniform_grid, integrate
from .mindex import build_catalog
from .refsolve import rk4_integrate
from .sysdef import ConfigError, _complex_entry, augment, load_config_file

SMALL_TOL = 0.3
LARGE_TOL = 0.4


def _fmt(x: float) -> str:
    return f"{x:.17g}"


@contextlib.contextmanager
def _out_stream(path):
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w") as fh:
            yield fh


def _parse_state(raw: str, d: int) -> np.ndarray:
    try:
        entries = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"--at must be a JSON array: {exc}") from exc
    if not isinstance(entries, list) or len(entries) != d + 1:
        raise ConfigError(f"--at must list {d + 1} entries [u_1, ..., u_{d}, t]")
    xhat = np.array([_complex_entry(v, "--at entry") for v in entries])
    # json reads NaN and Infinity
    if not np.isfinite(xhat).all():
        raise ConfigError(f"--at entries must be finite, got {raw}")
    return xhat


def _write_trajectory(traj: Trajectory, fh) -> None:
    d = traj.states.shape[1]
    header = ["t"]
    for i in range(1, d + 1):
        header += [f"Re(u{i})", f"Im(u{i})"]
    print(",".join(header), file=fh)
    for t, row in zip(traj.times, traj.states):
        fields = [_fmt(float(t))]
        for z in row:
            fields += [_fmt(z.real), _fmt(z.imag)]
        print(",".join(fields), file=fh)
    if traj.h_requested is not None:
        print(f"# h snapped from {_fmt(traj.h_requested)} to {_fmt(traj.h)}", file=fh)


def _cmd_catalog(args) -> int:
    if args.d < 1:
        raise ConfigError(f"--d must be >= 1, got {args.d}")
    catalog = build_catalog(args.d + 1, args.k)
    print("position,degree,components")
    for pos, alpha in enumerate(catalog.representatives):
        comps = " ".join(str(c) for c in alpha)
        print(f"{pos},{len(alpha)},{comps}")
    dims = " ".join(str(b) for b in catalog.block_dims)
    print(f"# block_dims {dims}")
    print(f"# size {catalog.size}")
    return 0


def _cmd_build(args) -> int:
    system = load_config_file(args.config)
    catalog = build_catalog(system.d + 1, args.k)
    if args.at is None:
        xhat = np.concatenate([system.initial_state, [0.0]])
    else:
        xhat = _parse_state(args.at, system.d)
    matrices = {
        "A1k": build_A1(catalog, augment(system.A), xhat),
        "A0k": build_A0(catalog, system.oracle, xhat),
        "S": build_S(catalog, xhat),
    }
    with _out_stream(args.out) as fh:
        print("matrix,row,col,re,im", file=fh)
        for name, M in matrices.items():
            for i in range(M.shape[0]):
                for j in range(M.shape[1]):
                    z = M[i, j]
                    print(
                        f"{name},{i},{j},{_fmt(z.real)},{_fmt(z.imag)}", file=fh
                    )
    return 0


def _cmd_integrate(args) -> int:
    system = load_config_file(args.config)
    traj = integrate(system, args.k, args.h)
    with _out_stream(args.out) as fh:
        _write_trajectory(traj, fh)
    return 0


def _cmd_reference(args) -> int:
    if args.stride < 1:
        raise ConfigError(f"--stride must be a positive integer, got {args.stride}")
    system = load_config_file(args.config)
    traj = rk4_integrate(system, args.href, sample_stride=args.stride)
    with _out_stream(args.out) as fh:
        _write_trajectory(traj, fh)
    return 0


def _dyadic_h_grid(T: float, hmax: float, hmin: float, points: int) -> list[float]:
    """Log-spaced h grid snapped to nested step counts n0 * 2^j.

    Nesting keeps the shared reference grid (built on the lcm of the
    step counts) no finer than the finest requested grid.
    """
    if not 0 < hmin <= hmax < math.inf:
        raise ConfigError("hmin and hmax must be finite and positive, with hmin <= hmax")
    if points < 1:
        raise ConfigError("need at least one grid point")
    n0 = _uniform_grid(T, hmax)[0]
    ns = set()
    for h in np.geomspace(hmax, hmin, points):
        j = max(0, round(math.log2(_uniform_grid(T, h)[0] / n0)))
        ns.add(n0 * 2**j)
    return [T / n for n in sorted(ns)]


def _write_report(report: ErrorReport, fh) -> None:
    print("param,error_u,error_y,error_ydot,regime", file=fh)
    for p in report.points:
        fields = [_fmt(p.param)]
        for e in (p.error_u, p.error_y, p.error_ydot):
            fields.append("" if e is None else _fmt(e))
        fields.append(p.regime)
        print(",".join(fields), file=fh)
    print(f"# axis {report.axis}", file=fh)
    print(f"# k {report.k}", file=fh)
    for key, val in report.slopes.items():
        print(f"# slope {key} {'absent' if val is None else _fmt(val)}", file=fh)
    for key, val in report.thresholds.items():
        print(f"# threshold {key} {'absent' if val is None else _fmt(val)}", file=fh)
    if report.ref_error_estimate is not None:
        print(f"# ref_error_estimate_u {_fmt(report.ref_error_estimate.u)}", file=fh)
    if report.ref_margin is not None:
        print(f"# ref_margin {_fmt(report.ref_margin)}", file=fh)
    for note in report.notes:
        print(f"# note: {note}", file=fh)


def _ci_exit(report: ErrorReport, expectations: dict[str, tuple[float, float]]) -> int:
    """Print a "ci:" line per fitted slope outside its band; 1 if any, else 0.

    Absent slopes assert nothing.
    """
    code = 0
    for key, (target, tol) in expectations.items():
        got = report.slopes.get(key)
        if got is not None and abs(got - target) > tol:
            print(
                f"ci: {key}: slope {got:.3f} outside {target} +- {tol}", file=sys.stderr
            )
            code = 1
    return code


def _cmd_converge_h(args) -> int:
    system = load_config_file(args.config)
    h_values = _dyadic_h_grid(system.T, args.hmax, args.hmin, args.points)
    h_values = sorted(h_values, reverse=True)
    report = sweep_h(system, args.k, h_values)
    with _out_stream(args.out) as fh:
        _write_report(report, fh)
    if not args.ci:
        return 0
    expectations = {}
    for comp in ("u", "y", "ydot"):
        expectations[f"small_{comp}"] = (args.k + 1, SMALL_TOL)
        expectations[f"large_{comp}"] = (args.k, LARGE_TOL)
    return _ci_exit(report, expectations)


def _cmd_converge_eps(args) -> int:
    system = load_config_file(args.config)
    if not 0 < args.epsmin <= args.epsmax:
        raise ConfigError("need 0 < epsmin <= epsmax")
    if args.points < 1:
        raise ConfigError("need at least one grid point")
    eps_values = sorted(
        set(np.geomspace(args.epsmax, args.epsmin, args.points).tolist()),
        reverse=True,
    )
    report = sweep_eps(system, args.k, args.h, eps_values)
    with _out_stream(args.out) as fh:
        _write_report(report, fh)
    if not args.ci:
        return 0
    if system.y_dim is not None:
        expectations = {
            "small_y": (1.0, SMALL_TOL),
            "large_y": (2.0, LARGE_TOL),
            "large_ydot": (1.0, SMALL_TOL),
        }
    else:
        expectations = {"large_u": (1.0, SMALL_TOL)}
    return _ci_exit(report, expectations)


def _cmd_validate(args) -> int:
    if args.random < 0:
        raise ConfigError(f"--random must be a count >= 0, got {args.random}")
    if args.config is None and args.random == 0:
        raise ConfigError("validate needs --config and/or --random N")
    all_passed = True

    def report(label: str, results) -> None:
        nonlocal all_passed
        for res in results:
            print(f"{label}: {res}")
            all_passed = all_passed and res.passed

    if args.config is not None:
        system = load_config_file(args.config)
        xhat = np.concatenate([system.initial_state, [system.T / 3.0]])
        report(
            system.name or "config",
            run_suite(system.A, args.k, xhat),
        )
    rng = np.random.default_rng(args.seed)
    for i in range(args.random):
        d = 1 + i % 3
        A = random_imaginary_system(d, rng)
        xhat = rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)
        xhat[-1] = xhat[-1].real
        report(f"random[{i}] d={d}", run_suite(A, args.k, xhat))
    print("all checks passed" if all_passed else "some checks FAILED")
    return 0 if all_passed else 1


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as one-line ConfigErrors; its subcommand parsers are _Parsers too."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="osc-llei",
        description="Exponential integrators for highly oscillatory ODEs "
        "via local linear extension.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list the multi-index catalog")
    p.add_argument("--d", type=int, required=True, help="system dimension d")
    p.add_argument("--k", type=int, required=True, help="extension order")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("build", help="dump extension matrices as CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--at", help="JSON expansion state [u_1, ..., u_d, t]")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("integrate", help="run the scheme on a problem")
    p.add_argument("--config", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_integrate)

    p = sub.add_parser("reference", help="run the RK4 reference solver")
    p.add_argument("--config", required=True)
    p.add_argument("--href", type=float, required=True)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_reference)

    p = sub.add_parser("converge-h", help="error vs step size sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--hmin", type=float, required=True)
    p.add_argument("--hmax", type=float, required=True)
    p.add_argument("--points", type=int, default=6)
    p.add_argument("--out")
    p.add_argument("--ci", action="store_true", help="exit 1 on slope misses")
    p.set_defaults(func=_cmd_converge_h)

    p = sub.add_parser("converge-eps", help="error vs epsilon sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--epsmin", type=float, required=True)
    p.add_argument("--epsmax", type=float, required=True)
    p.add_argument("--points", type=int, default=5)
    p.add_argument("--out")
    p.add_argument("--ci", action="store_true", help="exit 1 on slope misses")
    p.set_defaults(func=_cmd_converge_eps)

    p = sub.add_parser("validate", help="run the structural check suite")
    p.add_argument("--config")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--random", type=int, default=0, help="extra random systems")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help: argparse prints it and exits 0
        return exc.code
    except (ValueError, OSError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy names the array it could not allocate
        print(f"error: {exc or 'out of memory'}", file=sys.stderr)
        return 2
    except (BlowUpError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
