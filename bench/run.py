"""Benchmark of the osc_llei library: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload integrate-charged --seed 1 --seconds 30 --trace 0

Workloads: integrate-charged, converge-h, converge-eps (see
workloads.py; bench/design.json records why each was chosen, which
layer should move which metric, and the wrapped entry points).

--trace 0 prints the end-to-end metrics (setup_s, wall_s, op_s_p50,
op_s_p90, peak_rss_mb); --trace 1 runs half untraced and half traced
and prints the per-layer metrics.  Summary lines start with "# "; the
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  BLAS is pinned to one thread before
numpy is imported, and the run is refused if it is not.  The library is
imported from src/ next to this directory; without it the script exits
with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import blas

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
TRACE_DIR = Path(".bench_traces")
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import, set up the workload and exit (times set-up)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    blas.pin()
    if not (SRC / "osc_llei" / "__init__.py").is_file():
        print(f"error: the osc_llei sources are not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import measure  # imports numpy: only after blas.pin()
    import workloads

    env = blas.environment()
    blas.check_pinned(env)
    if args.setup_only:
        workloads.setup(args.workload, args.seed)
        return 0
    if args.trace:
        res = measure.traced(args.workload, args.seed, args.seconds, TRACE_DIR)
    else:
        res = measure.untraced(args.workload, args.seed, args.seconds)

    blas_copies = " ".join(
        f"{stem}:threads={env['blas_threads'][stem]},version={env['openblas'][stem]}"
        for stem in env["blas_threads"]
    )
    print(f"# env nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} {blas_copies}")
    for line in res.lines:
        print(f"# {line}")
    listed = SPEC["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": res.correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {m["name"]: {"value": res.metrics[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
