"""Self-checks of the benchmark: trace counts, determinism, refusal paths.

Run with ``python3 -m pytest bench -q`` from the repository root.  Each
count test traces the first operation of a workload's batch, so the
whole file takes about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import blas
import measure
import tracing
import workloads

import osc_llei
import osc_llei.llei
import osc_llei.sysdef

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def traced_counts(name: str, seed: int) -> dict:
    """Per-layer numbers of one traced pass over the batch's first operation."""
    wl = workloads.setup(name, seed)
    wl.batch = wl.batch[:1]
    tracer = tracing.Tracer()
    with tracer.installed():
        b = measure.run_batches(wl, 0.0, tracer)
    assert tracer.absent == []
    assert all(c.ok for c in b.checks), [c.detail for c in b.checks]
    return b.layers[0]


def expected_steps(name: str, op) -> int:
    """Σ round(T/h) over the integrate calls one operation makes."""
    if name == "integrate-charged":
        system, h, _ = op
        return round(system.T / h)
    if name == "converge-h":
        system, _ = op
        return sum(dict.fromkeys(round(system.T / h) for h in workloads.CH_H))
    system, eps_values = op
    return len(eps_values) * round(system.T / workloads.CE_H)


@pytest.fixture(scope="module", params=workloads.NAMES)
def counts(request):
    name = request.param
    first = traced_counts(name, 7)
    again = traced_counts(name, 7)
    return name, first, again


def test_expm_calls_equal_scheme_steps(counts):
    name, m, _ = counts
    op = workloads.setup(name, 7).batch[0]
    assert m["linalg.expm.calls"] == m["llei.steps"] == expected_steps(name, op)
    assert m["extension.build_A0.calls"] == m["extension.build_A1.calls"] == m["llei.steps"]


def test_rhs_calls_are_four_per_reference_step(counts):
    name, m, _ = counts
    assert m["sysdef.value.calls"] == 4 * m["refsolve.steps"]
    if name == "integrate-charged":
        assert m["refsolve.calls"] == 0
    else:
        assert m["refsolve.steps"] > 0


def test_counts_repeat_for_the_same_seed(counts):
    _, first, again = counts
    for key in measure.COUNT_KEYS:
        assert first[key] == again[key], key


def test_tracer_restores_every_entry_point():
    before = (osc_llei.llei.build_A0, osc_llei.integrate,
              osc_llei.sysdef.DerivativeOracle.partial)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert osc_llei.llei.build_A0 is not before[0]
    assert (osc_llei.llei.build_A0, osc_llei.integrate,
            osc_llei.sysdef.DerivativeOracle.partial) == before


def test_missing_entry_point_is_reported_not_fatal(monkeypatch):
    gone = {"span": "linalg.expm", "target": "osc_llei.linalg:no_such_function", "mode": "span"}
    monkeypatch.setattr(tracing, "ENTRY_POINTS", tracing.ENTRY_POINTS + [gone])
    tracer = tracing.Tracer()
    with tracer.installed():
        pass
    assert tracer.absent == ["linalg.expm (osc_llei.linalg:no_such_function)"]


def test_nested_spans_count_once_and_self_time_excludes_children():
    # an oracle whose value delegates to an inner oracle's value
    name = "sysdef.value"
    tracer = tracing.Tracer()
    tracer.op_id = 0
    outer = tracer._open(name)
    inner = tracer._open(name)
    tracer._close(inner, name)
    tracer._close(outer, name)
    tracer.end[outer] = tracer.start[outer] + 3.0
    tracer.end[inner] = tracer.start[inner] + 1.0
    s = tracer.summarize(0, tracer.mark(), tracing.np.full(1, 2.0))
    assert s[f"{name}.calls"] == 1
    assert s[f"{name}.s"] == pytest.approx(6.0)        # scaled by the operation's 2.0
    assert s[f"{name}.self_s"] == pytest.approx(6.0)   # (3 - 1) + 1, scaled


def test_layer_map_lists_every_per_layer_metric_once():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    design = json.loads((HERE / "design.json").read_text())
    mapped = [m for entry in design["layer_map"] for m in entry["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in spec["per_layer"])


def test_speed_samples_are_skipped_while_other_threads_or_children_live():
    probe = measure.SpeedProbe()
    probe._tick(None, None)
    assert (probe.taken, probe.skipped) == (1, 0)
    stop = threading.Event()
    worker = threading.Thread(target=stop.wait)
    worker.start()
    try:
        probe._tick(None, None)
    finally:
        stop.set()
        worker.join()
    assert (probe.taken, probe.skipped) == (1, 1)
    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(30)"])
    try:
        probe._tick(None, None)
    finally:
        child.kill()
        child.wait()
    assert (probe.taken, probe.skipped) == (1, 2)


def test_pinning_refuses_more_than_one_thread():
    blas.check_pinned({"blas_threads": {"libscipy_openblas": 1, "libscipy_openblas64_": None}})
    with pytest.raises(RuntimeError):
        blas.check_pinned({"blas_threads": {"libscipy_openblas": 2}})


def test_setup_process_pins_both_blas_copies():
    code = (
        "import sys; sys.path[:0] = [{bench!r}, {src!r}]; import blas; blas.pin(); "
        "import osc_llei, json; print(json.dumps(blas.environment()))"
    ).format(bench=str(HERE), src=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60)
    env = json.loads(out.stdout)
    assert env["blas_threads"] == {"libscipy_openblas64_": 1, "libscipy_openblas": 1}


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "converge-h", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert "{" not in out.stdout


def _ce_report(norm_y, norm_ydot, top=1.0 / 25.0):
    """A converge-eps report with err_y = norm_y eps^2 and err_ydot = norm_ydot eps."""
    from osc_llei.harness import ErrorReport, SweepPoint, fit_order

    eps = [top * 2.0**-j for j in range(len(norm_y))]
    points = [SweepPoint(e, cy * e * e, cy * e * e, cp * e, "large")
              for e, cy, cp in zip(eps, norm_y, norm_ydot)]
    slopes = {"large_y": fit_order(eps, [p.error_y for p in points]),
              "large_ydot": fit_order(eps, [p.error_ydot for p in points])}
    return ErrorReport("epsilon", 1, points, slopes, {}, ref_margin=1e4)


def test_converge_eps_passes_a_cancellation_and_reports_its_slope():
    # the seed code's errors at 1/eps = 25.03, T = 3: the top eps sits near
    # h = 4 pi eps, its ydot error cancels and the ydot slope fits 0.18
    check = workloads._ce_check(None, _ce_report([0.595, 0.596, 0.512, 0.259],
                                                 [0.131, 0.089, 0.306, 0.579]))
    assert check.ok, check.detail
    assert check.out_of_band.startswith("large_ydot slope")


def test_converge_eps_fails_a_lost_order():
    # err_y ~ eps and err_ydot ~ 1: the constants grow 8x over the sweep
    assert not workloads._ce_check(None, _ce_report([0.5, 1, 2, 4], [0.5] * 4)).ok
    assert not workloads._ce_check(None, _ce_report([0.5] * 4, [0.5, 1, 2, 4])).ok
