"""End-to-end tests for the command-line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import osc_llei
from osc_llei import SpectrumWarning, build_catalog, builtin, load_config, mindex
from osc_llei.cli import _dyadic_h_grid, _fmt, main
from osc_llei.extension import build_A1, build_S
from osc_llei.harness import ErrorReport
from osc_llei.sysdef import augment


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


QUADRATIC_CFG = {
    "d": 1,
    "A": [[0, 1]],
    "epsilon": 1.0,
    "nu": 0.0,
    "u_in": [0.4],
    "T": 1.0,
    "poly_F": [{"row": 1, "alpha": [1, 1], "coeff": [0.2, 0.0]}],
}


def test_fmt_uses_17_significant_digits() -> None:
    assert _fmt(1.0 / 3.0) == "0.33333333333333331"
    assert _fmt(0.5) == "0.5"


def test_catalog_output(capsys) -> None:
    assert main(["catalog", "--d", "1", "--k", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "position,degree,components"
    assert lines[1] == "0,0,"
    assert lines[2] == "1,1,1"
    assert lines[3] == "2,1,2"
    assert lines[4] == "3,2,1 1"
    assert lines[-2] == "# block_dims 1 2 3"
    assert lines[-1] == "# size 6"
    assert len(lines) == 9


def test_build_matches_library_matrices(tmp_path) -> None:
    cfg_path = write_config(tmp_path, QUADRATIC_CFG)
    out = tmp_path / "mats.csv"
    rc = main(
        ["build", "--config", cfg_path, "--k", "1",
         "--at", "[0.5, 0.25]", "--out", str(out)]
    )
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "matrix,row,col,re,im"
    got = {"A1k": np.zeros((3, 3), complex), "A0k": np.zeros((3, 3), complex),
           "S": np.zeros((3, 3), complex)}
    for line in lines[1:]:
        name, i, j, re, im = line.split(",")
        got[name][int(i), int(j)] = float(re) + 1j * float(im)
    system = load_config(QUADRATIC_CFG)
    catalog = build_catalog(2, 1)
    xhat = np.array([0.5, 0.25])
    expected_A1 = build_A1(catalog, augment(system.A), xhat)
    assert np.array_equal(got["A1k"], expected_A1)
    assert np.array_equal(got["S"], build_S(catalog, xhat))
    # quadratic forcing: d(0.2 u^2)/du at u = 0.5 lands in the A0k row for u
    assert got["A0k"][1, 1] == pytest.approx(0.2)


def test_build_rejects_malformed_expansion_state(tmp_path, capsys) -> None:
    cfg_path = write_config(tmp_path, QUADRATIC_CFG)
    assert main(["build", "--config", cfg_path, "--k", "1", "--at", "[1]"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["build", "--config", cfg_path, "--k", "1", "--at", "nope"]) == 2


def test_integrate_csv_shape_and_determinism(tmp_path) -> None:
    cfg_path = write_config(tmp_path, {"name": "example1", "epsilon": 0.25, "T": 1.0})
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    for out in (out_a, out_b):
        rc = main(["integrate", "--config", cfg_path, "--k", "1",
                   "--h", "0.125", "--out", str(out)])
        assert rc == 0
    text = out_a.read_text()
    assert text == out_b.read_text()
    lines = text.strip().splitlines()
    assert lines[0] == "t,Re(u1),Im(u1),Re(u2),Im(u2)"
    assert len(lines) == 1 + 9
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 5
        assert float(fields[2]) == 0.0
        assert float(fields[4]) == 0.0
    assert lines[1].startswith("0,")
    assert lines[-1].startswith("1,")
    # a real problem steps in real arithmetic: every Im(...) column is exactly 0
    im_cols = [i for i, name in enumerate(lines[0].split(",")) if name.startswith("Im(")]
    assert all(line.split(",")[i] == "0" for line in lines[1:] for i in im_cols)


def test_integrate_reports_snapped_step(tmp_path, capsys) -> None:
    cfg_path = write_config(tmp_path, {"name": "example1", "epsilon": 0.25, "T": 1.0})
    assert main(["integrate", "--config", cfg_path, "--k", "1", "--h", "0.3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1].startswith("# h snapped from 0.29999999999999999 to 0.33333")
    assert len(lines) == 1 + 4 + 1


def test_integrate_blow_up_exits_1(tmp_path, capsys) -> None:
    cfg = {
        "d": 1,
        "A": [0],
        "epsilon": 1.0,
        "nu": 0.0,
        "u_in": [2.0],
        "T": 10.0,
        "poly_F": [{"row": 1, "alpha": [1, 1], "coeff": 1}],
    }
    cfg_path = write_config(tmp_path, cfg)
    assert main(["integrate", "--config", cfg_path, "--k", "2", "--h", "0.05"]) == 1
    assert "error:" in capsys.readouterr().err


def test_reference_blow_up_in_sweep_exits_1(tmp_path) -> None:
    # du1/dt = u2 + 3 u1^2 from u1 = 2 blows up inside the shared RK4
    # reference; a child process shows stderr exactly as a user sees it,
    # so numpy overflow warnings printed above the error line would show
    cfg = {
        "d": 2,
        "A": [[0, 0], [1, 0], [-1, 0], [0, 0]],
        "epsilon": 1.0,
        "nu": 0.0,
        "u_in": [2.0, 0.0],
        "T": 1.0,
        "poly_F": [{"row": 1, "alpha": [1, 1], "coeff": [3, 0]}],
    }
    cfg_path = write_config(tmp_path, cfg)
    src = str(Path(osc_llei.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "osc_llei.cli", "converge-h", "--config", cfg_path,
         "--k", "1", "--hmin", "0.125", "--hmax", "0.5", "--points", "3"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [proc.stderr.strip()]
    assert proc.stderr.startswith("error: state blew up")


def test_numerical_error_is_one_line_exit_1(tmp_path, monkeypatch, capsys) -> None:
    import osc_llei.cli as cli_mod

    def drifting(*args, **kwargs):
        raise ArithmeticError("time component of the lifted step is 0.3, expected h = 0.25")

    monkeypatch.setattr(cli_mod, "integrate", drifting)
    cfg_path = write_config(tmp_path, QUADRATIC_CFG)
    assert main(["integrate", "--config", cfg_path, "--k", "1", "--h", "0.25"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: time component of the lifted step is 0.3, expected h = 0.25"
    ]


def test_reference_csv_and_resolution_guard(tmp_path, capsys) -> None:
    cfg_path = write_config(tmp_path, {"name": "example1", "epsilon": 0.25, "T": 1.0})
    rc = main(["reference", "--config", cfg_path, "--href", "0.015625",
               "--stride", "4"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "t,Re(u1),Im(u1),Re(u2),Im(u2)"
    assert len(lines) == 1 + 17

    assert main(["reference", "--config", cfg_path, "--href", "0.1"]) == 2
    assert "error:" in capsys.readouterr().err
    # eps / (4 rho) = 0.0625 allows --href 0.0625, but T / 12 is the step
    # the stride forces: one sample of 12 steps of 0.0833
    assert main(["reference", "--config", cfg_path, "--href", "0.0625",
                 "--stride", "12"]) == 2
    assert "does not resolve" in capsys.readouterr().err


def test_reference_reports_snapped_sample_spacing(tmp_path, capsys) -> None:
    cfg_path = write_config(tmp_path, {"name": "example1", "epsilon": 0.25, "T": 1.5})
    rc = main(["reference", "--config", cfg_path, "--href", "0.003", "--stride", "7"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1] == f"# h snapped from {_fmt(0.003 * 7)} to {_fmt(1.5 / 71)}"
    assert len(lines) == 1 + 72 + 1


def test_dyadic_grid_nests_step_counts() -> None:
    hs = _dyadic_h_grid(1.0, 0.5, 0.125, 5)
    assert hs == [0.5, 0.25, 0.125]
    hs = _dyadic_h_grid(6.0, 0.5, 0.0625, 4)
    ns = [round(6.0 / h) for h in hs]
    assert ns[0] == 12
    for a, b in zip(ns, ns[1:]):
        assert b % a == 0
    with pytest.raises(Exception):
        _dyadic_h_grid(1.0, 0.1, 0.5, 3)


def test_converge_h_report_structure(tmp_path) -> None:
    cfg_path = write_config(tmp_path, QUADRATIC_CFG)
    out = tmp_path / "sweep.csv"
    rc = main(["converge-h", "--config", cfg_path, "--k", "1",
               "--hmin", "0.125", "--hmax", "0.5", "--points", "3",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "param,error_u,error_y,error_ydot,regime"
    rows = [ln for ln in lines if not ln.startswith("#")][1:]
    assert len(rows) == 3
    assert [float(r.split(",")[0]) for r in rows] == [0.5, 0.25, 0.125]
    for row in rows:
        fields = row.split(",")
        assert fields[4] == "small"  # rho = 1, eps = 1: h0 = pi/2 > every h
        assert fields[2] == "" and fields[3] == ""  # no y split for this system
    assert "# axis h" in lines
    assert "# k 1" in lines
    assert any(ln.startswith("# slope small_u ") for ln in lines)
    assert any(ln.startswith("# threshold h0 ") for ln in lines)
    assert "# threshold rho 1" in lines


def test_converge_h_ci_exit_codes(tmp_path, monkeypatch) -> None:
    import osc_llei.cli as cli_mod

    cfg_path = write_config(tmp_path, QUADRATIC_CFG)

    def fake_sweep(slopes):
        report = ErrorReport(
            axis="h", k=1, points=[], slopes=slopes,
            thresholds={"h0": 1.0, "h0_lower": None, "rho": 1.0, "mu": None},
        )
        return lambda *a, **kw: report

    base = ["converge-h", "--config", cfg_path, "--k", "1",
            "--hmin", "0.1", "--hmax", "0.5", "--ci"]
    monkeypatch.setattr(cli_mod, "sweep_h", fake_sweep({"small_u": 2.05}))
    assert main(base) == 0
    monkeypatch.setattr(cli_mod, "sweep_h", fake_sweep({"small_u": 1.2}))
    assert main(base) == 1
    monkeypatch.setattr(cli_mod, "sweep_h", fake_sweep({"small_u": None}))
    assert main(base) == 0


def test_converge_h_ci_miss_message(tmp_path, monkeypatch, capsys) -> None:
    import osc_llei.cli as cli_mod

    cfg_path = write_config(tmp_path, QUADRATIC_CFG)
    report = ErrorReport(
        axis="h", k=2, points=[], slopes={"large_u": 1.2},
        thresholds={"h0": 1.0, "h0_lower": None, "rho": 1.0, "mu": None},
    )
    monkeypatch.setattr(cli_mod, "sweep_h", lambda *a, **kw: report)
    rc = main(["converge-h", "--config", cfg_path, "--k", "2",
               "--hmin", "0.1", "--hmax", "0.5", "--ci"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "ci: large_u" in err
    out_lines = capsys.readouterr().out  # already consumed above
    assert out_lines == ""


def test_converge_eps_report_structure(tmp_path) -> None:
    cfg_path = write_config(tmp_path, QUADRATIC_CFG)
    out = tmp_path / "eps.csv"
    rc = main(["converge-eps", "--config", cfg_path, "--k", "1",
               "--h", "0.25", "--epsmin", "0.125", "--epsmax", "0.25",
               "--points", "2", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "param,error_u,error_y,error_ydot,regime"
    rows = [ln for ln in lines if not ln.startswith("#")][1:]
    assert len(rows) == 2
    assert [float(r.split(",")[0]) for r in rows] == [0.25, 0.125]
    assert "# axis epsilon" in lines
    assert any(ln.startswith("# threshold eps0 ") for ln in lines)


EXAMPLE1_CFG = {"name": "example1", "epsilon": 0.25}
INF = float("inf")


@pytest.mark.parametrize(
    "cfg, bands, ignored",
    [
        # a [y; p] system: y and ydot bands; an inline system: large_u alone
        (EXAMPLE1_CFG, {"small_y": 1.0, "large_y": 2.0, "large_ydot": 1.0}, "large_u"),
        (QUADRATIC_CFG, {"large_u": 1.0}, "small_y"),
    ],
    ids=["y-p", "u"],
)
def test_converge_eps_ci_exit_codes(tmp_path, monkeypatch, capsys, cfg, bands, ignored) -> None:
    import osc_llei.cli as cli_mod

    cfg_path = write_config(tmp_path, cfg)

    def run(slopes):
        report = ErrorReport(axis="epsilon", k=1, points=[], slopes=slopes, thresholds={})
        monkeypatch.setattr(cli_mod, "sweep_eps", lambda *a, **kw: report)
        rc = main(["converge-eps", "--config", cfg_path, "--k", "1", "--h", "0.25",
                   "--epsmin", "0.125", "--epsmax", "0.25", "--ci"])
        return rc, capsys.readouterr().err.splitlines()

    assert run({**bands, ignored: 9.0}) == (0, [])
    rc, err = run({key: target + 1.0 for key, target in bands.items()})
    assert rc == 1 and len(err) == len(bands)
    assert sorted(line.split(":")[1].strip() for line in err) == sorted(bands)
    assert all(line.startswith("ci: ") for line in err)


@pytest.mark.parametrize(
    "cfg, command",
    [
        (QUADRATIC_CFG, ["integrate", "--k", "1", "--h", "inf"]),
        (QUADRATIC_CFG, ["integrate", "--k", "1", "--h", "nan"]),
        (QUADRATIC_CFG, ["reference", "--href", "inf"]),
        (QUADRATIC_CFG, ["reference", "--href", "nan"]),
        (EXAMPLE1_CFG, ["converge-eps", "--k", "1", "--h", "inf", "--epsmin", "0.125",
                        "--epsmax", "0.25", "--points", "2"]),
        (EXAMPLE1_CFG, ["converge-eps", "--k", "1", "--h", "nan", "--epsmin", "0.125",
                        "--epsmax", "0.25", "--points", "2"]),
        (EXAMPLE1_CFG, ["converge-h", "--k", "1", "--hmin", "0.125", "--hmax", "inf"]),
        ({**EXAMPLE1_CFG, "T": INF}, ["integrate", "--k", "1", "--h", "0.25"]),
        ({**EXAMPLE1_CFG, "epsilon": INF}, ["integrate", "--k", "1", "--h", "0.25"]),
        ({**QUADRATIC_CFG, "epsilon": INF}, ["integrate", "--k", "1", "--h", "0.25"]),
    ],
    ids=["integrate-h-inf", "integrate-h-nan", "reference-href-inf", "reference-href-nan",
         "converge-eps-h-inf", "converge-eps-h-nan", "converge-h-hmax-inf", "builtin-T-inf", "builtin-eps-inf",
         "inline-eps-inf"],
)
def test_non_finite_inputs_are_usage_errors(tmp_path, capsys, cfg, command) -> None:
    # a config with Infinity (json.dumps writes it so) or a step of inf or
    # nan is rejected up front: exit 2, one stderr line, no numpy warnings
    cfg_path = write_config(tmp_path, cfg)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(command[:1] + ["--config", cfg_path] + command[1:])
    assert rc == 2
    assert not caught, [str(w.message) for w in caught]
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and "must be finite and positive" in err[0], err


def test_validate_random_systems(capsys) -> None:
    rc = main(["validate", "--k", "1", "--random", "2", "--seed", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "random[0] d=1" in out
    assert "random[1] d=2" in out
    assert "[FAIL]" not in out
    assert out.strip().splitlines()[-1] == "all checks passed"


def test_validate_flags_real_spectrum(tmp_path, capsys) -> None:
    cfg = {"d": 1, "A": [1], "epsilon": 1.0, "nu": 0.0, "u_in": [1.0], "T": 1.0}
    cfg_path = write_config(tmp_path, cfg)
    with pytest.warns(SpectrumWarning):
        rc = main(["validate", "--config", cfg_path, "--k", "1"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "[FAIL]" in out
    assert out.strip().splitlines()[-1] == "some checks FAILED"


def test_validate_requires_some_target() -> None:
    assert main(["validate", "--k", "1"]) == 2


def test_validate_rejects_negative_random_count(capsys) -> None:
    # a negative count runs no check, so it must not report that all passed
    assert main(["validate", "--k", "2", "--random", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: --random"), err


@pytest.mark.parametrize("d", [-1, 0, 1.5, "1", True])
def test_config_dimension_must_be_a_positive_integer(tmp_path, capsys, d) -> None:
    # named as the bad key, before the size of A is checked against d * d;
    # a fractional d is not truncated
    cfg_path = write_config(tmp_path, {**QUADRATIC_CFG, "d": d})
    assert main(["integrate", "--config", cfg_path, "--k", "1", "--h", "0.25"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and "d must be an integer >= 1" in err[0], err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["catalog", "--d", "0", "--k", "2"], "--d must be >= 1, got 0"),
        (["catalog", "--d", "-2", "--k", "2"], "--d must be >= 1, got -2"),
        (["reference", "--href", "0.015625", "--stride", "0"], "--stride must be a positive"),
        (["reference", "--href", "0.015625", "--stride", "-4"], "--stride must be a positive"),
    ],
)
def test_usage_errors_name_the_flag(tmp_path, capsys, argv, flag) -> None:
    # the message names the option as typed, not the library parameter
    # (d_plus_1, sample_stride) it feeds
    if argv[0] == "reference":
        argv = argv + ["--config", write_config(tmp_path, {"name": "example1", "epsilon": 0.25})]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {flag}"), err


def test_oversize_catalog_is_a_usage_error(monkeypatch, capsys) -> None:
    # 70,058,751 rows: refused before any multi-index is enumerated
    def refuse(*args):
        raise AssertionError("catalog enumerated")

    monkeypatch.setattr(mindex.itertools, "combinations_with_replacement", refuse)
    assert main(["catalog", "--d", "3", "--k", "200"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: catalog") and "above the limit" in err[0]


def test_usage_and_config_errors_exit_2(tmp_path, capsys) -> None:
    assert main([]) == 2
    assert main(["no-such-command"]) == 2
    assert main(["integrate", "--config", str(tmp_path / "missing.json"),
                 "--k", "1", "--h", "0.1"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["integrate", "--config", str(bad), "--k", "1", "--h", "0.1"]) == 2
    incomplete = write_config(tmp_path, {"d": 1, "A": [0]}, name="incomplete.json")
    assert main(["integrate", "--config", incomplete, "--k", "1", "--h", "0.1"]) == 2
    capsys.readouterr()


def test_builtin_config_requires_epsilon(tmp_path) -> None:
    cfg_path = write_config(tmp_path, {"name": "example1"})
    assert main(["integrate", "--config", cfg_path, "--k", "1", "--h", "0.1"]) == 2


def test_reference_on_builtin_second_order(tmp_path) -> None:
    cfg_path = write_config(tmp_path, {"name": "example2-E6", "epsilon": 0.25})
    out = tmp_path / "ref.csv"
    rc = main(["reference", "--config", cfg_path, "--href", str(0.25 / 16),
               "--stride", "16", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("t,Re(u1),Im(u1)")
    assert len(lines[0].split(",")) == 1 + 2 * 4
    system = builtin("example2-E6", 0.25)
    assert system.y_dim == 2


@pytest.mark.parametrize(
    "command",
    [
        # 1.5e16 RK4 samples: a 426 PiB state array
        ["reference", "--href", "1e-16"],
        # 1.5e16 scheme steps: a 107 PiB time grid
        ["integrate", "--k", "1", "--h", "1e-16"],
        # a 2-step run, then 2^54 steps: a 128 PiB time grid
        ["converge-h", "--k", "1", "--hmax", "0.75", "--hmin", "1e-16", "--points", "2"],
    ],
    ids=["reference", "integrate", "converge-h"],
)
def test_step_count_too_large_for_memory_is_a_usage_error(tmp_path, capsys, command) -> None:
    # every request's first large array is >= 1 PiB, past any machine's
    # address space, so the allocation fails at once whatever the
    # overcommit policy; it is reported as one line, not a traceback
    cfg_path = write_config(tmp_path, {"name": "example1", "epsilon": 0.25, "T": 1.5})
    assert main(command[:1] + ["--config", cfg_path] + command[1:]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["catalog", "--d", "x", "--k", "1"],
         "osc-llei catalog: argument --d: invalid int value: 'x'"),
        (["catalog", "--d", "1"], "osc-llei catalog: the following arguments are required: --k"),
    ],
    ids=["bad-type", "missing-flag"],
)
def test_argument_errors_are_one_line(capsys, argv, message) -> None:
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("command", ["converge-h", "converge-eps"])
def test_help_exits_0_and_offers_no_reference_step(capsys, command) -> None:
    assert main([command, "--help"]) == 0
    out = capsys.readouterr().out
    assert "--ci" in out and "--href" not in out


@pytest.mark.parametrize(
    "cfg, message",
    [
        ({"name": "example1", "epsilon": None}, "epsilon must be a number, got null"),
        ({"name": "example1", "epsilon": 0.25, "T": [1]}, "T must be a number, got [1]"),
        ({"name": "example1", "epsilon": True}, "epsilon must be a number, got true"),
        ({**QUADRATIC_CFG, "epsilon": None}, "epsilon must be a number, got null"),
        ({**QUADRATIC_CFG, "nu": {}}, "nu must be a number, got {}"),
        ({**QUADRATIC_CFG, "nu": False}, "nu must be a number, got false"),
        ({**QUADRATIC_CFG, "T": "1"}, 'T must be a number, got "1"'),
    ],
    ids=["builtin-eps-null", "builtin-T-list", "builtin-eps-true", "inline-eps-null",
         "inline-nu-object", "inline-nu-false", "inline-T-string"],
)
def test_config_scalars_must_be_numbers(tmp_path, capsys, cfg, message) -> None:
    cfg_path = write_config(tmp_path, cfg)
    assert main(["integrate", "--config", cfg_path, "--k", "1", "--h", "0.25"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]


INLINE_KEYS = "d, A, epsilon, nu, u_in, T, poly_F"


@pytest.mark.parametrize(
    "cfg, message",
    [
        # a misspelt poly_F would integrate F = 0
        ({**{k: v for k, v in QUADRATIC_CFG.items() if k != "poly_F"},
          "poly_f": QUADRATIC_CFG["poly_F"]},
         f"unknown config key(s): poly_f (allowed: {INLINE_KEYS})"),
        # a name makes a config builtin, whose keys are name, epsilon and T
        ({**QUADRATIC_CFG, "name": "mine"},
         "unknown config key(s): d, A, nu, u_in, poly_F (allowed: name, epsilon, T)"),
        ({**EXAMPLE1_CFG, "eps": 0.1}, "unknown config key(s): eps (allowed: name, epsilon, T)"),
        ({**QUADRATIC_CFG, "poly_F": [{"row": 1, "alpha": [1, 1], "coef": [0.2, 0.0]}]},
         "unknown poly_F term key(s): coef (allowed: row, alpha, coeff)"),
    ],
    ids=["poly_f", "inline-name", "builtin-eps", "term-coef"],
)
def test_config_rejects_unknown_keys(tmp_path, capsys, cfg, message) -> None:
    cfg_path = write_config(tmp_path, cfg)
    assert main(["integrate", "--config", cfg_path, "--k", "1", "--h", "0.25"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]
