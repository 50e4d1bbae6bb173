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
from osc_llei import SpectrumWarning, build_catalog, builtin, load_config
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
    with pytest.warns(UserWarning):
        rc = main(["reference", "--config", cfg_path, "--href", "0.1",
                   "--allow-unresolved", "--out", str(tmp_path / "r.csv")])
    assert rc == 0


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


@pytest.mark.parametrize("value", ["0", "-1", "nan"])
@pytest.mark.parametrize(
    "command",
    [
        ["converge-h", "--k", "1", "--hmin", "0.125", "--hmax", "0.5", "--points", "3",
         "--href-target"],
        ["converge-eps", "--k", "1", "--h", "0.25", "--epsmin", "0.125", "--epsmax", "0.25",
         "--points", "2", "--href-factor"],
    ],
    ids=["converge-h", "converge-eps"],
)
def test_reference_step_must_be_finite_and_positive(tmp_path, capsys, command, value) -> None:
    cfg_path = write_config(tmp_path, QUADRATIC_CFG)
    assert main(command[:1] + ["--config", cfg_path] + command[1:] + [value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and "must be finite and positive" in err[0], err


EXAMPLE1_CFG = {"name": "example1", "epsilon": 0.25}
INF = float("inf")


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
