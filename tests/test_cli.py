"""Command-line interface: output contracts, formats, exit codes."""

import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys

import pytest

import instab
import instab.dispersion
import instab.spectral
from instab import (CoefficientStream, DispersionSpec, det_I_plus_K, det_root,
                    recurrence_coeff, value)
from instab.cli import run
from conftest import LAM_STAR, NU_STAR, count_calls, make_params


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


def run_csv(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return list(csv.reader(io.StringIO(out)))


FIG = ["--p", "3,1", "--q=-1,2", "--nu", "0.06"]


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def test_classify_single_point(capsys):
    got = run_json(capsys, ["classify", "--p", "3,1", "--q", "2,3",
                            "--format", "json"])
    assert got["schema"] == 1
    assert got["rep"] == [-1, 2]
    assert got["shift"] == -1
    assert got["wedge"] == 7
    assert got["class"] == "I0"


def test_classify_csv_default(capsys):
    rows = run_csv(capsys, ["classify", "--p", "3,1", "--q=-1,2"])
    assert rows[0] == ["q_x", "q_y", "rep_x", "rep_y", "shift", "class"]
    assert rows[1] == ["-1", "2", "-1", "2", "0", "I0"]


def test_classify_radius_table(capsys):
    rows = run_csv(capsys, ["classify", "--p", "3,1", "--radius", "4"])
    assert rows[0] == ["rep_x", "rep_y", "class"]
    classes = {r[2] for r in rows[1:]}
    assert classes == {"parallel", "0", "I0", "I+", "I-", "II"}


def test_classify_needs_exactly_one_selector(capsys):
    assert run(["classify", "--p", "3,1"]) == 2
    assert run(["classify", "--p", "3,1", "--q", "1,1",
                "--radius", "2"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# root
# ---------------------------------------------------------------------------

def test_root_json(capsys):
    got = run_json(capsys, ["root", *FIG])
    assert got["schema"] == 1
    assert got["model"] == "ns"
    assert got["class"] == "I0"
    assert got["lambda"] == pytest.approx(LAM_STAR, abs=1e-9)
    lo, hi = got["bracket"]
    assert lo <= got["lambda"] <= hi
    assert got["residual"] <= 1e-9
    assert got["cf_depth"] >= 2


def test_root_csv_round_trip(capsys):
    rows = run_csv(capsys, ["root", *FIG, "--format", "csv"])
    assert rows[0] == ["lambda", "bracket_lo", "bracket_hi", "residual",
                       "cf_depth"]
    lam = float(rows[1][0])
    assert lam == pytest.approx(LAM_STAR, abs=1e-9)
    # 17 significant digits survive a parse round trip bit-exactly
    assert format(lam, ".17g") == rows[1][0]


def test_root_stable_instance_exits_3(capsys):
    code = run(["root", "--p", "3,1", "--q=-1,2", "--nu", "10"])
    err = capsys.readouterr().err
    assert code == 3
    assert "NoSignChange" in err


def test_root_rejects_unsupported_class(capsys):
    code = run(["root", "--p", "3,1", "--q=-1,1", "--nu", "0.06"])
    err = capsys.readouterr().err
    assert code == 2
    assert "II" in err


def test_root_no_sign_change_diagnostic(capsys):
    # the search's diagnostic is printed once, after the error's class name
    assert run(["root", "--p", "3,1", "--q=-1,2", "--nu", "10"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: NoSignChange: value(0) = ")
    assert err.count("NoSignChange") == 1


@pytest.mark.parametrize("command", ["root", "nu0", "eigvec", "curve", "verify"])
def test_dispersion_commands_reject_class_two(capsys, command):
    # DispersionSpec's rule, stated once in the library
    assert run([command, "--p", "3,1", "--q=-1,1", "--nu", "0.06"]) == 2
    assert capsys.readouterr().err == (
        "usage error: dispersion is defined for classes I0/I+/I-, not II\n")


def test_root_requires_positive_nu(capsys):
    assert run(["root", "--p", "3,1", "--q=-1,2", "--nu", "0"]) == 2
    capsys.readouterr()


def test_root_requires_nu(capsys):
    assert run(["root", "--p", "3,1", "--q=-1,2"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_root_rejects_nonpositive_lambda_cap(capsys, cap):
    assert run(["root", *FIG, f"--lambda-cap={cap}"]) == 2
    assert "lambda_cap" in capsys.readouterr().err


def test_root_scan_reaches_lambda_cap(capsys):
    # the last doubling point below the cap 0.3 is 0.2147, below the root
    got = run_json(capsys, ["root", *FIG, "--lambda-cap", "0.3"])
    assert got["lambda"] == pytest.approx(LAM_STAR, abs=1e-10)


# ---------------------------------------------------------------------------
# nu0
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cap", ["0", "-5"])
def test_nu0_rejects_nonpositive_nu_cap(capsys, cap):
    assert run(["nu0", "--p", "3,1", "--q=-1,2", f"--nu-cap={cap}"]) == 2
    assert "nu_cap" in capsys.readouterr().err


def test_nu0_json_omits_placeholder_nu(capsys):
    got = run_json(capsys, ["nu0", "--p", "3,1", "--q=-1,2"])
    assert got["schema"] == 1
    assert "nu" not in got
    assert got["nu0"] == pytest.approx(NU_STAR, abs=1e-6)


# ---------------------------------------------------------------------------
# eigvec
# ---------------------------------------------------------------------------

def test_eigvec_csv(capsys):
    rows = run_csv(capsys, ["eigvec", *FIG, "--window", "8"])
    assert rows[0] == ["n", "w"]
    table = {int(n): float(w) for n, w in rows[1:]}
    assert set(table) == set(range(-8, 9))
    assert table[0] == pytest.approx(-1.0, rel=1e-12)


def test_eigvec_json_certificate(capsys):
    got = run_json(capsys, ["eigvec", *FIG, "--window", "16",
                            "--format", "json"])
    assert got["lambda"] == pytest.approx(LAM_STAR, abs=1e-9)
    assert got["residual"] <= 1e-10
    assert got["sign_ok"] is True
    assert got["decay_rate"] > 0
    assert got["decay_r2"] >= 0.999
    assert len(got["n"]) == len(got["w"]) == 33


def test_eigvec_explicit_lambda_off_root_fails(capsys):
    code = run(["eigvec", *FIG, "--lam", "0.3", "--window", "8"])
    capsys.readouterr()
    assert code == 3


def test_eigvec_rejects_negative_lambda(capsys):
    # refused before marching, even with the junction check switched off
    code = run(["eigvec", *FIG, "--lam=-0.5", "--match-tol", "1e300"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "usage error: lambda must be nonnegative\n"


def test_eigvec_json_strict_on_underflowing_window(capsys):
    # at N=2000 only the first ~100 entries per side are above underflow;
    # the decay fit must use them and the output must be strict JSON
    code = run(["eigvec", *FIG, "--window", "2000", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0

    def reject(name):
        raise ValueError(f"non-JSON constant {name}")

    got = json.loads(out, parse_constant=reject)
    assert got["decay_rate"] > 0
    assert got["decay_r2"] >= 0.999
    assert len(got["w"]) == 4001


# ---------------------------------------------------------------------------
# det
# ---------------------------------------------------------------------------

def test_det_grid_csv(capsys):
    rows = run_csv(capsys, ["det", *FIG, "--lambda-min", "0.1",
                            "--lambda-max", "0.3", "--step", "0.1",
                            "--window", "32"])
    assert rows[0] == ["lambda", "det", "n"]
    lams = [float(r[0]) for r in rows[1:]]
    assert lams == pytest.approx([0.1, 0.2, 0.3])
    assert all(r[2] == "32" for r in rows[1:])


def test_det_single_lambda_near_root_is_small(capsys):
    rows = run_csv(capsys, ["det", *FIG, "--lam", f"{LAM_STAR!r}",
                            "--window", "128"])
    assert abs(float(rows[1][1])) <= 1e-6


def test_det_root_bracket_mode(capsys):
    got = run_json(capsys, ["det", *FIG, "--root-bracket", "0.2,0.25",
                            "--window", "128", "--format", "json"])
    assert got["det_root"] == pytest.approx(LAM_STAR, abs=1e-7)
    # the bisection tolerance defaults to 1e-10
    assert got["det_root"] == det_root(make_params(), 128, (0.2, 0.25), tol=1e-10)


@pytest.mark.parametrize("bracket", ["0.1,inf", "nan,0.3"])
def test_det_root_bracket_must_be_finite(capsys, bracket):
    assert run(["det", *FIG, "--root-bracket", bracket]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("mode", [["--lam", "0.3"], ["--root-bracket", "0.1,0.5"]])
def test_det_beyond_double_range_exits_3(capsys, mode):
    # the second-grade K_lambda is not trace class: the N=512 determinant
    # leaves the double range, which is a NoConvergence, not a traceback
    code = run(["det", "--model", "second-grade", "--alpha", "0.5", "--p", "3,1",
                "--q=-1,2", "--nu", "0.04", "--window", "512", *mode])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: NoConvergence: ") and "N=512" in err


@pytest.mark.parametrize("argv", [
    ["det", *FIG, "--lam", "0.2", "--window", "0"],
    ["det", *FIG, "--lam", "0.2", "--window", "-5"],
    ["det", *FIG, "--root-bracket", "0.2,0.25", "--window", "0"],
])
def test_det_rejects_nonpositive_window(capsys, argv):
    assert run(argv) == 2
    assert "window N" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--root-bracket", "0.2,0.25", "--lam", "0.3", "--step", "5"],
    ["--root-bracket", "0.2,0.25", "--lambda-min", "0.1",
     "--lambda-max", "0.2", "--step", "0.01"],
    ["--root-bracket", "0.2,0.25", "--lam", "0.3"],
    ["--lam", "0.3", "--step", "5"],
    ["--lam", "0.3", "--tol", "1e-6"],
    ["--lambda-min", "0.1", "--lambda-max", "0.2", "--step", "0.1", "--tol", "1e-6"],
])
def test_det_modes_are_exclusive(capsys, argv):
    # --lam, the lambda grid and --root-bracket are three modes; a flag of
    # another mode is refused, not silently dropped
    assert run(["det", *FIG, *argv]) == 2
    assert "usage error" in capsys.readouterr().err


def test_det_rejects_nonpositive_grid(capsys):
    code = run(["det", *FIG, "--lambda-min", "0", "--lambda-max", "0.2",
                "--step", "0.1"])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["--lam", "0"],
    ["--lam=-0.3"],
    ["--lambda-min=-0.1", "--lambda-max", "0.2", "--step", "0.1"],
])
def test_det_lambda_rule_is_build_K_s(capsys, monkeypatch, argv):
    # build_K refuses lambda <= 0 first, and only a grid's first point can be
    # <= 0, so no determinant is computed
    seen = count_calls(monkeypatch, instab.spectral, "build_L")
    assert run(["det", *FIG, *argv]) == 2
    assert capsys.readouterr().err == (
        "usage error: the determinant factorization needs lambda > 0\n")
    assert seen == []


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_json(capsys):
    got = run_json(capsys, ["simulate", *FIG, "--window", "16",
                            "--t-final", "40"])
    assert got["schema"] == 1
    assert got["slope"] == pytest.approx(LAM_STAR, rel=1e-4)
    assert got["dt"] > 0
    assert got["seed"] == 0


def test_simulate_rejects_unstable_dt(capsys):
    code = run(["simulate", *FIG, "--window", "16", "--dt", "1.0"])
    capsys.readouterr()
    assert code == 2


def test_simulate_refuses_window_above_dense_cap(capsys):
    code = run(["simulate", *FIG, "--window", "513"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "above dense cap 512" in captured.err


# ---------------------------------------------------------------------------
# curve
# ---------------------------------------------------------------------------

def test_curve_lambda_csv(capsys):
    rows = run_csv(capsys, ["curve", *FIG, "--scan", "lambda",
                            "--lambda-max", "0.5", "--step", "0.25"])
    assert rows[0] == ["lambda", "minus_a0", "f_plus_g", "dispersion"]
    assert [float(r[0]) for r in rows[1:]] == pytest.approx([0.0, 0.25, 0.5])
    lam0 = rows[1]
    assert float(lam0[3]) == pytest.approx(0.3375770790681385, abs=1e-9)
    # dispersion = f_plus_g - minus_a0 by construction
    for r in rows[1:]:
        assert float(r[3]) == pytest.approx(float(r[2]) - float(r[1]),
                                            abs=1e-12)


def test_curve_nu_scan(capsys):
    rows = run_csv(capsys, ["curve", "--p", "3,1", "--q=-1,2",
                            "--scan", "nu", "--nu-min", "0.05",
                            "--nu-max", "0.15", "--step", "0.05"])
    assert rows[0] == ["nu", "h", "rhs"]
    # the tail sum h crosses the dissipation line rhs at the threshold
    gaps = [float(r[1]) - float(r[2]) for r in rows[1:]]
    assert gaps[0] > 0 > gaps[-1]


@pytest.mark.parametrize("argv", [
    ["curve", *FIG, "--scan", "lambda", "--nu-min", "0.05"],
    ["curve", *FIG, "--nu-max", "0.15"],
    ["curve", "--p", "3,1", "--q=-1,2", "--scan", "nu", "--nu-min", "0.05",
     "--nu-max", "0.15", "--step", "0.05", "--lambda-min", "0.1"],
    ["curve", "--p", "3,1", "--q=-1,2", "--scan", "nu", "--nu-min", "0.05",
     "--nu-max", "0.15", "--step", "0.05", "--lambda-max", "1"],
])
def test_curve_rejects_the_other_scans_grid(capsys, argv):
    assert run(argv) == 2
    assert "belong to --scan" in capsys.readouterr().err


def test_curve_euler_limit(capsys):
    rows = run_csv(capsys, ["curve", "--p", "3,1", "--q=-1,2", "--nu", "0",
                            "--scan", "lambda", "--lambda-min", "0.05",
                            "--lambda-max", "0.15", "--step", "0.05",
                            "--depth", "200"])
    assert len(rows) == 4


@pytest.mark.parametrize("argv, err", [
    (["curve", "--p", "3,1", "--q=-1,2", "--nu", "0", "--lambda-min", "0.008",
      "--step", "0.008", "--depth-cap", "64"],
     "error: NoConvergence: even/odd bracket width 3.236e+00 above tol "
     "2.500e-11 at depth cap 64\n"),
    (["curve", "--model", "second-grade", "--alpha", "1", "--p", "3,1", "--q=-1,2",
      "--scan", "nu", "--nu-min", "1e-4", "--nu-max", "0.05", "--step", "0.001",
      "--depth-cap", "1000"],
     "error: NoConvergence: even/odd bracket width 9.029e-08 above tol "
     "2.500e-11 at depth cap 1000\n"),
])
def test_curve_depth_cap_reports_first_failing_row(capsys, argv, err):
    # the first row in grid order that reaches the cap is the one reported,
    # with the message one value() call on that row gives
    assert run(argv) == 3
    assert capsys.readouterr().err == err


def test_curve_has_no_per_point_coefficient_loop(capsys, monkeypatch):
    seen = count_calls(monkeypatch, CoefficientStream, "rho")
    calls = []
    for step, points in (("0.008", 251), ("0.08", 26)):
        before = len(seen)
        assert len(run_csv(capsys, ["curve", *FIG, "--lambda-max", "2",
                                    "--step", step])) == points + 1
        calls.append(len(seen) - before)
    assert calls[0] == calls[1]


def test_curve_euler_requires_positive_grid(capsys):
    code = run(["curve", "--p", "3,1", "--q=-1,2", "--nu", "0",
                "--scan", "lambda", "--lambda-max", "0.2", "--step", "0.1"])
    capsys.readouterr()
    assert code == 2


def test_curve_empty_grid_rejected(capsys):
    code = run(["curve", *FIG, "--scan", "lambda", "--lambda-min", "0.5",
                "--lambda-max", "0.1", "--step", "0.1"])
    capsys.readouterr()
    assert code == 2


def test_curve_grid_too_large_rejected(capsys):
    code = run(["curve", *FIG, "--lambda-max", "1e300", "--step", "1e-300"])
    assert code == 2
    assert "usage error" in capsys.readouterr().err


def g17(x):
    return format(x, ".17g")


def grid_rows(capsys, argv, lo, step, count):
    # the table's first column must be the grid lo + i*step, in order
    rows = run_csv(capsys, argv)[1:]
    grid = [lo + i * step for i in range(count)]
    assert [r[0] for r in rows] == [g17(x) for x in grid]
    return grid, rows


def test_grid_tables_match_api_pointwise(capsys):
    pr = make_params()
    spec = DispersionSpec(pr)

    grid, rows = grid_rows(capsys, ["curve", *FIG, "--lambda-min", "0.05",
                                    "--lambda-max", "0.31", "--step", "0.05"],
                           0.05, 0.05, 6)
    assert [r[3] for r in rows] == [g17(value(x, spec, tol=1e-10)) for x in grid]

    grid, rows = grid_rows(capsys, ["curve", "--p", "3,1", "--q=-1,2",
                                    "--scan", "nu", "--nu-min", "0.04",
                                    "--nu-max", "0.13", "--step", "0.02"],
                           0.04, 0.02, 5)
    for nu, row in zip(grid, rows):
        at = dataclasses.replace(pr, nu=nu)
        a0 = recurrence_coeff(0, 0.0, at)
        h = value(0.0, DispersionSpec(at), tol=1e-10) - a0
        assert row[1:] == [g17(h), g17(-a0)]

    grid, rows = grid_rows(capsys, ["det", *FIG, "--lambda-min", "0.1",
                                    "--lambda-max", "0.3", "--step", "0.04",
                                    "--window", "32"],
                           0.1, 0.04, 6)
    assert [r[1] for r in rows] == [g17(det_I_plus_K(x, pr, 32).value) for x in grid]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_text_pass(capsys):
    code = run(["verify", *FIG, "--window", "64"])
    out = capsys.readouterr().out
    assert code == 0
    assert "VERIFY: PASS" in out
    assert "lambda_cf" in out and "lambda_matrix" in out
    assert "det(I+K)" in out


def test_verify_json(capsys):
    got = run_json(capsys, ["verify", *FIG, "--window", "64",
                            "--format", "json"])
    assert got["pass"] is True
    assert got["lambda_cf"] == pytest.approx(got["lambda_matrix"], abs=1e-8)
    assert abs(got["det_at_root"]) <= 1e-6


def test_verify_second_grade_skips_determinant(capsys):
    code = run(["verify", "--model", "second-grade", "--p", "3,1",
                "--q=-1,2", "--nu", "0.04", "--alpha", "0.5",
                "--window", "64"])
    out = capsys.readouterr().out
    assert code == 0
    assert "VERIFY: PASS" in out
    assert "skipped" in out


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def test_output_file_has_lf_endings(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code = run(["classify", "--p", "3,1", "--radius", "2",
                "--output", str(target)])
    capsys.readouterr()
    assert code == 0
    raw = target.read_bytes()
    assert b"\r" not in raw
    assert raw.decode().splitlines()[0] == "rep_x,rep_y,class"


@pytest.mark.parametrize("argv", [["root", *FIG],
                                  ["classify", "--p", "3,1", "--radius", "2"]])
def test_unwritable_output_refused_before_computing(tmp_path, capsys,
                                                    monkeypatch, argv):
    seen = count_calls(monkeypatch, instab.dispersion, "_value_info")
    target = tmp_path / "missing" / "out"
    assert run([*argv, "--output", str(target)]) == 2
    assert capsys.readouterr().err.startswith("usage error: cannot write --output")
    assert seen == []
    assert not target.exists()


def test_output_write_error_is_a_usage_error(tmp_path, capsys):
    # the parent directory is writable, but the path itself is a directory
    assert run(["classify", "--p", "3,1", "--q=-1,2", "--output", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("usage error: cannot write --output")


def test_json_output_file(tmp_path, capsys):
    target = tmp_path / "root.json"
    assert run(["root", *FIG, "--output", str(target)]) == 0
    capsys.readouterr()
    got = json.loads(target.read_text())
    assert got["schema"] == 1


FLOW = ["schema", "model", "p", "q", "class", "nu"]
NU_SCAN = ["--p", "3,1", "--q=-1,2", "--scan", "nu", "--nu-min", "0.05",
           "--nu-max", "0.15", "--step", "0.05"]
DET_GRID = [*FIG, "--lambda-min", "0.1", "--lambda-max", "0.3", "--step", "0.1",
            "--window", "16"]
SIM = [*FIG, "--window", "8", "--t-final", "5"]


@pytest.mark.parametrize("argv, layout", [
    (["classify", "--p", "3,1", "--q", "2,3"],
     "q_x,q_y,rep_x,rep_y,shift,class"),
    (["classify", "--p", "3,1", "--q", "2,3", "--format", "json"],
     ["schema", "p", "q", "rep", "shift", "wedge", "class"]),
    (["classify", "--p", "3,1", "--radius", "2"], "rep_x,rep_y,class"),
    (["classify", "--p", "3,1", "--radius", "2", "--format", "json"],
     ["schema", "p", "radius", "orbits"]),
    (["root", *FIG],
     [*FLOW, "lambda", "bracket", "residual", "cf_depth"]),
    (["root", *FIG, "--format", "csv"],
     "lambda,bracket_lo,bracket_hi,residual,cf_depth"),
    (["nu0", "--p", "3,1", "--q=-1,2"], [*FLOW[:5], "nu0"]),
    (["nu0", "--p", "3,1", "--q=-1,2", "--format", "csv"], "nu0"),
    (["eigvec", *FIG, "--window", "4"], "n,w"),
    (["eigvec", *FIG, "--window", "4", "--format", "json"],
     [*FLOW, "lambda", "window", "residual", "decay_rate", "decay_r2",
      "sign_ok", "n", "w"]),
    (["det", *DET_GRID], "lambda,det,n"),
    (["det", *DET_GRID, "--format", "json"], [*FLOW, "columns", "rows"]),
    (["det", *FIG, "--root-bracket", "0.2,0.25", "--window", "16"], "det_root,n"),
    (["det", *FIG, "--root-bracket", "0.2,0.25", "--window", "16",
      "--format", "json"], [*FLOW, "det_root", "N"]),
    (["simulate", *SIM], [*FLOW, "slope", "N", "t_final", "dt", "seed"]),
    (["simulate", *SIM, "--format", "csv"], "slope,n,t_final,dt,seed"),
    (["curve", *FIG, "--lambda-max", "0.5", "--step", "0.25"],
     "lambda,minus_a0,f_plus_g,dispersion"),
    (["curve", *FIG, "--lambda-max", "0.5", "--step", "0.25", "--format", "json"],
     [*FLOW, "columns", "rows"]),
    (["curve", *NU_SCAN], "nu,h,rhs"),
    (["curve", *NU_SCAN, "--format", "json"], [*FLOW[:5], "columns", "rows"]),
    (["verify", *FIG, "--window", "32"],
     ["lambda_cf", "lambda_matrix", "det(I+K)", "det_root", "VERIFY:"]),
    (["verify", *FIG, "--window", "32", "--format", "json"],
     [*FLOW, "N", "lambda_cf", "lambda_matrix", "det_at_root", "det_root",
      "agree_tol", "det_tol", "pass"]),
])
def test_output_contract(tmp_path, capsys, argv, layout):
    # --output gets exactly the bytes stdout gets, in a fixed layout: the JSON
    # key order, the CSV header line, or the first word of each text line
    assert run(argv) == 0
    out = capsys.readouterr().out
    target = tmp_path / "out"
    assert run([*argv, "--output", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == out.encode()
    if isinstance(layout, str):
        assert out.splitlines()[0] == layout
    elif out.startswith("{"):
        assert list(json.loads(out)) == layout
    else:
        assert [line.split()[0] for line in out.splitlines()] == layout


@pytest.mark.parametrize("command", ["nu0", "eigvec", "verify"])
def test_depth_only_where_it_is_read(capsys, command):
    # --depth is declared by root and curve only; elsewhere it is rejected,
    # not ignored and not taken as an abbreviation of --depth-cap
    assert run([command, *FIG, "--depth", "3"]) == 2
    assert "unrecognized arguments: --depth" in capsys.readouterr().err


def test_flag_abbreviation_is_usage_error(capsys):
    assert run(["root", *FIG, "--lambda-c", "1"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()


def test_module_entry_point_help_exits_zero():
    # main() as the console script runs it, in a fresh interpreter
    src = os.path.dirname(os.path.dirname(instab.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "instab.cli", "--help"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: instab ")


def test_missing_subcommand_is_usage_error(capsys):
    assert run([]) == 2
    capsys.readouterr()


def test_bad_pair_is_usage_error(capsys):
    assert run(["classify", "--p", "3;1", "--q", "1,1"]) == 2
    capsys.readouterr()


def test_regularized_model_needs_alpha(capsys):
    code = run(["root", "--model", "ns-voigt", "--p", "3,1", "--q=-1,2",
                "--nu", "0.04"])
    capsys.readouterr()
    assert code == 2


# ---------------------------------------------------------------------------
# non-finite inputs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["root", "--p", "3,1", "--q=-1,2", "--nu", "nan"],
    ["root", *FIG, "--tol", "nan"],
    ["root", "--p", "3,1", "--q=-1,2", "--nu", "inf"],
    ["curve", *FIG, "--step", "nan"],
    ["simulate", *FIG, "--t-final", "nan"],
])
def test_non_finite_flag_is_usage_error(capsys, argv):
    assert run(argv) == 2
    assert "finite" in capsys.readouterr().err
