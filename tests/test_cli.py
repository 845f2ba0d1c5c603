"""Command-line interface: output contracts, formats, exit codes."""

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import instab
import instab.cli
import instab.dispersion
import instab.eigensystem
import instab.spectral
from instab import CoefficientStream, DispersionSpec, det_I_plus_K, det_root, value
from instab.cli import build_parser, run
from conftest import LAM_STAR, MODELS, NU_STAR, count_calls, make_params, record_passes


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


def test_root_with_the_normalizing_gamma(capsys):
    # Gamma = -20/7 is the normalizing amplitude of this orbit: the JSON
    # echoes it, and the root is the normalized one
    normalized = run_json(capsys, ["root", *FIG])
    got = run_json(capsys, ["root", *FIG, "--gamma=-2.857142857142857"])
    assert "gamma" not in normalized
    assert got["gamma"] == -2.857142857142857
    assert got["lambda"] == pytest.approx(normalized["lambda"], abs=1e-10)


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
    # DispersionSpec's rule, stated once in the library; nu0 takes no --nu
    nu = [] if command == "nu0" else ["--nu", "0.06"]
    assert run([command, "--p", "3,1", "--q=-1,1", *nu]) == 2
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


def test_nu0_refuses_nu_before_computing(capsys, monkeypatch):
    # nu is what nu0 solves for: a --nu would be ignored, so it is refused
    seen = count_calls(monkeypatch, instab.cli, "nu0_estimate")
    assert run(["nu0", *FIG]) == 2
    assert capsys.readouterr().err == "usage error: nu0 solves for nu and takes no --nu\n"
    assert seen == []


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
    ["det", *FIG, "--lam", "0.2", "--window", "1000000"],
    ["det", *FIG, "--root-bracket", "0.2,0.25", "--window", "100001"],
    ["eigvec", *FIG, "--window", "1000000"],
    ["eigvec", *FIG, "--lam", "0.2", "--window", "100001"],
])
def test_linear_windows_refused_above_the_window_cap(capsys, monkeypatch, argv):
    # refused before the root search and before any section is built
    seen = [count_calls(monkeypatch, module, name) for module, name in (
        (instab.spectral, "build_L"), (instab.eigensystem, "build_L"), (instab.cli, "find_root"))]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"window N={argv[-1]} above window cap 100000" in captured.err
    assert seen == [[], [], []]


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
    # det_grid refuses lambda <= 0 with build_K's message before it builds the
    # section, and only a grid's first point can be <= 0, so no determinant
    # is computed
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


def test_simulate_refuses_window_above_dense_cap(capsys, monkeypatch):
    # the default step reads the section, so the cap is checked before it is built
    built = count_calls(monkeypatch, instab.cli, "build_L")
    code = run(["simulate", *FIG, "--window", "513"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "above dense cap 512" in captured.err
    assert built == []


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
    ["curve", *FIG, "--scan", "nu", "--nu-min", "0.05", "--nu-max", "0.15",
     "--step", "0.05"],
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
     "error: NoConvergence: fixed-point bracket width 1.690e-08 above tol "
     "2.500e-11 at depth cap 64\n"),
    (["curve", "--model", "second-grade", "--alpha", "1", "--p", "3,1", "--q=-1,2",
      "--scan", "nu", "--nu-min", "1e-4", "--nu-max", "0.05", "--step", "0.001",
      "--depth-cap", "128"],
     "error: NoConvergence: fixed-point bracket width 4.492e-11 above tol "
     "2.500e-11 at depth cap 128\n"),
])
def test_curve_depth_cap_reports_first_failing_row(capsys, argv, err):
    # the first row in grid order that reaches the cap is the one reported,
    # with the message one value() call on that row gives
    assert run(argv) == 3
    assert capsys.readouterr().err == err


def test_curve_second_grade_nu_scan_at_small_nu(capsys):
    # the value-region bracket alone reached the depth cap on these rows
    rows = run_csv(capsys, ["curve", "--model", "second-grade", "--alpha", "0.5",
                            "--p", "3,1", "--q=-1,2", "--scan", "nu", "--nu-min", "1e-6",
                            "--nu-max", "3e-6", "--step", "1e-6"])
    assert len(rows) == 4


INVISCID = ["curve", "--p", "3,1", "--q=-1,2", "--nu", "0"]


def record_depths(monkeypatch):
    """Spy on dispersion._grid_info; returns each pass's row depths."""
    inner, depths = instab.dispersion._grid_info, []

    def recording(*args, **kwargs):
        out = inner(*args, **kwargs)
        depths.append(out[2].tolist())
        return out

    monkeypatch.setattr(instab.dispersion, "_grid_info", recording)
    return depths


def test_curve_inviscid_rows_take_the_fixed_point_enclosure(capsys, monkeypatch):
    # the 250-point nu = 0 grid: under the even/odd bracket alone its rows ran
    # from depth 17 to 4097
    depths = record_depths(monkeypatch)
    rows = run_csv(capsys, [*INVISCID, "--lambda-min", "0.008", "--lambda-max", "2",
                            "--step", "0.008"])
    assert len(rows) == 251
    (got,) = depths
    assert len(got) == 250 and max(got) <= 513


def test_curve_inviscid_small_lambda(capsys):
    # the even/odd bracket reached the depth cap of 100,000 on these rows
    rows = run_csv(capsys, [*INVISCID, "--lambda-min", "0.00001", "--lambda-max", "0.001",
                            "--step", "0.00001"])
    assert len(rows) == 101


@pytest.mark.parametrize("alpha", ["0.5", "1"])
def test_curve_alpha_euler_identity(capsys, monkeypatch, alpha):
    # at nu = 0 second grade and NS-alpha are one equation, alpha-Euler: the
    # same rho_n, and the d_n where they differ are multiplied by nu = 0
    depths = record_depths(monkeypatch)
    grid = ["--lambda-min", "0.008", "--lambda-max", "2", "--step", "0.008"]
    tables = [run_csv(capsys, ["curve", "--model", model, "--alpha", alpha,
                               *INVISCID[1:], *grid]) for model in ("second-grade", "ns-alpha")]
    assert tables[0] == tables[1]
    assert depths[0] == depths[1]


def test_curve_has_no_per_point_coefficient_loop(capsys, monkeypatch):
    passes = record_passes(monkeypatch)
    for step, points in (("0.008", 251), ("0.08", 26)):
        before = len(passes)
        assert len(run_csv(capsys, ["curve", *FIG, "--lambda-max", "2",
                                    "--step", step])) == points + 1
        # the whole grid in one batched pass, whatever its size
        assert [np.size(lam) for lam, _ in passes[before:]] == [points]


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


@pytest.mark.parametrize("argv", [
    ["curve", *FIG, "--step", "1e-12"],  # 2e12 points on the default [0, 2]
    ["curve", "--p", "3,1", "--q=-1,2", "--scan", "nu", "--nu-min", "1e-6",
     "--nu-max", "1", "--step", "1e-12"],
    ["det", *FIG, "--lambda-min", "0", "--lambda-max", "2", "--step", "1e-12"],
])
def test_huge_finite_grid_refused_before_it_is_built(capsys, monkeypatch, argv):
    grids = count_calls(monkeypatch, instab.cli, "value_grid")
    dets = count_calls(monkeypatch, instab.cli, "det_I_plus_K")
    det_grids = count_calls(monkeypatch, instab.cli, "det_grid")
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("usage error: ")
    assert grids == dets == det_grids == []


def test_grid_point_limit():
    assert len(instab.cli._grid(0.0, 99_999.0, 1.0, "lambda")) == 100_000
    with pytest.raises(ValueError, match="at most 100000"):
        instab.cli._grid(0.0, 100_000.0, 1.0, "lambda")


@pytest.mark.parametrize("radius, code", [("156", 0), ("156.9", 0), ("157", 2)])
def test_classify_radius_limit(capsys, monkeypatch, radius, code):
    # (2*156 + 3)^2 = 99,225 scanned points pass, (2*157 + 3)^2 = 100,489 do not
    scans = []
    monkeypatch.setattr(instab.cli, "enumerate_classes",
                        lambda p, r: scans.append(r) or [])
    assert run(["classify", "--p", "3,1", "--radius", radius]) == code
    capsys.readouterr()
    assert scans == ([float(radius)] if code == 0 else [])


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
        a0 = float(CoefficientStream(at).coeff(0, 0.0))
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


def test_verify_refuses_window_above_dense_cap_before_root_search(capsys, monkeypatch):
    seen = count_calls(monkeypatch, instab.cli, "find_root")
    assert run(["verify", *FIG, "--window", "513"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "above dense cap 512" in captured.err
    assert seen == []


@pytest.mark.parametrize("model, alpha", [(m, a) for m, a, _ in MODELS],
                         ids=[m.value for m, _, _ in MODELS])
def test_verify_root_runs_to_a_quarter_of_agree_tol(capsys, monkeypatch, model, alpha):
    argv = ["verify", "--model", model.value, *(["--alpha", str(alpha)] if alpha else []),
            "--p", "3,1", "--q=0,-2", "--nu", "0.04", "--window", "64"]
    # a root run only to 1e-10 sits 1.4e-11 to 3.0e-11 off both legs here
    code = run([*argv, "--agree-tol", "1e-12"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert out.endswith("VERIFY: PASS\n")
    # so the root search refuses a nonpositive bound, before the dense solve
    solves = count_calls(monkeypatch, instab.cli, "max_real_eig")
    assert run([*argv, "--agree-tol", "0"]) == 2
    assert capsys.readouterr().err == "usage error: tol must be positive\n"
    assert solves == []


@pytest.mark.parametrize("argv, err", [
    (["eigvec", *FIG, "--window", "2"], "window N must be at least 3"),
    (["verify", *FIG, "--window", "0"], "window N must be at least 1"),
])
def test_small_windows_refused_before_the_root_search(capsys, monkeypatch, argv, err):
    seen = count_calls(monkeypatch, instab.cli, "find_root")
    assert run(argv) == 2
    assert capsys.readouterr() == ("", f"usage error: {err}\n")
    assert seen == []


def test_verify_stable_instance_exits_before_the_dense_solve(capsys, monkeypatch):
    solves = count_calls(monkeypatch, instab.cli, "max_real_eig")
    assert run(["verify", "--p", "3,1", "--q=-1,2", "--nu", "10", "--window", "64"]) == 3
    assert "NoSignChange" in capsys.readouterr().err
    assert solves == []


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
    passes = count_calls(monkeypatch, instab.dispersion, "_grid_info")
    target = tmp_path / "missing" / "out"
    assert run([*argv, "--output", str(target)]) == 2
    assert capsys.readouterr().err.startswith("usage error: cannot write --output")
    assert passes == []
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


def emitted(fmt, header, columns):
    # _emit's body for a table, as curve and det hand theirs over
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        instab.cli._emit(argparse.Namespace(format=fmt, output=None),
                         {"columns": header, "rows": [list(r) for r in zip(*columns)]},
                         header, columns)
    return out.getvalue()


def per_cell_csv(header, rows):
    # the writer the column template replaced: one conversion per cell
    def cell(x):
        if isinstance(x, str):
            return x
        return str(x) if type(x) is int else format(float(x), ".17g")
    return "".join(",".join(map(cell, row)) + "\n" for row in [header, *rows])


EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, math.inf, -math.inf,
               math.nan]
FLOATS = st.floats() | st.sampled_from(EDGE_FLOATS)
INTS = st.integers() | st.sampled_from([0, -1, 2 ** 53 + 1, -(2 ** 63) - 1, 10 ** 30])
COLUMN_CELLS = [FLOATS, FLOATS.map(np.float64), INTS, st.text(), FLOATS | INTS | st.text()]


@st.composite
def tables(draw):
    rows = draw(st.integers(0, 6))
    kinds = draw(st.lists(st.sampled_from(COLUMN_CELLS), min_size=1, max_size=5))
    columns = [draw(st.lists(cells, min_size=rows, max_size=rows)) for cells in kinds]
    return [f"c{i}" for i in range(len(columns))], columns


EDGES = [[-0.0, 5e-324, 1.7976931348623157e308],
         [np.float64(x) for x in (-0.0, 5e-324, 1.7976931348623157e308)],
         [-7, 0, 2 ** 53 + 1], ["I0", "", "100%s"]]


@settings(max_examples=200, deadline=None)
@given(table=tables())
@example(table=(["a", "b", "c", "d"], EDGES))
@example(table=(["a", "b", "c", "d"], [[], [], [], []]))
def test_csv_writer_equals_the_per_cell_reference(table):
    # floats and np.float64 at 17 digits, ints in decimal at any size, strings
    # as they are, zero rows; the JSON of the same rows is json.dumps' own
    header, columns = table
    rows = [list(r) for r in zip(*columns)]
    assert emitted("csv", header, columns) == per_cell_csv(header, rows)
    if not any(isinstance(x, float) and not math.isfinite(x) for row in rows for x in row):
        assert emitted("json", header, columns) == json.dumps(
            {"schema": 1, "columns": header, "rows": rows}, indent=2) + "\n"


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


WORKFLOW = (Path(__file__).resolve().parents[1] / ".github/workflows/tests.yml").read_text(
    encoding="utf-8")

# every `instab` command of the CI workflow, cut at its redirections and
# pipes and without a `timeout N` prefix; the workflow only runs on a CI
# runner, so this is the local check that its commands use real flags
WORKFLOW_COMMANDS = [shlex.split(cmd) for cmd in re.findall(
    r"^\s*(?:timeout \d+ )?instab (.*?)(?:\s+(?:\d?>|\|).*)?$", WORKFLOW, re.MULTILINE)]

# the workflow's inline `python -c "..."` checks, none of which holds a double quote
WORKFLOW_SNIPPETS = re.findall(r'python -c "([^"]*)"', WORKFLOW)


def test_workflow_commands_are_found():
    assert len(WORKFLOW_COMMANDS) > 20


@pytest.mark.parametrize("argv", [argv for argv in WORKFLOW_COMMANDS if "--help" not in argv],
                         ids=lambda argv: argv[0])
def test_workflow_command_parses(argv):
    assert callable(build_parser().parse_args(argv).func)


def test_workflow_python_snippets_compile():
    assert len(WORKFLOW_SNIPPETS) >= 4
    for snippet in WORKFLOW_SNIPPETS:
        compile(snippet, "<workflow>", "exec")


def test_module_entry_point_help_exits_zero():
    # main() as the console script runs it, in a fresh interpreter
    src = os.path.dirname(os.path.dirname(instab.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "instab.cli", "--help"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: instab ")


def test_commands_back_to_back_match_fresh_interpreters(capsys):
    # run() parses with one parser per process; a usage error between two
    # commands must leave nothing behind for the next one
    src = os.path.dirname(os.path.dirname(instab.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    commands = [
        ["root", *FIG, "--format", "csv"],
        ["curve", *FIG, "--lambda-max", "0.2", "--step", "0.1"],
        ["curve", *FIG, "--step", "0"],
        ["classify", "--p", "3,1", "--radius", "2"],
        ["root", *FIG, "--depth"],
        ["root", *FIG],
    ]
    fresh = [subprocess.Popen([sys.executable, "-m", "instab.cli", *argv], text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
             for argv in commands]
    for argv, proc in zip(commands, fresh):
        out, err = proc.communicate(timeout=60)
        assert run(argv) == proc.returncode
        assert capsys.readouterr() == (out, err)


def test_missing_subcommand_is_usage_error(capsys):
    assert run([]) == 2
    capsys.readouterr()


def test_bad_pair_is_usage_error(capsys):
    assert run(["classify", "--p", "3;1", "--q", "1,1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv, err", [
    (["root", *FIG, "--depth-cap", "1"], "--depth-cap must be at least 2"),
    (["curve", *FIG, "--step", "0"], "--step must be positive"),
    (["classify", "--p", "3,1", "--radius", "0"], "--radius must be positive"),
    (["det", *FIG, "--root-bracket", "0.2"], "--root-bracket expects lo,hi"),
    (["root", "--p", "3,x", "--q=-1,2", "--nu", "0.06"], "expected integers in '3,x'"),
    (["curve", "--p", "3,1", "--q=-1,2", "--scan", "nu", "--nu-min", "0",
      "--nu-max", "0.1", "--step", "0.05"], "the nu grid must be strictly positive"),
    (["curve", "--p", "3,1", "--q=-1,2", "--scan", "nu"],
     "nu grid needs --nu-min, --nu-max and --step"),
    (["classify", "--p", "3,1", "--radius", "1e6"],
     "--radius 1e+06 scans more than 100000 lattice points"),
    (["verify", *FIG, "--tol", "1e-12"], "unrecognized arguments: --tol 1e-12"),
])
def test_usage_error_messages(capsys, argv, err):
    assert run(argv) == 2
    assert capsys.readouterr().err == f"usage error: {err}\n"


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
    ["root", "--p", "3,1", "--q=-1,2", "--nu", "abc"],
    ["curve", *FIG, "--step", "nan"],
    ["simulate", *FIG, "--t-final", "nan"],
])
def test_non_finite_flag_is_usage_error(capsys, argv):
    assert run(argv) == 2
    assert "finite" in capsys.readouterr().err
