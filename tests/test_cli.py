"""Command-line interface: output contracts, formats, exit codes."""

import csv
import io
import json
import math

import pytest

from instab.cli import run
from conftest import LAM_STAR, NU_STAR


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


def test_root_requires_positive_nu(capsys):
    assert run(["root", "--p", "3,1", "--q=-1,2", "--nu", "0"]) == 2
    capsys.readouterr()


def test_root_requires_nu(capsys):
    assert run(["root", "--p", "3,1", "--q=-1,2"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# nu0
# ---------------------------------------------------------------------------

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


def test_det_rejects_nonpositive_grid(capsys):
    code = run(["det", *FIG, "--lambda-min", "0", "--lambda-max", "0.2",
                "--step", "0.1"])
    capsys.readouterr()
    assert code == 2


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


def test_curve_euler_limit(capsys):
    rows = run_csv(capsys, ["curve", "--p", "3,1", "--q=-1,2", "--nu", "0",
                            "--scan", "lambda", "--lambda-min", "0.05",
                            "--lambda-max", "0.15", "--step", "0.05",
                            "--depth", "200"])
    assert len(rows) == 4


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


def test_json_output_file(tmp_path, capsys):
    target = tmp_path / "root.json"
    assert run(["root", *FIG, "--output", str(target)]) == 0
    capsys.readouterr()
    got = json.loads(target.read_text())
    assert got["schema"] == 1


def test_threads_env_bad_value(monkeypatch, capsys):
    monkeypatch.setenv("INSTAB_THREADS", "zero")
    code = run(["det", *FIG, "--lam", "0.2", "--window", "16"])
    capsys.readouterr()
    assert code == 2


def test_threads_env_honored(monkeypatch, capsys):
    monkeypatch.setenv("INSTAB_THREADS", "1")
    rows = run_csv(capsys, ["det", *FIG, "--lambda-min", "0.1",
                            "--lambda-max", "0.2", "--step", "0.05",
                            "--window", "16"])
    assert len(rows) == 4


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()


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
