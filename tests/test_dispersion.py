"""Dispersion roots and the viscosity threshold."""

import dataclasses
import math

import pytest

import instab.dispersion
from instab import (
    DegenerateFraction,
    DispersionSpec,
    ModelKind,
    NoConvergence,
    ThresholdNotFound,
    default_lambda_cap,
    find_root,
    nu0_estimate,
    recurrence_coeff,
    value,
    value_grid,
)
from instab.dispersion import _bisect, _first_crossing
from conftest import LAM_STAR, NU_STAR, count_calls, make_params


def spec_of(params):
    return DispersionSpec(params)


# ---------------------------------------------------------------------------
# DispersionSpec construction
# ---------------------------------------------------------------------------

def test_spec_rejects_unsupported_classes():
    with pytest.raises(ValueError, match="I0/I\\+/I-"):
        spec_of(make_params(q=(-1, 1)))       # two interior points
    with pytest.raises(ValueError):
        spec_of(make_params(q=(-2, 3)))       # no interior point
    with pytest.raises(ValueError):
        spec_of(make_params(q=(6, 2), gamma=1.0))  # decoupled orbit


def test_tail_sets_by_class(fig_params, plus_params, minus_params):
    assert len(spec_of(fig_params).tails) == 2
    assert len(spec_of(plus_params).tails) == 1
    assert len(spec_of(minus_params).tails) == 1


# ---------------------------------------------------------------------------
# the dispersion value
# ---------------------------------------------------------------------------

def test_value_at_zero_is_positive(fig_params):
    got = value(0.0, spec_of(fig_params), tol=1e-12)
    assert got == pytest.approx(0.3375770790681385, abs=1e-11)


def test_value_negative_at_cap(fig_params):
    spec = spec_of(fig_params)
    assert value(default_lambda_cap(fig_params), spec) < 0.0


def test_value_rejects_negative_lambda(fig_params):
    with pytest.raises(ValueError):
        value(-0.1, spec_of(fig_params))


def test_fixed_depth_mode_is_close_but_distinct(fig_params):
    spec = spec_of(fig_params)
    shallow = value(0.1, spec, depth=10)
    adaptive = value(0.1, spec, tol=1e-12)
    assert shallow == pytest.approx(adaptive, abs=1e-4)
    assert shallow != adaptive


# ---------------------------------------------------------------------------
# the batched grid evaluator: every row equals value() bit for bit
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model,alpha", [(ModelKind.NAVIER_STOKES, None),
                                         (ModelKind.SECOND_GRADE, 0.5),
                                         (ModelKind.NS_ALPHA, 1.0),
                                         (ModelKind.NS_VOIGT, 0.5)])
@pytest.mark.parametrize("q", [(-1, 2), (0, -2), (0, 2)])
def test_value_grid_equals_value(model, alpha, q):
    pr = make_params(model=model, alpha=alpha, q=q, nu=0.04)
    spec = spec_of(pr)
    lams = [0.1 * i for i in range(21)]
    got, a0 = value_grid(spec, lams)
    assert got.tolist() == [value(x, spec) for x in lams]
    assert a0.tolist() == [recurrence_coeff(0, x, pr) for x in lams]
    got, _ = value_grid(spec, lams, depth=7)
    assert got.tolist() == [value(x, spec, depth=7) for x in lams]
    nus = [0.01 + 0.03 * i for i in range(10)]
    got, a0 = value_grid(spec, 0.0, nus, tol=1e-12)
    at = [dataclasses.replace(pr, nu=nu) for nu in nus]
    assert got.tolist() == [value(0.0, spec_of(x), tol=1e-12) for x in at]
    assert a0.tolist() == [recurrence_coeff(0, 0.0, x) for x in at]
    if model is ModelKind.SECOND_GRADE:
        # value-region and fixed-point rows: the even/odd bracket alone reaches
        # the depth cap here, and so did the value-region one below 1e-5
        nus = [1e-6, 1e-5, 2e-5, 4e-5]
        got, _ = value_grid(spec, 0.0, nus)
        at = [dataclasses.replace(pr, nu=nu) for nu in nus]
        assert got.tolist() == [value(0.0, spec_of(x)) for x in at]


@pytest.mark.parametrize("params,lo", [
    (make_params(nu=0.0), 0.008),  # row depths run from 17 to 4097
    (make_params(model=ModelKind.SECOND_GRADE, alpha=0.5, nu=0.04), 0.0),  # up to 129
])
def test_value_grid_equals_value_on_deep_rows(params, lo):
    spec = spec_of(params)
    lams = [lo + 0.008 * i for i in range(251) if lo + 0.008 * i <= 2.0]
    assert value_grid(spec, lams)[0].tolist() == [value(x, spec) for x in lams]


def test_value_grid_rejects_what_value_rejects(fig_params):
    spec = spec_of(fig_params)
    with pytest.raises(ValueError, match="lambda must be nonnegative"):
        value_grid(spec, [0.1, -0.1])
    with pytest.raises(ValueError, match="viscosity must be nonnegative"):
        value_grid(spec, 0.0, [0.1, -0.1])
    with pytest.raises(ValueError, match="tol must be positive"):
        value_grid(spec, [0.1], tol=0.0)
    with pytest.raises(ValueError, match="at least one coefficient"):
        value_grid(spec, [0.1], depth=0)
    with pytest.raises(NoConvergence) as grid_err:
        value_grid(spec, [0.2, 0.1], max_depth=4)
    with pytest.raises(NoConvergence) as scalar_err:
        value(0.2, spec, max_depth=4)
    assert str(grid_err.value) == str(scalar_err.value)
    assert grid_err.value.depth == scalar_err.value.depth == 4


@pytest.mark.parametrize("depth", [None, 8])
def test_value_grid_degenerates_as_value_at_zero(depth):
    # lambda = nu = 0 makes every coefficient a_n zero, so the innermost
    # denominator of the truncation vanishes in both evaluators
    spec = spec_of(make_params(nu=0.0))
    with pytest.raises(DegenerateFraction) as grid_err:
        value_grid(spec, [0.0, 0.5], depth=depth)
    with pytest.raises(DegenerateFraction) as scalar_err:
        value(0.0, spec, depth=depth)
    assert str(grid_err.value) == str(scalar_err.value)


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------

def test_reference_root(fig_params):
    res = find_root(spec_of(fig_params), tol=1e-12)
    assert res.found
    assert res.lam == pytest.approx(LAM_STAR, abs=5e-12)
    assert res.bracket[0] <= res.lam <= res.bracket[1]
    assert res.bracket[1] - res.bracket[0] <= 1e-12
    assert abs(res.dispersion_residual) <= 1e-11
    assert res.cf_depth >= 2
    assert res.diagnostic is None


def test_root_bracket_straddles_sign_change(fig_params):
    spec = spec_of(fig_params)
    res = find_root(spec, tol=1e-10)
    lo, hi = res.bracket
    assert value(lo, spec, tol=1e-13) > 0.0 > value(hi, spec, tol=1e-13)


def test_depth10_root_brackets_true_root(fig_params):
    # fixed even/odd depths under/overshoot, so their roots bracket lambda*
    lo = find_root(spec_of(fig_params), tol=1e-10, depth=10).lam
    hi = find_root(spec_of(fig_params), tol=1e-10, depth=11).lam
    assert lo <= LAM_STAR + 1e-10
    assert LAM_STAR - 1e-10 <= hi
    assert lo == pytest.approx(LAM_STAR, abs=1e-3)


def test_mirror_roots_coincide(plus_params, minus_params):
    plus = find_root(spec_of(plus_params), tol=1e-12)
    minus = find_root(spec_of(minus_params), tol=1e-12)
    assert plus.found and minus.found
    assert plus.lam == pytest.approx(minus.lam, abs=5e-12)


def test_no_root_above_threshold(fig_params):
    pr = make_params(nu=10.0)
    res = find_root(spec_of(pr), tol=1e-10)
    assert not res.found
    assert res.lam == 0.0
    assert "NoSignChange" in res.diagnostic
    assert "Not a stability claim" in res.diagnostic
    # the scan really saw a one-signed dispersion: spot-check the curve
    spec = spec_of(pr)
    for lam in (1e-6, 0.01, 1.0, 100.0):
        assert value(lam, spec) < 0.0


def test_root_requires_positive_nu():
    pr = make_params(nu=0.0)
    with pytest.raises(ValueError):
        find_root(spec_of(pr))


@pytest.mark.parametrize("cap", [0.0, -1.0])
def test_root_rejects_nonpositive_lambda_cap(fig_params, cap):
    with pytest.raises(ValueError, match="lambda_cap"):
        find_root(spec_of(fig_params), lambda_cap=cap)


def test_root_between_last_doubling_point_and_cap(fig_params):
    # the doubling scan from tol=1e-10 steps from 0.2147 to 0.4295, past the
    # cap 0.3; the cap itself is the point that brackets the root
    assert 1e-10 * 2 ** 31 < LAM_STAR < 0.3 < 1e-10 * 2 ** 32
    res = find_root(spec_of(fig_params), tol=1e-10, lambda_cap=0.3)
    assert res.found
    assert res.lam == pytest.approx(LAM_STAR, abs=1e-10)


def test_root_scan_never_passes_the_cap(fig_params, monkeypatch):
    seen = count_calls(monkeypatch, instab.dispersion, "_value_info")
    res = find_root(spec_of(fig_params), tol=1e-10, lambda_cap=0.1)
    assert not res.found
    assert max(seen) == 0.1


def test_reference_root_evaluation_budget(fig_params, monkeypatch):
    seen = count_calls(monkeypatch, instab.dispersion, "_value_info")
    assert find_root(spec_of(fig_params), tol=1e-12).found
    assert len(seen) <= 79


def test_root_search_ends_below_float_spacing(fig_params, monkeypatch):
    # tol 1e-20 is below the spacing of doubles near the root (about 2.8e-17)
    spec = spec_of(fig_params)
    count_calls(monkeypatch, instab.dispersion, "_value_info", limit=130)
    res = find_root(spec, tol=1e-20)
    monkeypatch.undo()
    assert res.found
    lo, hi = res.bracket
    assert math.nextafter(lo, hi) == hi
    assert value(lo, spec, tol=1e-20) > 0.0 >= value(hi, spec, tol=1e-20)


def test_bisect_stops_at_adjacent_doubles():
    calls = []

    def f(x):
        calls.append(x)
        assert len(calls) <= 60, "bisection did not stop"
        return 0.3 - x

    lo, hi = _bisect(f, 0.0, 1.0, 1e-30)
    assert math.nextafter(lo, hi) == hi
    assert f(lo) > 0.0 >= f(hi)


def test_first_crossing_skips_indeterminate_points():
    skip = {0.5, 4.0}

    def f(x):
        return None if x in skip else 3.0 - x

    assert _first_crossing(f, 0.25, 100.0) == (2.0, 8.0)
    assert _first_crossing(f, 0.25, 2.5) == (2.5, None)
    assert _first_crossing(f, 0.25, 4.0) == (2.0, None)


def test_search_caps_reject_nan(fig_params):
    with pytest.raises(ValueError, match="lambda_cap"):
        find_root(spec_of(fig_params), lambda_cap=float("nan"))
    with pytest.raises(ValueError, match="nu_cap"):
        nu0_estimate(fig_params, nu_cap=float("nan"))


def test_root_depth_cap_propagates(fig_params):
    pr = make_params(model=ModelKind.SECOND_GRADE, alpha=0.5, nu=1e-4)
    with pytest.raises(NoConvergence):
        value(0.0, spec_of(pr), tol=1e-10, max_depth=50)


# ---------------------------------------------------------------------------
# viscosity threshold
# ---------------------------------------------------------------------------

def test_reference_threshold(fig_params):
    nu0 = nu0_estimate(fig_params, tol=1e-8)
    assert nu0 == pytest.approx(NU_STAR, abs=1e-7)
    assert nu0 > fig_params.nu  # 0.06 sits inside the unstable band


def test_threshold_evaluation_budget(fig_params, monkeypatch):
    seen = count_calls(monkeypatch, instab.dispersion, "value")
    nu0_estimate(fig_params, tol=1e-8)
    assert len(seen) <= 48


def test_threshold_is_a_sign_change(fig_params):
    nu0 = nu0_estimate(fig_params, tol=1e-8)
    below = dataclasses.replace(fig_params, nu=nu0 - 1e-4)
    above = dataclasses.replace(fig_params, nu=nu0 + 1e-4)
    assert value(0.0, spec_of(below), tol=1e-12) > 0.0
    assert value(0.0, spec_of(above), tol=1e-12) < 0.0


def test_threshold_brackets_root_existence(fig_params):
    nu0 = nu0_estimate(fig_params, tol=1e-8)
    unstable = dataclasses.replace(fig_params, nu=0.9 * nu0)
    stable = dataclasses.replace(fig_params, nu=1.1 * nu0)
    assert find_root(spec_of(unstable), tol=1e-10).found
    assert not find_root(spec_of(stable), tol=1e-10).found


def test_threshold_mirror_orbits_agree(plus_params, minus_params):
    plus = nu0_estimate(plus_params, tol=1e-9)
    minus = nu0_estimate(minus_params, tol=1e-9)
    assert plus == pytest.approx(minus, abs=1e-8)


def test_threshold_across_models():
    # frozen from the scan+bisection certification runs (tol 1e-8)
    cases = [
        (make_params(model=ModelKind.SECOND_GRADE, alpha=0.5, nu=0.04),
         0.50824616),
        (make_params(model=ModelKind.NS_ALPHA, alpha=1.0, nu=0.05),
         0.18871249),
    ]
    for pr, expect in cases:
        assert nu0_estimate(pr, tol=1e-8) == pytest.approx(expect, abs=1e-6)


def test_voigt_threshold_equals_plain_threshold(fig_params):
    # the lambda=0 recurrence coefficients coincide, so thresholds do too
    voigt = make_params(model=ModelKind.NS_VOIGT, alpha=0.5)
    assert nu0_estimate(voigt, tol=1e-9) == pytest.approx(
        nu0_estimate(fig_params, tol=1e-9), abs=1e-8)


def test_threshold_not_found_below_cap(fig_params):
    with pytest.raises(ThresholdNotFound) as exc:
        nu0_estimate(fig_params, nu_cap=0.01)
    assert "0.01" in str(exc.value)


@pytest.mark.parametrize("cap", [0.0, -5.0])
def test_threshold_rejects_nonpositive_nu_cap(fig_params, cap):
    with pytest.raises(ValueError, match="nu_cap"):
        nu0_estimate(fig_params, nu_cap=cap)


def test_threshold_skips_indeterminate_scan_points(fig_params, monkeypatch):
    # at max_depth=16 the tails of the smallest scan viscosities do not
    # converge; those points are skipped and the threshold is unchanged
    inner, skipped = instab.dispersion.value, []

    def recording(lam, spec, **kwargs):
        try:
            return inner(lam, spec, **kwargs)
        except NoConvergence:
            skipped.append(spec.params.nu)
            raise

    monkeypatch.setattr(instab.dispersion, "value", recording)
    nu0 = nu0_estimate(fig_params, tol=1e-8, max_depth=16)
    assert len(skipped) == 18
    assert skipped[0] == 1e-8
    monkeypatch.undo()
    assert nu0 == nu0_estimate(fig_params, tol=1e-8)


def test_threshold_not_found_when_nonpositive_at_seed(fig_params):
    # the scan starts at nu = tol = 0.5, above the threshold 0.0896...
    with pytest.raises(ThresholdNotFound, match="already nonpositive") as exc:
        nu0_estimate(fig_params, tol=0.5)
    assert exc.value.cap == 100.0


def test_threshold_rejects_bad_tol(fig_params):
    with pytest.raises(ValueError):
        nu0_estimate(fig_params, tol=0.0)
