"""Dispersion roots and the viscosity threshold."""

import dataclasses
import math

import pytest
from hypothesis import assume, given, settings, strategies as st

import instab.dispersion
from instab import (
    DegenerateFraction,
    DispersionSpec,
    ModelKind,
    NoConvergence,
    ThresholdNotFound,
    default_lambda_cap,
    det_root,
    find_root,
    nu0_estimate,
    recurrence_coeff,
    value,
    value_grid,
)
from instab.dispersion import _first_crossing, _refine
from conftest import LAM_STAR, NU_STAR, count_calls, make_params
from test_acceptance import TRIANGLE


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


def record_scans(monkeypatch):
    """Spy on the batched evaluator behind value_grid; returns the grids seen."""
    inner, grids = instab.dispersion._grid_info, []

    def recording(spec, lam, *args):
        grids.append(lam)
        return inner(spec, lam, *args)

    monkeypatch.setattr(instab.dispersion, "_grid_info", recording)
    return grids


def test_root_scan_never_passes_the_cap(fig_params, monkeypatch):
    grids = record_scans(monkeypatch)
    seen = count_calls(monkeypatch, instab.dispersion, "_value_info")
    res = find_root(spec_of(fig_params), tol=1e-10, lambda_cap=0.1)
    assert not res.found
    assert [max(grid) for grid in grids] == [0.1]
    assert max(seen) <= 0.1


def test_reference_root_evaluation_budget(fig_params, monkeypatch):
    seen = count_calls(monkeypatch, instab.dispersion, "_value_info")
    grids = record_scans(monkeypatch)
    assert find_root(spec_of(fig_params), tol=1e-12).found
    assert len(seen) <= 11
    assert len(grids) == 1


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

    lo, hi = _refine(f, 0.0, 1.0, 1e-30, 0.3, -0.7)
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
# the batched scan and the ITP refinement
# ---------------------------------------------------------------------------

def triangle_spec(case):
    model, alpha, q, nu, _ = case
    return spec_of(make_params(model=model, alpha=alpha, q=q, nu=nu))


def triangle_id(case):
    return f"{case[0].value}-q{case[2][0]},{case[2][1]}"


def scalar_scan(spec, tol, cap):
    """The doubling scan one value() call at a time: (lo, hi, f(lo), f(hi))."""
    lo, f_lo, lam = 0.0, value(0.0, spec, tol=tol), tol
    while True:
        lam = min(lam, cap)
        f_lam = value(lam, spec, tol=tol)
        if f_lam <= 0.0:
            return lo, lam, f_lo, f_lam
        lo, f_lo, lam = lam, f_lam, 2.0 * lam


def record_refinements(monkeypatch):
    """Spy on _refine; returns the (lo, hi, f(lo), f(hi)) it was handed."""
    inner, seen = instab.dispersion._refine, []

    def recording(f, lo, hi, tol, f_lo, f_hi):
        seen.append((lo, hi, f_lo, f_hi))
        return inner(f, lo, hi, tol, f_lo, f_hi)

    monkeypatch.setattr(instab.dispersion, "_refine", recording)
    return seen


@pytest.mark.parametrize("case", TRIANGLE, ids=triangle_id)
def test_batched_scan_brackets_as_a_scalar_scan(case, monkeypatch):
    # same grid pair, and the refinement gets the scan's end values as they are
    spec = triangle_spec(case)
    seen = record_refinements(monkeypatch)
    assert find_root(spec, tol=1e-12).found
    assert seen == [scalar_scan(spec, 1e-12, default_lambda_cap(spec.params))]


# find_root (tol 1e-12) lambda and cf_depth, nu0_estimate (tol 1e-8), and
# det_root (N=128 on (0.9, 1.1)*lambda, tol 1e-10) as the doubling scan plus
# bisection found them on the TRIANGLE instances, in order
BISECTION = [
    (0.22315363431475005, 9, 0.08964539500000002, 0.22315363435631566),
    (0.30410407774625003, 9, 0.09424095500000002, 0.30410407771792813),
    (0.30410407774625003, 9, 0.09424095500000002, 0.30410407771792813),
    (1.2036914999925, 129, 0.5082461649999999, 1.2036915000205255),
    (1.2188637052665001, 129, 0.5392509475, 1.2188637052381213),
    (1.2188637052665001, 129, 0.5392509475, 1.2188637052381213),
    (1.1145723818777498, 9, 0.18871248750000005, 1.114572381851799),
    (1.2535822725505001, 9, 0.20421729500000005, 1.2535822725213128),
    (1.2535822725505001, 9, 0.20421729500000005, 1.2535822725213128),
    (0.12909008747375003, 9, 0.08964539500000002, 0.12909008742566025),
    (0.13495952773049996, 9, 0.09424095500000002, 0.1349595277053618),
    (0.13495952773049996, 9, 0.09424095500000002, 0.1349595277053618),
]


@pytest.mark.parametrize("case,before", zip(TRIANGLE, BISECTION),
                         ids=[triangle_id(case) for case in TRIANGLE])
def test_searches_agree_with_bisection_within_tol(case, before):
    lam, cf_depth, nu0, det_lam = before
    spec = triangle_spec(case)
    res = find_root(spec, tol=1e-12)
    assert res.cf_depth == cf_depth
    assert abs(res.lam - lam) <= 1e-12
    assert abs(nu0_estimate(spec.params, tol=1e-8) - nu0) <= 1e-8
    got = det_root(spec.params, 128, (0.9 * res.lam, 1.1 * res.lam), tol=1e-10)
    assert abs(got - det_lam) <= 1e-10


def test_cf_depth_counts_scan_rows_deeper_than_lambda_zero():
    # second grade at small nu: lambda = 0 needs depth 17, but rows below the
    # crossing need 513, the depth the scan plus bisection reported
    spec = spec_of(make_params(model=ModelKind.SECOND_GRADE, alpha=1.0, nu=1e-5))
    assert instab.dispersion._value_info(0.0, spec, 1e-6, None, 100_000)[1] == 17
    assert find_root(spec, tol=1e-6).cf_depth == 513


@pytest.mark.parametrize("alpha,nu,tol,max_depth,message", [
    (0.5, 0.04, 1e-10, 16, "fixed-point bracket width 7.594e-07"),     # at lambda = 0
    (1.0, 1e-5, 1e-6, 32, "value-region bracket width 5.725e-06"),     # a scan row
])
def test_depth_capped_root_search_raises(alpha, nu, tol, max_depth, message):
    # the messages are those of the scalar scan: the first failing row at or
    # below the crossing, found row by row once the batched scan fails
    spec = spec_of(make_params(model=ModelKind.SECOND_GRADE, alpha=alpha, nu=nu))
    with pytest.raises(NoConvergence, match=message):
        find_root(spec, tol=tol, max_depth=max_depth)


def test_failed_batched_scan_goes_row_by_row_to_the_crossing(fig_params, monkeypatch):
    # a row that fails at the depth cap need not be at or below the crossing:
    # the rows are then evaluated one by one, up to the crossing only
    expect = find_root(spec_of(fig_params), tol=1e-12)

    def failing(*args):
        raise NoConvergence("a row above the crossing", depth=16, width=1.0)

    monkeypatch.setattr(instab.dispersion, "_grid_info", failing)
    seen = count_calls(monkeypatch, instab.dispersion, "_value_info")
    got = find_root(spec_of(fig_params), tol=1e-12)
    assert max(seen) == 1e-12 * 2 ** 38  # the first row <= 0
    assert abs(got.lam - expect.lam) <= 1e-12
    assert got.cf_depth == expect.cf_depth


@settings(max_examples=300, deadline=None)
@given(lo=st.floats(-10.0, 10.0), width=st.floats(1e-6, 100.0),
       at=st.floats(0.0, 1.0), ratio=st.floats(0.5, 2.0 ** 60),
       b=st.floats(0.0, 3.0), c=st.floats(0.0, 10.0))
def test_refine_keeps_the_sign_change_within_one_step_of_bisection(lo, width, at, ratio,
                                                                   b, c):
    # a smooth f with one sign change, at root: positive factor times (root - x)
    hi = lo + width
    root = lo + at * (hi - lo)
    assume(lo < root <= hi)
    tol = (hi - lo) / ratio
    trials = []

    def f(x):
        trials.append(x)
        return (root - x) * math.exp(b * math.sin(c * x))

    f_lo, f_hi = f(lo), f(hi)
    trials.clear()
    a, z = _refine(f, lo, hi, tol, f_lo, f_hi)
    assert all(lo < x < hi for x in trials)
    bound = max(0, math.ceil(math.log2((hi - lo) / tol))) + 1
    if tol < 256 * math.ulp(max(abs(lo), abs(hi))):
        bound += 1  # this near the float spacing, rounding to doubles costs bisection a step
    assert len(trials) <= bound
    assert lo <= a < z <= hi
    assert f(a) > 0.0 >= f(z)
    assert z - a <= tol or math.nextafter(a, z) == z


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
    assert len(seen) <= 32


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
