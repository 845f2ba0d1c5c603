"""Dispersion roots and the viscosity threshold."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import instab.dispersion
from instab import (
    CoefficientStream,
    DispersionSpec,
    ModelKind,
    NoConvergence,
    ThresholdNotFound,
    certify,
    default_lambda_cap,
    det_root,
    find_root,
    nu0_estimate,
    value,
    value_grid,
)
from instab.dispersion import _refine
from conftest import LAM_STAR, NU_STAR, count_calls, make_params, one_point, record_passes
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
    assert a0.tolist() == [float(CoefficientStream(pr).coeff(0, x)) for x in lams]
    got, _ = value_grid(spec, lams, depth=7)
    assert got.tolist() == [value(x, spec, depth=7) for x in lams]
    nus = [0.01 + 0.03 * i for i in range(10)]
    got, a0 = value_grid(spec, 0.0, nus, tol=1e-12)
    at = [dataclasses.replace(pr, nu=nu) for nu in nus]
    assert got.tolist() == [value(0.0, spec_of(x), tol=1e-12) for x in at]
    assert a0.tolist() == [float(CoefficientStream(x).coeff(0, 0.0)) for x in at]
    if model is ModelKind.SECOND_GRADE:
        # value-region and fixed-point rows: the even/odd bracket alone reaches
        # the depth cap here, and so did the value-region one below 1e-5
        nus = [1e-6, 1e-5, 2e-5, 4e-5]
        got, _ = value_grid(spec, 0.0, nus)
        at = [dataclasses.replace(pr, nu=nu) for nu in nus]
        assert got.tolist() == [value(0.0, spec_of(x)) for x in at]


@pytest.mark.parametrize("params,lo", [
    (make_params(nu=0.0), 0.008),  # row depths run from 17 to 513 (4097 by even/odd alone)
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
    with pytest.raises(ValueError, match="nu must be nonnegative"):
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


ZERO_ROW = "every recurrence coefficient vanishes"


def spy_tails(monkeypatch):
    """Spy on the adaptive and the fixed-depth tail evaluators of the dispersion pass."""
    return [count_calls(monkeypatch, instab.dispersion, name)
            for name in ("_adaptive_rows", "_trunc_rows")]


@pytest.mark.parametrize("depth", [None, 8])
def test_value_grid_degenerates_as_value_at_zero(monkeypatch, depth):
    # lambda = nu = 0 makes every coefficient a_n zero: the pass refuses such
    # a row, a scalar or one row of a lambda or nu grid, before any tail
    spec = spec_of(make_params(nu=0.0))
    tails = spy_tails(monkeypatch)
    with pytest.raises(ValueError, match=ZERO_ROW) as grid_err:
        value_grid(spec, [0.5, 0.0, 1.0], depth=depth)
    with pytest.raises(ValueError, match=ZERO_ROW) as scalar_err:
        value(0.0, spec, depth=depth)
    with pytest.raises(ValueError, match=ZERO_ROW) as nu_err:
        value_grid(spec, 0.0, [0.1, 0.0], depth=depth)
    assert str(grid_err.value) == str(scalar_err.value) == str(nu_err.value)
    assert tails == [[], []]


@pytest.mark.parametrize("depth", [None, 8])
def test_zero_lambda_and_zero_nu_in_different_rows_run(depth):
    # the rule is per row: lambda = 0 at nu > 0 and nu = 0 at lambda > 0 run
    spec = spec_of(make_params(nu=0.0))
    got, _ = value_grid(spec, [0.0, 0.5], [0.06, 0.0], depth=depth)
    assert got.tolist() == [value(0.0, spec_of(make_params(nu=0.06)), depth=depth),
                            value(0.5, spec, depth=depth)]


@pytest.mark.parametrize("depth", [None, 8])
def test_nu_zero_root_search_is_refused_by_the_pass(monkeypatch, depth):
    # the scan's lambda = 0 row meets the pass's rule; certify searches first
    params = make_params(nu=0.0)
    tails = spy_tails(monkeypatch)
    with pytest.raises(ValueError, match=ZERO_ROW):
        find_root(spec_of(params), depth=depth)
    with pytest.raises(ValueError, match=ZERO_ROW):
        certify(params, 16, 1e-8)
    assert tails == [[], []]


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
    assert type(res.cf_depth) is int
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
    passes = record_passes(monkeypatch)
    res = find_root(spec_of(fig_params), tol=1e-10, lambda_cap=0.1)
    assert not res.found
    # the scan up to the cap only: with no root found, no one-point pass follows
    assert [max(lam) for lam, _ in passes] == [0.1]


def test_reference_root_evaluation_budget(fig_params, monkeypatch):
    passes = record_passes(monkeypatch)
    assert find_root(spec_of(fig_params), tol=1e-12).found
    points = one_point(passes)
    assert len(points) <= 10  # refinement and residual only: lambda = 0 is a scan row
    assert len(passes) - len(points) == 1


def test_root_search_ends_below_float_spacing(fig_params, monkeypatch):
    # tol 1e-20 is below the spacing of doubles near the root (about 2.8e-17)
    spec = spec_of(fig_params)
    # the scan and at most 130 one-point passes
    count_calls(monkeypatch, instab.dispersion, "_grid_info", limit=131)
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


def scalar_nu_scan(params, tol, cap=100.0):
    """nu0_estimate's doubling scan one value() call per nu: (lo, hi, h(lo), h(hi))."""
    def h(nu):
        return value(0.0, spec_of(dataclasses.replace(params, nu=nu)), tol=min(tol, 1e-9))

    lo, f_lo, nu = None, None, tol
    while True:
        nu = min(nu, cap)
        f_nu = h(nu)
        if f_nu <= 0.0:
            return lo, nu, f_lo, f_nu
        lo, f_lo, nu = nu, f_nu, 2.0 * nu


@pytest.mark.parametrize("case", TRIANGLE, ids=triangle_id)
def test_batched_nu_scan_brackets_as_a_scalar_scan(case, monkeypatch):
    params = triangle_spec(case).params
    seen = record_refinements(monkeypatch)
    nu0_estimate(params, tol=1e-8)
    assert seen == [scalar_nu_scan(params, 1e-8)]


# find_root (tol 1e-12) lambda, nu0_estimate (tol 1e-8), and det_root (N=128
# on (0.9, 1.1)*lambda, tol 1e-10) as the doubling scan plus bisection found
# them on the TRIANGLE instances, in order, with cf_depth as the sign-only
# scan gives it
BISECTION = [
    (0.22315363431475005, 9, 0.08964539500000002, 0.22315363435631566),
    (0.30410407774625003, 9, 0.09424095500000002, 0.30410407771792813),
    (0.30410407774625003, 9, 0.09424095500000002, 0.30410407771792813),
    (1.2036914999925, 17, 0.5082461649999999, 1.2036915000205255),
    (1.2188637052665001, 17, 0.5392509475, 1.2188637052381213),
    (1.2188637052665001, 17, 0.5392509475, 1.2188637052381213),
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


def test_cf_depth_counts_the_crossing_pair_and_refinement_points():
    # second grade at small nu: at tol, lambda = 0 needs depth 17 and the rows
    # below the crossing 513; in the scan they stop at depth 3 once their sign
    # is decided, and the crossing pair (17 and 9) sets cf_depth
    spec = spec_of(make_params(model=ModelKind.SECOND_GRADE, alpha=1.0, nu=1e-5))
    assert instab.dispersion._grid_info(spec, 0.0, None, 1e-6, None, 100_000)[2][0] == 17
    grid = [0.0, *instab.dispersion._doubling(1e-6, default_lambda_cap(spec.params))]
    depths = instab.dispersion._grid_info(spec, grid, None, 1e-6, None, 100_000,
                                          scan=True)[2]
    assert depths.tolist() == [3] * 21 + [17, 9] + [3] * 6
    assert find_root(spec, tol=1e-6).cf_depth == 17


def scan_depths(spec, tol):
    """find_root's scan grid, each point's depth in the sign-only scan, and
    the first crossing."""
    grid = [0.0, *instab.dispersion._doubling(tol, default_lambda_cap(spec.params))]
    values, _, depths, _ = instab.dispersion._grid_info(spec, grid, None, tol, None,
                                                        100_000, scan=True)
    return grid, depths.tolist(), next(i for i, v in enumerate(values) if v <= 0.0)


def test_sign_only_scan_rows_stop_at_depth_three(fig_params):
    # nu -> 0: run to tol, the rows below the crossing would need depth 4097;
    # only the crossing pair runs to tol, with the depths value() reaches there
    spec = spec_of(dataclasses.replace(fig_params, nu=1e-9))
    grid, depths, i = scan_depths(spec, 1e-12)
    assert (len(grid), i) == (49, 41)
    at_tol = [instab.dispersion._grid_info(spec, grid[j], None, 1e-12, None,
                                           100_000)[2][0] for j in (i - 1, i)]
    assert at_tol == [65, 33]
    assert depths == [3] * (i - 1) + at_tol + [3] * (len(grid) - i - 1)
    # above the threshold the premise fails at lambda = 0, the only row to tol
    spec = spec_of(dataclasses.replace(fig_params, nu=0.2))
    grid, depths, i = scan_depths(spec, 1e-12)
    assert i == 0
    assert depths == [9] + [3] * (len(grid) - 1)


def to_tol_scans(monkeypatch):
    """Make both scans evaluate every row to tol, as value_grid does."""
    inner = instab.dispersion._grid_info

    def to_tol(*args, scan=False, **kwargs):
        return inner(*args, **kwargs)

    monkeypatch.setattr(instab.dispersion, "_grid_info", to_tol)


@pytest.mark.parametrize("params", [
    *(triangle_spec(case).params for case in TRIANGLE),
    make_params(nu=1e-9),
    make_params(nu=1e-6),
], ids=[*map(triangle_id, TRIANGLE), "ns-nu1e-9", "ns-nu1e-6"])
def test_sign_only_scans_equal_scans_to_tol(params, monkeypatch):
    # the crossing pair runs to tol, so the refinement starts from the same
    # bracket and end values as after a scan of every row to tol
    spec = spec_of(params)
    got = find_root(spec, tol=1e-12)
    got_nu0 = nu0_estimate(params, tol=1e-8)
    to_tol_scans(monkeypatch)
    expect = find_root(spec, tol=1e-12)
    assert (got.lam, got.bracket, got.dispersion_residual) == (
        expect.lam, expect.bracket, expect.dispersion_residual)
    assert got_nu0 == nu0_estimate(params, tol=1e-8)


@pytest.mark.parametrize("alpha,nu,tol,max_depth,lam", [
    (0.5, 0.04, 1e-10, 16, 1.2036914999730364),  # lambda = 0 needs more at tol
    (1.0, 1e-5, 1e-6, 32, 1.5384121011376382),   # as do the rows below the crossing
])
def test_depth_capped_root_search_reads_only_the_crossing(alpha, nu, tol, max_depth, lam):
    # rows that would fail at the cap if run to tol stop once their sign is
    # decided; the crossing pair and the refinement converge below the cap
    spec = spec_of(make_params(model=ModelKind.SECOND_GRADE, alpha=alpha, nu=nu))
    got = find_root(spec, tol=tol, max_depth=max_depth)
    expect = find_root(spec, tol=tol)
    assert got.found
    assert got.lam == expect.lam == lam
    assert got.bracket == expect.bracket


@pytest.mark.parametrize("alpha,nu,tol,max_depth,message", [
    (0.5, 0.04, 1e-10, 12,
     "value-region bracket width 3.584e-10 above tol 2.500e-11 at depth cap 12"),
    (1.0, 1e-5, 1e-6, 14,
     "even/odd bracket width 4.440e-07 above tol 2.500e-07 at depth cap 14"),
])
def test_depth_capped_root_search_raises(alpha, nu, tol, max_depth, message, monkeypatch):
    # the crossing pair's lower end fails at the cap: the scan raises its
    # message, and no refinement starts
    spec = spec_of(make_params(model=ModelKind.SECOND_GRADE, alpha=alpha, nu=nu))
    seen = record_refinements(monkeypatch)
    with pytest.raises(NoConvergence, match=f"^{re.escape(message)}$"):
        find_root(spec, tol=tol, max_depth=max_depth)
    assert seen == []


def test_depth_capped_refinement_point_raises(monkeypatch):
    # the scan's crossing pair converges at the cap and a refinement point
    # does not: the last pass is a one-point pass inside the refinement
    spec = spec_of(make_params(model=ModelKind.SECOND_GRADE, alpha=0.5, nu=0.01))
    seen, passes = record_refinements(monkeypatch), record_passes(monkeypatch)
    with pytest.raises(NoConvergence, match="above tol 2.500e-13 at depth cap 16$"):
        find_root(spec, tol=1e-12, max_depth=16)
    assert len(seen) == 1
    assert np.size(passes[-1][0]) == 1 and np.size(passes[0][0]) > 1


def test_row_failing_above_the_crossing_is_not_read(fig_params, monkeypatch):
    # a row that fails at the depth cap above the first crossing changes
    # neither the root nor cf_depth; one at or below the crossing raises
    expect = find_root(spec_of(fig_params), tol=1e-12)
    inner, row = instab.dispersion._grid_info, None

    def failing(spec, lam, *args, **kwargs):
        values, a0, depths, failed = inner(spec, lam, *args, **kwargs)
        if np.ndim(lam) == 0:  # a one-point refinement pass
            return values, a0, depths, failed
        values[row] = math.nan
        depths[row] = 10 ** 6
        err = NoConvergence(f"row {row}", depth=16, width=1.0)
        return values, a0, depths, {**failed, row: err}

    monkeypatch.setattr(instab.dispersion, "_grid_info", failing)
    # row 0 is lambda = 0, row k >= 1 is 1e-12 * 2**(k - 1), the crossing is
    # row 39, lambda = 1e-12 * 2**38, and row 50 is the cap
    crossing = 39
    for row in (crossing + 1, 50):
        got = find_root(spec_of(fig_params), tol=1e-12)
        assert (got.lam, got.bracket, got.cf_depth) == (expect.lam, expect.bracket,
                                                        expect.cf_depth)
    for row in (0, crossing - 1):
        with pytest.raises(NoConvergence, match=f"^row {row}$"):
            find_root(spec_of(fig_params), tol=1e-12)


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
    # the nu scan is one batched pass; the refinement makes one-point passes only
    passes = record_passes(monkeypatch)
    nu0_estimate(fig_params, tol=1e-8)
    points = one_point(passes)
    assert len(passes) - len(points) == 1
    assert len(points) <= 7


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


def test_threshold_skips_indeterminate_scan_points(monkeypatch):
    # at max_depth=4 the lower end of the crossing pair, nu = 1e-4 * 2**10,
    # does not converge; it is skipped, the bracket falls back to the decided
    # point below it, and the threshold stays within tol of the uncapped one
    # (not equal to it: that point's value is a bracket midpoint)
    params = make_params(model=ModelKind.NS_ALPHA, alpha=1.0, nu=0.05)
    inner, skipped = instab.dispersion._grid_info, []

    def recording(spec, lam, nu, *args, **kwargs):
        out = inner(spec, lam, nu, *args, **kwargs)
        skipped.extend(nu[row] for row in out[3])
        return out

    monkeypatch.setattr(instab.dispersion, "_grid_info", recording)
    nu0 = nu0_estimate(params, tol=1e-4, max_depth=4)
    assert skipped == [1e-4 * 2 ** 10]
    assert nu0 == 0.18873565625629565
    monkeypatch.undo()
    assert abs(nu0 - nu0_estimate(params, tol=1e-4)) <= 1e-4


def test_threshold_not_found_when_nonpositive_at_seed(fig_params):
    # the scan starts at nu = tol = 0.5, above the threshold 0.0896...
    with pytest.raises(ThresholdNotFound, match="already nonpositive") as exc:
        nu0_estimate(fig_params, tol=0.5)
    assert exc.value.cap == 100.0


def test_threshold_rejects_bad_tol(fig_params):
    with pytest.raises(ValueError):
        nu0_estimate(fig_params, tol=0.0)
