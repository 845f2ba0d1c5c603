"""Continued-fraction evaluation: closed-form fixtures, the even/odd
truncation bracket (verified in exact rational arithmetic), the value-region
bracket and the fixed-point enclosure of second-grade tails and, mirrored, of
inviscid tails (checked against mpmath at 30 digits), and the slope-at-zero
formulas."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from instab import (
    CoefficientStream,
    DegenerateFraction,
    Direction,
    DispersionSpec,
    ModelKind,
    NoConvergence,
    TailSpec,
    b,
    c,
    eval_adaptive,
    eval_trunc,
    even_trunc_slope_at_zero,
    value,
    value_grid,
)
from instab.contfrac import _FLOAT_WIDTH, _adaptive_rows, _levels, _trunc_rows
from instab.models import UNBOUNDED
from conftest import CLASS_I_ORBITS, MODELS, make_params, reference_adaptive


# ---------------------------------------------------------------------------
# eval_trunc fixtures
# ---------------------------------------------------------------------------

def test_depth_one():
    assert eval_trunc([2.0]) == 0.5
    assert eval_trunc([1.0]) == 1.0


def test_depth_two():
    # 1/(1 + 1/1) = 1/2
    assert eval_trunc([1.0, 1.0]) == 0.5


def test_constant_two_converges_to_sqrt2_minus_1():
    got = eval_trunc([2.0] * 40)
    assert got == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-15)


def constant_fraction(a, tol, max_depth=100_000):
    # a one-row _adaptive_rows pass over [a; a; ...] under the even/odd bracket
    return _adaptive_rows(lambda rows, lo, hi: np.full((hi - lo, 1), a), 1,
                          np.full((3, 1), np.inf), tol, max_depth)


@pytest.mark.parametrize("a", [0.16, 1.0, 7.5])
def test_constant_fraction_fixed_point(a):
    # x = 1/(a + x) has positive solution (sqrt(a^2+4) - a)/2
    expect = (math.sqrt(a * a + 4.0) - a) / 2.0
    value, lower, upper, _, failed = constant_fraction(a, tol=1e-14)
    assert not failed
    assert value[0] == pytest.approx(expect, rel=1e-13)
    assert lower[0] <= value[0] <= upper[0]


def test_empty_truncation_rejected():
    with pytest.raises(ValueError):
        eval_trunc([])


def test_degenerate_intermediate_denominator():
    # tail of [1, -1] folds to exactly zero
    with pytest.raises(DegenerateFraction):
        eval_trunc([1.0, -1.0])


# ---------------------------------------------------------------------------
# even/odd truncation bracket, certified in exact arithmetic
# ---------------------------------------------------------------------------

def exact_truncations(coeffs):
    """All truncation values [a1], [a1;a2], ... as exact Fractions.

    Uses the continuant recurrence A_k = a_k A_{k-1} + A_{k-2}: the depth-k
    value is B_k / A_k where B is the continuant of the shifted sequence.
    """
    a_prev2, a_prev = Fraction(1), Fraction(coeffs[0])  # A_0, A_1
    b_prev2, b_prev = Fraction(0), Fraction(1)          # B_0, B_1
    out = [b_prev / a_prev]
    for a in coeffs[1:]:
        fa = Fraction(a)
        a_prev2, a_prev = a_prev, fa * a_prev + a_prev2
        b_prev2, b_prev = b_prev, fa * b_prev + b_prev2
        out.append(b_prev / a_prev)
    return out


positive_streams = st.lists(
    st.floats(min_value=0.01, max_value=100.0, allow_nan=False,
              allow_infinity=False),
    min_size=4, max_size=48,
)


@settings(max_examples=100, deadline=None)
@given(positive_streams)
def test_even_odd_bracket_is_exact(coeffs):
    vals = exact_truncations(coeffs)
    evens = vals[1::2]  # depths 2, 4, ...
    odds = vals[0::2]   # depths 1, 3, ...
    assert all(x <= y for x, y in zip(evens, evens[1:]))
    assert all(x >= y for x, y in zip(odds, odds[1:]))
    assert max(evens, default=Fraction(0)) <= min(odds)


@settings(max_examples=50, deadline=None)
@given(positive_streams)
def test_float_truncations_track_exact_values(coeffs):
    exact = exact_truncations(coeffs)
    for depth in (1, 2, len(coeffs)):
        got = eval_trunc(coeffs[:depth])
        assert got == pytest.approx(float(exact[depth - 1]), rel=1e-12)


@settings(max_examples=50, deadline=None)
@given(positive_streams)
def test_positive_stream_value_bounds(coeffs):
    got = eval_trunc(coeffs)
    assert 0.0 < got <= 1.0 / coeffs[0] + 1e-12


# ---------------------------------------------------------------------------
# adaptive evaluation on dispersion tails
# ---------------------------------------------------------------------------

def test_adaptive_depth_cap_below_two_is_refused(fig_params):
    with pytest.raises(ValueError, match="max_depth must be at least 2"):
        eval_adaptive(TailSpec(Direction.FORWARD, fig_params, 0.1), 1e-10, max_depth=1)


def looped_levels(max_depth, start):
    # the depth schedule as its own loop, as _levels ran it before it came to
    # iterate _doubling, the schedule of the dispersion scans
    cap = max_depth - max_depth % 2
    m = min(max(2, start - start % 2), cap)
    while True:
        yield m
        if m >= cap:
            return
        m = min(2 * m, cap)


def test_levels_keep_the_looped_schedule():
    for max_depth in [*range(2, 600), 2 ** 17, 100_000, 100_001, 2 ** 18]:
        for start in range(700):
            got = list(_levels(1e-10, max_depth, start))
            assert got == list(looped_levels(max_depth, start)), (max_depth, start)
            assert {type(m) for m in got} == {int}


def test_adaptive_bracket_contains_deep_value(fig_params):
    tail = TailSpec(Direction.FORWARD, fig_params, 0.1)
    br = eval_adaptive(tail, tol=1e-10)
    deep = eval_trunc(tail.coeffs(10_000))
    slack = 1e-14
    assert br.lower - slack <= deep <= br.upper + slack
    assert br.upper - br.lower <= 1e-10
    assert abs(br.value - deep) <= 1e-10


def test_backward_tail_agrees_with_mirror(fig_params):
    # the backward tail of q is the forward tail of the reflected orbit -q
    mirror = make_params(q=(1, -2))
    lam = 0.15
    bwd = eval_adaptive(TailSpec(Direction.BACKWARD, fig_params, lam), 1e-12)
    fwd = eval_adaptive(TailSpec(Direction.FORWARD, mirror, lam), 1e-12)
    assert bwd.value == pytest.approx(fwd.value, rel=1e-10)


def test_tail_continuous_at_zero(fig_params):
    tail0 = eval_adaptive(TailSpec(Direction.FORWARD, fig_params, 0.0), 1e-12)
    tail_eps = eval_adaptive(TailSpec(Direction.FORWARD, fig_params, 1e-10),
                             1e-12)
    assert tail0.value == pytest.approx(tail_eps.value, abs=1e-9)


def test_no_convergence_reports_depth():
    # constant coefficients 1e-6: truncations oscillate between ~1e6 and ~1e-6
    *_, failed = constant_fraction(1e-6, tol=1e-10, max_depth=64)
    assert failed[0].depth == 64
    assert failed[0].width > 1.0


# ---------------------------------------------------------------------------
# one adaptive driver: equal to the scalar reference, in either branch
# ---------------------------------------------------------------------------

def outcome(fn):
    # the bracket, or the failure with its depth and width
    try:
        got = fn()
    except NoConvergence as exc:
        return "NoConvergence", exc.depth, exc.width
    except DegenerateFraction:
        return "DegenerateFraction"
    return (got.value, got.lower, got.upper, got.depth) if hasattr(got, "depth") else got


def one_row(tail, tol, max_depth, start):
    # eval_adaptive's one-row pass, started at ``start`` as _grid_info's warm start is
    value, lower, upper, depth, failed = _adaptive_rows(
        lambda rows, lo, hi: tail.coeffs(hi)[lo:, None], 1, np.array(tail.bound())[:, None],
        tol, max_depth, start)
    if failed:
        raise failed[0]
    return value[0], lower[0], upper[0], depth[0]


def reference_value(lam, spec, tol, max_depth):
    # value() as a0 + f + g, each tail to tol/4 from depth 2
    total = float(CoefficientStream(spec.params).coeff(0, lam))
    for direction in spec.tails:
        tail = TailSpec(direction, spec.params, lam)
        total += reference_adaptive(tail.coeffs, tol / 4.0, max_depth, 2, tail.bound())[0]
    return total


@settings(max_examples=300, deadline=None)
@given(model=st.sampled_from(MODELS), orbit=st.sampled_from(CLASS_I_ORBITS),
       lam=st.one_of(st.just(0.0), st.floats(0.0, 3.0),
                     st.floats(-9.0, 0.0).map(lambda e: 10.0 ** e)),
       nu=st.one_of(st.floats(-3.0, 0.0), st.floats(-7.0, -5.0)).map(lambda e: 10.0 ** e)
       | st.just(0.0),
       tol=st.floats(-13.0, -4.0).map(lambda e: 10.0 ** e),
       start=st.integers(1, 300), max_depth=st.sampled_from([16, 4096]))
def test_adaptive_driver_equals_the_scalar_reference(model, orbit, lam, nu, tol, start,
                                                      max_depth):
    kind, alpha, _ = model
    p, q = orbit
    spec = DispersionSpec(make_params(model=kind, alpha=alpha, nu=nu, p=p, q=q))
    for direction in spec.tails:
        tail = TailSpec(direction, spec.params, lam)
        assert outcome(lambda: one_row(tail, tol, max_depth, start)) == outcome(
            lambda: reference_adaptive(tail.coeffs, tol, max_depth, start, tail.bound()))
    if lam == nu == 0.0:  # every coefficient vanishes: the dispersion pass refuses the point
        with pytest.raises(ValueError, match="every recurrence coefficient vanishes"):
            value(lam, spec, tol, max_depth=max_depth)
        return
    assert outcome(lambda: value(lam, spec, tol, max_depth=max_depth)) == outcome(
        lambda: reference_value(lam, spec, tol, max_depth))


def test_nan_bracket_runs_to_the_depth_cap():
    # a NaN width is not within tol, so the row stays open to the cap, as the
    # reference's comparison leaves it, in a one-row pass and in a wide one
    # (the library refuses a NaN lambda or nu before any pass)
    for rows in (1, 9):
        *_, failed = _adaptive_rows(
            lambda live, lo, hi: np.where(live == rows - 1, math.nan, 2.0) + np.zeros((hi - lo, 1)),
            rows, np.full((3, rows), np.inf), 1e-10, 64)
        assert list(failed) == [rows - 1]
        with pytest.raises(NoConvergence, match="width nan .* at depth cap 64$"):
            raise failed[rows - 1]
    with pytest.raises(NoConvergence):
        reference_adaptive(lambda k: [math.nan] * k, 1e-10, 64)


@pytest.mark.parametrize("states", [1, 2])
def test_trunc_rows_branches_agree_across_the_float_width(states):
    # a pass of _FLOAT_WIDTH fractions times states runs on floats, one more
    # fraction runs on numpy; the shared fractions come out equal, and neither
    # branch writes the start states, which _adaptive_rows reads again
    rng = np.random.default_rng(5)
    n = _FLOAT_WIDTH // states
    a = rng.uniform(0.01, 10.0, (50, n + 1))
    t = rng.uniform(0.0, 2.0, (n + 1,) if states == 1 else (states, n + 1))
    before = t.tolist()
    floats, wide = _trunc_rows(a[:, :n], t[..., :n]), _trunc_rows(a, t)
    assert floats.shape == t[..., :n].shape
    assert floats.tolist() == wide[..., :n].tolist()
    assert t.tolist() == before


@pytest.mark.parametrize("width", [_FLOAT_WIDTH, _FLOAT_WIDTH + 1])
def test_trunc_rows_degenerate_in_both_branches(width):
    # [1; -1] folds to a zero denominator in every column
    a = np.array([[1.0] * width, [-1.0] * width])
    with pytest.raises(DegenerateFraction):
        _trunc_rows(a, np.zeros(width))


def test_adaptive_pass_equal_across_the_float_width():
    # 4 points (even/odd width 16, floats) and 5 points (width 20, numpy) in
    # one pass: the value-region and fixed-point rows of second grade included
    spec = DispersionSpec(make_params(model=ModelKind.SECOND_GRADE, alpha=1.0, nu=1e-5))
    lams = [0.0, 1e-4, 0.01, 0.3, 1.0]
    narrow = value_grid(spec, lams[:4], tol=1e-9)
    wide = value_grid(spec, lams, tol=1e-9)
    assert narrow[0].tolist() == wide[0][:4].tolist()
    assert narrow[0].tolist() == [value(x, spec, tol=1e-9) for x in lams[:4]]


# ---------------------------------------------------------------------------
# value-region bracket: where it applies, and that it holds
# ---------------------------------------------------------------------------

SG = ModelKind.SECOND_GRADE


@pytest.mark.parametrize("params,lam", [
    (make_params(nu=0.06), 0.1),
    (make_params(model=ModelKind.NS_ALPHA, alpha=1.0, nu=1e-4), 0.0),
    (make_params(model=ModelKind.NS_VOIGT, alpha=0.5, nu=1e-4), 0.0),
    (make_params(model=ModelKind.NS_VOIGT, alpha=0.5, nu=0.0), 0.3),  # a_n rise unbounded
    (make_params(model=SG, alpha=1.0, nu=1e-4), 0.5),  # converges before c*
])
@pytest.mark.parametrize("direction", list(Direction))
def test_bracket_is_even_odd_outside_the_bounded_region(params, lam, direction):
    tail = TailSpec(direction, params, lam)
    br = eval_adaptive(tail, tol=1e-12)
    a_max, first, fixed = tail.bound()
    assert (a_max, first, fixed) == UNBOUNDED or br.depth < first
    k = br.depth - 1
    truncs = sorted([eval_trunc(tail.coeffs(k)), eval_trunc(tail.coeffs(k + 1))])
    assert [br.lower, br.upper] == truncs


def mp_coeffs(params, direction, lam, depth):
    # a_n = (lambda + nu d_n)/rho_n from the model definition, at the
    # normalized scale, over the exact integers c_n (alpha = 0 for NS, whose
    # limit is taken only at nu = 0)
    a2 = mpmath.mpf(params.alpha or 0) ** 2
    k = params.p_norm_sq * (1 + a2 * params.p_norm_sq)

    def a(cn):
        return (lam + params.nu * cn / (1 + a2 * cn)) / (1 - k / (cn * (1 + a2 * cn)))

    cs = [c(direction.value * n, params) for n in range(1, depth + 2)]
    return [a(mpmath.mpf(cn)) for cn in cs], a, lam + (params.nu / a2 if params.nu else 0)


def mp_trunc(coeffs, t):
    for a in reversed(coeffs):
        t = 1 / (a + t)
    return t


@pytest.mark.parametrize("nu", [1e-2, 1e-3, 1e-4])
@pytest.mark.parametrize("lam", [0.0, 0.5])
@pytest.mark.parametrize("direction", list(Direction))
def test_value_region_bracket_holds_at_30_digits(nu, lam, direction):
    params = make_params(model=SG, alpha=1.0, nu=nu)
    br = eval_adaptive(TailSpec(direction, params, lam), tol=1e-6)
    if lam == 0.0:  # the even/odd bracket alone needs up to 2^18 terms here
        assert br.depth <= 513
    depth = 8192  # a reference narrower than the fixed-point bracket at nu=1e-4
    with mpmath.workdps(30):
        coeffs, a_of_c, a_inf = mp_coeffs(params, direction, mpmath.mpf(lam), depth)
        # a(c) rises from c_{depth+1} on: the numerator of a'(c) is a quadratic
        # with positive leading and nonpositive constant term, so once positive
        # at some c > 0 it stays positive; and c_n rises along the tail
        c_next = mpmath.mpf(c(direction.value * (depth + 1), params))
        assert mpmath.diff(a_of_c, c_next) > 0
        m = coeffs[depth]
        assert m < a_inf
        lower = m * (-1 + mpmath.sqrt(1 + 4 / (m * a_inf))) / 2
        ref = sorted([mp_trunc(coeffs[:depth], lower),
                      mp_trunc(coeffs[:depth], 1 / (m + lower))])
        even_odd = sorted([mp_trunc(coeffs[:depth], 0), mp_trunc(coeffs[:depth + 1], 0)])
        assert even_odd[0] <= ref[0] <= ref[1] <= even_odd[1]
        assert ref[1] - ref[0] <= 1e-7
        slack = 1e-15
        assert br.lower - slack <= ref[0] and ref[1] <= br.upper + slack
        assert abs(br.value - (ref[0] + ref[1]) / 2) <= 1e-6


# ---------------------------------------------------------------------------
# fixed-point enclosure: it holds, and it ends the small-nu tails early
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("nu", [1e-3, 1e-4])
@pytest.mark.parametrize("alpha", [0.5, 1.0])
@pytest.mark.parametrize("lam", [0.0, 0.5])
@pytest.mark.parametrize("direction", list(Direction))
def test_fixed_point_enclosure_holds_at_30_digits(nu, alpha, lam, direction):
    # r_j = [a_{j+1}; a_{j+2}; ...] lies in [w_j, w_j + |delta_j|] from j = fixed
    # on, with w_j the fixed point of t -> 1/(a_{j+1} + t) and delta_j = w_{j+1} - w_j
    params = make_params(model=SG, alpha=alpha, nu=nu)
    tail = TailSpec(direction, params, lam)
    k = int(tail.bound()[2])
    # at lam = 0 the reference width falls as 1/depth^2 and |delta| scales as nu/alpha^4
    depth = k + (256 if lam else 4096 if nu / alpha ** 4 > 1e-4 else 8192)
    with mpmath.workdps(30):
        coeffs, a_of_c, a_inf = mp_coeffs(params, direction, mpmath.mpf(lam), depth)
        # reference brackets of r_j, mapped back from the value region of r_depth,
        # whose premise a_{depth+1} <= a_n < a_inf holds as in the test above
        m = coeffs[depth]
        assert mpmath.diff(a_of_c, mpmath.mpf(c(direction.value * (depth + 1), params))) > 0
        assert m < a_inf
        lo = m * (-1 + mpmath.sqrt(1 + 4 / (m * a_inf))) / 2
        hi = 1 / (m + lo)
        ref = {}
        for j in range(depth - 1, -1, -1):
            lo, hi = 1 / (coeffs[j] + hi), 1 / (coeffs[j] + lo)
            ref[j] = lo, hi
        w = [2 / (a + mpmath.sqrt(a * a + 4)) for a in coeffs[k:k + 41]]
        checked = 0
        for j in range(k, k + 40):
            delta = w[j - k] - w[j - k + 1]
            lo, hi = ref[j]
            if hi - lo > delta / 4:
                break  # the reference no longer resolves delta
            assert w[j - k] <= lo and hi <= w[j - k] + delta
            checked += 1
        assert checked >= 4
        br = eval_adaptive(tail, tol=1e-6)
        slack = 1e-15
        assert br.lower - slack <= ref[0][0] and ref[0][1] <= br.upper + slack


def test_fixed_point_enclosure_ends_small_nu_tails_early():
    # the value-region bracket alone needed 32,769 terms here
    tail = TailSpec(Direction.FORWARD, make_params(model=SG, alpha=1.0, nu=1e-6), 0.0)
    assert tail.bound()[1:] == (6.0, 10.0)
    assert eval_adaptive(tail, tol=2.5e-10).depth <= 65
    # at the cap, the message names the enclosure of the last level
    for cap, name in [(4, "even/odd"), (8, "value-region"), (16, "fixed-point")]:
        with pytest.raises(NoConvergence, match=f"^{name} bracket width .* at depth cap {cap}$"):
            eval_adaptive(tail, tol=1e-15, max_depth=cap)


def test_fixed_point_step_is_intersected_with_the_value_region():
    # second grade at nu = 1, lambda = 0: at depth cap 8 the value region's
    # upper end U lies below w_7, so r_8 is enclosed by [w_8, U]
    tail = TailSpec(Direction.FORWARD, make_params(model=SG, alpha=0.5, nu=1.0), 0.0)
    a_max, first, fixed = tail.bound()
    assert max(first, fixed) <= 8
    a = tail.coeffs(9).tolist()
    lower = 2.0 / (a_max * (1.0 + math.sqrt(1.0 + 4.0 / (a[8] * a_max))))
    upper = 1.0 / (a[8] + lower)
    w, w_prev = (2.0 / (x + math.sqrt(x * x + 4.0)) for x in (a[8], a[7]))
    assert lower <= w <= upper < w_prev

    def trunc(t):
        for x in reversed(a[:8]):
            t = 1.0 / (x + t)
        return t

    with pytest.raises(NoConvergence) as err:
        eval_adaptive(tail, tol=1e-15, max_depth=8)
    assert err.value.width == abs(trunc(upper) - trunc(w)) < abs(trunc(w_prev) - trunc(w))


# ---------------------------------------------------------------------------
# inviscid tails: the mirrored fixed-point enclosure
# ---------------------------------------------------------------------------

INVISCID = [(ModelKind.NAVIER_STOKES, None), (SG, 0.5), (ModelKind.NS_ALPHA, 1.0)]


@pytest.mark.parametrize("model,alpha,lam", [
    *((model, alpha, lam) for model, alpha in INVISCID for lam in (1e-5, 0.008, 0.7)),
    (SG, 1.0, 0.3),
])
@pytest.mark.parametrize("direction", list(Direction))
def test_inviscid_fixed_point_bracket_holds_at_30_digits(model, alpha, lam, direction):
    # at nu = 0 the a_n fall to lambda (scale 1), so past depth D they lie in
    # [lambda, a_{D+1}] and the remainder r_D in that value region [L, U],
    # L = lambda (-1 + sqrt(1 + 4/(lambda a_{D+1})))/2, U = 1/(lambda + L).
    # The mirrored enclosure [w_{D-1}, w_D] lies inside it; the value region
    # alone is too wide for NS at lambda = 1e-5, where r_D's [L, U] is about
    # |p|^2/c_D wide and the map back to r_0 hardly contracts
    params = make_params(model=model, alpha=alpha, nu=0.0)
    tail = TailSpec(direction, params, lam)
    assert tail.bound()[:2] == (math.inf, math.inf) and tail.bound()[2] < math.inf
    br = eval_adaptive(tail, tol=1e-10)
    assert br.depth <= 257  # the even/odd bracket alone needs above 10^5 at lambda = 1e-5
    depth = 2048
    with mpmath.workdps(30):
        coeffs, *_ = mp_coeffs(params, direction, mpmath.mpf(lam), depth)
        assert all(x > y > lam for x, y in zip(coeffs, coeffs[1:]))
        m = mpmath.mpf(lam)
        lo = m * (-1 + mpmath.sqrt(1 + 4 / (m * coeffs[depth]))) / 2
        w_prev, w = (2 / (a + mpmath.sqrt(a * a + 4)) for a in coeffs[depth - 1:depth + 1])
        assert lo <= w_prev <= w <= 1 / (m + lo)
        ref = sorted([mp_trunc(coeffs[:depth], w_prev), mp_trunc(coeffs[:depth], w)])
        assert ref[1] - ref[0] <= 1e-12
        slack = 1e-15
        assert br.lower - slack <= ref[0] and ref[1] <= br.upper + slack
        assert abs(br.value - (ref[0] + ref[1]) / 2) <= 1e-10


def test_inviscid_bound_keeps_the_even_odd_cases():
    # NS-Voigt's a_n rise without bound at nu = 0, and lambda = nu = 0 makes
    # every a_n zero: neither takes the fixed-point enclosure
    voigt = make_params(model=ModelKind.NS_VOIGT, alpha=0.5, nu=0.0)
    assert TailSpec(Direction.FORWARD, voigt, 0.3).bound() == UNBOUNDED
    for model, alpha in INVISCID:
        pr = make_params(model=model, alpha=alpha, nu=0.0)
        assert TailSpec(Direction.FORWARD, pr, 0.0).bound() == UNBOUNDED
        with pytest.raises(DegenerateFraction):
            eval_adaptive(TailSpec(Direction.FORWARD, pr, 0.0), tol=1e-10)
        # one index for every lambda > 0, none at lambda = 0
        got = CoefficientStream(pr).tail_bound(np.array([0.0, 1e-5, 0.7]), 0.0)[2]
        assert got.tolist() == [math.inf, 2.0, 2.0]
        # row by row over an array nu: at nu > 0 only second grade has an index
        got = CoefficientStream(pr).tail_bound(0.7, np.array([0.0, 1e-3]))[2].tolist()
        assert got[0] == 2.0 and (got[1] < math.inf) == (model is SG)


# ---------------------------------------------------------------------------
# closed forms at lambda = 0
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("nu", [0.06, 0.3, 1.7])
def test_depth_two_closed_form(nu):
    # [nu*b1; nu*b2] folds to the rational function nu*b2/(1 + nu^2*b1*b2)
    pr = make_params(nu=nu)
    tail = TailSpec(Direction.FORWARD, pr, 0.0)
    b1, b2 = b(1, pr), b(2, pr)
    expect = nu * b2 / (1.0 + nu ** 2 * b1 * b2)
    got = eval_trunc(tail.coeffs(2))
    assert got == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("nu", [0.06, 0.3])
def test_depth_four_closed_form(nu):
    pr = make_params(nu=nu)
    tail = TailSpec(Direction.FORWARD, pr, 0.0)
    b1, b2, b3, b4 = (b(n, pr) for n in (1, 2, 3, 4))
    num = (b2 + b4) * nu + b2 * b3 * b4 * nu ** 3
    den = (1.0 + (b1 * b2 + b1 * b4 + b3 * b4) * nu ** 2
           + b1 * b2 * b3 * b4 * nu ** 4)
    got = eval_trunc(tail.coeffs(4))
    assert got == pytest.approx(num / den, rel=1e-11)


# ---------------------------------------------------------------------------
# slope of even truncations at nu = 0
# ---------------------------------------------------------------------------

def test_slope_formula_is_partial_b_sum(fig_params):
    assert even_trunc_slope_at_zero(1, Direction.FORWARD, fig_params) == (
        pytest.approx(b(2, fig_params), rel=1e-14))
    assert even_trunc_slope_at_zero(2, Direction.FORWARD, fig_params) == (
        pytest.approx(b(2, fig_params) + b(4, fig_params), rel=1e-14))
    assert even_trunc_slope_at_zero(1, Direction.BACKWARD, fig_params) == (
        pytest.approx(b(-2, fig_params), rel=1e-14))
    assert even_trunc_slope_at_zero(3, Direction.BACKWARD, fig_params) == (
        pytest.approx(sum(b(-2 * j, fig_params) for j in (1, 2, 3)),
                      rel=1e-14))


@pytest.mark.parametrize("k,direction", [(1, Direction.FORWARD),
                                         (2, Direction.FORWARD),
                                         (1, Direction.BACKWARD),
                                         (2, Direction.BACKWARD)])
def test_slope_matches_finite_difference(fig_params, k, direction):
    h = 1e-7

    def even_trunc(nu):
        pr = make_params(nu=nu)
        return eval_trunc(TailSpec(direction, pr, 0.0).coeffs(2 * k))

    # even truncations vanish at nu=0 and are odd in nu nearby, so the
    # one-sided quotient is second-order accurate
    fd = even_trunc(h) / h
    slope = even_trunc_slope_at_zero(k, direction, fig_params)
    assert fd == pytest.approx(slope, rel=1e-5)


def test_even_truncations_scale_linearly_in_nu(fig_params):
    # at nu=0 every coefficient is exactly zero (degenerate truncation);
    # just above, the even truncation is slope*nu to leading order
    degenerate = make_params(nu=0.0)
    with pytest.raises(DegenerateFraction):
        eval_trunc(TailSpec(Direction.FORWARD, degenerate, 0.0).coeffs(2))
    nu = 1e-8
    pr = make_params(nu=nu)
    got = eval_trunc(TailSpec(Direction.FORWARD, pr, 0.0).coeffs(2))
    slope = even_trunc_slope_at_zero(1, Direction.FORWARD, fig_params)
    assert got == pytest.approx(slope * nu, rel=1e-6)


def test_slope_rejects_bad_k(fig_params):
    with pytest.raises(ValueError):
        even_trunc_slope_at_zero(0, Direction.FORWARD, fig_params)
