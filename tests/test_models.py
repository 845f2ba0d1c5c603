"""Coefficient families: exact fixtures plus the structural identities that
tie the four models together (rho = Gamma*beta, nu*b_n at lambda=0, the
alpha -> 0 limit), and the tail bounds in exact arithmetic: second grade at
nu > 0, and NS, second grade and NS-alpha at nu = 0."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from instab import (
    CoefficientStream,
    FlowParams,
    IndexUndefined,
    LatticeVector,
    ModelKind,
    PointClass,
    b,
    beta,
    c,
    gamma,
)
from conftest import CLASS_I_ORBITS, make_params

ALL_MODELS = list(ModelKind)


def alpha_for(model):
    return None if model is ModelKind.NAVIER_STOKES else 0.5


# ---------------------------------------------------------------------------
# exact fixtures on the reference orbit p=(3,1), q=(-1,2)
# ---------------------------------------------------------------------------

def test_c_values(fig_params):
    assert [c(n, fig_params) for n in (-1, 0, 1, 2, 3)] == [17, 5, 13, 41, 89]
    assert isinstance(c(2, fig_params), int)


def test_beta_reference_value():
    got = beta(LatticeVector(3, 1), LatticeVector(-1, 2),
               ModelKind.NAVIER_STOKES)
    assert got == pytest.approx(0.35, abs=1e-15)


@given(st.integers(-20, 20), st.integers(-20, 20),
       st.integers(-20, 20), st.integers(-20, 20),
       st.sampled_from(ALL_MODELS))
def test_beta_symmetric_in_arguments(ax, ay, bx, by, model):
    u, v = LatticeVector(ax, ay), LatticeVector(bx, by)
    if u.is_zero() or v.is_zero():
        return
    alpha = 0.0 if model is ModelKind.NAVIER_STOKES else 0.7
    left = beta(u, v, model, alpha)
    right = beta(v, u, model, alpha)
    assert left == pytest.approx(right, rel=1e-12, abs=1e-12)


def test_gamma_normalized_values(fig_params):
    # q^p = -7 for the reference orbit, so the normalized scale is negative
    assert gamma(fig_params) == pytest.approx(-20.0 / 7.0, rel=1e-15)
    ns_alpha = make_params(model=ModelKind.NS_ALPHA, alpha=1.0)
    assert gamma(ns_alpha) == pytest.approx(-220.0 / 7.0, rel=1e-15)


def test_explicit_gamma_passthrough():
    pr = make_params(gamma=2.5)
    assert gamma(pr) == 2.5


def test_rho_values(fig_params):
    assert float(CoefficientStream(fig_params).rho(0)) == pytest.approx(-1.0, abs=1e-15)
    assert float(CoefficientStream(fig_params).rho(1)) == pytest.approx(3.0 / 13.0, rel=1e-15)
    assert float(CoefficientStream(fig_params).rho(-1)) == pytest.approx(7.0 / 17.0, rel=1e-15)


def test_recurrence_coeff_center(fig_params):
    lam = 0.37
    # a_0 = (lambda + nu*c_0)/rho_0 with rho_0 = -1
    assert float(CoefficientStream(fig_params).coeff(0, lam)) == pytest.approx(
        -(lam + 5 * fig_params.nu), rel=1e-15)


def test_recurrence_coeff_at_zero_is_nu_b(fig_params):
    assert float(CoefficientStream(fig_params).coeff(1, 0.0)) == pytest.approx(
        fig_params.nu * 169.0 / 3.0, rel=1e-14)


def test_b_values(fig_params):
    assert b(1, fig_params) == pytest.approx(169.0 / 3.0, rel=1e-15)
    assert b(-1, fig_params) == pytest.approx(289.0 / 7.0, rel=1e-15)
    # c_2 = 41 on this orbit, so b_2 = 41^2/31
    assert b(2, fig_params) == pytest.approx(1681.0 / 31.0, rel=1e-15)


def test_b_rejects_degenerate_index(plus_params):
    # on the TypeIPlus orbit c_1 = ||p||^2 exactly
    assert c(1, plus_params) == 10
    with pytest.raises(ZeroDivisionError):
        b(1, plus_params)


def test_b_is_navier_stokes_only():
    with pytest.raises(ValueError):
        b(1, make_params(model=ModelKind.SECOND_GRADE, alpha=0.5))


def test_coeff_undefined_where_rho_vanishes(plus_params):
    assert float(CoefficientStream(plus_params).rho(1)) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(IndexUndefined):
        float(CoefficientStream(plus_params).coeff(1, 0.2))


# ---------------------------------------------------------------------------
# structural identities across models
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model", ALL_MODELS)
def test_rho_is_gamma_times_beta(model):
    # the normalized scale and explicit amplitudes of either sign
    for explicit in (None, 2.5, -0.75):
        pr = make_params(model=model, alpha=alpha_for(model), gamma=explicit)
        g = gamma(pr)
        for n in range(-6, 7):
            k = pr.q + pr.p.scaled(n)
            expect = g * beta(pr.p, k, model, pr.alpha or 0.0)
            got = float(CoefficientStream(pr).rho(n))
            assert got == pytest.approx(expect, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("model", ALL_MODELS)
def test_beta_of_a_zero_vector_is_zero(model, fig_params):
    zero = LatticeVector(0, 0)
    assert beta(fig_params.p, zero, model, 0.5) == 0.0
    assert beta(zero, fig_params.q, model, 0.5) == 0.0


def test_voigt_coeff_at_zero_matches_nu_b(fig_params):
    voigt = make_params(model=ModelKind.NS_VOIGT, alpha=0.5)
    for n in range(-20, 21):
        assert float(CoefficientStream(voigt).coeff(n, 0.0)) == pytest.approx(
            voigt.nu * b(n, fig_params), rel=1e-12)


@pytest.mark.parametrize("model", [ModelKind.SECOND_GRADE, ModelKind.NS_ALPHA,
                                   ModelKind.NS_VOIGT])
def test_alpha_to_zero_recovers_plain_model(model, fig_params):
    lam = 0.3
    for alpha in (1e-3, 1e-4):
        pr = make_params(model=model, alpha=alpha)
        for n in (-3, -1, 0, 1, 2):
            gap = abs(float(CoefficientStream(pr).coeff(n, lam))
                      - float(CoefficientStream(fig_params).coeff(n, lam)))
            assert gap <= 1e3 * alpha ** 2


def test_rho_large_n_limits():
    n = 1000
    for model in (ModelKind.NAVIER_STOKES, ModelKind.SECOND_GRADE,
                  ModelKind.NS_ALPHA):
        pr = make_params(model=model, alpha=alpha_for(model))
        assert float(CoefficientStream(pr).rho(n)) == pytest.approx(1.0, abs=1e-3)
    voigt = make_params(model=ModelKind.NS_VOIGT, alpha=0.5)
    assert abs(float(CoefficientStream(voigt).rho(n))) < 1e-4


def test_b_even_indices_dominate_four_k_squared(fig_params):
    for k in range(1, 51):
        assert b(2 * k, fig_params) >= 4 * k * k


def test_stream_matches_scalar_helpers(fig_params):
    cs = CoefficientStream(fig_params)
    for n in (-4, -1, 0, 2, 5):
        assert cs.c(n) == c(n, fig_params)


# ---------------------------------------------------------------------------
# construction rules
# ---------------------------------------------------------------------------

def test_q_is_canonicalized_on_construction():
    pr = make_params(q=(2, 3))
    assert pr.q == LatticeVector(-1, 2)
    assert pr.point_class is PointClass.TYPE_I0


def test_parallel_q_needs_explicit_gamma():
    with pytest.raises(ValueError):
        make_params(q=(6, 2))
    pr = make_params(q=(6, 2), gamma=1.0)
    assert pr.point_class is PointClass.PARALLEL
    for n in range(-3, 4):
        assert float(CoefficientStream(pr).rho(n)) == 0.0


def test_regularized_models_require_alpha():
    with pytest.raises(ValueError):
        make_params(model=ModelKind.NS_VOIGT)
    with pytest.raises(ValueError):
        make_params(model=ModelKind.SECOND_GRADE, alpha=0.0)
    with pytest.raises(ValueError, match="second-grade requires alpha > 0"):
        beta(LatticeVector(3, 1), LatticeVector(-1, 2), ModelKind.SECOND_GRADE, 0.0)


def test_alpha_dropped_for_navier_stokes():
    pr = make_params(alpha=0.5)
    assert pr.alpha is None


def test_negative_viscosity_rejected():
    with pytest.raises(ValueError):
        make_params(nu=-0.1)


def test_zero_p_rejected():
    with pytest.raises(ValueError):
        make_params(p=(0, 0))


def test_model_tags_round_trip():
    for kind in ModelKind:
        assert ModelKind(kind.value) is kind
    with pytest.raises(ValueError):
        ModelKind("bogus")


@pytest.mark.parametrize("field", ["nu", "alpha", "gamma"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_inputs_rejected(field, bad):
    kwargs = {"model": ModelKind.NS_VOIGT, "alpha": 0.5, field: bad}
    with pytest.raises(ValueError, match="finite"):
        make_params(**kwargs)


# ---------------------------------------------------------------------------
# second-grade tail bound, checked in exact rational arithmetic
# ---------------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(orbit=st.sampled_from(CLASS_I_ORBITS), alpha=st.floats(0.3, 2.0),
       nu=st.floats(-6.0, 0.0).map(lambda e: 10.0 ** e), lam=st.floats(0.0, 3.0))
def test_tail_bound_holds_in_exact_arithmetic(orbit, alpha, nu, lam):
    p, q = orbit
    pr = make_params(model=ModelKind.SECOND_GRADE, p=p, q=q, nu=nu, alpha=alpha)
    a_max, first, _ = CoefficientStream(pr).tail_bound(lam, nu)
    # a(c) = (lam c + B c^2)/(alpha^2 c^2 + c - K) at the normalized scale,
    # from the float inputs taken as exact rationals
    a2, lam, nu = Fraction(alpha) ** 2, Fraction(lam), Fraction(nu)
    k = pr.p_norm_sq * (1 + a2 * pr.p_norm_sq)
    bb = lam * a2 + nu
    a_inf = lam + nu / a2
    assert float(a_max) == pytest.approx(float(a_inf), rel=1e-15)
    assert 1 <= first < math.inf
    first = int(first)
    for s in (1, -1):
        ns = [*range(first, first + 6), 4 * first + 50]
        cs = [c(s * n, pr) for n in ns]
        assert all(x < y for x, y in zip(cs, cs[1:]))  # c_{+-n} rises along the tail
        for cn in cs:
            den = a2 * cn * cn + cn - k
            assert den > 0
            # a'(c) up to the positive factor 1/den^2: nonnegative from c_first
            # on, i.e. c_n >= c*, since the quadratic nu c^2 - 2BK c - lam K
            # has a nonpositive constant term
            assert (lam + 2 * bb * cn) * den - (lam * cn + bb * cn * cn) * (2 * a2 * cn + 1) >= 0
        a_n = [(lam * cn + bb * cn * cn) / (a2 * cn * cn + cn - k) for cn in cs]
        assert all(x <= y for x, y in zip(a_n, a_n[1:]))  # a(c) does not fall past c*
        assert a_n[-1] < a_inf


def fixed_point_bounds(a, digits=45):
    """Bounds on w = 2/(a + sqrt(a^2 + 4)), the fixed point of t -> 1/(a + t),
    from the integer square root of a^2 + 4 on a grid of 10^-digits."""
    x, scale = a * a + 4, 10 ** digits
    r = math.isqrt(x.numerator * scale * scale // x.denominator)
    return 2 / (a + Fraction(r + 1, scale)), 2 / (a + Fraction(r, scale))


@settings(max_examples=150, deadline=None)
@given(orbit=st.sampled_from(CLASS_I_ORBITS), alpha=st.floats(0.05, 2.0),
       nu=st.floats(-6.0, 0.0).map(lambda e: 10.0 ** e), lam=st.floats(0.0, 3.0))
def test_fixed_point_index_holds_in_exact_arithmetic(orbit, alpha, nu, lam):
    # with w_j the fixed point of t -> 1/(a_{j+1} + t) and delta_j = w_{j+1} - w_j:
    # from j = fixed - 1 on delta_j <= 0 and |delta_j| does not increase, and
    # from j = fixed on |delta_j| <= a_{j+1}, which the fixed-point enclosure
    # of the remainder after a_m, m >= fixed, needs
    p, q = orbit
    pr = make_params(model=ModelKind.SECOND_GRADE, p=p, q=q, nu=nu, alpha=alpha)
    fixed = CoefficientStream(pr).tail_bound(lam, nu)[2]
    assert 1 <= fixed < math.inf
    fixed = int(fixed)
    a2, lam, nu = Fraction(alpha) ** 2, Fraction(lam), Fraction(nu)
    k = pr.p_norm_sq * (1 + a2 * pr.p_norm_sq)
    bb = lam * a2 + nu

    def a(n):
        cn = c(n, pr)
        return (lam * cn + bb * cn * cn) / (a2 * cn * cn + cn - k)

    for s in (1, -1):
        for j in [*range(fixed - 1, fixed + 5), 4 * fixed + 50]:
            a_j = [a(s * n) for n in (j + 1, j + 2, j + 3)]
            assert a_j[0] <= a_j[1] <= a_j[2]  # so w falls: delta_j, delta_j+1 <= 0
            (lo0, hi0), (lo1, hi1), (lo2, hi2) = map(fixed_point_bounds, a_j)
            # |delta_j| lies in [lo0 - hi1, hi0 - lo1], |delta_j+1| in [lo1 - hi2, hi1 - lo2]
            assert hi1 - lo2 <= lo0 - hi1
            assert j < fixed or hi0 - lo1 <= a_j[0]


# ---------------------------------------------------------------------------
# inviscid tail bound: the index of the mirrored fixed-point enclosure
# ---------------------------------------------------------------------------

INVISCID = [(ModelKind.NAVIER_STOKES, None), (ModelKind.SECOND_GRADE, 0.5),
            (ModelKind.NS_ALPHA, 1.0)]


def inviscid_index(pr):
    """The first n >= 1 with n|p| >= |q| and (n|p| - |q|)^2 >= max(|p|^2,
    4 W^2 / (3 |p|^2)), W = p^q, in exact arithmetic."""
    pp, qq = pr.p_norm_sq, pr.q.norm_sq
    w = pr.p.x * pr.q.y - pr.p.y * pr.q.x
    c_min = max(Fraction(pp), Fraction(4 * w * w, 3 * pp))
    n = 1
    while True:
        # (n|p| - |q|)^2 = n^2 |p|^2 + |q|^2 - 2 n |p| |q|
        rest = n * n * pp + qq - c_min
        if n * n * pp >= qq and rest >= 0 and rest * rest >= 4 * n * n * pp * qq:
            return n
        n += 1


def test_inviscid_fixed_point_index_is_the_derived_one():
    # one index per orbit, the same for every lambda > 0 and all three models
    for p, q in CLASS_I_ORBITS:
        for model, alpha in INVISCID:
            pr = make_params(model=model, p=p, q=q, nu=0.0, alpha=alpha)
            bound = CoefficientStream(pr).tail_bound(0.5, 0.0)
            assert bound == (math.inf, math.inf, inviscid_index(pr)), (p, q, model)


@settings(max_examples=150, deadline=None)
@given(orbit=st.sampled_from(CLASS_I_ORBITS), model=st.sampled_from(INVISCID),
       alpha=st.floats(0.05, 2.0), lam=st.floats(-6.0, 0.5).map(lambda e: 10.0 ** e))
def test_inviscid_fixed_point_index_holds_in_exact_arithmetic(orbit, model, alpha, lam):
    # at nu = 0, from j = fixed - 1 on: a_{j+1} >= a_{j+2} > 0, so delta_j >= 0,
    # and delta_j does not increase, which the mirrored enclosure of the
    # remainder after a_m, m >= fixed, needs
    (p, q), (kind, _) = orbit, model
    pr = make_params(model=kind, p=p, q=q, nu=0.0, alpha=alpha)
    fixed = int(CoefficientStream(pr).tail_bound(lam, 0.0)[2])
    a2, lam = Fraction(pr.alpha or 0) ** 2, Fraction(lam)
    k = pr.p_norm_sq * (1 + a2 * pr.p_norm_sq)

    def a(n):
        cn = c(n, pr)
        return lam * (cn + a2 * cn * cn) / (cn + a2 * cn * cn - k)

    for s in (1, -1):
        for j in [*range(fixed - 1, fixed + 5), 4 * fixed + 50]:
            a_j = [a(s * n) for n in (j + 1, j + 2, j + 3)]
            assert a_j[0] >= a_j[1] >= a_j[2] > 0  # so w rises: delta_j, delta_j+1 >= 0
            (lo0, hi0), (lo1, hi1), (lo2, hi2) = map(fixed_point_bounds, a_j)
            # delta_j lies in [lo1 - hi0, hi1 - lo0], delta_j+1 in [lo2 - hi1, hi2 - lo1]
            assert hi2 - lo1 <= lo1 - hi0
