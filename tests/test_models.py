"""Coefficient families: exact fixtures plus the structural identities that
tie the four models together (rho = Gamma*beta, nu*b_n at lambda=0, the
alpha -> 0 limit)."""

import math

import pytest
from hypothesis import given, strategies as st

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
    recurrence_coeff,
    rho,
    steady_state,
)
from conftest import make_params

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
    assert rho(0, fig_params) == pytest.approx(-1.0, abs=1e-15)
    assert rho(1, fig_params) == pytest.approx(3.0 / 13.0, rel=1e-15)
    assert rho(-1, fig_params) == pytest.approx(7.0 / 17.0, rel=1e-15)


def test_recurrence_coeff_center(fig_params):
    lam = 0.37
    # a_0 = (lambda + nu*c_0)/rho_0 with rho_0 = -1
    assert recurrence_coeff(0, lam, fig_params) == pytest.approx(
        -(lam + 5 * fig_params.nu), rel=1e-15)


def test_recurrence_coeff_at_zero_is_nu_b(fig_params):
    assert recurrence_coeff(1, 0.0, fig_params) == pytest.approx(
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
    assert rho(1, plus_params) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(IndexUndefined):
        recurrence_coeff(1, 0.2, plus_params)


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
            assert rho(n, pr) == pytest.approx(expect, rel=1e-12, abs=1e-15)


def test_voigt_coeff_at_zero_matches_nu_b(fig_params):
    voigt = make_params(model=ModelKind.NS_VOIGT, alpha=0.5)
    for n in range(-20, 21):
        assert recurrence_coeff(n, 0.0, voigt) == pytest.approx(
            voigt.nu * b(n, fig_params), rel=1e-12)


@pytest.mark.parametrize("model", [ModelKind.SECOND_GRADE, ModelKind.NS_ALPHA,
                                   ModelKind.NS_VOIGT])
def test_alpha_to_zero_recovers_plain_model(model, fig_params):
    lam = 0.3
    for alpha in (1e-3, 1e-4):
        pr = make_params(model=model, alpha=alpha)
        for n in (-3, -1, 0, 1, 2):
            gap = abs(recurrence_coeff(n, lam, pr)
                      - recurrence_coeff(n, lam, fig_params))
            assert gap <= 1e3 * alpha ** 2


def test_rho_large_n_limits():
    n = 1000
    for model in (ModelKind.NAVIER_STOKES, ModelKind.SECOND_GRADE,
                  ModelKind.NS_ALPHA):
        pr = make_params(model=model, alpha=alpha_for(model))
        assert rho(n, pr) == pytest.approx(1.0, abs=1e-3)
    voigt = make_params(model=ModelKind.NS_VOIGT, alpha=0.5)
    assert abs(rho(n, voigt)) < 1e-4


def test_b_even_indices_dominate_four_k_squared(fig_params):
    for k in range(1, 51):
        assert b(2 * k, fig_params) >= 4 * k * k


def test_stream_matches_scalar_helpers(fig_params):
    cs = CoefficientStream(fig_params)
    for n in (-4, -1, 0, 2, 5):
        assert cs.c(n) == c(n, fig_params)
        assert cs.rho(n) == rho(n, fig_params)
        assert cs.coeff(n, 0.11) == recurrence_coeff(n, 0.11, fig_params)


# ---------------------------------------------------------------------------
# steady state amplitudes
# ---------------------------------------------------------------------------

def test_steady_state_navier_stokes(fig_params):
    ss = steady_state(fig_params)
    g = gamma(fig_params)
    assert ss.vorticity_amplitude == pytest.approx(g)
    assert ss.forcing_amplitude == pytest.approx(10 * g)
    assert ss.stream_amplitude == pytest.approx(g / 10)


def test_steady_state_filtering():
    # transport filtering divides the stream amplitude by 1 + alpha^2 ||p||^2
    pp, alpha = 10.0, 0.5
    reg = 1 + alpha ** 2 * pp
    ns_alpha = steady_state(make_params(model=ModelKind.NS_ALPHA, alpha=alpha))
    sg = steady_state(make_params(model=ModelKind.SECOND_GRADE, alpha=alpha))
    voigt = steady_state(make_params(model=ModelKind.NS_VOIGT, alpha=alpha))
    for ss in (ns_alpha, sg, voigt):
        assert ss.stream_amplitude * pp * reg == pytest.approx(
            ss.vorticity_amplitude, rel=1e-12)
    # dissipation unfiltered for ns-alpha, filtered for the other two
    assert ns_alpha.forcing_amplitude == pytest.approx(
        pp * ns_alpha.vorticity_amplitude, rel=1e-12)
    for ss in (sg, voigt):
        assert ss.forcing_amplitude * reg == pytest.approx(
            pp * ss.vorticity_amplitude, rel=1e-12)


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
        assert rho(n, pr) == 0.0


def test_regularized_models_require_alpha():
    with pytest.raises(ValueError):
        make_params(model=ModelKind.NS_VOIGT)
    with pytest.raises(ValueError):
        make_params(model=ModelKind.SECOND_GRADE, alpha=0.0)


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
