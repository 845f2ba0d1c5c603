"""Eigenvector reconstruction from tail ratios, with junction certification."""

import math

import numpy as np
import pytest

from instab import (
    CoefficientStream,
    DispersionSpec,
    MatchFailure,
    ModelKind,
    PointClass,
    build_L,
    build_u,
    build_w,
    c,
    dominant_mode,
    eval_adaptive_coeffs,
    find_root,
    residual,
    rho,
    value,
)
from conftest import CLASS_Q, MODELS, make_params


@pytest.fixture(scope="module")
def fig():
    pr = make_params()
    lam = find_root(DispersionSpec(pr), tol=1e-12).lam
    return pr, lam


# ---------------------------------------------------------------------------
# tail ratios
# ---------------------------------------------------------------------------

def test_u_window_and_positivity(fig):
    pr, lam = fig
    u = build_u(lam, pr, 8)
    assert set(u) == set(range(-8, 9))
    # away from the junction the ratios are dominated by their coefficient
    for n in range(1, 9):
        assert u[n] > 1.0


def test_u_rejects_off_root_lambda(fig):
    pr, lam = fig
    with pytest.raises(MatchFailure) as exc:
        build_u(lam + 1e-3, pr, 8)
    assert exc.value.mismatch > exc.value.tol


def test_u_match_tol_override_allows_diagnostics(fig):
    pr, lam = fig
    u = build_u(lam + 1e-3, pr, 8, match_tol=math.inf)
    assert set(u) == set(range(-8, 9))


@pytest.mark.parametrize("build", [build_u, build_w])
def test_negative_lambda_rejected(fig, build):
    # value() rejects lambda < 0; the eigenvector path, even with the junction
    # check switched off, says the same before marching
    pr, _ = fig
    with pytest.raises(ValueError, match="lambda must be nonnegative"):
        build(-0.5, pr, 8, match_tol=math.inf)


def test_u_one_sided_for_boundary_classes(plus_params, minus_params):
    lam_p = find_root(DispersionSpec(plus_params), tol=1e-12).lam
    u_p = build_u(lam_p, plus_params, 6)
    assert set(u_p) == set(range(-6, 1))
    lam_m = find_root(DispersionSpec(minus_params), tol=1e-12).lam
    u_m = build_u(lam_m, minus_params, 6)
    assert set(u_m) == set(range(0, 7))


# ---------------------------------------------------------------------------
# eigenvector assembly
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("N", [32, 64, 128])
def test_residual_small_at_certified_root(fig, N):
    pr, lam = fig
    res = build_w(lam, pr, N)
    assert res.residual <= 1e-10
    assert residual(res, pr) == pytest.approx(res.residual, rel=1e-9, abs=1e-15)


def test_residual_detects_off_root_lambda(fig):
    pr, lam = fig
    res = build_w(lam + 1e-3, pr, 64, match_tol=math.inf)
    assert res.residual > 1e-5


def test_window_and_center_normalization(fig):
    pr, lam = fig
    res = build_w(lam, pr, 32)
    assert set(res.w) == set(range(-32, 33))
    assert res.window == 32
    assert res.lam == lam
    # the center entry is pinned by the normalization z_0 = 1
    assert res.w[0] == pytest.approx(1.0 / rho(0, pr), rel=1e-12)


def test_canonical_sign_pattern(fig):
    pr, lam = fig
    res = build_w(lam, pr, 32)
    assert res.sign_ok
    # canonical orientation: positive forward side, negative junction pair,
    # alternation down the backward side
    assert all(res.w[n] > 0 for n in range(1, 8))
    assert res.w[0] < 0 and res.w[-1] < 0
    for n in range(-8, -1):
        assert (res.w[n] > 0) == ((-n) % 2 == 0)


def test_decay_certificate(fig):
    pr, lam = fig
    res = build_w(lam, pr, 64)
    assert res.decay_rate > 0.0
    assert res.decay_r2 >= 0.999


def test_weighted_norms_finite(fig):
    pr, lam = fig
    res = build_w(lam, pr, 64)
    for s in (0, 1, 2):
        total = sum((1 + n * n) ** s * v * v for n, v in res.w.items())
        assert math.isfinite(total)
        assert total > 0.0


def test_boundary_class_truncation(plus_params):
    lam = find_root(DispersionSpec(plus_params), tol=1e-12).lam
    res = build_w(lam, plus_params, 16)
    # the forward side is cut off by the vanishing rho_1: w_1 closes the
    # recurrence and everything beyond is exactly zero
    expect_w1 = (rho(0, plus_params) * res.w[0]
                 / (lam + plus_params.nu * c(1, plus_params)))
    assert res.w[1] == pytest.approx(expect_w1, rel=1e-12)
    for n in range(2, 17):
        assert res.w[n] == 0.0
    assert res.sign_ok


def test_boundary_class_truncation_mirror(minus_params):
    lam = find_root(DispersionSpec(minus_params), tol=1e-12).lam
    res = build_w(lam, minus_params, 16)
    expect = (-rho(0, minus_params) * res.w[0]
              / (lam + minus_params.nu * c(-1, minus_params)))
    assert res.w[-1] == pytest.approx(expect, rel=1e-12)
    for n in range(-16, -1):
        assert res.w[n] == 0.0


def test_small_window_rejected(fig):
    pr, lam = fig
    with pytest.raises(ValueError):
        build_w(lam, pr, 2)


# ---------------------------------------------------------------------------
# agreement with the truncated-operator eigenvector
# ---------------------------------------------------------------------------

def test_matches_dominant_mode(fig):
    pr, lam = fig
    N = 32
    res = build_w(lam, pr, N)
    _, vec = dominant_mode(pr, N)
    mine = np.array([res.w[n] for n in range(-N, N + 1)])
    mine /= np.linalg.norm(mine)
    vec = vec / np.linalg.norm(vec)
    cos = abs(float(mine @ vec))
    assert cos >= 1.0 - 1e-8


# ---------------------------------------------------------------------------
# residual against the truncated operator
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model,alpha,nu", [
    (ModelKind.NAVIER_STOKES, None, 0.06),
    (ModelKind.SECOND_GRADE, 0.5, 0.04),
    (ModelKind.NS_ALPHA, 1.0, 0.05),
    (ModelKind.NS_VOIGT, 0.5, 0.04),
])
@pytest.mark.parametrize("offset", [0.0, 1e-3])
def test_residual_matches_operator_rows(model, alpha, nu, offset):
    # the recurrence defect is row n of (L - lambda) w: recompute it from
    # the finite section's matvec over the interior rows
    pr = make_params(model=model, alpha=alpha, nu=nu)
    lam = find_root(DispersionSpec(pr), tol=1e-12).lam + offset
    N = 24
    res = build_w(lam, pr, N, match_tol=math.inf)
    w = np.array([res.w[n] for n in range(-N, N + 1)])
    rows = (build_L(pr, N).matvec(w) - lam * w)[1:-1]
    expect = float(np.max(np.abs(rows) / np.maximum(1.0, np.abs(w[1:-1]))))
    assert residual(res, pr) == pytest.approx(expect, rel=1e-9, abs=1e-14)
    assert res.residual == residual(res, pr)
    if offset:
        assert expect > 1e-6


# ---------------------------------------------------------------------------
# independent references: the ratio marches and the recurrence rows
# ---------------------------------------------------------------------------

def reference_u(lam, pr, N, tol=1e-12):
    # the forward and backward ratio loops written out separately: u_N =
    # a_N + [a_{N+1}; ...] marched down by u_n = a_n + 1/u_{n+1}, and
    # u_{-N} = -[a_{-N-1}; ...] marched up by u_{n+1} = -1/(a_n - u_n)
    cs = CoefficientStream(pr)
    u = {}
    if pr.point_class is not PointClass.TYPE_I_PLUS:
        tail = eval_adaptive_coeffs(
            lambda k: cs.coeff(np.arange(N + 1, N + 1 + k), lam), tol).value
        fwd = cs.coeff(np.arange(N + 1), lam).tolist()
        fwd[N] += tail
        for n in range(N - 1, -1, -1):
            fwd[n] += 1.0 / fwd[n + 1]
        u.update(enumerate(fwd))
    if pr.point_class is not PointClass.TYPE_I_MINUS:
        tail = eval_adaptive_coeffs(
            lambda k: cs.coeff(-np.arange(N + 1, N + 1 + k), lam), tol).value
        bwd = [-tail]
        for a_n in cs.coeff(np.arange(-N, 0), lam).tolist():
            bwd.append(-1.0 / (a_n - bwd[-1]))
        u.update(zip(range(-N, 1), bwd))
    return u


@pytest.fixture(scope="module", params=[(m, q) for m in MODELS for q in CLASS_Q],
                ids=lambda mq: f"{mq[0][0].value}-q{mq[1][0]},{mq[1][1]}")
def orbit_root(request):
    (model, alpha, nu), q = request.param
    pr = make_params(model=model, alpha=alpha, nu=nu, q=q)
    return pr, find_root(DispersionSpec(pr), tol=1e-12).lam


@pytest.mark.parametrize("N", [3, 64])
@pytest.mark.parametrize("offset", [0.0, 1e-3])
def test_u_matches_reference_loops(orbit_root, N, offset):
    pr, lam = orbit_root
    lam += offset
    assert build_u(lam, pr, N, match_tol=math.inf) == reference_u(lam, pr, N)


@pytest.mark.parametrize("N", [3, 64])
@pytest.mark.parametrize("offset", [0.0, 1e-3])
def test_residual_matches_recurrence_formula(orbit_root, N, offset):
    # max |rho_{n-1} w_{n-1} - rho_{n+1} w_{n+1} - (lambda + nu*d_n) w_n|
    # / max(1, |w_n|) over the interior rows, from the coefficient stream
    pr, lam = orbit_root
    lam += offset
    res = build_w(lam, pr, N, match_tol=math.inf)
    w = np.array([res.w[n] for n in range(-N, N + 1)])
    cs = CoefficientStream(pr)
    n = np.arange(-N, N + 1)
    rho_n = cs.rho(n)
    rows = (rho_n[:-2] * w[:-2] - rho_n[2:] * w[2:]
            - (lam + pr.nu * cs.diag_weight(n[1:-1])) * w[1:-1])
    expect = float(np.max(np.abs(rows) / np.maximum(1.0, np.abs(w[1:-1]))))
    assert res.residual == expect
    assert residual(res, pr) == expect


def test_junction_mismatch_is_the_dispersion_value(orbit_root):
    # every class checks |a_0 + f + g| over the tails it has
    pr, lam = orbit_root
    with pytest.raises(MatchFailure, match="u0 forward/backward mismatch") as exc:
        build_u(lam + 1e-3, pr, 8)
    assert exc.value.mismatch == pytest.approx(
        abs(value(lam + 1e-3, DispersionSpec(pr), tol=1e-12)), rel=1e-6)


@pytest.mark.parametrize("build", [build_u, build_w])
def test_class_two_orbit_rejected(build):
    pr = make_params(q=(0, -1))
    assert pr.point_class is PointClass.TYPE_II
    with pytest.raises(ValueError, match="classes I0/I\\+/I-"):
        build(0.2, pr, 8)
