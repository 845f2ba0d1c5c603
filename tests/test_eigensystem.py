"""Eigenvector reconstruction from tail ratios, with junction certification."""

import math

import numpy as np
import pytest

import instab.eigensystem
import instab.spectral
from instab import (
    CoefficientStream,
    DispersionSpec,
    MatchFailure,
    ModelKind,
    NoConvergence,
    PointClass,
    build_L,
    build_w,
    c,
    dominant_mode,
    find_root,
    value,
)
from instab.contfrac import DEFAULT_MAX_DEPTH
from instab.eigensystem import _fit_decay, _residual, _sign_pattern_ok
from conftest import CLASS_Q, MODELS, count_calls, make_params, reference_adaptive


def residual(res, pr):
    """The residual recomputed from ``res.w`` on a fresh section of ``pr``."""
    N = res.window
    w = np.array([res.w.get(n, 0.0) for n in range(-N, N + 1)])
    return _residual(w, res.lam, build_L(pr, N))


def ratios(lam, pr, N, match_tol=None):
    """Each side's ratios u_{sk} = z_{s(k-1)}/z_{sk}, k = 1..N, as {n: u_n}.

    z = w*rho is rebuilt from build_w's w and the stream's rho; u_{sk} is s*d_k.
    Entries whose z has underflowed (|z| <= 1e-300) are left out.
    """
    w = build_w(lam, pr, N, match_tol=match_tol).w
    cs = CoefficientStream(pr)
    u = {}
    for s in (direction.value for direction in DispersionSpec(pr).tails):
        n = s * np.arange(N + 1)
        z = np.array([w[k] for k in n.tolist()]) * cs.rho(n)
        live = np.abs(z[1:]) > 1e-300
        u.update(zip(n[1:][live].tolist(), (z[:-1][live] / z[1:][live]).tolist()))
    return u


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
    u = ratios(lam, pr, 8)
    assert set(u) == set(range(-8, 9)) - {0}
    # away from the junction the ratios s*d_k are dominated by their coefficient
    for n in range(1, 9):
        assert u[n] > 1.0
        assert u[-n] < -1.0


def test_u_rejects_off_root_lambda(fig):
    pr, lam = fig
    with pytest.raises(MatchFailure) as exc:
        ratios(lam + 1e-3, pr, 8)
    assert exc.value.mismatch > exc.value.tol


def test_u_match_tol_override_allows_diagnostics(fig):
    pr, lam = fig
    u = ratios(lam + 1e-3, pr, 8, match_tol=math.inf)
    assert set(u) == set(range(-8, 9)) - {0}


def test_negative_lambda_rejected(fig):
    # value() rejects lambda < 0; the eigenvector path, even with the junction
    # check switched off, says the same before marching
    pr, _ = fig
    with pytest.raises(ValueError, match="lambda must be nonnegative"):
        build_w(-0.5, pr, 8, match_tol=math.inf)


def test_window_above_the_window_cap_rejected(fig, monkeypatch):
    # refused before the seed pass and before the section is built
    pr, lam = fig
    seen = [count_calls(monkeypatch, instab.eigensystem, name)
            for name in ("_adaptive_rows", "build_L")]
    with pytest.raises(ValueError, match=r"window N=100001 above window cap 100000"):
        build_w(lam, pr, instab.spectral.WINDOW_CAP + 1)
    assert seen == [[], []]


def test_lambda_nu_zero_meets_the_dispersion_domain(monkeypatch):
    # the dispersion pass's domain rule, before any seed is evaluated
    pr = make_params(nu=0.0)
    passes = count_calls(monkeypatch, instab.eigensystem, "_adaptive_rows")
    with pytest.raises(ValueError, match="^lambda = nu = 0 is outside the dispersion "
                                         "relation's domain: every recurrence "
                                         "coefficient vanishes$"):
        build_w(0.0, pr, 8)
    assert passes == []


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
def test_non_finite_lambda_rejected(fig, monkeypatch, lam):
    # refused before any pass: NaN used to run both seeds to the depth cap
    pr, _ = fig
    passes = count_calls(monkeypatch, instab.eigensystem, "_adaptive_rows")
    with pytest.raises(ValueError, match="lambda must be finite"):
        build_w(lam, pr, 8, match_tol=math.inf)
    assert passes == []


def test_depth_capped_seed_raises(fig, monkeypatch):
    # a seed that misses tol at the depth cap fails the one seed pass, before
    # the section is built
    pr, lam = fig
    sections = count_calls(monkeypatch, instab.eigensystem, "build_L")
    with pytest.raises(NoConvergence, match="at depth cap 2$"):
        build_w(lam, pr, 8, tol=1e-15, max_depth=2)
    assert sections == []


def test_u_one_sided_for_boundary_classes(plus_params, minus_params):
    lam_p = find_root(DispersionSpec(plus_params), tol=1e-12).lam
    u_p = ratios(lam_p, plus_params, 6)
    assert set(u_p) == set(range(-6, 0))
    lam_m = find_root(DispersionSpec(minus_params), tol=1e-12).lam
    u_m = ratios(lam_m, minus_params, 6)
    assert set(u_m) == set(range(1, 7))


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
    assert res.w[0] == pytest.approx(1.0 / float(CoefficientStream(pr).rho(0)), rel=1e-12)


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
    expect_w1 = (float(CoefficientStream(plus_params).rho(0)) * res.w[0]
                 / (lam + plus_params.nu * c(1, plus_params)))
    assert res.w[1] == pytest.approx(expect_w1, rel=1e-12)
    for n in range(2, 17):
        assert res.w[n] == 0.0
    assert res.sign_ok


def test_boundary_class_truncation_mirror(minus_params):
    lam = find_root(DispersionSpec(minus_params), tol=1e-12).lam
    res = build_w(lam, minus_params, 16)
    expect = (-float(CoefficientStream(minus_params).rho(0)) * res.w[0]
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
    # the dense finite section over the interior rows
    pr = make_params(model=model, alpha=alpha, nu=nu)
    lam = find_root(DispersionSpec(pr), tol=1e-12).lam + offset
    N = 24
    res = build_w(lam, pr, N, match_tol=math.inf)
    w = np.array([res.w[n] for n in range(-N, N + 1)])
    rows = (build_L(pr, N).dense() @ w - lam * w)[1:-1]
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
        tail = reference_adaptive(
            lambda k: cs.coeff(np.arange(N + 1, N + 1 + k), lam), tol, DEFAULT_MAX_DEPTH)[0]
        fwd = cs.coeff(np.arange(N + 1), lam).tolist()
        fwd[N] += tail
        for n in range(N - 1, -1, -1):
            fwd[n] += 1.0 / fwd[n + 1]
        u.update(enumerate(fwd))
    if pr.point_class is not PointClass.TYPE_I_MINUS:
        tail = reference_adaptive(
            lambda k: cs.coeff(-np.arange(N + 1, N + 1 + k), lam), tol, DEFAULT_MAX_DEPTH)[0]
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
    # the reference's backward u_n is z_{n-1}/z_n; ratios() gives z_{n+1}/z_n
    pr, lam = orbit_root
    lam += offset
    u, ref = ratios(lam, pr, N, match_tol=math.inf), reference_u(lam, pr, N)
    assert len(u) == N * len(DispersionSpec(pr).tails)
    assert u == pytest.approx({n: ref[n] if n > 0 else 1.0 / ref[n + 1] for n in u},
                              rel=1e-12)


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
        ratios(lam + 1e-3, pr, 8)
    assert exc.value.mismatch == pytest.approx(
        abs(value(lam + 1e-3, DispersionSpec(pr), tol=1e-12)), rel=1e-6)


def test_one_seed_pass_per_eigenvector(orbit_root, monkeypatch):
    # every side's seed tail comes from one _adaptive_rows pass, on I0, I+
    # and I- alike
    pr, lam = orbit_root
    passes = count_calls(monkeypatch, instab.eigensystem, "_adaptive_rows")
    build_w(lam, pr, 16)
    assert len(passes) == 1


@pytest.mark.parametrize("model,alpha,nu", MODELS)
@pytest.mark.parametrize("q", [(-1, 2), (0, -2)])
@pytest.mark.parametrize("N", [3, 64, 300])
def test_mirror_orbit_gives_the_mirrored_eigenvector(model, alpha, nu, q, N):
    # n -> -n maps the orbit of q onto that of -q, and both sides run one
    # march, so at one lambda |w_n| of q is |w_{-n}| of -q bit for bit
    pr = make_params(model=model, alpha=alpha, nu=nu, q=q)
    mirror = make_params(model=model, alpha=alpha, nu=nu, q=(-q[0], -q[1]))
    lam = find_root(DispersionSpec(pr), tol=1e-12).lam
    w = build_w(lam, pr, N, match_tol=math.inf).w
    w_mirror = build_w(lam, mirror, N, match_tol=math.inf).w
    assert [abs(w[n]) for n in range(-N, N + 1)] == [abs(w_mirror[-n]) for n in range(-N, N + 1)]


def test_fit_decay_without_live_entries():
    # a side with no entry above the underflow guard is skipped; with none on
    # either side both measures are NaN
    N = 8
    w = np.zeros(2 * N + 1)
    w[N] = -1.0
    assert all(map(math.isnan, _fit_decay(w, N)))
    w[N + 1:] = np.exp(-0.5 * np.arange(1, N + 1))  # w_{+k} only
    rate, r2 = _fit_decay(w, N)
    assert rate == pytest.approx(0.5, rel=1e-12) and r2 == pytest.approx(1.0, rel=1e-12)


def test_sign_pattern_needs_a_nonzero_w0():
    # the pattern is anchored at w_0, so a zero there fails it
    N = 4
    n = np.arange(-N, N + 1)
    w = np.where((n >= 1) | ((n <= -2) & (n % 2 == 0)), 1.0, -1.0) * np.exp(-np.abs(n))
    assert _sign_pattern_ok(w, N) and _sign_pattern_ok(-w, N)
    w[N] = 0.0
    assert not _sign_pattern_ok(w, N)


def test_class_two_orbit_rejected():
    pr = make_params(q=(0, -1))
    assert pr.point_class is PointClass.TYPE_II
    with pytest.raises(ValueError, match="classes I0/I\\+/I-"):
        build_w(0.2, pr, 8)
