"""Truncated-operator oracles: spectra, determinants, time-stepping."""

import math
import tracemalloc

import numpy as np
import pytest

import instab.spectral
from instab import (
    CoefficientStream,
    DispersionSpec,
    ModelKind,
    NoConvergence,
    NoSignChange,
    build_K,
    build_L,
    det_I_plus_K,
    det_root,
    dominant_mode,
    find_root,
    growth_rate,
    max_real_eig,
    rho,
)
from instab.spectral import RENORM_EVERY
from conftest import CLASS_Q, LAM_STAR, MODELS, count_calls, make_params


@pytest.fixture(scope="module")
def fig():
    pr = make_params()
    lam = find_root(DispersionSpec(pr), tol=1e-12).lam
    return pr, lam


# ---------------------------------------------------------------------------
# operator assembly
# ---------------------------------------------------------------------------

def test_three_by_three_entries(fig_params):
    nu = fig_params.nu
    got = build_L(fig_params, 1).dense()
    expect = np.array([
        [-17 * nu, 1.0, 0.0],          # row n=-1: sup is -rho_0 = +1
        [7.0 / 17.0, -5 * nu, -3.0 / 13.0],
        [0.0, -1.0, -13 * nu],         # row n=+1: sub is rho_0 = -1
    ])
    np.testing.assert_allclose(got, expect, rtol=1e-14, atol=0)


def test_indices_and_matvec(fig_params):
    # the section spans n = -4..4: 9 diagonal entries, 8 on each band
    op = build_L(fig_params, 4)
    assert op.diag.shape == (9,) and op.sub.shape == op.sup.shape == (8,)
    rng = np.random.default_rng(7)
    v = rng.standard_normal(9)
    np.testing.assert_allclose(op.matvec(v), op.dense() @ v, rtol=1e-13,
                               atol=1e-13)


def test_window_must_be_positive(fig_params):
    with pytest.raises(ValueError):
        build_L(fig_params, 0)


def test_parallel_orbit_decouples():
    pr = make_params(q=(6, 2), gamma=3.0)
    op = build_L(pr, 3)
    assert not np.any(op.sub) and not np.any(op.sup)
    # c_n = 10 n^2 on the decoupled orbit, so the top of the spectrum is 0
    assert max_real_eig(pr, 3) == pytest.approx(0.0, abs=1e-15)


def test_alpha_to_zero_entrywise(fig_params):
    from instab import ModelKind
    alpha = 1e-4
    pr = make_params(model=ModelKind.NS_ALPHA, alpha=alpha)
    gap = np.max(np.abs(build_L(pr, 8).dense() - build_L(fig_params, 8).dense()))
    assert gap <= 1e4 * alpha ** 2


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def test_max_real_eig_matches_dispersion_root(fig):
    pr, lam = fig
    assert max_real_eig(pr, 128) == pytest.approx(lam, abs=1e-9)


def test_max_real_eig_respects_dense_cap(fig_params):
    with pytest.raises(ValueError, match="above dense cap 512"):
        max_real_eig(fig_params, 1024)


def test_dense_cap_admits_its_own_window(fig_params):
    assert build_L(fig_params, 512).dense().shape == (1025, 1025)


@pytest.mark.parametrize("oracle", [
    lambda pr: dominant_mode(pr, 513),
    lambda pr: growth_rate(pr, 513, 1.0, 1e-6),
], ids=["dominant_mode", "growth_rate"])
def test_dense_oracles_refuse_before_allocating(fig_params, oracle):
    # a 1027^2 float64 matrix is 8.4 MB; the refusal comes while the
    # O(N) bands are all that exist
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="window N=513 above dense cap 512"):
            oracle(fig_params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_dominant_mode_consistency(fig):
    pr, lam = fig
    val, vec = dominant_mode(pr, 64)
    assert val == pytest.approx(max_real_eig(pr, 64), rel=1e-12)
    assert vec.shape == (129,)
    assert np.all(np.isreal(vec))
    op = build_L(pr, 64)
    defect = np.max(np.abs(op.matvec(vec) - val * vec)) / np.max(np.abs(vec))
    assert defect <= 1e-10


# ---------------------------------------------------------------------------
# determinant of I + K
# ---------------------------------------------------------------------------

def test_det_matches_dense_determinant(fig_params):
    lam = 0.3
    for N in (1, 2, 5):
        K = build_K(lam, fig_params, N)
        dense = np.eye(2 * N + 1) + K.dense()
        got = det_I_plus_K(lam, fig_params, N)
        assert got.value == pytest.approx(float(np.linalg.det(dense)),
                                          rel=1e-12)
        assert got.lam == lam and got.N == N


def test_det_depth_zero_and_one(fig_params):
    lam = 0.3
    nu = fig_params.nu
    k = {n: 1.0 / (-nu * (5 if n == 0 else 13 if n == 1 else 17) - lam)
         for n in (-1, 0, 1)}
    r = {n: rho(n, fig_params) for n in (-1, 0, 1)}
    expect = (1.0
              + k[0] * k[1] * r[0] * r[1]
              + k[-1] * k[0] * r[-1] * r[0])
    got = det_I_plus_K(lam, fig_params, 1)
    assert got.value == pytest.approx(expect, rel=1e-13)


def test_det_requires_positive_lambda(fig_params):
    with pytest.raises(ValueError):
        det_I_plus_K(0.0, fig_params, 4)


@pytest.mark.parametrize("N", [0, -5])
def test_det_window_must_be_positive(fig_params, N):
    with pytest.raises(ValueError, match="window N"):
        build_K(0.2, fig_params, N)
    with pytest.raises(ValueError, match="window N"):
        det_I_plus_K(0.2, fig_params, N)
    with pytest.raises(ValueError, match="window N"):
        det_root(fig_params, N, (0.2, 0.25), tol=1e-8)


def test_det_vanishes_at_root(fig):
    pr, lam = fig
    assert abs(det_I_plus_K(lam, pr, 128).value) <= 1e-6
    # truncation is already converged: doubling the window moves nothing
    d32 = det_I_plus_K(lam, pr, 32).value
    d128 = det_I_plus_K(lam, pr, 128).value
    assert abs(d32 - d128) <= 1e-6


def test_det_window_convergence(fig_params):
    lam = 0.2
    gaps = []
    for N in (8, 16, 32, 64):
        gaps.append(abs(det_I_plus_K(lam, fig_params, 2 * N).value
                        - det_I_plus_K(lam, fig_params, N).value))
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] <= 1e-5


def test_k_entries_decay_quadratically(fig_params):
    K = build_K(0.25, fig_params, 64)
    n = np.arange(-64, 65)  # sub[i] sits in row n[i+1], sup[i] in row n[i]
    assert not np.any(K.diag)
    assert np.max(np.abs(K.sub) * np.maximum(1, n[1:] ** 2)) <= 10.0
    assert np.max(np.abs(K.sup) * np.maximum(1, n[:-1] ** 2)) <= 10.0


@pytest.mark.parametrize("model,alpha,nu", MODELS)
@pytest.mark.parametrize("q", CLASS_Q)
@pytest.mark.parametrize("offset", [0.0, 1e-3])
@pytest.mark.parametrize("N", [3, 64])
def test_k_matches_coefficient_formula(model, alpha, nu, q, offset, N):
    # k_n = 1/(-nu*d_n - lambda), sub k_n*rho_{n-1}, sup -k_n*rho_{n+1}
    pr = make_params(model=model, alpha=alpha, nu=nu, q=q)
    lam = find_root(DispersionSpec(pr), tol=1e-12).lam + offset
    cs = CoefficientStream(pr)
    n = np.arange(-N, N + 1)
    k = 1.0 / (-pr.nu * cs.diag_weight(n) - lam)
    rho_n = cs.rho(n)
    K = build_K(lam, pr, N)
    assert np.array_equal(K.diag, np.zeros(2 * N + 1))
    assert np.array_equal(K.sub, k[1:] * rho_n[:-1])
    assert np.array_equal(K.sup, -k[:-1] * rho_n[1:])


def test_det_beyond_double_range_is_no_convergence():
    # the second-grade d_n is bounded, so K is not trace class and the
    # sectioned determinants grow without limit: 1e223 at N=256, then past
    # the double range
    pr = make_params(model=ModelKind.SECOND_GRADE, alpha=0.5, nu=0.04)
    assert math.isfinite(det_I_plus_K(0.3, pr, 256).value)
    with pytest.raises(NoConvergence, match="N=512") as exc:
        det_I_plus_K(0.3, pr, 512)
    assert exc.value.depth == 512
    with pytest.raises(NoConvergence, match="N=512"):
        det_root(pr, 512, (0.1, 0.5), tol=1e-10)


def test_det_overflow_message_holds_for_trace_class_k():
    # the NavierStokes K is trace class, so its determinant is finite, but at
    # nu = lambda = 1e-6 it is about 1e635; the message states only that
    pr = make_params(nu=1e-6)
    with pytest.raises(NoConvergence) as exc:
        det_I_plus_K(1e-6, pr, 512)
    assert str(exc.value) == ("|det(I+K)| of the N=512 section is about 1e635, "
                              "beyond the double range")
    assert exc.value.depth == 512


def test_det_root_agrees_with_dispersion(fig):
    pr, lam = fig
    got = det_root(pr, 128, (0.9 * lam, 1.1 * lam), tol=1e-10)
    assert got == pytest.approx(lam, abs=1e-8)


def test_det_root_needs_a_sign_change():
    pr = make_params(q=(6, 2), gamma=3.0)  # decoupled: det is identically 1
    with pytest.raises(NoSignChange):
        det_root(pr, 16, (0.1, 1.0), tol=1e-8)


def test_det_root_validates_bracket(fig_params):
    with pytest.raises(ValueError):
        det_root(fig_params, 16, (0.3, 0.1), tol=1e-8)
    with pytest.raises(ValueError):
        det_root(fig_params, 16, (0.1, 0.3), tol=0.0)


@pytest.mark.parametrize("hi", [math.inf, math.nan])
def test_det_root_rejects_non_finite_bracket(fig_params, hi):
    with pytest.raises(ValueError, match="finite"):
        det_root(fig_params, 16, (0.1, hi), tol=1e-8)


def test_det_root_evaluation_budget(fig_params, monkeypatch):
    seen = count_calls(monkeypatch, instab.spectral, "det_I_plus_K")
    got = det_root(fig_params, 128, (0.2, 0.25), tol=1e-10)
    assert got == pytest.approx(LAM_STAR, abs=1e-8)
    assert len(seen) <= 10


def test_det_root_ends_below_float_spacing(fig_params, monkeypatch):
    # tol 1e-20 is below the spacing of doubles near the root (about 2.8e-17)
    count_calls(monkeypatch, instab.spectral, "det_I_plus_K", limit=60)
    got = det_root(fig_params, 128, (0.2, 0.25), tol=1e-20)
    monkeypatch.undo()
    assert got == pytest.approx(LAM_STAR, abs=1e-8)
    # the final bracket is got and one of its neighbouring doubles
    below, at, above = (det_I_plus_K(x, fig_params, 128).value
                        for x in (math.nextafter(got, 0.0), got,
                                  math.nextafter(got, 1.0)))
    assert below * at <= 0.0 or at * above <= 0.0


# ---------------------------------------------------------------------------
# time-stepped growth rate
# ---------------------------------------------------------------------------

def stable_dt(params, N):
    op = build_L(params, N)
    return 1.0 / (4.0 * float(np.max(np.abs(op.diag))) + 4.0)


def test_growth_rate_matches_root(fig):
    pr, lam = fig
    dt = stable_dt(pr, 16)
    slope = growth_rate(pr, 16, t_final=40.0, dt=dt)
    assert slope == pytest.approx(lam, rel=1e-6)


def test_growth_rate_negative_when_stable():
    pr = make_params(nu=10.0)
    slope = growth_rate(pr, 16, t_final=5.0, dt=stable_dt(pr, 16))
    assert slope < 0.0


def test_growth_rate_seed_reproducible(fig_params):
    dt = stable_dt(fig_params, 8)
    a = growth_rate(fig_params, 8, t_final=10.0, dt=dt, seed=3)
    b = growth_rate(fig_params, 8, t_final=10.0, dt=dt, seed=3)
    c = growth_rate(fig_params, 8, t_final=10.0, dt=dt, seed=4)
    assert a == b
    assert a != c


def test_growth_rate_accepts_explicit_start(fig):
    pr, lam = fig
    _, vec = dominant_mode(pr, 16)
    slope = growth_rate(pr, 16, t_final=20.0, dt=stable_dt(pr, 16), w0=vec)
    assert slope == pytest.approx(lam, rel=1e-8)


def test_growth_rate_input_validation(fig_params):
    dt = stable_dt(fig_params, 8)
    with pytest.raises(ValueError):
        growth_rate(fig_params, 8, t_final=10.0, dt=1.0)  # unstable step
    with pytest.raises(ValueError):
        growth_rate(fig_params, 8, t_final=0.0, dt=dt)
    with pytest.raises(ValueError):
        growth_rate(fig_params, 8, t_final=10.0, dt=dt,
                    w0=np.zeros(17))
    with pytest.raises(ValueError):
        growth_rate(fig_params, 8, t_final=10.0, dt=dt, w0=np.ones(5))


def test_growth_rate_rejects_infinite_t_final(fig_params):
    with pytest.raises(ValueError):
        growth_rate(fig_params, 8, t_final=math.inf, dt=stable_dt(fig_params, 8))


def test_growth_rate_rejects_nan_t_final(fig_params):
    with pytest.raises(ValueError, match="t_final"):
        growth_rate(fig_params, 8, t_final=math.nan, dt=stable_dt(fig_params, 8))


def test_growth_rate_rejects_nan_start(fig_params):
    w0 = np.ones(17)
    w0[3] = math.nan
    with pytest.raises(ValueError):
        growth_rate(fig_params, 8, t_final=10.0, dt=stable_dt(fig_params, 8), w0=w0)


def test_growth_rate_rejects_infinite_start(fig_params):
    w0 = np.ones(17)
    w0[3] = -math.inf
    with pytest.raises(ValueError):
        growth_rate(fig_params, 8, t_final=10.0, dt=stable_dt(fig_params, 8), w0=w0)


def staged_rk4_slope(params, N, steps, dt, renorm_every, seed=0):
    """Reference integrator: the literal k1..k4 stages, renormalized every
    renorm_every steps and at the last one; slope over the final half."""
    M = build_L(params, N).dense()
    w = np.random.default_rng(seed).standard_normal(2 * N + 1)
    log_shift = 0.0
    times, lognorms = [0.0], [math.log(float(np.linalg.norm(w)))]
    for step in range(1, steps + 1):
        k1 = M @ w
        k2 = M @ (w + 0.5 * dt * k1)
        k3 = M @ (w + 0.5 * dt * k2)
        k4 = M @ (w + dt * k3)
        w = w + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if step % renorm_every == 0 or step == steps:
            nrm = float(np.linalg.norm(w))
            log_shift += math.log(nrm)
            times.append(step * dt)
            lognorms.append(log_shift)
            w /= nrm
    t, y = np.asarray(times), np.asarray(lognorms)
    half = t >= 0.5 * steps * dt
    if int(np.sum(half)) < 2:
        raise ValueError("not enough samples in the final half")
    return float(np.polyfit(t[half], y[half], 1)[0])


@pytest.mark.parametrize("steps", [
    16 * 20 + 5,  # full blocks and a partial one
    16 * 20,      # full blocks only
    16 + 8,       # one full block, then an 8-step partial one
], ids=lambda steps: f"{steps}-{RENORM_EVERY}")
def test_growth_rate_matches_staged_rk4(fig_params, steps):
    dt = stable_dt(fig_params, 8)
    t_final = (steps - 0.5) * dt
    assert math.ceil(t_final / dt) == steps
    want = staged_rk4_slope(fig_params, 8, steps, dt, RENORM_EVERY)
    got = growth_rate(fig_params, 8, t_final, dt)
    assert got == pytest.approx(want, rel=1e-10)


def test_growth_rate_single_partial_block(fig_params):
    # fewer than RENORM_EVERY steps: one partial block, so the final half
    # holds a single sample and neither integrator can fit a slope
    dt = stable_dt(fig_params, 8)
    with pytest.raises(ValueError):
        staged_rk4_slope(fig_params, 8, 10, dt, RENORM_EVERY)
    with pytest.raises(ValueError, match="final half"):
        growth_rate(fig_params, 8, (10 - 0.5) * dt, dt)
