"""Truncated-operator oracles: spectra, determinants, time-stepping."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import instab.dispersion
import instab.spectral
from instab import (
    CoefficientStream,
    DispersionSpec,
    LatticeVector,
    ModelKind,
    NoConvergence,
    NoSignChange,
    PointClass,
    build_K,
    build_L,
    build_w,
    certify,
    classify,
    det_I_plus_K,
    det_grid,
    det_root,
    dominant_mode,
    find_root,
    growth_rate,
    max_real_eig,
    nu0_estimate,
)
from instab.spectral import (_CHUNK_BLOCKS, _CHUNK_ELEMS, _FLOAT_WIDTH, DET_GRID_CHUNK,
                             MAX_RK4_STEPS, RENORM_EVERY, WINDOW_CAP, TruncatedOperator,
                             _dt_max, _line_fit)
from conftest import (CLASS_I_ORBITS, CLASS_Q, LAM_STAR, MODELS, count_calls, make_params,
                      reference_det)
from test_acceptance import TRIANGLE


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
    # row i of the section: diag[i] v_i + sub[i-1] v_{i-1} + sup[i] v_{i+1}
    bands = op.diag * v
    bands[1:] += op.sub * v[:-1]
    bands[:-1] += op.sup * v[1:]
    np.testing.assert_allclose(op.dense() @ v, bands, rtol=1e-13, atol=1e-13)


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


@pytest.mark.parametrize("window", [
    lambda pr, N: build_L(pr, N),
    lambda pr, N: build_K(0.2, pr, N),
    lambda pr, N: det_I_plus_K(0.2, pr, N),
    lambda pr, N: det_grid([0.1, 0.2], pr, N),
    lambda pr, N: det_root(pr, N, (0.2, 0.25), 1e-10),
], ids=["build_L", "build_K", "det_I_plus_K", "det_grid", "det_root"])
def test_linear_windows_refuse_above_the_window_cap(fig_params, monkeypatch, window):
    # build_L refuses first, before any coefficient of the bands is computed
    streams = count_calls(monkeypatch, instab.spectral, "CoefficientStream")
    with pytest.raises(ValueError, match=f"window N={WINDOW_CAP + 1} above window cap "
                                         f"{WINDOW_CAP}"):
        window(fig_params, WINDOW_CAP + 1)
    assert streams == []


@pytest.mark.parametrize("N", [2.5, 8.0, 16.5, np.float64(8.0), "8"])
@pytest.mark.parametrize("window", [
    lambda pr, N: build_L(pr, N),
    lambda pr, N: build_K(0.2, pr, N),
    lambda pr, N: det_I_plus_K(0.2, pr, N),
    lambda pr, N: det_grid([0.2, 0.3], pr, N),
    lambda pr, N: det_root(pr, N, (0.2, 0.25), 1e-10),
    lambda pr, N: max_real_eig(pr, N),
    lambda pr, N: dominant_mode(pr, N),
    lambda pr, N: growth_rate(pr, N, 5.0, 1e-3),
    lambda pr, N: build_w(0.22, pr, N),
], ids=["build_L", "build_K", "det_I_plus_K", "det_grid", "det_root", "max_real_eig",
        "dominant_mode", "growth_rate", "build_w"])
def test_windows_must_be_integers(fig_params, monkeypatch, window, N):
    # a float window spans other indices than [-N, N] (2.5 would give -2..3),
    # so it is refused before any coefficient of the bands is computed
    streams = [count_calls(monkeypatch, module, "CoefficientStream")
               for module in (instab.spectral, instab.dispersion)]
    with pytest.raises(ValueError, match="^window N must be an integer$"):
        window(fig_params, N)
    assert streams == [[], []]


def test_numpy_integer_windows_are_accepted(fig_params):
    assert max_real_eig(fig_params, np.int64(16)) == max_real_eig(fig_params, 16)
    assert build_L(fig_params, np.int32(4)).dense().shape == (9, 9)


@pytest.mark.parametrize("oracle", [
    max_real_eig,
    dominant_mode,
    lambda pr, N: growth_rate(pr, N, 1.0, 1e-6),
], ids=["max_real_eig", "dominant_mode", "growth_rate"])
def test_dense_oracles_refuse_before_building_the_section(fig_params, monkeypatch, oracle):
    built = count_calls(monkeypatch, instab.spectral, "build_L")
    with pytest.raises(ValueError, match="window N=513 above dense cap 512"):
        oracle(fig_params, 513)
    assert built == []


def whole_top(pr, N):
    """The top real part of the section by one dense solve of the whole matrix."""
    return float(np.max(np.linalg.eigvals(build_L(pr, N).dense()).real))


# the oracle triangle's I+/I- instances, whose sections are cut where rho_n = 0,
# and its I0 instances, whose sections have no zero band entry
CUT = [(model, alpha, q, nu) for model, alpha, q, nu, _ in TRIANGLE if q != (-1, 2)]
UNCUT = [(model, alpha, q, nu) for model, alpha, q, nu, _ in TRIANGLE if q == (-1, 2)]


@pytest.mark.parametrize("N", [16, 128, 512])
@pytest.mark.parametrize("model, alpha, q, nu", CUT)
def test_max_real_eig_of_a_cut_section_matches_the_whole_solve(model, alpha, q, nu, N):
    pr = make_params(model=model, alpha=alpha, q=q, nu=nu)
    assert pr.point_class in (PointClass.TYPE_I_PLUS, PointClass.TYPE_I_MINUS)
    whole = whole_top(pr, N)
    assert abs(max_real_eig(pr, N) - whole) <= 1e-12 * max(1.0, whole)


@pytest.mark.parametrize("model, alpha, q, nu, N",
                         [(*case, N) for case in UNCUT for N in (16, 128)]
                         + [(*UNCUT[0], 512)])
def test_max_real_eig_of_an_uncut_section_is_the_whole_solve(model, alpha, q, nu, N):
    pr = make_params(model=model, alpha=alpha, q=q, nu=nu)
    assert max_real_eig(pr, N) == whole_top(pr, N)


@pytest.mark.parametrize("model, alpha, q, sizes", [
    (ModelKind.NAVIER_STOKES, None, (0, -2), [129]),
    (ModelKind.NAVIER_STOKES, None, (0, 2), [129]),
    (ModelKind.NAVIER_STOKES, None, (-1, 2), [257]),
    (ModelKind.NS_VOIGT, 0.5, (0, -2), [129]),
    (ModelKind.NS_VOIGT, 0.5, (0, 2), [129]),
    (ModelKind.SECOND_GRADE, 0.5, (0, -2), [129]),
    (ModelKind.SECOND_GRADE, 0.5, (0, 2), [129]),
])
def test_max_real_eig_solves_each_block(monkeypatch, model, alpha, q, sizes):
    # on I+/I- only the block holding n = 0 can reach the top: the other one
    # has only skew couplings, so its bound is max(-nu*d_n) < 0
    seen = count_calls(monkeypatch, np.linalg, "eigvals")
    max_real_eig(make_params(model=model, alpha=alpha, q=q, nu=0.05), 128)
    assert [len(M) for M in seen] == sizes


@pytest.mark.parametrize("N", [16, 128, 512])
@pytest.mark.parametrize("model, alpha, q, nu", CUT)
def test_max_real_eig_solves_one_block_of_a_cut_section(monkeypatch, model, alpha, q, nu, N):
    seen = count_calls(monkeypatch, np.linalg, "eigvals")
    max_real_eig(make_params(model=model, alpha=alpha, q=q, nu=nu), N)
    assert len(seen) == 1 and len(seen[0]) in (N, N + 1)


def test_parallel_orbit_needs_no_dense_solve(monkeypatch):
    # every band entry is zero, so each block is one diagonal entry
    pr = make_params(q=(6, 2), gamma=3.0)
    seen = count_calls(monkeypatch, np.linalg, "eigvals")
    assert max_real_eig(pr, 8) == np.max(build_L(pr, 8).diag)
    assert seen == []


@pytest.mark.parametrize("N", [16, 128])
def test_class_0_boundary_point_is_a_one_by_one_block(N):
    # q=(1,-3) has the norm of p=(3,1): rho_0 = 0 cuts n=0 off on both sides
    pr = make_params(q=(1, -3), nu=0.05)
    assert pr.point_class is PointClass.TYPE_0
    op = build_L(pr, N)
    assert op.sub[N] == 0.0 and op.sup[N - 1] == 0.0
    whole = whole_top(pr, N)
    assert abs(max_real_eig(pr, N) - whole) <= 1e-12 * max(1.0, abs(whole))


# orbits of small p through a point of norm |p|, where rho_n = 0: I+, I-,
# class 0 with a boundary point, and parallel orbits, whose rho_n all vanish
ZERO_BAND_ORBITS = [
    ((px, py), (qx, qy))
    for px in range(4) for py in range(-3, 4) for qx in range(-3, 4) for qy in range(-3, 4)
    if (px, py) > (0, 0)
    and any((qx + n * px) ** 2 + (qy + n * py) ** 2 == px * px + py * py for n in range(-6, 7))
]


@settings(max_examples=60, deadline=None)
@given(orbit=st.sampled_from(ZERO_BAND_ORBITS), model=st.sampled_from(MODELS),
       nu=st.floats(0.01, 0.5), gamma=st.floats(0.25, 4.0), N=st.integers(1, 40))
def test_max_real_eig_of_random_cut_sections_matches_the_whole_solve(orbit, model, nu,
                                                                        gamma, N):
    # a dense eigensolver's backward error scales with the matrix norm, so the
    # block and whole solves agree within 1e-12*max(1, ||L||_inf)
    (p, q), (kind, alpha, _) = orbit, model
    pr = make_params(model=kind, alpha=alpha, q=q, nu=nu, gamma=gamma, p=p)
    op = build_L(pr, N)
    assert np.any(op.sub == 0.0) or np.any(op.sup == 0.0)
    norm = float(np.max(np.abs(op.dense()).sum(axis=1)))
    assert abs(max_real_eig(pr, N) - whole_top(pr, N)) <= 1e-12 * max(1.0, norm)


# class II and class 0 orbits of small p, beside CLASS_I_ORBITS and ZERO_BAND_ORBITS
OTHER_ORBITS = [
    ((px, py), (qx, qy))
    for px in range(4) for py in range(-3, 4) for qx in range(-3, 4) for qy in range(-3, 4)
    if (px, py) > (0, 0) and px * qy != py * qx and classify(
        LatticeVector(qx, qy), LatticeVector(px, py)) in (PointClass.TYPE_II, PointClass.TYPE_0)
]


def blocks(op):
    """(a, b, bound) of each diagonal block op.dense()[a:b, a:b], written out in floats.

    The section is cut after every zero band entry; the bound is Bendixson's,
    max over the block's rows of diag_i + s_{i-1} + s_i, s_i = sqrt(max(sub_i*sup_i, 0)).
    """
    n = 2 * op.N + 1
    cuts = [0, *(i + 1 for i in range(n - 1) if op.sub[i] == 0.0 or op.sup[i] == 0.0), n]
    s = [0.0, *(math.sqrt(max(x * y, 0.0)) for x, y in zip(op.sub.tolist(), op.sup.tolist())),
         0.0]
    diag = op.diag.tolist()
    return [(a, b, max(diag[i] + s[i] + s[i + 1] for i in range(a, b)))
            for a, b in zip(cuts, cuts[1:])]


def all_blocks_top(pr, N):
    """The top over every diagonal block, each solved in the whole matrix: no bound skips one."""
    op = build_L(pr, N)
    M = op.dense()
    return max(float(M[a, a]) if b - a == 1 else float(np.max(np.linalg.eigvals(M[a:b, a:b]).real))
               for a, b, _ in blocks(op))


def random_section_params(orbit, model, nu, gamma):
    # gamma is passed explicitly, as the parallel orbits of ZERO_BAND_ORBITS need one
    (p, q), (kind, alpha, _) = orbit, model
    return make_params(model=kind, alpha=alpha, q=q, nu=nu, gamma=gamma, p=p)


SECTIONS = dict(
    orbit=st.one_of(*(st.sampled_from(orbits)
                      for orbits in (ZERO_BAND_ORBITS, CLASS_I_ORBITS, OTHER_ORBITS))),
    model=st.sampled_from(MODELS), nu=st.one_of(st.just(0.0), st.floats(1e-4, 1.0)),
    gamma=st.floats(0.25, 4.0), N=st.integers(1, 64))


@settings(max_examples=150, deadline=None)
@given(**SECTIONS)
# class 0 at nu = 0: a block's bound is exactly 0, and its computed top
# (1.7e-16) lies above the top of the block visited first (1.1e-16); without
# the margin the visit stopped before it
@example(orbit=((0, 1), (1, -3)), model=MODELS[0], nu=0.0, gamma=2.5, N=28)
@example(orbit=((3, 1), (0, -2)), model=MODELS[0], nu=0.0, gamma=2.5, N=40)
def test_max_real_eig_is_the_top_over_all_blocks(orbit, model, nu, gamma, N):
    pr = random_section_params(orbit, model, nu, gamma)
    assert max_real_eig(pr, N) == all_blocks_top(pr, N)


@settings(max_examples=150, deadline=None)
@given(**SECTIONS)
@example(orbit=((0, 1), (1, -3)), model=MODELS[0], nu=0.0, gamma=2.5, N=28)
def test_each_block_top_lies_below_its_bound(orbit, model, nu, gamma, N):
    op = build_L(random_section_params(orbit, model, nu, gamma), N)
    M = op.dense()
    margin = 1e-12 * max(1.0, float(np.max(np.abs(M).sum(axis=1))))
    for a, b, bound in blocks(op):
        assert float(np.max(np.linalg.eigvals(M[a:b, a:b]).real)) <= bound + margin


def test_dominant_mode_consistency(fig):
    pr, lam = fig
    val, vec = dominant_mode(pr, 64)
    assert val == pytest.approx(max_real_eig(pr, 64), rel=1e-12)
    assert vec.shape == (129,)
    assert np.all(np.isreal(vec))
    op = build_L(pr, 64)
    defect = np.max(np.abs(op.dense() @ vec - val * vec)) / np.max(np.abs(vec))
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
    r = {n: float(CoefficientStream(fig_params).rho(n)) for n in (-1, 0, 1)}
    expect = (1.0
              + k[0] * k[1] * r[0] * r[1]
              + k[-1] * k[0] * r[-1] * r[0])
    got = det_I_plus_K(lam, fig_params, 1)
    assert got.value == pytest.approx(expect, rel=1e-13)


def test_det_value_is_a_python_float(fig_params):
    assert type(det_I_plus_K(0.3, fig_params, 8).value) is float


def test_det_requires_positive_lambda(fig_params):
    with pytest.raises(ValueError):
        det_I_plus_K(0.0, fig_params, 4)
    with pytest.raises(ValueError, match="needs lambda > 0"):
        build_K(0.0, fig_params, 4)


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


def values_or_error(values):
    # the values, or the message and depth of the first failure
    try:
        return values()
    except NoConvergence as exc:
        return str(exc), exc.depth


# the second-grade sections pass the rescaling threshold by N=256 and the
# double range at N=512, on either side of the float-loop width
SECOND_GRADE = MODELS[1]
DEEP_GRIDS = [np.linspace(0.1, 0.5, w).tolist() for w in (1, _FLOAT_WIDTH, _FLOAT_WIDTH + 1)]


@settings(max_examples=120, deadline=None)
@given(model=st.sampled_from(MODELS), orbit=st.sampled_from(CLASS_I_ORBITS),
       N=st.sampled_from([1, 2, 5, 32, 128, 256]),
       grid=st.lists(st.floats(-6.0, 1.0).map(lambda e: 10.0 ** e),
                     min_size=1, max_size=3 * _FLOAT_WIDTH))
@example(model=SECOND_GRADE, orbit=((3, 1), (-1, 2)), N=256, grid=DEEP_GRIDS[1])
@example(model=SECOND_GRADE, orbit=((3, 1), (-1, 2)), N=256, grid=DEEP_GRIDS[2])
@example(model=SECOND_GRADE, orbit=((3, 1), (-1, 2)), N=512, grid=DEEP_GRIDS[0])
@example(model=SECOND_GRADE, orbit=((3, 1), (-1, 2)), N=512, grid=DEEP_GRIDS[2])
def test_det_grid_equals_scalar_loop(model, orbit, N, grid):
    # grids up to 3 * _FLOAT_WIDTH long, so both branches of _det_rows run
    kind, alpha, nu = model
    p, q = orbit
    pr = make_params(model=kind, alpha=alpha, nu=nu, p=p, q=q)
    expect = values_or_error(lambda: [reference_det(x, pr, N) for x in grid])
    assert values_or_error(lambda: det_grid(grid, pr, N).tolist()) == expect
    assert values_or_error(lambda: [det_I_plus_K(x, pr, N).value for x in grid]) == expect


def test_det_rows_runs_float_loops_up_to_the_width(fig_params):
    # the float loops read the lambdas with tolist(); the numpy steps never do
    L = build_L(fig_params, 16)
    read = []

    class Lambdas(np.ndarray):
        def tolist(self):
            read.append(self.size)
            return super().tolist()

    for width in (1, _FLOAT_WIDTH, _FLOAT_WIDTH + 1, 2 * _FLOAT_WIDTH):
        grid = np.linspace(0.1, 0.3, width)
        read.clear()
        got = np.asarray(instab.spectral._det_rows(L, grid.view(Lambdas)))
        assert read == ([width] if width <= _FLOAT_WIDTH else [])
        assert got.tolist() == [reference_det(x, fig_params, 16) for x in grid.tolist()]


def test_det_rows_rescale_next_to_a_nan_row():
    # at nu = 1e-300 the factors of lambda = 1e-300 overflow and its minors turn
    # NaN, while the minors of lambda <= 1 must rescale (second grade, N=256):
    # a NaN magnitude in a wide pass must not hide their rescaling
    pr = make_params(model=ModelKind.SECOND_GRADE, alpha=0.5, nu=1e-300)
    L = build_L(pr, 256)
    tiny, rescaled = 1e-300, [0.3, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]
    assert abs(reference_det(0.3, pr, 256)) > 2.0 ** 256
    for grid in ([tiny, *rescaled], [*rescaled[:4], tiny, *rescaled[4:]]):
        want = [repr(reference_det(x, pr, 256)) for x in grid]
        assert len(grid) > _FLOAT_WIDTH and want.count("nan") == 1
        assert list(map(repr, instab.spectral._det_rows(L, np.array(grid)).tolist())) == want
    # 0.05 is beyond the double range, and its minors would overflow to -inf
    # after the tiny lambda's turn NaN if a NaN magnitude stopped the rescaling:
    # the wide pass raises what the loop raises
    with pytest.raises(NoConvergence) as scalar:
        reference_det(0.05, pr, 256)
    with pytest.raises(NoConvergence) as exc:
        instab.spectral._det_rows(L, np.array([tiny, *rescaled, 0.05]))
    assert str(exc.value) == str(scalar.value)


def test_det_pass_memory_stays_within_its_vectors():
    # a DET_GRID_CHUNK-wide pass at N=512: one row of factors per block, the
    # minors, their magnitudes, the shifts and the rescale step's temporaries,
    # about thirteen vectors of the pass's length; twenty bound it
    pr = make_params(model=ModelKind.SECOND_GRADE, alpha=0.5, nu=0.04)
    L = build_L(pr, 512)
    lams = np.linspace(1.0, 3.0, DET_GRID_CHUNK)  # |det| up to 1e178: rescaled, in range
    instab.spectral._det_rows(L, lams[:2 * _FLOAT_WIDTH])
    tracemalloc.start()
    try:
        values = instab.spectral._det_rows(L, lams)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(values).all()
    assert peak <= 20 * DET_GRID_CHUNK * 8


def test_det_grid_needs_a_1d_grid(fig_params, monkeypatch):
    sections = count_calls(monkeypatch, instab.spectral, "build_L")
    for grid in (0.2, [[0.1, 0.2]]):
        with pytest.raises(ValueError, match="needs a 1-D grid of lambdas"):
            det_grid(grid, fig_params, 32)
    assert sections == []


def test_det_grid_of_no_lambda_is_empty(fig_params):
    got = det_grid([], fig_params, 32)
    assert got.dtype == np.float64 and got.shape == (0,)


def test_det_grid_refuses_nonpositive_lambda(fig_params, monkeypatch):
    with pytest.raises(ValueError) as scalar:
        det_I_plus_K(0.0, fig_params, 32)
    rows = count_calls(monkeypatch, instab.spectral, "_det_rows")
    for grid in ([0.1, 0.2, 0.0], [-1.0, 0.3], [0.2, -0.0]):
        with pytest.raises(ValueError) as exc:
            det_grid(grid, fig_params, 32)
        assert str(exc.value) == str(scalar.value)
    assert rows == []


def test_det_refuses_non_finite_lambda(fig_params, monkeypatch):
    # NaN gave nan and +inf gave 1.0; the determinant, like det_root's
    # bracket, takes finite lambdas only, and says so before any pass
    rows = count_calls(monkeypatch, instab.spectral, "_det_rows")
    for lam in (math.nan, math.inf):
        with pytest.raises(ValueError, match="lambda must be finite"):
            det_grid([0.2, lam], fig_params, 32)
        with pytest.raises(ValueError, match="lambda must be finite"):
            det_I_plus_K(lam, fig_params, 32)
        with pytest.raises(ValueError, match="lambda must be finite"):
            build_K(lam, fig_params, 32)
    assert rows == []


def test_det_grid_beyond_double_range_is_the_scalar_no_convergence():
    # every lambda of these second-grade grids is beyond the double range at
    # N=512; either width raises what the scalar loop raises at its first lambda
    pr = make_params(model=ModelKind.SECOND_GRADE, alpha=0.5, nu=0.04)
    with pytest.raises(NoConvergence) as scalar:
        reference_det(0.1, pr, 512)
    assert str(scalar.value) == (
        "|det(I+K)| of the N=512 section is about 1e657, beyond the double range")
    for grid in ([0.1, 0.2, 0.3, 0.4, 0.5], np.linspace(0.1, 0.5, 2 * _FLOAT_WIDTH)):
        with pytest.raises(NoConvergence) as exc:
            det_grid(grid, pr, 512)
        assert str(exc.value) == str(scalar.value)
        assert exc.value.depth == scalar.value.depth == 512


def test_det_grid_chunks_keep_grid_order(fig_params, monkeypatch):
    # three chunks, the last one partial, on a grid that is not sorted
    grid = np.random.default_rng(3).uniform(0.01, 2.0, 2 * DET_GRID_CHUNK + 7).tolist()
    chunks = count_calls(monkeypatch, instab.spectral, "_det_rows")
    assert det_grid(grid, fig_params, 5).tolist() == [
        reference_det(x, fig_params, 5) for x in grid]
    assert len(chunks) == 3


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


@pytest.mark.parametrize("end", [0, 1], ids=["lo", "hi"])
def test_det_root_returns_an_end_where_det_is_exactly_zero(fig_params, monkeypatch, end):
    # the end is the zero itself: no sign test and no refinement pass follow
    bracket, widths = (0.1, 0.3), []

    def stub(L, lams):
        widths.append(lams.size)
        return np.where(lams == bracket[end], 0.0, 1.0)

    monkeypatch.setattr(instab.spectral, "_det_rows", stub)
    assert det_root(fig_params, 16, bracket, tol=1e-8) == bracket[end]
    assert widths == [2]


def test_det_root_builds_the_section_once(fig_params, monkeypatch):
    sections = count_calls(monkeypatch, instab.spectral, "build_L")
    det_root(fig_params, 128, (0.2, 0.25), tol=1e-10)
    assert len(sections) == 1


def test_det_root_evaluation_budget(fig_params, monkeypatch):
    # at most 10 lambdas, both ends included, over all _det_rows passes
    inner, widths = instab.spectral._det_rows, []

    def recording(L, lams):
        widths.append(lams.size)
        return inner(L, lams)

    monkeypatch.setattr(instab.spectral, "_det_rows", recording)
    got = det_root(fig_params, 128, (0.2, 0.25), tol=1e-10)
    assert got == pytest.approx(LAM_STAR, abs=1e-8)
    assert sum(widths) <= 10


def test_det_root_ends_below_float_spacing(fig_params, monkeypatch):
    # tol 1e-20 is below the spacing of doubles near the root (about 2.8e-17)
    count_calls(monkeypatch, instab.spectral, "_det_rows", limit=60)
    got = det_root(fig_params, 128, (0.2, 0.25), tol=1e-20)
    monkeypatch.undo()
    assert got == pytest.approx(LAM_STAR, abs=1e-8)
    # the final bracket is got and one of its neighbouring doubles
    below, at, above = (det_I_plus_K(x, fig_params, 128).value
                        for x in (math.nextafter(got, 0.0), got,
                                  math.nextafter(got, 1.0)))
    assert below * at <= 0.0 or at * above <= 0.0


@pytest.mark.parametrize("model, alpha, nu", MODELS)
@pytest.mark.parametrize("q", CLASS_Q)
def test_flipping_gamma_keeps_det_and_spectrum(model, alpha, nu, q):
    # -Gamma flips every rho_n: the band product rho_{n-1}*rho_{n+1}, all the
    # determinant reads, is unchanged, and L is similar to its flip through
    # diag((-1)^n).  The continued-fraction searches do not yet use this: with
    # Gamma of the opposite sign to wedge(q, p) they see no sign change.
    normal = make_params(model=model, alpha=alpha, nu=nu, q=q)
    g = instab.gamma(normal)
    pos, neg = (make_params(model=model, alpha=alpha, nu=nu, q=q, gamma=s * g) for s in (1.0, -1.0))
    lams = [0.05, 0.2, 0.5, 1.0]
    assert det_grid(lams, neg, 32).tolist() == det_grid(lams, pos, 32).tolist()
    norm = float(np.max(np.sum(np.abs(build_L(pos, 32).dense()), axis=1)))
    assert abs(max_real_eig(neg, 32) - max_real_eig(pos, 32)) <= 1e-12 * max(1.0, norm)


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


def test_growth_rate_input_validation(fig_params):
    dt = stable_dt(fig_params, 8)
    with pytest.raises(ValueError):
        growth_rate(fig_params, 8, t_final=10.0, dt=1.0)  # unstable step
    with pytest.raises(ValueError, match="^dt must be positive$"):
        growth_rate(fig_params, 8, t_final=10.0, dt=-dt)
    with pytest.raises(ValueError):
        growth_rate(fig_params, 8, t_final=0.0, dt=dt)


def test_growth_rate_rejects_infinite_t_final(fig_params):
    with pytest.raises(ValueError):
        growth_rate(fig_params, 8, t_final=math.inf, dt=stable_dt(fig_params, 8))


def test_growth_rate_rejects_nan_t_final(fig_params):
    with pytest.raises(ValueError, match="t_final"):
        growth_rate(fig_params, 8, t_final=math.nan, dt=stable_dt(fig_params, 8))


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


@settings(max_examples=200, deadline=None)
@given(ks=st.lists(st.integers(0, 200), min_size=2, max_size=60, unique=True),
       off=st.floats(-3, 3), h=st.floats(1e-3, 1e3),
       a=st.integers(-10 ** 4, 10 ** 4).map(lambda i: i / 1000),
       b=st.integers(-10 ** 4, 10 ** 4).map(lambda i: i / 100),
       noise=st.one_of(st.just(0.0), st.floats(1e-3, 10)), seed=st.integers(0, 2 ** 32 - 1))
@example(ks=list(range(7)), off=1.0, h=0.37, a=0.0, b=3.7, noise=0.0, seed=0)  # constant y
def test_line_fit_matches_polyfit(ks, off, h, a, b, noise, seed):
    # x: sorted integers with gaps, as the live entries of an eigenvector side
    # are, shifted by up to three spans; y a line with or without noise
    k = np.sort(np.array(ks, dtype=np.float64))
    x = h * (k + off * np.ptp(k))
    y = a * x + b + noise * np.random.default_rng(seed).standard_normal(x.size)
    want, intercept = np.polyfit(x, y, 1)
    slope, r2 = _line_fit(x.copy(), y.copy())
    # relative to the slope, or to the data's own scale where the slope is 0
    assert abs(slope - want) <= 1e-12 * max(abs(want), np.max(np.abs(y)) / np.ptp(x))
    if np.ptp(y) > 0.0:
        # against 1 - SS_res/SS_tot of polyfit's line: both lose digits as
        # the spread of y shrinks against its size
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        ref = 1.0 - float(np.sum((y - (want * x + intercept)) ** 2)) / ss_tot
        assert abs(r2 - ref) <= 1e-12 * max(1.0, np.max(np.abs(y)) / math.sqrt(ss_tot / y.size))


@pytest.mark.parametrize("n", [2, 3, 7, 11, 64])
@pytest.mark.parametrize("level", [0.0, 0.1, 3.7, -2.5, 1e300])
def test_line_fit_of_constant_data_is_flat_and_exact(n, level):
    # constancy is decided before centring, whose rounding residue is 0.0 for
    # some lengths and levels and not for others
    x = np.arange(n, dtype=np.float64) ** 2
    assert _line_fit(x, np.full(n, level)) == (0.0, 1.0)


# (model, alpha, nu, N, full blocks, shape): shape is (blocks per chunk,
# chunks per sampling group, full chunks, tail blocks).  At N=16, 70 full
# blocks are two chunks of 30 and a 10-block tail, and the final half starts
# in the second chunk; 1067 blocks are 35 chunks and a 17-block tail, the
# first 17 chunks marched only and the other 18 one sampling group; 2107
# blocks are 70 chunks and a 7-block tail, the first 35 chunks, more than a
# group, marched only.  At N=64 a chunk is one block and the march is the
# whole loop.  Each run ends in a 5-step partial block.
CHUNK_SHAPES = pytest.mark.parametrize("model, alpha, nu, N, blocks, shape", [
    (ModelKind.NAVIER_STOKES, None, 0.06, 16, 70, (30, 33, 2, 10)),
    (ModelKind.NS_ALPHA, 1.0, 0.05, 16, 70, (30, 33, 2, 10)),
    (ModelKind.NAVIER_STOKES, None, 0.06, 16, 35 * 30 + 17, (30, 33, 35, 17)),
    (ModelKind.NAVIER_STOKES, None, 0.06, 64, 300, (1, 254, 300, 0)),
    (ModelKind.NAVIER_STOKES, None, 0.06, 16, 70 * 30 + 7, (30, 33, 70, 7)),
], ids=["ns", "ns-alpha", "ns-groups", "ns-march", "ns-long"])


@CHUNK_SHAPES
def test_growth_rate_matches_staged_rk4_across_chunks(model, alpha, nu, N, blocks, shape):
    pr = make_params(model=model, alpha=alpha, nu=nu)
    n = 2 * N + 1
    chunk = min(_CHUNK_BLOCKS, _CHUNK_ELEMS // n ** 2)
    assert (chunk, _CHUNK_ELEMS // (chunk * n), *divmod(blocks, chunk)) == shape
    steps = RENORM_EVERY * blocks + 5
    dt = stable_dt(pr, N)
    want = staged_rk4_slope(pr, N, steps, dt, RENORM_EVERY)
    assert growth_rate(pr, N, (steps - 0.5) * dt, dt) == pytest.approx(want, rel=1e-10)


@CHUNK_SHAPES
def test_growth_rate_samples_only_chunks_reaching_the_final_half(monkeypatch, model, alpha, nu, N,
                                                                blocks, shape):
    # the fit reads the samples from the first one at t >= t_final/2 on, so
    # the sampling products take the starts of just the chunks whose samples
    # reach it; the chunks before them are marched only
    chunk, group, chunks, _ = shape
    n = 2 * N + 1
    rows = []
    matmul = np.matmul

    def spy(a, b, *args, **kwargs):
        if b.shape == (n, (chunk - 1) * n):  # S's rows but the last n: a sampling product
            rows.append(a.shape[0])
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    pr = make_params(model=model, alpha=alpha, nu=nu)
    steps = RENORM_EVERY * blocks + 5
    dt = stable_dt(pr, N)
    growth_rate(pr, N, (steps - 0.5) * dt, dt)
    monkeypatch.undo()
    ends = np.minimum(np.arange(0, steps + RENORM_EVERY, RENORM_EVERY), steps)  # in steps
    first = int(np.argmax(ends >= 0.5 * (steps - 0.5)))  # the first sample of the final half
    # chunk c fills samples c*chunk+1 .. (c+1)*chunk; N=64 chunks have no other samples
    reaching = sum((c + 1) * chunk >= first for c in range(chunks)) if chunk > 1 else 0
    assert sum(rows) == reaching
    assert all(0 < m <= group for m in rows)


def test_growth_rate_memory_stays_within_its_chunks(fig_params):
    # 2^20 steps at N=16: past the sample arrays t and y, the run holds S and
    # one sampling product, each within _CHUNK_ELEMS elements, and small
    # matrices, so never more than three such chunks; holding every chunk
    # start at once (2184 starts of 33 entries) would add about two more
    dt = stable_dt(fig_params, 16)
    growth_rate(fig_params, 16, 40.0, dt)  # numpy loads its random module on first use
    steps = 1 << 20
    samples = steps // RENORM_EVERY + 1
    tracemalloc.start()
    try:
        growth_rate(fig_params, 16, (steps - 0.5) * dt, dt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * samples * 8 + 3 * _CHUNK_ELEMS * 8


@pytest.mark.parametrize("N", [8, 16])
@pytest.mark.parametrize("model, alpha, q, nu", [
    (ModelKind.NAVIER_STOKES, None, (-1, 2), 0.06),
    (ModelKind.NAVIER_STOKES, None, (0, -2), 0.05),
    (ModelKind.NAVIER_STOKES, None, (0, 2), 0.05),
    (ModelKind.NS_ALPHA, 1.0, (-1, 2), 0.05),
    (ModelKind.NAVIER_STOKES, None, (-1, 2), 1.0),
], ids=["ns-I0", "ns-I-", "ns-I+", "ns-alpha-I0", "ns-I0-stable"])
def test_dt_max_is_the_diagonal_bound_where_bands_are_small(model, alpha, q, nu, N):
    # off-diagonal row sums of at most 4 leave the diagonal-only bound as it was
    pr = make_params(model=model, alpha=alpha, q=q, nu=nu)
    assert _dt_max(build_L(pr, N)) == stable_dt(pr, N)


@pytest.mark.parametrize("q", [(0, -2), (0, 2)])
def test_dt_max_accounts_for_off_diagonal_rows(q):
    # the NS-alpha q=(0,+-2) rows of the oracle triangle sum to 5.46 at N=16;
    # at N = 1 the largest sum, 4.5, is an end row, which has one band entry
    (nu,) = [row[3] for row in TRIANGLE if row[0] is ModelKind.NS_ALPHA and row[2] == q]
    pr = make_params(model=ModelKind.NS_ALPHA, alpha=1.0, q=q, nu=nu)
    for N in (1, 2, 16):
        op = build_L(pr, N)
        rows = np.abs(op.dense() - np.diag(op.diag)).sum(axis=1)
        assert _dt_max(op) == 1.0 / (4.0 * np.max(np.abs(op.diag)) + max(4.0, np.max(rows)))
    assert np.max(rows) == pytest.approx(5.46, abs=0.01)
    assert _dt_max(op) < stable_dt(pr, 16)


def test_default_step_is_stable_on_wide_bands():
    # the diagonal-only bound took dt = 0.25 here, where the bands sum to
    # 1.45e3, and reported a slope of 11.27; the top eigenvalue is -3.4e-6
    pr = make_params(model=ModelKind.SECOND_GRADE, alpha=0.5, p=(20, 7), q=(-3, 1), nu=1e-6)
    slope = growth_rate(pr, 2, 40.0, _dt_max(build_L(pr, 2)))
    assert abs(slope) < 1e-3


@pytest.mark.parametrize("t_final, dt, match", [
    (1.0, 1e-300, "step cap"),
    (1.5e-4 * MAX_RK4_STEPS, 1e-4, "step cap"),
    (10.5e-4, 1e-4, "final half"),
], ids=["dt-1e-300", "1.5-cap", "one-sample"])
def test_growth_rate_refuses_before_dense(fig_params, monkeypatch, t_final, dt, match):
    dense = count_calls(monkeypatch, TruncatedOperator, "dense")
    with pytest.raises(ValueError, match=match):
        growth_rate(fig_params, 8, t_final, dt)
    assert dense == []


@settings(max_examples=40, deadline=None)
@given(model=st.sampled_from(list(ModelKind)), alpha=st.sampled_from([0.5, 1.0]),
       orbit=st.sampled_from(CLASS_I_ORBITS), f=st.floats(0.05, 0.9))
def test_oracle_triangle_on_random_instances(model, alpha, orbit, f):
    # the root of a random orbit below its threshold nu0 against the N=128
    # section spectrum and, where that leg is defined, the determinant zero.
    # At N=64 slowly decaying second-grade modes (about e^-0.1 per index) miss
    # by up to 1e-6; at small nu the determinant's slope at the root is so
    # steep that |det(I+K)| stays far above any fixed bound (0.13 at
    # nu=3.9e-4 with the root run to 1e-15), so the determinant leg asks
    # for a sign change within the agreement bound.
    p, q = orbit
    params = make_params(model=model, alpha=alpha, p=p, q=q, nu=1.0)  # ns drops alpha
    params = dataclasses.replace(params, nu=f * nu0_estimate(params, tol=1e-10))
    res = find_root(DispersionSpec(params), tol=1e-12)
    assert res.found, res.diagnostic
    lam, bound = res.lam, 1e-8 * max(1.0, res.lam)
    assert abs(max_real_eig(params, 128) - lam) <= bound
    if model is not ModelKind.SECOND_GRADE:
        below, above = (det_I_plus_K(x, params, 128).value for x in (lam - bound, lam + bound))
        assert below * above <= 0.0
        assert abs(det_root(params, 128, (0.9 * lam, 1.1 * lam), tol=0.25 * bound) - lam) <= bound


@pytest.mark.parametrize("model, alpha, q, nu", [row[:4] for row in TRIANGLE],
                         ids=[f"{row[0].value}-{row[2][0]},{row[2][1]}" for row in TRIANGLE])
def test_certify_equals_the_direct_calls(model, alpha, q, nu):
    # each field is the library call certify makes, with the same arguments
    params = make_params(model=model, alpha=alpha, q=q, nu=nu)
    cert = certify(params, 64, 1e-8)
    lam = find_root(DispersionSpec(params), tol=1e-10).lam
    top = max_real_eig(params, 64)
    agree = 1e-8 * max(1.0, lam)
    want = dict(lam_cf=lam, lam_matrix=top, agree=agree, ok_matrix=abs(top - lam) <= agree)
    if model is ModelKind.SECOND_GRADE:
        want.update(det_lo=None, det_at_root=None, det_hi=None, det_root=None,
                    ok_det_value=True, ok_det_root=True, passed=True)
    else:
        lo, at, hi = det_grid([max(lam - agree, 0.5 * lam), lam, lam + agree], params, 64)
        zero = det_root(params, 64, (0.9 * lam, 1.1 * lam), tol=0.25 * agree)
        want.update(det_lo=lo, det_at_root=at, det_hi=hi, det_root=zero,
                    ok_det_value=min(lo, hi) <= 0.0 <= max(lo, hi),
                    ok_det_root=abs(zero - lam) <= agree)
        want["passed"] = want["ok_matrix"] and want["ok_det_value"] and want["ok_det_root"]
    assert dataclasses.asdict(cert) == want
