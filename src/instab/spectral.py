"""Independent oracles for cross-validating dispersion roots.

Three routes that never touch the continued fractions:

* finite-section matrix of the orbit operator and its dense spectrum,
* the perturbation determinant det(I + K_lambda) of the section's
  off-diagonal factor, whose zeros are exactly the eigenvalues,
* a renormalized RK4 time-stepper measuring the growth rate of a random
  initial vector.

A certified instability must survive all three within stated tolerances;
certify states the matrix and determinant legs of that rule once.

The determinant has one driver, _det_rows: up to _FLOAT_WIDTH lambdas it runs
the scaled recurrence as Python float loops, one lambda at a time, and wider
passes form the row factors of a block of rows at once and take one numpy
step per row, with the same per-element arithmetic, so the width never
changes a value.  det_I_plus_K is a one-lambda det_grid.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .contfrac import DEFAULT_MAX_DEPTH
from .dispersion import DispersionSpec, _found_root, _refine
from .errors import NoConvergence, NoSignChange, _check_number
from .models import CoefficientStream, FlowParams, ModelKind

__all__ = [
    "TruncatedOperator",
    "DeterminantSample",
    "build_L",
    "max_real_eig",
    "dominant_mode",
    "build_K",
    "det_I_plus_K",
    "det_grid",
    "det_root",
    "Certificate",
    "certify",
    "growth_rate",
]

DENSE_CAP = 512
# the linear windows (build_L's bands, the determinant, the eigenvector) refuse
# N above this; the largest in use is 2000
WINDOW_CAP = 100_000
RENORM_EVERY = 16  # RK4 steps per renormalization block of growth_rate
# growth_rate's chunks hold up to this many blocks (512 steps), with their
# stacked propagator and each sampling product within this many elements (256 KB)
_CHUNK_BLOCKS = 32
_CHUNK_ELEMS = 1 << 15
MAX_RK4_STEPS = 1 << 24  # growth_rate refuses longer runs before any work
# lambdas per det_grid pass, and row factors per block of a wide _det_rows
# pass: a full pass peaks at about thirteen vectors of this length (under
# 1 MB), its blocks of factors included, so a grid of any length and window
# allocates no more
DET_GRID_CHUNK = 1 << 13
# lambdas up to which _det_rows runs float loops: a numpy step per row costs
# more below about 13 lambdas at N=128, and both costs scale with N
_FLOAT_WIDTH = 8
# the determinant recurrence rescales a minor pair by an exact power of two
# once its larger magnitude leaves [2^-256, 2^256]
_RESCALE_LO, _RESCALE_HI = 2.0 ** -256, 2.0 ** 256


@dataclass(frozen=True)
class TruncatedOperator:
    """Tridiagonal section on indices [-N, N]: build_L's operator or build_K's factor.

    In L, row n carries sub-band rho_{n-1}, diagonal -nu*d_n and sup-band
    -rho_{n+1}; entries referencing |n| > N are dropped (hard Dirichlet
    cutoff; eigenvectors decay exponentially so the boundary effect dies out
    well inside N=128 for the instances treated here).  dense() refuses
    windows above DENSE_CAP, so no oracle forms a matrix larger than
    (2*DENSE_CAP+1)^2.  Where rho_n = 0 exactly (the I+/I- cut, a point of
    norm |p|, each index of a parallel orbit) a band entry is 0.0 and the
    section is block triangular across it: its spectrum is the union of the
    diagonal blocks' spectra.  Within a block both bands are nonzero, so a
    diagonal similarity turns each coupling into +-sqrt|sub_i*sup_i|, skew
    where sub_i*sup_i < 0 and symmetric where it is > 0; with
    s_i = sqrt(max(sub_i*sup_i, 0)), every eigenvalue of the block has
    Re lambda <= max_i(diag_i + s_{i-1} + s_i), the Gershgorin bound of the
    Hermitian part (Bendixson).  max_real_eig solves a block only if that
    bound reaches the best top found so far.
    """

    N: int
    diag: np.ndarray  # length 2N+1, diag[i] for n = i-N
    sub: np.ndarray   # length 2N, sub[i] = entry (i+1, i)
    sup: np.ndarray   # length 2N, sup[i] = entry (i, i+1)

    def dense(self) -> np.ndarray:
        _check_window_cap(self.N, dense=True)
        return (np.diag(self.diag)
                + np.diag(self.sub, -1)
                + np.diag(self.sup, +1))


def _check_window_cap(N: int, minimum: int = 1, *, dense: bool = False) -> None:
    try:
        operator.index(N)  # Python and numpy ints pass; floats, even 8.0, do not
    except TypeError:
        raise ValueError("window N must be an integer") from None
    cap, name = (DENSE_CAP, "dense") if dense else (WINDOW_CAP, "window")
    if N > cap:
        raise ValueError(f"window N={N} above {name} cap {cap}")
    if N < minimum:
        raise ValueError(f"window N must be at least {minimum}")


def build_L(params: FlowParams, N: int) -> TruncatedOperator:
    _check_window_cap(N)
    cs = CoefficientStream(params)
    n = np.arange(-N, N + 1, dtype=np.int64)
    rho = cs.rho(n)
    return TruncatedOperator(N=N, diag=-params.nu * cs.diag_weight(n),
                             sub=rho[:-1],  # row n takes rho_{n-1}
                             sup=-rho[1:])  # row n takes -rho_{n+1}


def max_real_eig(params: FlowParams, N: int) -> float:
    """Largest real part over the truncated operator's spectrum, block by block.

    The section is cut after each index i with sub[i] == 0.0 or sup[i] == 0.0.
    This is exact: a zero band entry is the only coupling across its cut in one
    direction, so the section is block triangular there and its characteristic
    polynomial is the product of the blocks'.  The blocks are visited in order
    of descending Bendixson bound (see TruncatedOperator; s_i is 0.0 at every
    cut, so one O(N) expression gives every block's bound), and each visited
    block is solved: a 1x1 block gives its diagonal entry, any other block one
    dense solve built from its own bands.  The visit stops at the first block
    whose bound + margin lies below the best top so far, with margin =
    1e-12*max(1, ||L||_inf), so the result is the top over all blocks: a
    computed top can exceed its block's bound by a rounding residue of that
    order, as at nu = 0, where a stable block's bound is exactly 0.  A section
    without a zero band entry is one block, the whole matrix.  On an I+/I-
    section the block away from n = 0 has only skew couplings, so its bound is
    max(-nu*d_n) < 0 and only the block holding n = 0 is solved.
    """
    _check_window_cap(N, dense=True)
    L = build_L(params, N)
    cuts = (np.flatnonzero((L.sub == 0.0) | (L.sup == 0.0)) + 1).tolist()
    starts, ends = [0, *cuts], [*cuts, 2 * N + 1]
    s = np.pad(np.sqrt(np.maximum(L.sub * L.sup, 0.0)), 1)  # 0.0 beyond either end
    bounds = np.maximum.reduceat(L.diag + s[:-1] + s[1:], starts)
    margin = 1e-12 * max(1.0, float(np.max(
        np.abs(L.diag) + np.pad(np.abs(L.sub), (1, 0)) + np.pad(np.abs(L.sup), (0, 1)))))
    best = -math.inf
    for i in np.argsort(-bounds).tolist():
        if bounds[i] + margin < best:
            break
        a, b = starts[i], ends[i]
        best = max(best, float(L.diag[a]) if b - a == 1 else float(np.max(np.linalg.eigvals(
            np.diag(L.diag[a:b]) + np.diag(L.sub[a:b - 1], -1)
            + np.diag(L.sup[a:b - 1], +1)).real)))
    return best


def dominant_mode(params: FlowParams, N: int) -> tuple[float, np.ndarray]:
    """Eigenpair with the largest real part; vector phase-aligned to real."""
    _check_window_cap(N, dense=True)
    M = build_L(params, N).dense()
    vals, vecs = np.linalg.eig(M)
    i = int(np.argmax(vals.real))
    v = vecs[:, i]
    v = v * np.exp(-1j * np.angle(v[int(np.argmax(np.abs(v)))]))
    return float(vals[i].real), v.real


def build_K(lam: float, params: FlowParams, N: int) -> TruncatedOperator:
    """Off-diagonal factor K of the section: L - lambda = diag(L_nn - lambda)(I + K).

    Read off build_L: with k_n = 1/(L_nn - lambda) = 1/(-nu*d_n - lambda), row
    n scales the off-diagonals of L's row n, sub k_n*rho_{n-1} and sup
    -k_n*rho_{n+1}, and the diagonal is zero.  These are O(n^-2) for
    NavierStokes and NS-alpha (d_n grows like n^2) and for NS-Voigt (rho_n
    decays like n^-2), so K is trace class, det(I+K) converges as N grows and
    vanishes exactly at the eigenvalues.  The second-grade d_n is bounded and
    rho_n tends to a constant, so its K is not trace class: the sectioned
    determinants grow without limit in N.  _det_rows forms these rows itself.
    """
    _check_det_lambdas(lam)
    L = build_L(params, N)
    k = 1.0 / (L.diag - lam)
    return TruncatedOperator(N=N, diag=np.zeros(2 * N + 1),
                             sub=k[1:] * L.sub, sup=k[:-1] * L.sup)


def _check_det_lambdas(lams) -> None:
    # build_K's and det_grid's rule: each lambda finite, then > 0
    _check_number("lambda", lams, None)
    if np.any(np.asarray(lams) <= 0):
        raise ValueError("the determinant factorization needs lambda > 0")


@dataclass(frozen=True)
class DeterminantSample:
    lam: float
    value: float
    N: int


def det_I_plus_K(lam: float, params: FlowParams, N: int) -> DeterminantSample:
    """det of the (2N+1)-section of I + K_lambda: det_grid at one lambda.

    For a unit-diagonal tridiagonal matrix the leading principal minors obey
    D_m = D_{m-1} - sub_m*sup_{m-1}*D_{m-2}; the recurrence is run in scaled
    form (mantissa plus base-2 exponent) so deep windows cannot overflow
    mid-way.  A determinant beyond the double range raises NoConvergence
    naming N and the magnitude.  The sections diverge that way where K is not
    trace class; a trace-class determinant can also be finite but too large
    (NavierStokes at nu = lambda = 1e-6, N = 512: about 1e635).
    """
    return DeterminantSample(lam, float(det_grid([lam], params, N)[0]), N)


def det_grid(lams, params: FlowParams, N: int) -> np.ndarray:
    """det_I_plus_K(lam, params, N).value at each lambda of a 1-D grid, in grid order.

    The section is built once, and each chunk of at most DET_GRID_CHUNK lambdas
    is one _det_rows pass.  A grid that is not 1-D, or a lambda that is not
    finite or is <= 0 anywhere, raises ValueError before any work.
    """
    _check_det_lambdas(lams)
    lams = np.asarray(lams, dtype=np.float64)
    if lams.ndim != 1:
        raise ValueError("det_grid needs a 1-D grid of lambdas")
    L = build_L(params, N)
    out = np.empty(lams.size)
    for start in range(0, lams.size, DET_GRID_CHUNK):
        chunk = slice(start, start + DET_GRID_CHUNK)
        out[chunk] = _det_rows(L, lams[chunk])
    return out


def _det_rows(L: TruncatedOperator, lams: np.ndarray) -> np.ndarray:
    """det(I + K_lambda) of the section L at each lambda: the one determinant driver.

    K's rows are build_K's k = 1/(L_nn - lambda) and (k_{m+1}*sub_m)*(k_m*sup_m),
    the factor of D_{m-2}.  Up to _FLOAT_WIDTH lambdas run as float loops, one
    at a time.  Wider passes form those factors for a block of rows times
    lambdas at once, at most DET_GRID_CHUNK of them, then step over the vector
    row by row, holding a few vectors of it whatever N is; a row takes the
    exact rescale test only when some magnitude of the pair has left
    [2^-256, 2^256].  Both end in the power-of-two shift and NoConvergence for
    the first lambda, in order, whose value is beyond the double range.
    """
    # Python float arithmetic overflows to inf and nan silently; so does numpy here
    with np.errstate(over="ignore", invalid="ignore"):
        if lams.size <= _FLOAT_WIDTH:
            lo, hi = _RESCALE_LO, _RESCALE_HI  # locals: this loop is det_root's cost
            d_prev, shift = [], []
            for lam in lams.tolist():
                k = 1.0 / (L.diag - lam)
                d2, d1, e_sum = 1.0, 1.0, 0  # empty minor and the first 1x1 block
                for c in ((k[1:] * L.sub) * (k[:-1] * L.sup)).tolist():
                    d = d1 - c * d2
                    mag = max(abs(d), abs(d1))
                    if mag > hi or (0.0 < mag < lo):
                        _, e = math.frexp(mag)
                        d = math.ldexp(d, -e)
                        d1 = math.ldexp(d1, -e)
                        e_sum += e
                    d2, d1 = d1, d
                d_prev.append(d1)
                shift.append(e_sum)
            d_prev, shift = np.array(d_prev), np.array(shift, dtype=np.int64)
        else:
            d_prev2, d_prev = np.ones(lams.size), np.ones(lams.size)
            mag_prev = np.ones(lams.size)  # |d_prev|, carried from row to row
            shift = np.zeros(lams.size, dtype=np.int64)
            rows = max(1, DET_GRID_CHUNK // lams.size)  # row factors per block
            for r0 in range(0, L.sub.size, rows):
                k = 1.0 / (L.diag[r0:r0 + rows + 1, None] - lams)
                sub, sup = L.sub[r0:r0 + rows, None], L.sup[r0:r0 + rows, None]
                for c in (k[1:] * sub) * (k[:-1] * sup):
                    d = d_prev - c * d_prev2
                    mag_d = np.abs(d)
                    mag = np.maximum(mag_d, mag_prev)
                    # max and min are NaN if any element is, and NaN fails both
                    # tests: a NaN magnitude sends the row to the exact test,
                    # which rescales the other lambdas and leaves the NaN as it is
                    if not (mag.max() <= _RESCALE_HI and mag.min() >= _RESCALE_LO):
                        rescale = (mag > _RESCALE_HI) | ((mag > 0.0) & (mag < _RESCALE_LO))
                        if rescale.any():
                            e = np.where(rescale, np.frexp(mag)[1], 0)
                            d = np.ldexp(d, -e)
                            d_prev = np.ldexp(d_prev, -e)
                            shift += e
                            mag_d = np.abs(d)
                    d_prev2, d_prev, mag_prev = d_prev, d, mag_d
        values = np.ldexp(d_prev, shift)
    beyond = np.flatnonzero(np.isinf(values) & np.isfinite(d_prev))
    if beyond.size:
        i = beyond[0]
        raise NoConvergence(
            f"|det(I+K)| of the N={L.N} section is about 1e"
            f"{math.log10(abs(float(d_prev[i]))) + int(shift[i]) * math.log10(2.0):.0f},"
            " beyond the double range", depth=L.N)
    return values


def det_root(params: FlowParams, N: int, bracket: tuple[float, float],
             tol: float) -> float:
    """Zero of the sectioned determinant on a sign-changing bracket (dispersion._refine)."""
    _check_number("tol", tol)
    _check_number("bracket", bracket, None)
    lo, hi = bracket
    if not 0 < lo < hi:
        raise ValueError("bracket must be finite with 0 < lo < hi")
    L = build_L(params, N)  # once: each end and trial point is a _det_rows pass on it
    f_lo, f_hi = _det_rows(L, np.array([lo, hi])).tolist()
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    s = math.copysign(1.0, f_lo)
    if s == math.copysign(1.0, f_hi):
        raise NoSignChange(
            f"det(I+K) has the same sign at both ends of [{lo:g}, {hi:g}]")
    lo, hi = _refine(lambda lam: s * float(_det_rows(L, np.array([lam]))[0]), lo, hi, tol,
                     s * f_lo, s * f_hi)
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class Certificate:
    """certify's verdicts and the values verify prints.

    Skipped determinant legs pass with None values; det_root alone is None,
    and its leg fails, where det(I+K) has no sign change on its bracket.
    """

    lam_cf: float
    lam_matrix: float
    agree: float
    det_lo: float | None
    det_at_root: float | None
    det_hi: float | None
    det_root: float | None
    ok_matrix: bool
    ok_det_value: bool
    ok_det_root: bool
    passed: bool


def certify(params: FlowParams, N: int, agree_tol: float, *,
            max_depth: int = DEFAULT_MAX_DEPTH) -> Certificate:
    """The oracle triangle of the dispersion root on the N-section, stated once.

    Checks the orbit class, the dense cap on N and agree_tol, then runs the
    root search to min(1e-10, agree_tol/4) (NoSignChange if it finds none).
    Each leg must lie within agree = agree_tol*max(1, lambda_cf) of the root:
    the section top, a sign change of det(I+K) on [max(lambda_cf - agree,
    lambda_cf/2), lambda_cf + agree] (not a small |det|: its slope at the root
    grows without bound as nu falls) and det_root on (0.9, 1.1)*lambda_cf, run
    to agree/4.  The determinant legs need a trace-class K (see build_K), so
    they are skipped for the second-grade model.
    """
    spec = DispersionSpec(params)
    _check_window_cap(N, dense=True)  # the dense solve waits for a root
    _check_number("agree_tol", agree_tol)
    lam_cf = _found_root(spec, tol=min(1e-10, 0.25 * agree_tol), max_depth=max_depth).lam
    lam_mx = max_real_eig(params, N)
    agree = agree_tol * max(1.0, lam_cf)
    ok_mx = abs(lam_mx - lam_cf) <= agree
    if params.model is ModelKind.SECOND_GRADE:
        return Certificate(lam_cf, lam_mx, agree, None, None, None, None, ok_mx, True, True, ok_mx)
    lo = max(lam_cf - agree, 0.5 * lam_cf)
    d_lo, det_at, d_hi = det_grid([lo, lam_cf, lam_cf + agree], params, N).tolist()
    ok_val = d_lo <= 0.0 <= d_hi or d_hi <= 0.0 <= d_lo
    try:
        lam_det = det_root(params, N, (0.9 * lam_cf, 1.1 * lam_cf), tol=0.25 * agree)
    except NoSignChange:
        lam_det = None
    ok_root = lam_det is not None and abs(lam_det - lam_cf) <= agree
    return Certificate(lam_cf, lam_mx, agree, d_lo, det_at, d_hi, lam_det,
                       ok_mx, ok_val, ok_root, ok_mx and ok_val and ok_root)


def _dt_max(op: TruncatedOperator) -> float:
    """Largest step the explicit integrator accepts on this section.

    1/(4*max|diag| + max(4, R)), with R the largest off-diagonal row sum
    |rho_{n-1}| + |rho_{n+1}|.  It keeps ||dt*L||_inf <= 1, so the RK4
    polynomial P has ||P||_inf <= 1 + 1 + 1/2 + 1/6 + 1/24 < e, and each
    product of growth_rate, at most _CHUNK_BLOCKS blocks (512 steps), grows a
    vector by at most e^512 (about 1e222) in the inf-norm.  Where R <= 4 it is
    1/(4*max|diag| + 4), the diagonal-only bound.
    """
    sub, sup = np.abs(op.sub), np.abs(op.sup)
    # row -N holds sup[0] only, row N sub[-1] only, every other row both
    R = max(float(sup[0]), float(np.max(sub[:-1] + sup[1:])), float(sub[-1]))
    return 1.0 / (4.0 * float(np.max(np.abs(op.diag))) + max(4.0, R))


def growth_rate(params: FlowParams, N: int, t_final: float, dt: float, *,
                seed: int = 0) -> float:
    """Growth rate of dw/dt = L_truncated w from seeded random initial data.

    Classic 4-stage explicit integration as a block propagator: the RK4
    polynomial P = I + A + A^2/2 + A^3/6 + A^4/24 of A = dt*L and
    B = P^RENORM_EVERY are formed once.  log||w|| is sampled at t = 0, at the
    end of each block of RENORM_EVERY steps and at the last step.  The blocks
    run in chunks of k, with S = [B; B^2; ...; B^k] built once by doubling.
    The start of every chunk is marched with B^k, the last n rows of S: one
    n x n product, a norm and a log per chunk, which give the chunk's last
    sample, and the march renormalizes by it.  The fit reads only the final
    half, so the chunks whose samples all precede it are marched only.  The
    other k - 1 samples of each later chunk are taken in groups of up to
    _CHUNK_ELEMS // (k*n) chunks, the first group starting at the first chunk
    that reaches the final half: one product of S's other rows with the
    group's starts, so each result holds at most _CHUNK_ELEMS elements
    (256 KB) whatever the step count.  The last full % k blocks are one
    product with their rows of S, and the last steps % RENORM_EVERY steps one
    product with their power of P.  k is at most _CHUNK_BLOCKS (512 steps,
    which dt <= _dt_max keeps below e^512 in the inf-norm, so every product,
    which applies at most B^k to a unit vector, is finite) and keeps S within
    _CHUNK_ELEMS elements: 30 blocks at N = 16, one block from N = 64 on, where
    the march is the whole loop.  Returns the least-squares slope of the
    samples over the final half.  A step count above MAX_RK4_STEPS, or a final
    half holding fewer than two samples, raises ValueError before any work.
    """
    _check_window_cap(N, dense=True)
    op = build_L(params, N)
    return _growth_rate(op, _dt_max(op), t_final, dt, seed)


def _growth_rate(op: TruncatedOperator, dt_max: float, t_final: float, dt: float,
                 seed: int) -> float:
    """growth_rate on a built section whose step bound _dt_max(op) is dt_max."""
    _check_number("dt", dt)
    if not dt <= dt_max:
        raise ValueError(f"dt={dt:g} unstable for explicit stepping; need dt <= {dt_max:g}")
    _check_number("t_final", t_final)
    if t_final / dt > MAX_RK4_STEPS:
        raise ValueError(f"t_final/dt = {t_final / dt:.3g} RK4 steps, above the step cap "
                         f"of {MAX_RK4_STEPS}; raise dt or lower t_final")
    steps = max(1, math.ceil(t_final / dt))
    t = np.minimum(np.arange(0, steps + RENORM_EVERY, RENORM_EVERY), steps) * dt
    first = int(np.searchsorted(t, 0.5 * t_final))  # t is sorted: the final half is a suffix
    if t.size - first < 2:
        raise ValueError("not enough samples in the final half; lower dt or raise t_final")
    n = 2 * op.N + 1
    w = np.random.default_rng(seed).standard_normal(n)
    A = dt * op.dense()
    eye = np.eye(n)
    P = eye + A @ (eye + A @ (eye + A @ (eye + A / 4.0) / 3.0) / 2.0)

    full, rest = divmod(steps, RENORM_EVERY)
    k = max(1, min(full, _CHUNK_BLOCKS, _CHUNK_ELEMS // n ** 2))
    S = np.empty((k * n, n))
    if full:
        S[:n] = np.linalg.matrix_power(P, RENORM_EVERY)
        b = 1
        while b < k:  # [B; ...; B^j] @ B^b gives B^(b+1) .. B^(b+j)
            j = min(b, k - b)
            np.matmul(S[:j * n], S[(b - 1) * n:b * n], out=S[b * n:(b + j) * n])
            b += j
    y = np.empty(t.size)
    nrm0 = float(np.linalg.norm(w))
    y[0] = log_shift = math.log(nrm0)
    w = w / nrm0
    chunks, group = full // k, _CHUNK_ELEMS // (k * n)
    # chunk c fills y[c*k+1 .. (c+1)*k], so the chunks before skip end before y[first]
    skip = min((first - 1) // k, chunks)
    Bk, starts = S[-n:], np.empty((min(chunks - skip, group), n))
    products = np.empty((len(starts), (k - 1) * n))
    # [0, skip) is marched only; the sampling groups start at skip
    bounds = sorted({0, *range(skip, chunks, group), chunks})
    for c0, c1 in zip(bounds, bounds[1:]):
        sampled = k > 1 and c0 >= skip
        for c in range(c0, c1):  # march the chunk starts with B^k: each chunk's last sample
            if sampled:
                starts[c - c0] = w
            w = np.dot(Bk, w)
            nrm = math.sqrt(np.dot(w, w))
            log_shift += math.log(nrm)
            y[(c + 1) * k] = log_shift
            w /= nrm
        if sampled:  # the other k-1 samples of the group's chunks in one product
            m = c1 - c0
            W = np.matmul(starts[:m], S[:-n].T, out=products[:m]).reshape(m, k - 1, n)
            Y = y[c0 * k + 1:c1 * k + 1].reshape(m, k)
            Y[:, :-1] = (y[c0 * k:c1 * k:k, None]
                         + np.log(np.sqrt(np.einsum("ijk,ijk->ij", W, W))))
    if full % k:
        W = (S[:full % k * n] @ w).reshape(-1, n)
        nrm = np.linalg.norm(W, axis=1)
        y[chunks * k + 1:full + 1] = log_shift + np.log(nrm)
        log_shift = float(y[full])
        w = W[-1] / nrm[-1]
    if rest:
        w = np.linalg.matrix_power(P, rest) @ w
        y[-1] = log_shift + math.log(float(np.linalg.norm(w)))
    # the samples are not needed after the fit, so the final half is centred in place
    return _line_fit(t[first:], y[first:])[0]


def _line_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares slope of y on x and R^2, (0.0, 1.0) for constant y; centres both in place."""
    if y.min() == y.max():  # before centring, which can leave a rounding residue
        return 0.0, 1.0
    x -= x.mean()
    y -= y.mean()
    sxy = x @ y
    slope = sxy / (x @ x)
    return float(slope), float(sxy * slope / (y @ y))
