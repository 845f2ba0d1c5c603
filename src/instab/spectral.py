"""Independent oracles for cross-validating dispersion roots.

Three routes that never touch the continued fractions:

* finite-section matrix of the orbit operator and its dense spectrum,
* the perturbation determinant det(I + K_lambda) of the section's
  off-diagonal factor, whose zeros are exactly the eigenvalues,
* a renormalized RK4 time-stepper measuring the growth rate of a random
  initial vector.

A certified instability must survive all three within stated tolerances.

The determinant has one driver, _det_rows: up to _FLOAT_WIDTH lambdas it runs
the scaled recurrence as Python float loops, one lambda at a time, and wider
passes form the row factors of a block of rows at once and take one numpy
step per row, with the same per-element arithmetic, so the width never
changes a value.  det_I_plus_K is a one-lambda det_grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dispersion import _refine
from .errors import NoConvergence, NoSignChange, _check_positive
from .models import CoefficientStream, FlowParams

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
_NEEDS_POSITIVE_LAMBDA = "the determinant factorization needs lambda > 0"


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
    diagonal blocks' spectra, which max_real_eig solves one by one.
    """

    N: int
    diag: np.ndarray  # length 2N+1, diag[i] for n = i-N
    sub: np.ndarray   # length 2N, sub[i] = entry (i+1, i)
    sup: np.ndarray   # length 2N, sup[i] = entry (i, i+1)

    def dense(self) -> np.ndarray:
        _check_dense_cap(self.N)
        return (np.diag(self.diag)
                + np.diag(self.sub, -1)
                + np.diag(self.sup, +1))


def _check_dense_cap(N: int) -> None:
    if N > DENSE_CAP:
        raise ValueError(f"window N={N} above dense cap {DENSE_CAP}")
    _check_window_cap(N)


def _check_window_cap(N: int, minimum: int = 1) -> None:
    if N > WINDOW_CAP:
        raise ValueError(f"window N={N} above window cap {WINDOW_CAP}")
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

    The section is cut after each index i with sub[i] == 0.0 or sup[i] == 0.0,
    and the result is the top over the diagonal blocks: a 1x1 block gives its
    diagonal entry, any other block one dense solve.  This is exact: a zero
    band entry is the only coupling across its cut in one direction, so the
    section is block triangular there and its characteristic polynomial is the
    product of the blocks'.  A section without a zero band entry is one block,
    the whole matrix.
    """
    _check_dense_cap(N)
    L = build_L(params, N)
    M = L.dense()
    cuts = [0, *(np.flatnonzero((L.sub == 0.0) | (L.sup == 0.0)) + 1).tolist(), 2 * N + 1]
    return max(float(M[a, a]) if b - a == 1 else
               float(np.max(np.linalg.eigvals(M[a:b, a:b]).real))
               for a, b in zip(cuts, cuts[1:]))


def dominant_mode(params: FlowParams, N: int) -> tuple[float, np.ndarray]:
    """Eigenpair with the largest real part; vector phase-aligned to real."""
    _check_dense_cap(N)
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
    if not math.isfinite(lam):
        raise ValueError("lambda must be finite")
    if lam <= 0:
        raise ValueError(_NEEDS_POSITIVE_LAMBDA)
    L = build_L(params, N)
    k = 1.0 / (L.diag - lam)
    return TruncatedOperator(N=N, diag=np.zeros(2 * N + 1),
                             sub=k[1:] * L.sub, sup=k[:-1] * L.sup)


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
    lams = np.asarray(lams, dtype=np.float64)
    if lams.ndim != 1:
        raise ValueError("det_grid needs a 1-D grid of lambdas")
    if not np.isfinite(lams).all():
        raise ValueError("lambda must be finite")
    if np.any(lams <= 0):
        raise ValueError(_NEEDS_POSITIVE_LAMBDA)
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
    _check_positive("tol", tol)
    lo, hi = bracket
    if not 0 < lo < hi < math.inf:
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
    The start of each chunk is marched with B^k, the last n rows of S: one
    n x n product, a norm and a log per chunk, which give the chunk's last
    sample, and the march renormalizes by it.  The other k - 1 samples of a
    group of up to _CHUNK_ELEMS // (k*n) chunks are one product of S's other
    rows with the group's starts, so each result holds at most _CHUNK_ELEMS
    elements (256 KB) whatever the step count.  The last full % k blocks are
    one product with their rows of S, and the last steps % RENORM_EVERY steps
    one product with their power of P.  k is at most _CHUNK_BLOCKS (512 steps,
    which dt <= _dt_max keeps below e^512 in the inf-norm, so every product,
    which applies at most B^k to a unit vector, is finite) and keeps S within
    _CHUNK_ELEMS elements: 30 blocks at N = 16, one block from N = 64 on, where
    the march is the whole loop.  Returns the least-squares slope of the
    samples over the final half.  A step count above MAX_RK4_STEPS, or a final
    half holding fewer than two samples, raises ValueError before any work.
    """
    _check_dense_cap(N)
    op = build_L(params, N)
    dt_max = _dt_max(op)
    if not 0 < dt <= dt_max:
        raise ValueError(f"dt={dt:g} unstable for explicit stepping; need dt <= {dt_max:g}")
    _check_positive("t_final", t_final)
    if t_final / dt > MAX_RK4_STEPS:
        raise ValueError(f"t_final/dt = {t_final / dt:.3g} RK4 steps, above the step cap "
                         f"of {MAX_RK4_STEPS}; raise dt or lower t_final")
    steps = max(1, math.ceil(t_final / dt))
    t = np.minimum(np.arange(0, steps + RENORM_EVERY, RENORM_EVERY), steps) * dt
    first = int(np.searchsorted(t, 0.5 * t_final))  # t is sorted: the final half is a suffix
    if t.size - first < 2:
        raise ValueError("not enough samples in the final half; lower dt or raise t_final")
    n = 2 * N + 1
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
    Bk, starts = S[-n:], np.empty((min(chunks, group), n))
    products = np.empty((len(starts), (k - 1) * n))
    for c0 in range(0, chunks, group):
        m = min(group, chunks - c0)
        for c in range(m):  # march the chunk starts with B^k: each chunk's last sample
            starts[c] = w
            w = np.dot(Bk, w)
            nrm = math.sqrt(np.dot(w, w))
            log_shift += math.log(nrm)
            y[(c0 + c + 1) * k] = log_shift
            w /= nrm
        if k > 1:  # the other k-1 samples of the group's chunks in one product
            W = np.matmul(starts[:m], S[:-n].T, out=products[:m]).reshape(m, k - 1, n)
            Y = y[c0 * k + 1:(c0 + m) * k + 1].reshape(m, k)
            Y[:, :-1] = (y[c0 * k:(c0 + m) * k:k, None]
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
    """Least-squares slope of y on x and R^2 (1.0 if centred y is 0); centres both in place."""
    x -= x.mean()
    y -= y.mean()
    sxy, syy = x @ y, y @ y
    slope = sxy / (x @ x)
    return float(slope), 1.0 if syy == 0.0 else float(sxy * slope / syy)
