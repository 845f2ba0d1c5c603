"""Independent oracles for cross-validating dispersion roots.

Three routes that never touch the continued fractions:

* finite-section matrix of the orbit operator and its dense spectrum,
* the perturbation determinant det(I + K_lambda) of the section's
  off-diagonal factor, whose zeros are exactly the eigenvalues,
* a renormalized RK4 time-stepper measuring the growth rate of a random
  initial vector.

A certified instability must survive all three within stated tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dispersion import _refine
from .errors import NoConvergence, NoSignChange
from .models import CoefficientStream, FlowParams

__all__ = [
    "TruncatedOperator",
    "DeterminantSample",
    "build_L",
    "max_real_eig",
    "dominant_mode",
    "build_K",
    "det_I_plus_K",
    "det_root",
    "growth_rate",
]

DENSE_CAP = 512
RENORM_EVERY = 16  # RK4 steps per renormalization block of growth_rate


@dataclass(frozen=True)
class TruncatedOperator:
    """Tridiagonal section on indices [-N, N]: build_L's operator or build_K's factor.

    In L, row n carries sub-band rho_{n-1}, diagonal -nu*d_n and sup-band
    -rho_{n+1}; entries referencing |n| > N are dropped (hard Dirichlet
    cutoff; eigenvectors decay exponentially so the boundary effect dies out
    well inside N=128 for the instances treated here).  dense() refuses
    windows above DENSE_CAP, so no oracle forms a matrix larger than
    (2*DENSE_CAP+1)^2.
    """

    N: int
    diag: np.ndarray  # length 2N+1, diag[i] for n = i-N
    sub: np.ndarray   # length 2N, sub[i] = entry (i+1, i)
    sup: np.ndarray   # length 2N, sup[i] = entry (i, i+1)

    def dense(self) -> np.ndarray:
        if self.N > DENSE_CAP:
            raise ValueError(f"window N={self.N} above dense cap {DENSE_CAP}")
        return (np.diag(self.diag)
                + np.diag(self.sub, -1)
                + np.diag(self.sup, +1))

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = self.diag * v
        out[1:] += self.sub * v[:-1]
        out[:-1] += self.sup * v[1:]
        return out


def build_L(params: FlowParams, N: int) -> TruncatedOperator:
    if N < 1:
        raise ValueError("window N must be at least 1")
    cs = CoefficientStream(params)
    n = np.arange(-N, N + 1, dtype=np.int64)
    rho = cs.rho(n)
    return TruncatedOperator(N=N, diag=-params.nu * cs.diag_weight(n),
                             sub=rho[:-1],  # row n takes rho_{n-1}
                             sup=-rho[1:])  # row n takes -rho_{n+1}


def max_real_eig(params: FlowParams, N: int) -> float:
    """Largest real part over the truncated operator's spectrum (dense solve)."""
    return float(np.max(np.linalg.eigvals(build_L(params, N).dense()).real))


def dominant_mode(params: FlowParams, N: int) -> tuple[float, np.ndarray]:
    """Eigenpair with the largest real part; vector phase-aligned to real."""
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
    determinants grow without limit in N.
    """
    if lam <= 0:
        raise ValueError("the determinant factorization needs lambda > 0")
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
    """det of the (2N+1)-section of I + K_lambda via the three-term recurrence.

    For a unit-diagonal tridiagonal matrix the leading principal minors obey
    D_m = D_{m-1} - sub_m*sup_{m-1}*D_{m-2}; the recurrence is run in scaled
    form (mantissa plus base-2 exponent) so deep windows cannot overflow
    mid-way.  A determinant beyond the double range raises NoConvergence
    naming N and the magnitude.  The sections diverge that way where K is not
    trace class; a trace-class determinant can also be finite but too large
    (NavierStokes at nu = lambda = 1e-6, N = 512: about 1e635).
    """
    K = build_K(lam, params, N)
    d_prev2, d_prev = 1.0, 1.0  # empty minor and the first 1x1 block
    shift = 0
    for sub, sup in zip(K.sub.tolist(), K.sup.tolist()):
        d = d_prev - sub * sup * d_prev2
        mag = max(abs(d), abs(d_prev))
        if mag > 2.0 ** 256 or (0.0 < mag < 2.0 ** -256):
            _, e = math.frexp(mag)
            d = math.ldexp(d, -e)
            d_prev = math.ldexp(d_prev, -e)
            shift += e
        d_prev2, d_prev = d_prev, d
    try:
        return DeterminantSample(lam=lam, value=math.ldexp(d_prev, shift), N=N)
    except OverflowError:
        raise NoConvergence(
            f"|det(I+K)| of the N={N} section is about 1e"
            f"{math.log10(abs(d_prev)) + shift * math.log10(2.0):.0f}, beyond the "
            "double range",
            depth=N) from None


def det_root(params: FlowParams, N: int, bracket: tuple[float, float],
             tol: float) -> float:
    """Zero of the sectioned determinant on a sign-changing bracket (dispersion._refine)."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    lo, hi = bracket
    if not 0 < lo < hi < math.inf:
        raise ValueError("bracket must be finite with 0 < lo < hi")
    f_lo = det_I_plus_K(lo, params, N).value
    f_hi = det_I_plus_K(hi, params, N).value
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    s = math.copysign(1.0, f_lo)
    if s == math.copysign(1.0, f_hi):
        raise NoSignChange(
            f"det(I+K) has the same sign at both ends of [{lo:g}, {hi:g}]")
    lo, hi = _refine(lambda lam: s * det_I_plus_K(lam, params, N).value, lo, hi, tol,
                     s * f_lo, s * f_hi)
    return 0.5 * (lo + hi)


def _dt_max(op: TruncatedOperator) -> float:
    """Largest step the explicit integrator accepts on this section."""
    return 1.0 / (4.0 * float(np.max(np.abs(op.diag))) + 4.0)


def growth_rate(params: FlowParams, N: int, t_final: float, dt: float, *,
                seed: int = 0, w0: np.ndarray | None = None) -> float:
    """Growth rate of dw/dt = L_truncated w from (seeded) random initial data.

    Classic 4-stage explicit integration as a block propagator: the RK4
    polynomial P = I + A + A^2/2 + A^3/6 + A^4/24 of A = dt*L and P^RENORM_EVERY
    are formed once (an O(n^3 log RENORM_EVERY) setup), then each renormalization
    block is one matvec; accumulated log-norm shifts keep growth and decay in
    range. Returns the least-squares slope of log||w(t)|| over the final half.
    """
    op = build_L(params, N)
    dt_max = _dt_max(op)
    if not 0 < dt <= dt_max:
        raise ValueError(f"dt={dt:g} unstable for explicit stepping; need dt <= {dt_max:g}")
    if not (math.isfinite(t_final) and t_final > 0):
        raise ValueError("t_final must be positive and finite")
    if w0 is None:
        w = np.random.default_rng(seed).standard_normal(2 * N + 1)
    else:
        w = np.asarray(w0, dtype=np.float64).copy()
        if w.shape != (2 * N + 1,):
            raise ValueError(f"w0 must have shape ({2 * N + 1},)")
        if not np.all(np.isfinite(w)):
            raise ValueError("w0 must be finite")
        if not np.any(w):
            raise ValueError("w0 is identically zero: degenerate initial data")
    A = dt * op.dense()
    eye = np.eye(2 * N + 1)
    P = eye + A @ (eye + A @ (eye + A @ (eye + A / 4.0) / 3.0) / 2.0)

    steps = max(1, int(math.ceil(t_final / dt)))
    B = np.linalg.matrix_power(P, RENORM_EVERY) if steps >= RENORM_EVERY else None
    log_shift = 0.0
    samples = [(0.0, math.log(float(np.linalg.norm(w))))]
    for end in range(RENORM_EVERY, steps + RENORM_EVERY, RENORM_EVERY):
        step = min(end, steps)
        w = (B if step == end else np.linalg.matrix_power(P, steps % RENORM_EVERY)) @ w
        nrm = float(np.linalg.norm(w))
        log_shift += math.log(nrm)
        samples.append((step * dt, log_shift))
        w /= nrm
    t, y = np.asarray(samples).T
    half = t >= 0.5 * t_final
    if int(np.sum(half)) < 2:
        raise ValueError("not enough samples in the final half; lower dt or raise t_final")
    slope, _ = np.polyfit(t[half], y[half], 1)
    return float(slope)
