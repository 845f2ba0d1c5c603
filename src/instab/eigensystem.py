"""Eigenvector reconstruction from a certified dispersion root.

At a root lambda the three-term recurrence admits a decaying solution built
from tail ratios u_n.  Each side s = +1 (forward) or -1 (backward) runs one
march: seeded at depth N with the adaptively evaluated tail
t_{N+1} = [a_{s(N+1)}; a_{s(N+2)}; ...], it steps toward the junction index 0
with d_k = a_{sk} + t_{k+1} and t_k = 1/d_k.  The forward ratios are
u_n = d_n (so u_0 = a_0 + f) and the backward ones u_{-m} = -t_{m+1} (so
u_0 = -g).  Each step is the recurrence itself and contracts seed error, so
the only defect of the assembled vector sits at the junction row, where it
equals the dispersion residual: the junction check is |a_0 + f + g| for every
class, over the tails that DispersionSpec gives the class.

From the ratios, z_0 = 1, z_n = 1/(u_1...u_n) for n > 0 and
z_{-m} = u_0 u_{-1}...u_{-m+1}; the eigenvector is w_n = z_n / rho_n.  The
I+/I- classes have rho = 0 at one neighbour of the junction; there the
one-sided vector ends with a single extra entry fixed by that row of the
finite section (w_{+1} or w_{-1}) and exact zeros beyond.  The recurrence
defect is read off the rows of the same section, spectral.build_L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contfrac import DEFAULT_MAX_DEPTH, Direction, eval_adaptive_coeffs
from .dispersion import DispersionSpec
from .errors import MatchFailure
from .models import CoefficientStream, FlowParams
from .spectral import TruncatedOperator, build_L

__all__ = [
    "EigenvectorResult",
    "build_w",
]

_UNDERFLOW_GUARD = 1e-300


@dataclass(frozen=True)
class EigenvectorResult:
    """Eigenvector on the window [-N, N] with its quality measures.

    ``decay_rate`` is the fitted delta in |w_n| ~ C exp(-delta*|n|) over the
    slice |n| in [M/2, 3M/4] of each side, M the last |n| on that side whose
    entry has not underflowed (M = N when none has); the two sides decay at
    slightly different rates, so each side is fitted separately and the
    conservative (minimum) slope and R^2 are reported.  Both are NaN when
    neither side has enough entries to fit.
    """

    lam: float
    window: int
    w: dict[int, float]
    residual: float
    decay_rate: float
    sign_ok: bool
    decay_r2: float


def _march(lam, cs, s, N, tol, max_depth):
    # d_k = a_{sk} + t_{k+1} for k = N..0 and t_k = 1/d_k for k >= 1, seeded
    # with the adaptive tail t_{N+1} = [a_{s(N+1)}; a_{s(N+2)}; ...]
    def tail(k):
        return cs.coeff(s * np.arange(N + 1, N + 1 + k, dtype=np.int64), lam)

    a = cs.coeff(s * np.arange(N + 1), lam).tolist()
    t = [0.0] * (N + 1) + [eval_adaptive_coeffs(tail, tol, max_depth).value]
    d = [0.0] * (N + 1)
    for k in range(N, -1, -1):
        d[k] = a[k] + t[k + 1]
        if k:
            t[k] = 1.0 / d[k]
    return np.array(d), np.array(t[1:])


def _ratios(lam, params, N, tol, match_tol, max_depth):
    # (u_0..u_N or None, u_{-N}..u_0 or None), checked at the junction
    if N < 1:
        raise ValueError("window N must be at least 1")
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    tails = DispersionSpec(params).tails
    if match_tol is None:
        match_tol = 100.0 * tol
    cs = CoefficientStream(params)
    fwd = bwd = None
    if Direction.FORWARD in tails:  # u_n = d_n
        fwd = _march(lam, cs, 1, N, tol, max_depth)[0]
    if Direction.BACKWARD in tails:  # u_{-m} = -t_{m+1}
        bwd = -_march(lam, cs, -1, N, tol, max_depth)[1][::-1]
    # a missing side stands in as u_0 = a_0 (forward) or 0 (backward), so the
    # mismatch is |a_0 + f + g| over the tails the class has
    u0_fwd = float(cs.coeff(0, lam)) if fwd is None else fwd[0]
    u0_bwd = 0.0 if bwd is None else bwd[-1]
    mismatch = abs(u0_fwd - u0_bwd)
    if not mismatch <= match_tol:
        raise MatchFailure(
            f"u0 forward/backward mismatch {mismatch:.3e} exceeds {match_tol:.3e}; "
            f"lambda={lam!r} is not certified as a root",
            mismatch=mismatch, tol=match_tol,
        )
    return fwd, bwd


def _fit_side(side, lo, hi):
    # least-squares decay of log|w_k|, k in [lo, hi], over the live entries
    k = np.arange(lo, hi + 1)
    v = np.abs(side[lo - 1:hi])
    live = v > _UNDERFLOW_GUARD
    if np.count_nonzero(live) < 3:
        return None
    x = k[live].astype(np.float64)
    y = np.log(v[live])
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return -float(slope), r2


def _fit_decay(w, N):
    # Least-squares slope of log|w_n| vs |n| per side.  The fit window
    # |n| in [M/2, 3M/4] sits where the decay has settled: for the plain
    # model log|w_n| steepens like -2n log n (faster than exponential), so a
    # narrow late window is where a single exponential describes the data;
    # the fitted delta then certifies |w_n| <= C e^{-delta |n|} on the tail.
    # M is the last |n| above the underflow guard, so wide windows fit where
    # the entries still carry information instead of in the zeros.
    rates, r2s = [], []
    for side in (w[N + 1:], w[N - 1::-1]):  # w_{+k} and w_{-k}, k = 1..N
        live = np.flatnonzero(np.abs(side) > _UNDERFLOW_GUARD)
        if live.size == 0:  # side truncated or fully underflowed
            continue
        M = int(live[-1]) + 1
        lo = max(1, math.ceil(M / 2))
        fit = (_fit_side(side, lo, max(lo, math.floor(3 * M / 4)))
               or _fit_side(side, max(1, math.ceil(M / 4)), M))
        if fit is not None:
            rates.append(fit[0])
            r2s.append(fit[1])
    if not rates:
        return math.nan, math.nan
    return min(rates), min(r2s)


def _sign_pattern_ok(w, N):
    # canonical signs up to a global flip, anchored at w_0: w_n > 0 for
    # n >= 1; w_0, w_-1 < 0; alternating below.  Entries that are exactly
    # zero (underflowed, or the cut side of I+/I-) are skipped.
    if w[N] == 0.0:
        return False
    n = np.arange(-N, N + 1)
    expect = np.where((n >= 1) | ((n <= -2) & (n % 2 == 0)), 1.0, -1.0)
    nz = w != 0.0
    return bool(np.all(np.sign(w[nz]) == -np.sign(w[N]) * expect[nz]))


def _residual(w, lam, L: TruncatedOperator):
    # w on [-N, N]; scaled defect of the section rows -N+1..N-1
    w_0 = w[1:-1]
    defect = L.sub[:-1] * w[:-2] + L.sup[1:] * w[2:] - (lam - L.diag[1:-1]) * w_0
    return float(np.max(np.abs(defect) / np.maximum(1.0, np.abs(w_0))))


def build_w(lam: float, params: FlowParams, N: int, *,
            tol: float = 1e-12, match_tol: float | None = None,
            max_depth: int = DEFAULT_MAX_DEPTH) -> EigenvectorResult:
    """Assemble the eigenvector w on [-N, N] from the tail ratios.

    z-products are accumulated in log-magnitude plus sign (direct products
    underflow from about N = 100 for the NavierStokes instances), entries
    whose magnitude falls below exp(-745) become 0.0.  The I+/I- classes get
    exact zeros beyond the single extra entry fixed by the junction row.  The
    junction is checked to ``match_tol`` (default 100*tol); MatchFailure says
    lambda is not a root, and match_tol=math.inf allows off-root diagnostics.
    """
    if N < 3:
        raise ValueError("window N must be at least 3")
    fwd, bwd = _ratios(lam, params, N, tol, match_tol, max_depth)
    log_z = np.zeros(2 * N + 1)  # z_0 = 1
    sign_z = np.ones(2 * N + 1)
    if fwd is not None:  # z_n = 1/(u_1...u_n)
        if not np.all(fwd[1:]):
            raise ArithmeticError("zero tail ratio on the forward side")
        log_z[N + 1:] = -np.cumsum(np.log(np.abs(fwd[1:])))
        sign_z[N + 1:] = np.cumprod(np.sign(fwd[1:]))
    if bwd is not None:  # z_{-m} = u_0 u_{-1}...u_{-m+1}
        with np.errstate(divide="ignore"):  # a zero ratio kills everything below it
            log_z[N - 1::-1] = np.cumsum(np.log(np.abs(bwd[:0:-1])))
        sign_z[N - 1::-1] = np.cumprod(np.copysign(1.0, bwd[:0:-1]))

    # w_n = z_n / rho_n on the built sides; the cut side of I+/I- stays 0.0
    lo = -N if bwd is not None else 0
    hi = N if fwd is not None else 0
    rho = CoefficientStream(params).rho(np.arange(lo, hi + 1))
    mag = log_z[lo + N:hi + N + 1] - np.log(np.abs(rho))
    # libm exp, not np.exp: numpy's exp kernel depends on the CPU's SIMD
    # level, and a last-bit change in w shows in the junction residual
    w = np.zeros(2 * N + 1)
    w[lo + N:hi + N + 1] = sign_z[lo + N:hi + N + 1] * np.copysign(1.0, rho) * [
        math.exp(m) if m > -745.0 else 0.0 for m in mag.tolist()]
    L = build_L(params, N)
    if fwd is None:
        # section row n=1 fixes w_1; rho_1 = 0 wipes everything beyond
        w[N + 1] = L.sub[N] * w[N] / (lam - L.diag[N + 1])
    elif bwd is None:  # the mirror: row n=-1 fixes w_{-1}
        w[N - 1] = L.sup[N - 1] * w[N] / (lam - L.diag[N - 1])

    rate, r2 = _fit_decay(w, N)
    return EigenvectorResult(
        lam=lam, window=N, w=dict(zip(range(-N, N + 1), w.tolist())),
        residual=_residual(w, lam, L), decay_rate=rate,
        sign_ok=_sign_pattern_ok(w, N), decay_r2=r2,
    )
