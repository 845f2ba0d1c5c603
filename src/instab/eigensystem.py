"""Eigenvector reconstruction from a certified dispersion root.

At a root lambda the three-term recurrence admits a decaying solution built
from tail ratios u_n: the forward ratios satisfy u_n = a_n + 1/u_{n+1} with
u_n -> a_n + [a_{n+1}; ...] deep in the lattice, the backward ones
u_{n+1} = -1/(a_n - u_n) with u_n -> -[a_{n-1}; ...].  Seeding each march at
depth N with an adaptively evaluated continued fraction and marching toward
the junction index 0 is exact in the recurrence (each step is the recurrence
itself) and contracts seed error, so the only defect of the assembled vector
sits at the junction row, where it equals the dispersion residual.

From the ratios, z_0 = 1, z_n = 1/(u_1...u_n) for n > 0 and
z_{-m} = u_0 u_{-1}...u_{-m+1}; the eigenvector is w_n = z_n / rho_n.  The
I+/I- classes have rho = 0 at one neighbour of the junction; there the
one-sided vector ends with a single extra entry fixed by the junction row
(w_{+1} or w_{-1}) and exact zeros beyond.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contfrac import DEFAULT_MAX_DEPTH, eval_adaptive_coeffs
from .errors import MatchFailure
from .lattice import PointClass
from .models import CoefficientStream, FlowParams

__all__ = [
    "EigenvectorResult",
    "build_u",
    "build_w",
    "residual",
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

    @property
    def is_degenerate(self) -> bool:
        return all(v == 0.0 for v in self.w.values())


def _forward_side(lam, cs, N, tol, max_depth):
    # u_N = a_N + [a_{N+1}; a_{N+2}; ...], then march down: u_0..u_N
    def tail(k):
        return cs.coeff(np.arange(N + 1, N + 1 + k, dtype=np.int64), lam)

    a = cs.coeff(np.arange(N + 1), lam).tolist()
    u = a[:N] + [a[N] + eval_adaptive_coeffs(tail, tol, max_depth).value]
    for n in range(N - 1, -1, -1):
        u[n] += 1.0 / u[n + 1]
    return np.array(u)


def _backward_side(lam, cs, N, tol, max_depth):
    # u_{-N} = -[a_{-N-1}; a_{-N-2}; ...], then march up: u_{-N}..u_0
    def tail(k):
        return cs.coeff(-np.arange(N + 1, N + 1 + k, dtype=np.int64), lam)

    u = [-eval_adaptive_coeffs(tail, tol, max_depth).value]
    for a_n in cs.coeff(np.arange(-N, 0), lam).tolist():
        u.append(-1.0 / (a_n - u[-1]))
    return np.array(u)


def _ratios(lam, params, N, tol, match_tol, max_depth):
    # (u_0..u_N or None, u_{-N}..u_0 or None), checked at the junction
    if N < 1:
        raise ValueError("window N must be at least 1")
    cls = params.point_class
    if cls not in (PointClass.TYPE_I0, PointClass.TYPE_I_PLUS, PointClass.TYPE_I_MINUS):
        raise ValueError(f"eigenvector construction needs class I0/I+/I-, not {cls.value}")
    if match_tol is None:
        match_tol = 100.0 * tol
    cs = CoefficientStream(params)
    fwd = bwd = None
    if cls is not PointClass.TYPE_I_PLUS:
        fwd = _forward_side(lam, cs, N, tol, max_depth)
    if cls is not PointClass.TYPE_I_MINUS:
        bwd = _backward_side(lam, cs, N, tol, max_depth)
    if cls is PointClass.TYPE_I0:
        what, mismatch = "u0 forward/backward mismatch", abs(fwd[0] - bwd[-1])
    elif cls is PointClass.TYPE_I_PLUS:
        what, mismatch = "u0 vs a0 mismatch", abs(bwd[-1] - float(cs.coeff(0, lam)))
    else:
        what, mismatch = "|u0| = |a0 + f|", abs(fwd[0])
    if not mismatch <= match_tol:
        raise MatchFailure(
            f"{what} {mismatch:.3e} exceeds {match_tol:.3e}; "
            f"lambda={lam!r} is not certified as a root",
            mismatch=mismatch, tol=match_tol,
        )
    return fwd, bwd


def build_u(lam: float, params: FlowParams, N: int, *,
            tol: float = 1e-12, match_tol: float | None = None,
            max_depth: int = DEFAULT_MAX_DEPTH) -> dict[int, float]:
    """Tail ratios u_n on the window: forward for n >= 1, backward for n <= 0.

    Both sides are seeded at depth N from adaptive tail evaluations (to
    ``tol``) and marched to the junction, where consistency is checked to
    ``match_tol`` (default 100*tol, matching how root-bisection error
    amplifies into u_0).  MatchFailure signals that lambda is not a root; for
    diagnostics on deliberately off-root lambda pass match_tol=math.inf.

    I+ builds only n <= 0, I- only n >= 0 (the other side's ratios involve
    the vanishing rho).
    """
    fwd, bwd = _ratios(lam, params, N, tol, match_tol, max_depth)
    u = {} if fwd is None else dict(zip(range(N + 1), fwd.tolist()))
    if bwd is not None:  # the backward u_0 is kept at the junction
        u.update(zip(range(-N, 1), bwd.tolist()))
    return u


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


def _residual(w, lam, params):
    # w on [-N, N]; scaled defect of rows -N+1..N-1
    N = (w.size - 1) // 2
    cs = CoefficientStream(params)
    n = np.arange(-N, N + 1)
    rho_w = cs.rho(n) * w
    w_0 = w[1:-1]
    defect = rho_w[:-2] - rho_w[2:] - (lam + params.nu * cs.diag_weight(n[1:-1])) * w_0
    return float(np.max(np.abs(defect) / np.maximum(1.0, np.abs(w_0))))


def build_w(lam: float, params: FlowParams, N: int, *,
            tol: float = 1e-12, match_tol: float | None = None,
            max_depth: int = DEFAULT_MAX_DEPTH) -> EigenvectorResult:
    """Assemble the eigenvector w on [-N, N] from the tail ratios.

    z-products are accumulated in log-magnitude plus sign (direct products
    underflow from about N = 100 for the NavierStokes instances), entries
    whose magnitude falls below exp(-745) become 0.0.  The I+/I- classes get
    exact zeros beyond the single extra entry fixed by the junction row.
    """
    if N < 3:
        raise ValueError("window N must be at least 3")
    fwd, bwd = _ratios(lam, params, N, tol, match_tol, max_depth)
    cls = params.point_class
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
    cs = CoefficientStream(params)
    rho = cs.rho(np.arange(lo, hi + 1))
    mag = log_z[lo + N:hi + N + 1] - np.log(np.abs(rho))
    # libm exp, not np.exp: numpy's exp kernel depends on the CPU's SIMD
    # level, and a last-bit change in w shows in the junction residual
    w = np.zeros(2 * N + 1)
    w[lo + N:hi + N + 1] = sign_z[lo + N:hi + N + 1] * np.copysign(1.0, rho) * [
        math.exp(m) if m > -745.0 else 0.0 for m in mag.tolist()]
    rho_0 = rho[-lo]
    if cls is PointClass.TYPE_I_PLUS:
        # junction row at n=1 fixes w_1; rho_1 = 0 wipes everything beyond
        w[N + 1] = rho_0 * w[N] / (lam + params.nu * cs.diag_weight(1))
    elif cls is PointClass.TYPE_I_MINUS:
        w[N - 1] = -rho_0 * w[N] / (lam + params.nu * cs.diag_weight(-1))

    rate, r2 = _fit_decay(w, N)
    return EigenvectorResult(
        lam=lam, window=N, w=dict(zip(range(-N, N + 1), w.tolist())),
        residual=_residual(w, lam, params), decay_rate=rate,
        sign_ok=_sign_pattern_ok(w, N), decay_r2=r2,
    )


def residual(result: EigenvectorResult, params: FlowParams) -> float:
    """Max scaled recurrence defect over the interior rows of the window.

    max over n in [-N+1, N-1] of
    |rho_{n-1} w_{n-1} - rho_{n+1} w_{n+1} - (lambda + nu*d_n) w_n| / max(1, |w_n|).
    """
    N = result.window
    if N < 3:
        raise ValueError("window N must be at least 3")
    w = np.array([result.w.get(n, 0.0) for n in range(-N, N + 1)])
    return _residual(w, result.lam, params)
