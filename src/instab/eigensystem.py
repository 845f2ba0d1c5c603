"""Eigenvector reconstruction from a certified dispersion root.

At a root lambda the three-term recurrence admits a decaying solution built
from the tail ratios of its sides.  Side s = +1 holds n >= 0 and side s = -1
holds n <= 0; the orbit mirror n -> -n (q -> -q) maps one onto the other, so
every side runs the same march.  Seeded at depth N with the adaptively
evaluated tail t_{N+1} = [a_{s(N+1)}; a_{s(N+2)}; ...] (all seeds in one
pass), it steps toward the junction index 0 with d_k = a_{sk} + t_{k+1} and
t_k = 1/d_k.  The ratio u_{sk} = z_{s(k-1)}/z_{sk} of side s is s*d_k, so
from z_0 = 1

    z_{sk} = s^k / (d_1 ... d_k),

and the eigenvector is w_n = z_n / rho_n: one loop marches each side, adds its
t^s_1 to the junction sum and forms its w.  Each step is the recurrence itself
and contracts seed error, so the only defect of the assembled vector sits at
the junction row, where it equals the dispersion residual: the junction check,
after the loop, is |a_0 + sum_s t^s_1| over the tails and stream that
DispersionSpec gives the class.  lambda and nu meet the dispersion pass's
domain rule (dispersion._domain) before the seed pass.

The I+/I- classes have rho = 0 at one neighbour of the junction; there the
one-sided vector ends with a single extra entry fixed by that row of the
finite section (w_{+1} or w_{-1}) and exact zeros beyond.  The recurrence
defect is read off the rows of the same section, spectral.build_L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contfrac import DEFAULT_MAX_DEPTH, _adaptive_rows
from .dispersion import DispersionSpec, _domain
from .errors import MatchFailure
from .models import FlowParams
from .spectral import TruncatedOperator, _check_window_cap, _line_fit, build_L

__all__ = [
    "EigenvectorResult",
    "build_w",
]

_UNDERFLOW_GUARD = 1e-300
_EIGVEC_MIN_WINDOW = 3  # build_w's smallest N, which eigvec refuses before its root search


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


def _fit_side(side, lo, hi):
    # least-squares decay of log|w_k|, k in [lo, hi], over the live entries
    k = np.arange(lo, hi + 1)
    v = np.abs(side[lo - 1:hi])
    live = v > _UNDERFLOW_GUARD
    if np.count_nonzero(live) < 3:
        return None
    slope, r2 = _line_fit(k[live].astype(np.float64), np.log(v[live]))
    return -slope, r2


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
    _check_window_cap(N, minimum=_EIGVEC_MIN_WINDOW)  # before the seed pass
    _domain(lam, params.nu)
    cs, signs, _, _ = DispersionSpec(params)._stream
    # every seed t_{N+1} = [a_{s(N+1)}; ...] in one pass, under the even/odd bracket
    seeds, *_, failed = _adaptive_rows(
        lambda rows, lo, hi: cs.coeff(np.arange(N + lo + 1, N + hi + 1)[:, None] * signs[rows],
                                      lam),
        len(signs), np.full((3, len(signs)), np.inf), tol, max_depth)
    if failed:
        raise next(iter(failed.values()))
    if match_tol is None:  # after the pass, which refuses a non-finite tol
        match_tol = 100.0 * tol
    a = cs.coeff(np.arange(N + 1)[:, None] * signs, lam).T.tolist()
    junction = a[0][0]  # a_0 + sum_s t^s_1, the dispersion value
    w = np.zeros(2 * N + 1)  # the cut side of I+/I- stays 0.0
    for s, a_s, x in zip(signs.tolist(), a, seeds.tolist()):
        d = [0.0] * N  # d_k = a_{sk} + t_{k+1}, t_k = 1/d_k, k = N..1
        for k in range(N - 1, -1, -1):
            d[k] = a_s[k + 1] + x
            x = 1.0 / d[k]
        junction += x
        d = np.array(d)
        # z_{sk} = s^k/(d_1...d_k) in log-magnitude and sign, z_0 = 1; w = z/rho
        log_z = np.concatenate(([0.0], -np.cumsum(np.log(np.abs(d)))))
        sign_z = np.concatenate(([1.0], np.cumprod(s * np.sign(d))))
        n = s * np.arange(N + 1)
        rho = cs.rho(n)
        # libm exp, not np.exp: numpy's exp kernel depends on the CPU's SIMD
        # level, and a last-bit change in w shows in the junction residual
        w[N + n] = sign_z * np.copysign(1.0, rho) * [
            math.exp(m) if m > -745.0 else 0.0 for m in (log_z - np.log(np.abs(rho))).tolist()]
    mismatch = abs(junction)
    if not mismatch <= match_tol:
        raise MatchFailure(
            f"u0 forward/backward mismatch {mismatch:.3e} exceeds {match_tol:.3e}; "
            f"lambda={lam!r} is not certified as a root",
            mismatch=mismatch, tol=match_tol,
        )
    L = build_L(params, N)
    if len(signs) == 1:  # section row c = -s fixes w_c; rho_c = 0 wipes everything beyond
        c = -signs[0]
        w[N + c] = (L.sub[N] if c > 0 else L.sup[N - 1]) * w[N] / (lam - L.diag[N + c])

    rate, r2 = _fit_decay(w, N)
    return EigenvectorResult(
        lam=lam, window=N, w=dict(zip(range(-N, N + 1), w.tolist())),
        residual=_residual(w, lam, L), decay_rate=rate,
        sign_ok=_sign_pattern_ok(w, N), decay_r2=r2,
    )
