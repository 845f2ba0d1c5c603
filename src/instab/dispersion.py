"""Dispersion relations, root finding over lambda > 0, and the viscosity threshold.

For a class-I orbit the eigenvalue problem reduces to a scalar equation in
lambda built from the center recurrence coefficient and the continued-fraction
tails:

    I0:  a_0(lambda) + f(lambda) + g(lambda) = 0
    I+:  a_0(lambda) + g(lambda) = 0           (forward tail undefined)
    I-:  a_0(lambda) + f(lambda) = 0           (backward tail undefined)

value() evaluates the left-hand side; value_grid() evaluates it over a grid of
lambda or nu in one batched pass, bit for bit; find_root() locates a positive
root by a doubling scan, evaluated in one value_grid() pass, plus a bracketed
refinement; nu0_estimate() finds the smallest viscosity at which the lambda=0
value crosses zero, i.e. the threshold below which the sign-change premise of
the root search holds.  Both searches share one doubling schedule (_doubling),
and both, with the determinant zero in spectral.det_root, share one
refinement (_refine): ITP, which keeps the bracket of bisection and its
worst case within one step, but converges superlinearly on smooth functions.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .contfrac import (DEFAULT_MAX_DEPTH, Direction, TailSpec, _adaptive_rows, _trunc_rows,
                       eval_adaptive, eval_trunc)
from .errors import NoConvergence, ThresholdNotFound
from .lattice import PointClass
from .models import CoefficientStream, FlowParams

__all__ = [
    "DispersionSpec",
    "RootResult",
    "value",
    "value_grid",
    "find_root",
    "nu0_estimate",
]

_CLASS_TAILS = {
    PointClass.TYPE_I0: (Direction.FORWARD, Direction.BACKWARD),
    PointClass.TYPE_I_PLUS: (Direction.BACKWARD,),
    PointClass.TYPE_I_MINUS: (Direction.FORWARD,),
}


@dataclass(frozen=True)
class DispersionSpec:
    """A dispersion instance; the tail set is derived from the orbit class."""

    params: FlowParams

    def __post_init__(self):
        if self.params.point_class not in _CLASS_TAILS:
            raise ValueError(
                f"dispersion is defined for classes I0/I+/I-, "
                f"not {self.params.point_class.value}"
            )

    @property
    def tails(self) -> tuple[Direction, ...]:
        return _CLASS_TAILS[self.params.point_class]


def _value_info(lam, spec, tol, depth, max_depth, start_depth=2):
    # returns (value, deepest tail depth used)
    a0 = float(CoefficientStream(spec.params).coeff(0, lam))
    total = a0
    deepest = 0
    for direction in spec.tails:
        tail = TailSpec(direction, spec.params, lam)
        if depth is not None:
            total += eval_trunc(tail.coeffs(depth))
            deepest = max(deepest, depth)
        else:
            br = eval_adaptive(tail, tol / 4.0, max_depth, start_depth)
            total += br.value
            deepest = max(deepest, br.depth)
    return total, deepest


def value(lam: float, spec: DispersionSpec, tol: float = 1e-10,
          depth: int | None = None, max_depth: int = DEFAULT_MAX_DEPTH) -> float:
    """Dispersion value at lambda >= 0.

    Tails are evaluated adaptively to tol/4 each; passing ``depth`` switches
    to fixed-depth truncations instead (the comparison mode used for curve
    tables and the classic depth-10 picture).
    """
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    return _value_info(lam, spec, tol, depth, max_depth)[0]


def value_grid(spec: DispersionSpec, lam=0.0, nu=None, tol: float = 1e-10,
               depth: int | None = None, max_depth: int = DEFAULT_MAX_DEPTH
               ) -> tuple[np.ndarray, np.ndarray]:
    """Dispersion values and center coefficients a_0 over a grid, in one pass.

    ``lam`` and ``nu`` (default: the params' nu) broadcast to one 1-D grid,
    such as a lambda array or a nu array at lambda = 0.  Each row equals value()
    bit for bit; at the depth cap the first failing row raises as value() does.
    """
    return _grid_info(spec, lam, nu, tol, depth, max_depth)[:2]


def _grid_info(spec, lam, nu, tol, depth, max_depth):
    # value_grid's (values, a0) and each row's deepest tail depth, as _value_info's
    lam, nu = np.broadcast_arrays(np.atleast_1d(np.asarray(lam, dtype=np.float64)),
                                  np.asarray(spec.params.nu if nu is None else nu))
    if np.any(lam < 0):
        raise ValueError("lambda must be nonnegative")
    if np.any(nu < 0):
        raise ValueError("viscosity must be nonnegative")
    cs = CoefficientStream(spec.params)
    signs = np.array([direction.value for direction in spec.tails])

    def coeffs(live, k):
        # row r is tail r % len(signs) of point r // len(signs), value()'s order;
        # a_n = (lambda + nu*d_n)/rho_n as in CoefficientStream.coeff, in place
        point, tail = np.divmod(live, len(signs))
        n = np.arange(1, k + 1)[:, None] * signs
        rho_n, a = cs._defined_rho(n), cs.diag_weight(n)[:, tail]
        a *= nu[point]
        a += lam[point]
        for j in range(len(signs)):
            np.divide(a, rho_n[:, j, None], out=a, where=tail == j)
        return a

    a0 = (lam + nu * cs.diag_weight(0)) / cs._defined_rho(0)
    rows = lam.size * len(signs)
    if depth is None:
        # each row's TailSpec.bound, the same for both tails of a point
        bound = [np.repeat(np.broadcast_to(x, lam.shape), len(signs))
                 for x in cs.tail_bound(lam, nu)]
        tails, depths = _adaptive_rows(coeffs, rows, bound, tol / 4.0, max_depth)
    else:
        tails = _trunc_rows(coeffs(np.arange(rows), depth), np.zeros(rows))
        depths = np.full(rows, depth)
    total = a0
    for column in tails.reshape(-1, len(signs)).T:
        total = total + column
    return total, a0, depths.reshape(-1, len(signs)).max(axis=1)


@dataclass(frozen=True)
class RootResult:
    """Outcome of a root search over lambda > 0.

    ``found`` implies |value(lam)| is below tolerance and the dispersion
    changes sign across ``bracket``, whose width is <= tol, or which holds two
    adjacent doubles when tol is below the float spacing at the root.  When no sign change exists on the
    scanned interval, ``found`` is False and ``diagnostic`` says why; absence
    of a root on (0, cap] is NOT a stability certificate.
    """

    lam: float
    bracket: tuple[float, float]
    dispersion_residual: float
    cf_depth: int
    found: bool
    diagnostic: str | None = None


def default_lambda_cap(params: FlowParams) -> float:
    """Scale past which the center coefficient dominates both tails."""
    cs = CoefficientStream(params)
    c_max = int(cs.c(range(-8, 9)).max())
    return 10.0 * (params.p_norm_sq + params.nu * c_max)


def _doubling(start: float, cap: float):
    """The scan points start, 2*start, 4*start, ... strictly below ``cap``, then cap."""
    x = start
    while x < cap:
        yield x
        x *= 2.0
    yield cap


def _first_crossing(f, start: float, cap: float) -> tuple[float, float | None]:
    """Doubling scan for the first sign change of f from positive to nonpositive.

    Evaluates f at the _doubling points one by one, and never beyond ``cap``.
    Returns the last point with f > 0 (0.0 if none) and the first point with
    f <= 0 (None if none).  A point where f returns None is indeterminate and
    skipped.
    """
    lo = 0.0
    for x in _doubling(start, cap):
        v = f(x)
        if v is None:
            continue
        if v <= 0.0:
            return lo, x
        lo = x
    return lo, None


def _refine(f, lo: float, hi: float, tol: float, f_lo: float, f_hi: float
            ) -> tuple[float, float]:
    """Shrink a bracket with f(lo) > 0 >= f(hi) until its width is <= tol.

    ITP (Oliveira & Takahashi, ACM TOMS 47(1), 2020) with kappa1 = 0.2/(hi-lo),
    kappa2 = 2 and n0 = 1: each trial point is the regula falsi point, moved
    kappa1*width^2 toward the midpoint and kept within a radius of it that
    shrinks so that no more than one step beyond bisection's count is ever
    taken, while a smooth f converges superlinearly.  The radius aims at 3/4
    of tol rather than tol, which leaves room for rounding trial points to
    doubles.  A trial point is also kept tol/2 inside each end, so once one
    end sits at the root the next point straddles it and both ends close in.
    ``f_lo`` and ``f_hi`` are the end values the caller already has; f is
    called at trial points only, and they lie strictly inside the bracket.
    When the midpoint rounds to an end, the bracket holds two adjacent
    doubles, the narrowest there is, so a tol below the float spacing at the
    root ends the search instead of looping forever.
    """
    width = hi - lo
    kappa1 = 0.2 / width
    # n_1/2 + n0 = ceil(log2(width/tol)) + 1, with no overflow at a subnormal tol
    (m_width, e_width), (m_tol, e_tol) = math.frexp(width), math.frexp(tol)
    steps = max(0, math.ceil(math.log2(m_width / m_tol) + (e_width - e_tol))) + 1
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        steps -= 1
        radius = max(math.ldexp(0.75 * tol, steps) - 0.5 * (hi - lo), 0.0)
        x = (hi * f_lo - lo * f_hi) / (f_lo - f_hi)  # regula falsi
        sigma = math.copysign(1.0, mid - x)
        delta = kappa1 * (hi - lo) ** 2
        # truncation; a NaN regula falsi point (infinite ends) falls back to mid
        x = x + sigma * delta if delta <= abs(mid - x) else mid
        if abs(x - mid) > radius:  # projection
            x = mid - sigma * radius
        x = min(max(x, lo + 0.5 * tol), hi - 0.5 * tol)
        if not lo < x < hi:
            x = mid
        v = f(x)
        if v > 0.0:
            lo, f_lo = x, v
        else:
            hi, f_hi = x, v
    return lo, hi


def find_root(spec: DispersionSpec, tol: float = 1e-10,
              lambda_cap: float | None = None, *,
              depth: int | None = None,
              max_depth: int = DEFAULT_MAX_DEPTH) -> RootResult:
    """Locate a positive dispersion root by a doubling scan plus ITP refinement.

    Evaluates lambda = tol, 2*tol, 4*tol, ... below ``lambda_cap`` and then the
    cap itself in one value_grid() pass, takes the first row <= 0 and the one
    before it (or lambda = 0) as the bracket, then refines it to width <= tol
    (_refine).  value(0) is the premise check.  ``cf_depth`` is the deepest
    tail over lambda = 0, the scan rows up to the first crossing and the
    refinement points; second-grade rows with lambda > 0 can be deeper than
    lambda = 0.  If a row fails to converge at the depth cap, the rows are
    evaluated one by one instead, so that only a row at or below the first
    crossing can raise.  The scan can in principle straddle a root pair
    (monotonicity in lambda is not established); tighten the cap or scan
    manually via value() when that matters.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if spec.params.nu == 0:
        raise ValueError("root search requires nu > 0; nu=0 is curve-table only")
    if lambda_cap is None:
        lambda_cap = default_lambda_cap(spec.params)
    if not lambda_cap > 0:  # NaN included: the scan could never reach it
        raise ValueError("lambda_cap must be positive")

    v0, deepest = _value_info(0.0, spec, tol, depth, max_depth)
    if v0 <= 0.0:
        return RootResult(
            lam=0.0, bracket=(0.0, 0.0), dispersion_residual=abs(v0),
            cf_depth=deepest, found=False,
            diagnostic=(
                f"NoSignChange: value(0) = {v0:.6e} <= 0; the sign-change "
                f"premise fails (nu may be at or above the threshold, or the "
                f"class/instance admits no such root). Not a stability claim."
            ),
        )

    last_depth = 2

    def val(lam: float) -> float:
        nonlocal deepest, last_depth
        v, last_depth = _value_info(lam, spec, tol, depth, max_depth,
                                    start_depth=max(2, last_depth // 2))
        deepest = max(deepest, last_depth)
        return v

    grid = list(_doubling(tol, lambda_cap))
    try:
        values, _, depths = _grid_info(spec, grid, None, tol, depth, max_depth)
        values, depths = values.tolist(), depths.tolist()
    except NoConvergence:
        values, depths = [], []  # val books the depths of this path
        for lam in grid:
            values.append(val(lam))
            if values[-1] <= 0.0:
                break
    i = next((i for i, v in enumerate(values) if v <= 0.0), None)
    deepest = max([deepest, *depths[:len(values) if i is None else i + 1]])
    if i is None:
        return RootResult(
            lam=0.0, bracket=(0.0, lambda_cap), dispersion_residual=0.0,
            cf_depth=deepest, found=False,
            diagnostic=(
                f"NoSignChange: no root found on (0, {lambda_cap:g}]; value "
                f"stayed positive on the scan grid. Not a stability claim."
            ),
        )
    lo, f_lo = (grid[i - 1], values[i - 1]) if i else (0.0, v0)
    lo, hi = _refine(val, lo, grid[i], tol, f_lo, values[i])
    root = 0.5 * (lo + hi)
    return RootResult(
        lam=root, bracket=(lo, hi), dispersion_residual=abs(val(root)),
        cf_depth=deepest, found=True,
    )


def nu0_estimate(params: FlowParams, tol: float = 1e-8, *,
                 nu_cap: float = 100.0,
                 max_depth: int = DEFAULT_MAX_DEPTH) -> float:
    """Smallest positive crossing of the lambda=0 dispersion value in nu.

    h(nu) := value at lambda=0 with viscosity nu (class variant included,
    so I+ uses only the backward tail and I- only the forward one).  h is
    positive for small nu and the first crossing bounds the viscosities for
    which the root search premise value(0) > 0 holds.  The scan doubles nu
    from tol up to ``nu_cap``, one value() call per point, then refines the
    bracket to width <= tol (_refine) from the two end values it already has.
    Raises ThresholdNotFound if h never crosses by ``nu_cap``.

    Scan points where the tails themselves fail to converge within the depth
    cap are skipped as indeterminate, and never enter the refined bracket.
    The second-grade coefficient streams flatten to O(nu) constants as
    nu -> 0, where the even/odd bracket would need a depth of order 1/nu.
    Past the indices of TailSpec.bound their value-region bracket, whose
    width falls as 1/(alpha^2 c_k), and then the fixed-point enclosure, whose
    width follows the O(nu) increments a_{k+1} - a_k, take over (see contfrac),
    so second-grade scan points no longer skip and end within a few hundred
    terms.  NavierStokes, NSAlpha and NSVoigt tails keep the even/odd bracket.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not nu_cap > 0:
        raise ValueError("nu_cap must be positive")
    DispersionSpec(params)  # validates the class up front

    def h(nu: float) -> float:
        spec = DispersionSpec(dataclasses.replace(params, nu=nu))
        return value(0.0, spec, tol=min(tol, 1e-9), max_depth=max_depth)

    seen = {}

    def h_or_skip(nu: float) -> float | None:
        try:
            seen[nu] = h(nu)
        except NoConvergence:
            return None  # indeterminate point: skip
        return seen[nu]

    lo, hi = _first_crossing(h_or_skip, tol, nu_cap)
    if hi is None:
        raise ThresholdNotFound(
            f"value at lambda=0 stayed positive for nu up to cap {nu_cap:g}",
            cap=nu_cap,
        )
    if lo == 0.0:
        raise ThresholdNotFound(
            f"value at lambda=0 already nonpositive (or not evaluable) down "
            f"to the scan seed {tol:g}; no positive interval resolved",
            cap=nu_cap,
        )
    lo, hi = _refine(h, lo, hi, tol, seen[lo], seen[hi])
    return 0.5 * (lo + hi)
