"""Dispersion relations, root finding over lambda > 0, and the viscosity threshold.

For a class-I orbit the eigenvalue problem reduces to a scalar equation in
lambda built from the center recurrence coefficient and the continued-fraction
tails:

    I0:  a_0(lambda) + f(lambda) + g(lambda) = 0
    I+:  a_0(lambda) + g(lambda) = 0           (forward tail undefined)
    I-:  a_0(lambda) + f(lambda) = 0           (backward tail undefined)

Every value comes from one batched pass (_grid_info) over a grid of lambda or
nu: value_grid() is that pass, and value() and the refinement points of both
searches are passes of one point.  The pass states the domain once: it
refuses a row with lambda = nu = 0, where every a_n = (lambda + nu*d_n)/rho_n
vanishes, before any tail is fetched, so the root search refuses nu = 0 at
its lambda = 0 row.  find_root() locates a positive root by a doubling scan
in lambda from lambda = 0, plus a bracketed refinement; nu0_estimate() finds
the smallest viscosity at which the lambda=0 value crosses zero, i.e. the
threshold below which the sign-change premise of the root search holds, by a
doubling scan in nu.  Each scan is one pass over a grid of
contfrac._doubling, the tail depths' schedule, that reads only signs: a row
stops once its bracket decides its point's sign, and only the two points
around the first crossing run to tol.  The pass hands back the rows that fail
at the depth cap as data; value_grid raises the first, find_root only one at
or below its first crossing, and nu0_estimate skips them.  Both searches,
with the determinant zero in spectral.det_root, share one refinement
(_refine): ITP, which keeps the bracket of bisection and its worst case
within one step, but converges superlinearly on smooth functions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .contfrac import DEFAULT_MAX_DEPTH, Direction, _adaptive_rows, _doubling, _trunc_rows
from .errors import NoSignChange, ThresholdNotFound, _check_number
from .lattice import PointClass
from .models import CoefficientStream, FlowParams

__all__ = [
    "DispersionSpec",
    "RootResult",
    "value",
    "value_grid",
    "find_root",
    "default_lambda_cap",
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

    @functools.cached_property
    def _stream(self):
        # what every pass reads: the stream, the tails' signs, d_0 and rho_0
        cs = CoefficientStream(self.params)
        signs = np.array([direction.value for direction in self.tails])
        return cs, signs, cs.diag_weight(0), cs._defined_rho(0)


def value(lam: float, spec: DispersionSpec, tol: float = 1e-10,
          depth: int | None = None, max_depth: int = DEFAULT_MAX_DEPTH) -> float:
    """Dispersion value at lambda >= 0: a one-point value_grid.

    Tails are evaluated adaptively to tol/4 each; passing ``depth`` switches
    to fixed-depth truncations instead (the comparison mode used for curve
    tables and the classic depth-10 picture).
    """
    return float(value_grid(spec, lam, tol=tol, depth=depth, max_depth=max_depth)[0][0])


def value_grid(spec: DispersionSpec, lam=0.0, nu=None, tol: float = 1e-10,
               depth: int | None = None, max_depth: int = DEFAULT_MAX_DEPTH
               ) -> tuple[np.ndarray, np.ndarray]:
    """Dispersion values and center coefficients a_0 over a grid, in one pass.

    ``lam`` and ``nu`` (default: the params' nu) broadcast to one 1-D grid,
    such as a lambda array or a nu array at lambda = 0.  Each row equals value()
    bit for bit; at the depth cap the first failing row raises as value() does.
    """
    values, a0, _, failed = _grid_info(spec, lam, nu, tol, depth, max_depth)
    if failed:
        raise next(iter(failed.values()))
    return values, a0


def _grid_info(spec, lam, nu, tol, depth, max_depth, start_depth=2, *, scan=False):
    # value_grid's (values, a0), each row's deepest tail depth, and the rows
    # that fail at the depth cap, in order, with what value() raises for them;
    # a failed row's value is NaN.  Every tail starts at ``start_depth``, and
    # a ``scan`` reads only the signs up to the first crossing (below)
    nu = spec.params.nu if nu is None else nu
    _check_number("lambda", lam, "nonnegative")
    _check_number("nu", nu, "nonnegative")
    lams, nus = np.empty((2, *np.broadcast(np.atleast_1d(lam), nu).shape))
    lams[...], nus[...] = lam, nu  # broadcast, cheaper than np.broadcast_arrays
    if not (lams.all() or nus.all() or (lams + nus).all()):  # the sum only when both hold a zero
        raise ValueError("lambda = nu = 0 is outside the dispersion relation's "
                         "domain: every recurrence coefficient vanishes")
    cs, signs, d0, rho0 = spec._stream

    def coeffs(live, lo, hi):
        # row r is tail r % len(signs) of point r // len(signs), the tails'
        # order; a_n = (lambda + nu*d_n)/rho_n as in CoefficientStream.coeff
        point, tail = np.divmod(live, len(signs))
        n = np.arange(lo + 1, hi + 1)[:, None] * signs
        a = cs.diag_weight(n)[:, tail]
        a *= nus[point]
        a += lams[point]
        a /= cs._defined_rho(n)[:, tail]
        return a

    a0 = (lams + nus * d0) / rho0

    def total(tails):  # a_0 plus each point's tails, in the tails' order
        return functools.reduce(np.add, tails.reshape(-1, len(signs)).T, a0)

    rows = lams.size * len(signs)
    failed = {}
    if depth is None:
        # each row's TailSpec.bound, the same for both tails of a point, from
        # lam and nu as given: a one-point pass computes it on scalars
        bound = np.empty((3, lams.size, len(signs)))
        bound[...] = np.reshape(cs.tail_bound(lam, nu), (3, -1, 1))
        # a ``scan``'s first-crossing rule: a point's sign is decided, then
        # frozen, once a_0 + its tails' lower ends > 0 or upper ends <= 0 (float
        # sums, not outward rounded).  With j the first point not decided
        # positive, those below j - 1 stop, and all but j - 1 and j once j is
        # non-positive: the crossing pair runs to tol, the rest keep a midpoint
        positive, nonpositive = np.zeros((2, lams.size), dtype=bool)

        def retire(brackets, live):
            positive[...] |= (total(brackets[0]) > 0.0) & ~nonpositive
            nonpositive[...] |= (total(brackets[1]) <= 0.0) & ~positive
            j = int(np.argmin(np.append(positive, False)))
            stop = np.arange(lams.size) < j - 1
            if j < lams.size and nonpositive[j]:
                stop[j + 1:] = True
            return stop[live // len(signs)]
        tails, *_, depths, failed = _adaptive_rows(
            coeffs, rows, bound.reshape(3, rows), tol / 4.0, max_depth, start_depth,
            retire if scan else None)
    else:
        tails = _trunc_rows(coeffs(np.arange(rows), 0, depth), np.zeros(rows))
        depths = np.full(rows, depth)
    points = {}
    for row, err in failed.items():  # a point fails with its first failing tail
        points.setdefault(row // len(signs), err)
    return total(tails), a0, depths.reshape(-1, len(signs)).max(axis=1), points


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

    Evaluates lambda = 0, tol, 2*tol, 4*tol, ... below ``lambda_cap`` and then
    the cap itself in one batched sign-only pass (_grid_info), takes the
    first row <= 0 and the one before it as the bracket, then refines it to
    width <= tol (_refine).  The two bracket ends run to tol, as value()
    would, and the other rows stop once their sign is decided, most at depth
    3.  A first row <= 0 at lambda = 0 is the failed premise value(0) > 0.
    ``cf_depth`` is the deepest tail over the scan rows up to the first
    crossing, the bracket ends included, and the refinement points.
    A row that fails to converge at the depth cap raises only when it lies at
    or below the first crossing, with the message value() gives for it; rows
    above the crossing are not read.  The scan can in principle straddle a
    root pair (monotonicity in lambda is not established); tighten the cap or
    scan manually via value() when that matters.
    """
    _check_number("tol", tol)
    if lambda_cap is None:
        lambda_cap = default_lambda_cap(spec.params)
    _check_number("lambda_cap", lambda_cap)

    grid = [0.0, *_doubling(tol, lambda_cap)]
    values, _, depths, failed = _grid_info(spec, grid, None, tol, depth, max_depth, scan=True)
    values, depths = values.tolist(), depths.tolist()
    # the first row <= 0 (a failed row's NaN is not), else len(grid)
    i = next((i for i, v in enumerate(values) if v <= 0.0), len(grid))
    first_failed = next(iter(failed), i + 1)
    if first_failed <= i:  # a failure above the first crossing is not read
        raise failed[first_failed]
    deepest = max(depths[:i + 1])
    if i == 0:
        return RootResult(
            lam=0.0, bracket=(0.0, 0.0), dispersion_residual=abs(values[0]),
            cf_depth=deepest, found=False,
            diagnostic=(
                f"NoSignChange: value(0) = {values[0]:.6e} <= 0; the sign-change "
                f"premise fails (nu may be at or above the threshold, or the "
                f"class/instance admits no such root). Not a stability claim."
            ),
        )
    if i == len(grid):
        return RootResult(
            lam=0.0, bracket=(0.0, lambda_cap), dispersion_residual=0.0,
            cf_depth=deepest, found=False,
            diagnostic=(
                f"NoSignChange: no root found on (0, {lambda_cap:g}]; value "
                f"stayed positive on the scan grid. Not a stability claim."
            ),
        )

    last_depth = 2

    def val(lam: float) -> float:
        # a one-point pass, started at half the last point's depth
        nonlocal deepest, last_depth
        v, _, d, failed = _grid_info(spec, lam, None, tol, depth, max_depth,
                                     max(2, last_depth // 2))
        if failed:
            raise failed[0]
        last_depth = int(d[0])
        deepest = max(deepest, last_depth)
        return float(v[0])

    lo, hi = _refine(val, grid[i - 1], grid[i], tol, values[i - 1], values[i])
    root = 0.5 * (lo + hi)
    return RootResult(
        lam=root, bracket=(lo, hi), dispersion_residual=abs(val(root)),
        cf_depth=deepest, found=True,
    )


def _found_root(spec: DispersionSpec, **kwargs) -> RootResult:
    # the one search-or-fail path of root, eigvec and certify
    result = find_root(spec, **kwargs)
    if not result.found:
        raise NoSignChange(result.diagnostic.removeprefix("NoSignChange: "))
    return result


def nu0_estimate(params: FlowParams, tol: float = 1e-8, *,
                 nu_cap: float = 100.0,
                 max_depth: int = DEFAULT_MAX_DEPTH) -> float:
    """Smallest positive crossing of the lambda=0 dispersion value in nu.

    h(nu) := value at lambda=0 with viscosity nu (class variant included,
    so I+ uses only the backward tail and I- only the forward one).  h is
    positive for small nu and the first crossing bounds the viscosities for
    which the root search premise value(0) > 0 holds.  The scan doubles nu
    from tol up to ``nu_cap`` and evaluates every point in one batched
    sign-only pass (_grid_info, as in find_root), then refines the bracket to
    width <= tol (_refine) from the two end values it already has, one pass
    of one point per trial nu.  Raises ThresholdNotFound if h never crosses
    by ``nu_cap``.

    Scan points still undecided at the depth cap, and bracket ends that do
    not reach tol by then, are skipped as indeterminate; the bracket then
    falls back to the nearest point below, which may hold a decided bracket's
    midpoint.  Refinement points run to tol; near nu -> 0 the second-grade
    ones end within a few hundred terms through the value-region and
    fixed-point enclosures (see contfrac).
    """
    _check_number("tol", tol)
    _check_number("nu_cap", nu_cap)
    spec = DispersionSpec(params)  # validates the class up front; the scan sets nu
    tol_h = min(tol, 1e-9)

    def h(nu: float) -> float:
        return float(value_grid(spec, 0.0, nu, tol=tol_h, max_depth=max_depth)[0][0])

    grid = list(_doubling(tol, nu_cap))
    values, _, _, failed = _grid_info(spec, 0.0, grid, tol_h, None, max_depth, scan=True)
    values = values.tolist()  # a failed row is NaN, neither > 0 nor <= 0: skipped
    i = next((i for i, v in enumerate(values) if v <= 0.0), None)
    if i is None:
        raise ThresholdNotFound(
            f"value at lambda=0 stayed positive for nu up to cap {nu_cap:g}",
            cap=nu_cap,
        )
    lo = next((j for j in reversed(range(i)) if j not in failed), None)
    if lo is None:
        raise ThresholdNotFound(
            f"value at lambda=0 already nonpositive (or not evaluable) down "
            f"to the scan seed {tol:g}; no positive interval resolved",
            cap=nu_cap,
        )
    lo, hi = _refine(h, grid[lo], grid[i], tol, values[lo], values[i])
    return 0.5 * (lo + hi)
