"""Dispersion relations, root finding over lambda > 0, and the viscosity threshold.

For a class-I orbit the eigenvalue problem reduces to a scalar equation in
lambda built from the center recurrence coefficient and the continued-fraction
tails:

    I0:  a_0(lambda) + f(lambda) + g(lambda) = 0
    I+:  a_0(lambda) + g(lambda) = 0           (forward tail undefined)
    I-:  a_0(lambda) + f(lambda) = 0           (backward tail undefined)

value() evaluates the left-hand side; value_grid() evaluates it over a grid of
lambda or nu in one batched pass, bit for bit; find_root() locates a positive
root by geometric scan plus bisection; nu0_estimate() finds the smallest
viscosity at which the lambda=0 value crosses zero, i.e. the threshold below
which the sign-change premise of the root search holds.  Both searches, and the
determinant zero in spectral.det_root, share one doubling scan
(_first_crossing) and one bisection (_bisect).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .contfrac import (DEFAULT_MAX_DEPTH, Direction, TailSpec, _adaptive_rows, _tail_bound,
                       _trunc_rows, eval_adaptive, eval_trunc)
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
                 for x in _tail_bound(spec.params, lam, nu)]
        tails = _adaptive_rows(coeffs, rows, bound, tol / 4.0, max_depth)
    else:
        tails = _trunc_rows(coeffs(np.arange(rows), depth), np.zeros(rows))
    total = a0
    for column in tails.reshape(-1, len(signs)).T:
        total = total + column
    return total, a0


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


def _first_crossing(f, start: float, cap: float) -> tuple[float, float | None]:
    """Doubling scan for the first sign change of f from positive to nonpositive.

    Evaluates f at start, 2*start, 4*start, ... strictly below ``cap``, then at
    ``cap`` itself, and never beyond it.  Returns the last point with f > 0
    (0.0 if none) and the first point with f <= 0 (None if none).  A point
    where f returns None is indeterminate and skipped.
    """
    lo, x = 0.0, start
    while True:
        x = min(x, cap)
        v = f(x)
        if v is not None:
            if v <= 0.0:
                return lo, x
            lo = x
        if x == cap:
            return lo, None
        x *= 2.0


def _bisect(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Halve a bracket with f(lo) > 0 >= f(hi) until its width is <= tol.

    Stops early when the midpoint rounds to an end: the bracket then holds two
    adjacent doubles, the narrowest there is, so a tol below the float spacing
    at the root ends the search instead of looping forever.
    """
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return lo, hi


def find_root(spec: DispersionSpec, tol: float = 1e-10,
              lambda_cap: float | None = None, *,
              depth: int | None = None,
              max_depth: int = DEFAULT_MAX_DEPTH) -> RootResult:
    """Locate a positive dispersion root by geometric scan plus bisection.

    Scans lambda = tol, 2*tol, 4*tol, ... below ``lambda_cap`` and then the
    cap itself for a sign change of the dispersion value, then bisects the
    bracketing pair to width <= tol.  The scan can in principle straddle a
    root pair (monotonicity in lambda is not established); tighten the cap or
    scan manually via value() when that matters.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if spec.params.nu == 0:
        raise ValueError("root search requires nu > 0; nu=0 is curve-table only")
    if lambda_cap is None:
        lambda_cap = default_lambda_cap(spec.params)
    if not lambda_cap > 0:  # NaN included: the scan could never reach it
        raise ValueError("lambda_cap must be positive")

    deepest = 0
    last_depth = 2

    def val(lam: float) -> float:
        nonlocal deepest, last_depth
        v, d = _value_info(lam, spec, tol, depth, max_depth,
                           start_depth=max(2, last_depth // 2))
        deepest = max(deepest, d)
        last_depth = d
        return v

    v0 = val(0.0)
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

    lo, hi = _first_crossing(val, tol, lambda_cap)
    if hi is None:
        return RootResult(
            lam=0.0, bracket=(0.0, lambda_cap), dispersion_residual=0.0,
            cf_depth=deepest, found=False,
            diagnostic=(
                f"NoSignChange: no root found on (0, {lambda_cap:g}]; value "
                f"stayed positive on the scan grid. Not a stability claim."
            ),
        )
    lo, hi = _bisect(val, lo, hi, tol)
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
    which the root search premise value(0) > 0 holds.  Scan doubles nu from
    tol up to ``nu_cap``, then bisects to width <= tol.  Raises
    ThresholdNotFound if h never crosses by ``nu_cap``.

    Scan points where the tails themselves fail to converge within the depth
    cap are skipped as indeterminate, and never enter the bisection bracket.
    The second-grade coefficient streams flatten to O(nu) constants as
    nu -> 0, where the even/odd bracket would need a depth of order 1/nu; their
    value-region bracket (TailSpec.bound) evaluates those points instead, so
    second-grade scan points no longer skip.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not nu_cap > 0:
        raise ValueError("nu_cap must be positive")
    DispersionSpec(params)  # validates the class up front

    def h(nu: float) -> float:
        spec = DispersionSpec(dataclasses.replace(params, nu=nu))
        return value(0.0, spec, tol=min(tol, 1e-9), max_depth=max_depth)

    def h_or_skip(nu: float) -> float | None:
        try:
            return h(nu)
        except NoConvergence:
            return None  # indeterminate point: skip

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
    lo, hi = _bisect(h, lo, hi, tol)
    return 0.5 * (lo + hi)
