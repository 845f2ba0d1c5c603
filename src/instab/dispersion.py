"""Dispersion relations, root finding over lambda > 0, and the viscosity threshold.

For a class-I orbit the eigenvalue problem reduces to a scalar equation in
lambda built from the center recurrence coefficient and the continued-fraction
tails:

    I0:  a_0(lambda) + f(lambda) + g(lambda) = 0
    I+:  a_0(lambda) + g(lambda) = 0           (forward tail undefined)
    I-:  a_0(lambda) + f(lambda) = 0           (backward tail undefined)

value() evaluates the left-hand side; find_root() locates a positive root by
geometric scan plus bisection; nu0_estimate() finds the smallest viscosity at
which the lambda=0 value crosses zero, i.e. the threshold below which the
sign-change premise of the root search holds.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .contfrac import DEFAULT_MAX_DEPTH, Direction, TailSpec, eval_adaptive, eval_trunc
from .errors import NoConvergence, ThresholdNotFound
from .lattice import PointClass
from .models import CoefficientStream, FlowParams

__all__ = [
    "DispersionSpec",
    "RootResult",
    "value",
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


@dataclass(frozen=True)
class RootResult:
    """Outcome of a root search over lambda > 0.

    ``found`` implies |value(lam)| is below tolerance and the dispersion
    changes sign across ``bracket``.  When no sign change exists on the
    scanned interval, ``found`` is False and ``diagnostic`` says why; absence
    of a root on (0, cap] is NOT a stability certificate.
    """

    lam: float
    bracket: tuple[float, float]
    dispersion_residual: float
    cf_depth: int
    found: bool
    diagnostic: str | None = None


def default_lambda_cap(params: FlowParams, window: int = 8) -> float:
    """Scale past which the center coefficient dominates both tails."""
    cs = CoefficientStream(params)
    c_max = int(cs.c(range(-window, window + 1)).max())
    return 10.0 * (params.p_norm_sq + params.nu * c_max)


def find_root(spec: DispersionSpec, tol: float = 1e-10,
              lambda_cap: float | None = None, *,
              depth: int | None = None,
              max_depth: int = DEFAULT_MAX_DEPTH) -> RootResult:
    """Locate a positive dispersion root by geometric scan plus bisection.

    Scans lambda = tol, 2*tol, 4*tol, ... up to ``lambda_cap`` for a sign
    change of the dispersion value, then bisects the bracketing pair to width
    <= tol.  The scan can in principle straddle a root pair (monotonicity in
    lambda is not established); tighten the cap or scan manually via value()
    when that matters.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if spec.params.nu == 0:
        raise ValueError("root search requires nu > 0; nu=0 is curve-table only")
    if lambda_cap is None:
        lambda_cap = default_lambda_cap(spec.params)

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

    lo, v_lo = 0.0, v0
    hi = tol
    v_hi = None
    while hi <= lambda_cap:
        v_hi = val(hi)
        if v_hi <= 0.0:
            break
        lo, v_lo = hi, v_hi
        hi *= 2.0
    else:
        return RootResult(
            lam=0.0, bracket=(0.0, lambda_cap), dispersion_residual=0.0,
            cf_depth=deepest, found=False,
            diagnostic=(
                f"NoSignChange: no root found on (0, {lambda_cap:g}]; value "
                f"stayed positive on the scan grid. Not a stability claim."
            ),
        )

    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if val(mid) > 0.0:
            lo = mid
        else:
            hi = mid
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
    tol, then bisects to width <= tol.  Raises ThresholdNotFound if h never
    crosses below ``nu_cap``.

    Scan points where the tails themselves fail to converge within the depth
    cap are skipped as indeterminate: for the regularized models the
    coefficient streams flatten to O(nu) constants as nu -> 0, where the
    fraction converges too slowly to evaluate, while the crossing sits at
    moderate nu where evaluation is cheap.  Skipped points never enter the
    bisection bracket.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    DispersionSpec(params)  # validates the class up front

    def h(nu: float) -> float:
        spec = DispersionSpec(dataclasses.replace(params, nu=nu))
        return value(0.0, spec, tol=min(tol, 1e-9), max_depth=max_depth)

    lo = 0.0  # last nu with a definite positive value
    hi = None  # first nu with a definite nonpositive value
    nu_scan = tol
    final_try = False
    while True:
        try:
            if h(nu_scan) <= 0.0:
                hi = nu_scan
                break
            lo = nu_scan
        except NoConvergence:
            pass  # indeterminate point: skip
        if final_try:
            break
        nu_scan *= 2.0
        if nu_scan >= nu_cap:
            nu_scan = nu_cap
            final_try = True
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
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if h(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
