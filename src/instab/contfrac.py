"""Continued-fraction engine for the orbit tail functions.

Notation: [a1; a2; ...; ak] = 1/(a1 + 1/(a2 + ... + 1/ak)).  The dispersion
relations pair the center coefficient with two tails built from the
recurrence coefficients along the orbit,

    f(lambda, nu) = [a_1; a_2; a_3; ...]      (Forward),
    g(lambda, nu) = [a_-1; a_-2; a_-3; ...]   (Backward),

and likewise for the regularized-model coefficient families.  The adaptive
evaluator doubles the depth k until a rigorous bracket is within tol: the
remainder r_k = [a_{k+1}; ...] is enclosed in an interval, and the recurrences
over a_1..a_k from its two ends bracket the limit.  Three enclosures apply,
from CoefficientStream.tail_bound's (a_max, first, fixed):

* even/odd, everywhere: r_k lies in [0, 1/a_{k+1}], i.e. the even and odd
  truncations.  This is all NavierStokes, NSAlpha and NSVoigt tails use.
* value-region, once k + 1 >= first: if a_{k+1} <= a_n <= M for all n > k,
  r_k lies in [L, U], L = 1/(M + U), U = 1/(a_{k+1} + L) (Lorentzen &
  Waadeland, Continued Fractions Vol. 1, 2008).  M = inf is the even/odd
  case, bit for bit.  Second-grade tails rise to M = a_inf; their bracket
  narrows as 1/(alpha^2 c_k), however small a_inf is.
* fixed-point, once k >= fixed, intersected with [L, U]: let w_j =
  2/(a_{j+1} + sqrt(a_{j+1}^2 + 4)) be the fixed point of t -> 1/(a_{j+1} + t)
  and delta_j = w_{j+1} - w_j.  If from j on delta_j <= 0, |delta_j| does not
  increase and |delta_j| <= a_{j+1}, then r_j lies in [w_j, w_j + |delta_j|]
  (Thron & Waadeland, Numer. Math. 34, 1980): e_j = r_j - w_j obeys e_j =
  r_j w_j (|delta_j| - e_{j+1}), and the last condition keeps r_j w_j <= 1.
  A positive, rising a_n that is concave in n from fixed on meets all three
  from j = fixed on, and |delta_k| <= |delta_{k-1}| then puts r_k in
  [w_k, w_{k-1}], which needs no a_{k+2}.  Its width follows a_{k+1} - a_k, so
  it is narrow exactly when a_inf -> 0.

One fraction runs as a Python float loop; a grid of them (_trunc_rows,
_adaptive_rows) runs as one numpy pass with the same per-element arithmetic
and depth sequence, so each of its values equals the scalar one bit for bit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateFraction, NoConvergence
from .models import UNBOUNDED, CoefficientStream, FlowParams, b

__all__ = [
    "Direction",
    "TailSpec",
    "BracketedValue",
    "eval_trunc",
    "eval_adaptive",
    "eval_adaptive_coeffs",
    "even_trunc_slope_at_zero",
]

DEFAULT_MAX_DEPTH = 100_000


class Direction(enum.Enum):
    FORWARD = 1
    BACKWARD = -1


@dataclass(frozen=True)
class TailSpec:
    """One tail of the dispersion relation: which side, which instance, which lambda."""

    direction: Direction
    params: FlowParams
    lam: float

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lambda must be nonnegative")

    def coeffs(self, depth: int) -> np.ndarray:
        """Recurrence coefficients a_{s*1..s*depth}, s the direction sign."""
        n = self.direction.value * np.arange(1, depth + 1, dtype=np.int64)
        return CoefficientStream(self.params).coeff(n, self.lam)

    def bound(self) -> tuple[float, float, float]:
        """CoefficientStream.tail_bound's (a_max, first, fixed) for this tail."""
        return tuple(map(float, CoefficientStream(self.params).tail_bound(
            self.lam, self.params.nu)))


def _region_floor(a_next, a_max):
    """L of [L, U] when a_next = a_{k+1} <= a_n <= a_max, n > k, free of cancellation."""
    return 2.0 / (a_max * (1.0 + np.sqrt(1.0 + 4.0 / (a_next * a_max))))


def _fixed_point(a):
    """The positive fixed point w of t -> 1/(a + t), free of cancellation."""
    return 2.0 / (a + np.sqrt(a * a + 4.0))


@dataclass(frozen=True)
class BracketedValue:
    """An adaptive evaluation together with its final two-sided bracket."""

    value: float
    lower: float
    upper: float
    depth: int


def eval_trunc(coeffs: Sequence[float], tail: float = 0.0) -> float:
    """Evaluate the finite continued fraction [a1; ...; ak] by backward recurrence.

    Innermost term first, from the remainder ``tail`` after a_k; stable for
    positive coefficients, free of convergent overflow.  Raises DegenerateFraction
    on a zero intermediate denominator (callers may perturb the depth by one).
    """
    seq = np.asarray(coeffs, dtype=np.float64)
    if seq.size == 0:
        raise ValueError("continued fraction needs at least one coefficient")
    t = tail
    try:  # a float division by zero raises: the zero denominator check, for free
        for a in seq[::-1].tolist():
            t = 1.0 / (a + t)
    except ZeroDivisionError:
        raise DegenerateFraction("zero intermediate denominator") from None
    return t


def eval_adaptive_coeffs(
    coeffs_fn: Callable[[int], Sequence[float]],
    tol: float,
    max_depth: int = DEFAULT_MAX_DEPTH,
    start_depth: int = 2,
    bound: tuple[float, float, float] = UNBOUNDED,
) -> BracketedValue:
    """Bracket the limit of [a1; a2; ...] between two truncations (see module).

    ``coeffs_fn(k)`` must return the first k coefficients, for any k up to
    ``max_depth + 1``.  Depth doubles until the bracket is within tol; the
    final evaluation happens at ``max_depth`` exactly before giving up, so the
    cap is part of the search.  ``bound`` is TailSpec.bound's (a_max, first,
    fixed), which picks the enclosure of the remainder (see module).
    """
    arr = np.empty(0)
    for m in _levels(tol, max_depth, start_depth):
        if arr.size <= m:  # one call serves every level up to 256
            arr = np.asarray(coeffs_fn(min(max(m, 256), max_depth) + 1), dtype=np.float64)
        region, fixed = _enclosures(m, bound)
        lo = float(_region_floor(arr[m], bound[0])) if region else 0.0
        hi = eval_trunc(arr[m:m + 1], lo)
        if fixed:
            lo = max(lo, float(_fixed_point(arr[m])))
            hi = min(hi, float(_fixed_point(arr[m - 1])))
        even = eval_trunc(arr[:m], lo)
        odd = eval_trunc(arr[:m], hi)
        lower, upper = (even, odd) if even <= odd else (odd, even)
        if upper - lower <= tol:
            return BracketedValue(0.5 * (lower + upper), lower, upper, m + 1)
    raise _no_convergence(upper - lower, tol, m, bound)


def _enclosures(m: int, bound):
    """Whether the value-region and the fixed-point enclosure hold at level m."""
    return m + 1 >= bound[1], m >= bound[2]


def _levels(tol: float, max_depth: int, start: int = 2):
    """The depths m of the adaptive (m, m + 1) pairs, shared by both drivers.

    ``start`` rounded down to even (at least 2), doubled up to the even cap
    at or below ``max_depth``, which is the last level.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_depth < 2:
        raise ValueError("max_depth must be at least 2")
    cap = max_depth - max_depth % 2
    m = min(max(2, start - start % 2), cap)
    while True:
        yield m
        if m >= cap:
            return
        m = min(2 * m, cap)


def _no_convergence(width: float, tol: float, m: int, bound) -> NoConvergence:
    region, fixed = _enclosures(m, bound)
    name = "fixed-point" if fixed else "value-region" if region else "even/odd"
    return NoConvergence(
        f"{name} bracket width {width:.3e} above tol {tol:.3e} at depth cap {m}",
        depth=m, width=width,
    )


def _trunc_rows(a: np.ndarray, t) -> np.ndarray:
    """eval_trunc for many fractions at once, from the start state ``t``.

    ``a[j]`` holds coefficient a_{j+1} of every fraction; ``t`` may stack
    several states, each of which broadcasts against one ``a[j]``.
    """
    if len(a) == 0:
        raise ValueError("continued fraction needs at least one coefficient")
    # overflow to inf stays quiet, as it does for Python floats
    with np.errstate(divide="raise", over="ignore"):
        try:
            for row in a[::-1]:
                t = 1.0 / (row + t)
        except FloatingPointError:
            raise DegenerateFraction("zero intermediate denominator") from None
    return t


def _adaptive_rows(coeffs_fn: Callable[[np.ndarray, int], np.ndarray], rows: int,
                   bound: Sequence[np.ndarray], tol: float,
                   max_depth: int = DEFAULT_MAX_DEPTH
                   ) -> tuple[np.ndarray, np.ndarray, dict[int, NoConvergence]]:
    """eval_adaptive_coeffs from depth 2 over ``rows`` fractions at once.

    ``coeffs_fn(live, k)`` gives the first k coefficients of the fractions
    ``live`` as a (k, len(live)) array, ``bound`` each row's (a_max, first,
    fixed).  Returns each row's value and depth, as BracketedValue's value and
    depth, and the rows still open at the cap, in row order, each with the
    NoConvergence that eval_adaptive_coeffs raises for it; their value is NaN.
    """
    values, depths, live = np.full(rows, np.nan), np.empty(rows, dtype=np.int64), np.arange(rows)
    for m in _levels(tol, max_depth):
        a = coeffs_fn(live, m + 1)
        row_bound = [x[live] for x in bound]
        region, fixed = _enclosures(m, row_bound)
        lo = np.zeros(live.size)
        lo[region] = _region_floor(a[m, region], row_bound[0][region])
        hi = _trunc_rows(a[m:], lo)
        lo[fixed] = np.maximum(lo[fixed], _fixed_point(a[m, fixed]))
        hi[fixed] = np.minimum(hi[fixed], _fixed_point(a[m - 1, fixed]))
        even, odd = _trunc_rows(a[:m], np.stack([lo, hi]))
        del a  # free this level's coefficients before the next level's
        lower, upper = np.where(even <= odd, (even, odd), (odd, even))
        done = upper - lower <= tol
        values[live[done]] = (0.5 * (lower + upper))[done]
        depths[live] = m + 1
        if done.all():
            break
        live = live[~done]
    width = (upper - lower)[~done].tolist()
    return values, depths, {row: _no_convergence(w, tol, m, [x[row] for x in bound])
                            for row, w in zip(live.tolist(), width)}


def eval_adaptive(spec: TailSpec, tol: float,
                  max_depth: int = DEFAULT_MAX_DEPTH,
                  start_depth: int = 2) -> BracketedValue:
    """Adaptive evaluation of a dispersion tail to a two-sided tolerance."""
    return eval_adaptive_coeffs(spec.coeffs, tol, max_depth, start_depth, spec.bound())


def even_trunc_slope_at_zero(k: int, direction: Direction,
                             params: FlowParams) -> float:
    """Slope in nu at nu=0 of the depth-2k even truncation of f(0, nu) or g(0, nu).

    Equals b_2 + b_4 + ... + b_2k (Forward) or the negative-index mirror
    (Backward); the coefficient family exists for NavierStokes only, and b
    refuses the others.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    s = direction.value
    return float(sum(b(2 * j * s, params) for j in range(1, k + 1)))
