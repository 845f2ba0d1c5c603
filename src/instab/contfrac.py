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
  truncations.  This is all NSVoigt tails, and NavierStokes and NSAlpha tails
  at nu > 0, use.
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
  it is narrow exactly when a_inf -> 0.  The mirror form: if from j on
  delta_j >= 0 and delta_j does not increase, r_j lies in [w_j - delta_j, w_j],
  since e_j = -r_j w_j (e_{j+1} + delta_j) and r_j w_j <= w_j^2 < 1.  At
  nu = 0 the NavierStokes, SecondGrade and NSAlpha a_n fall to lam/s and meet
  it from j = fixed - 1 on, so r_k lies in [w_{k-1}, w_k]; the step takes the
  min and max of w_k and w_{k-1}, one code path for both directions.

One driver (_adaptive_rows) evaluates a grid of fractions, or one, in a pass
whose truncations run on Python floats when narrow and on numpy when wide,
with the same IEEE operations: a row's value does not depend on its pass.
A caller's stop rule may end rows before tol (the dispersion scans stop a
row once its sign is decided); the others keep the values they would have.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateFraction, NoConvergence, _check_number
from .models import CoefficientStream, FlowParams, b

__all__ = [
    "Direction",
    "TailSpec",
    "BracketedValue",
    "DEFAULT_MAX_DEPTH",
    "eval_trunc",
    "eval_adaptive",
    "even_trunc_slope_at_zero",
]

DEFAULT_MAX_DEPTH = 100_000
_FETCH = 512  # coefficients an adaptive pass fetches at least at once
_BLOCK = 2 ** 17  # coefficients at most in one block of an adaptive pass
_FLOAT_WIDTH = 16  # fractions times states up to which _trunc_rows runs on floats


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
        _check_number("lambda", self.lam, "nonnegative")

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


def eval_trunc(coeffs: Sequence[float]) -> float:
    """Evaluate the finite continued fraction [a1; ...; ak] by backward recurrence.

    Innermost term first; stable for positive coefficients, free of convergent
    overflow.  Raises DegenerateFraction on a zero intermediate denominator
    (callers may perturb the depth by one).
    """
    return float(_trunc_rows(np.asarray(coeffs, dtype=np.float64).reshape(-1, 1),
                             np.zeros(1))[0])


def _doubling(start, cap):
    """start, 2*start, 4*start, ... strictly below ``cap``, then cap: exact, ints stay ints."""
    x = start
    while x < cap:
        yield x
        x *= 2
    yield cap


def _levels(tol: float, max_depth: int, start: int = 2):
    """The depths m of the adaptive (m, m + 1) pairs.

    ``start`` rounded down to even (at least 2), doubled up to the even cap
    at or below ``max_depth``, which is the last level.
    """
    _check_number("tol", tol)
    if max_depth < 2:
        raise ValueError("max_depth must be at least 2")
    cap = max_depth - max_depth % 2
    yield from _doubling(min(max(2, start - start % 2), cap), cap)


def _no_convergence(width: float, tol: float, m: int, bound) -> NoConvergence:
    # named after the enclosure of the last level
    name = ("fixed-point" if m >= bound[2] else "value-region" if m + 1 >= bound[1]
            else "even/odd")
    return NoConvergence(
        f"{name} bracket width {width:.3e} above tol {tol:.3e} at depth cap {m}",
        depth=m, width=width,
    )


def _trunc_rows(a: np.ndarray, t: np.ndarray) -> np.ndarray:
    """eval_trunc for many fractions at once, from the start states ``t``.

    ``a[j]`` holds coefficient a_{j+1} of every fraction; ``t`` stacks one or
    more start states per fraction and is left as it was.  Up to _FLOAT_WIDTH
    fractions times states, Python float loops cost less than one numpy step
    per coefficient; wider passes run in place on one copy of ``t``.
    """
    if len(a) == 0:
        raise ValueError("continued fraction needs at least one coefficient")
    try:
        if 0 < t.size <= _FLOAT_WIDTH:
            columns = a[::-1].T.tolist()  # each fraction's coefficients, innermost first
            states = t.reshape(-1, len(columns)).tolist()
            for state in states:
                for j, column in enumerate(columns):
                    x = state[j]
                    for aj in column:
                        x = 1.0 / (aj + x)
                    state[j] = x
            return np.array(states).reshape(t.shape)
        t = np.array(t, dtype=np.float64)  # callers read their start states again
        with np.errstate(divide="raise", over="ignore"):  # overflow to inf, as for floats
            for row in a[::-1]:
                np.add(row, t, out=t)
                np.divide(1.0, t, out=t)
        return t
    except (ZeroDivisionError, FloatingPointError):
        raise DegenerateFraction("zero intermediate denominator") from None


def _depth_slices(blocks, lo, hi):
    # coefficients a_{lo+1}..a_hi as views into the depth-ordered blocks
    out, start = [], 0
    for block in blocks:
        if lo < start + len(block) and start < hi:
            out.append(block[max(lo - start, 0):hi - start])
        start += len(block)
    return out


def _adaptive_rows(coeffs_fn: Callable[[np.ndarray, int, int], np.ndarray], rows: int,
                   bound: np.ndarray, tol: float, max_depth: int = DEFAULT_MAX_DEPTH,
                   start_depth: int = 2, retire: Callable | None = None
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray,
                              dict[int, NoConvergence]]:
    """The adaptive evaluation (see module) of ``rows`` fractions in one pass.

    ``coeffs_fn(live, lo, hi)`` gives a_{lo+1}..a_hi of the fractions ``live``
    as a (hi - lo, len(live)) array, ``bound`` is each row's (a_max, first,
    fixed) as a (3, rows) array, and every row starts at ``start_depth``.
    Coefficients are appended in blocks of at most _BLOCK, fetching at least
    _FETCH at a time, and finished rows are dropped one block at a time.
    A row also finishes where the mask ``retire(brackets, live)`` over the
    live rows says so, given every row's latest (lower, upper) as a (2, rows)
    array.  Returns each row's value, lower, upper and depth, and the rows
    open at the cap, in order, with the NoConvergence of each; their value is NaN.
    """
    even_odd_rows = np.empty((2, rows))  # each row's last even and odd truncation
    depths = np.empty(rows, dtype=np.int64)
    live = np.arange(rows)
    # the first levels where a row may take the value-region or fixed-point enclosure
    region_from, fixed_from = bound[1:].min(axis=1, initial=np.inf).tolist()
    blocks, have = [], 0  # a_1..a_have of the live rows
    for m in _levels(tol, max_depth, start_depth):
        if not live.size:
            break
        if have <= m:
            size = min(max(m + 1, have + _FETCH // live.size), max_depth + 1)
            step = max(1, _BLOCK // live.size)
            for start in range(have, size, step):
                blocks.append(coeffs_fn(live, start, min(start + step, size)))
            have = size
        (a_m,) = _depth_slices(blocks, m, m + 1)
        lo = np.zeros(live.size)
        if m + 1 >= region_from:
            region = m + 1 >= bound[1]
            lo[region] = _region_floor(a_m[0, region], bound[0, region])
        hi = _trunc_rows(a_m, lo)
        if m >= fixed_from:
            fixed = m >= bound[2]
            (a_prev,) = _depth_slices(blocks, m - 1, m)
            w, w_prev = _fixed_point(a_m[0, fixed]), _fixed_point(a_prev[0, fixed])
            lo[fixed] = np.maximum(lo[fixed], np.minimum(w, w_prev))
            hi[fixed] = np.minimum(hi[fixed], np.maximum(w, w_prev))
        even_odd = np.array([lo, hi])
        for block in reversed(_depth_slices(blocks, 0, m)):
            even_odd = _trunc_rows(block, even_odd)
        even_odd_rows[:, live] = even_odd
        depths[live] = m + 1
        # |odd - even| is upper - lower exactly; a NaN width stays open
        keep = ~(np.abs(even_odd[1] - even_odd[0]) <= tol)
        if retire is not None:
            keep &= ~retire(np.array([np.minimum(*even_odd_rows),
                                      np.maximum(*even_odd_rows)]), live)
        if np.count_nonzero(keep) < live.size:  # drop the finished rows
            live, bound = live[keep], bound[:, keep]
            for i in range(len(blocks)):
                blocks[i] = blocks[i][:, keep]
    lower, upper = np.where(even_odd_rows[0] <= even_odd_rows[1], even_odd_rows,
                            even_odd_rows[::-1])
    value = 0.5 * (lower + upper)
    value[live] = np.nan
    width = (upper - lower)[live].tolist()
    return (value, lower, upper, depths, {row: _no_convergence(w, tol, m, bound[:, j])
                                          for j, (row, w) in enumerate(zip(live.tolist(), width))})


def eval_adaptive(spec: TailSpec, tol: float,
                  max_depth: int = DEFAULT_MAX_DEPTH) -> BracketedValue:
    """Adaptive evaluation of a dispersion tail to a two-sided tolerance.

    A one-row _adaptive_rows pass, enclosed by TailSpec.bound: depth doubles
    from 2, and the last level is at ``max_depth`` exactly.
    """
    cs, s = CoefficientStream(spec.params), spec.direction.value
    value, lower, upper, depth, failed = _adaptive_rows(
        lambda rows, lo, hi: cs.coeff(np.arange(lo + 1, hi + 1)[:, None] * s, spec.lam),
        1, np.array(spec.bound())[:, None], tol, max_depth)
    if failed:
        raise failed[0]
    return BracketedValue(float(value[0]), float(lower[0]), float(upper[0]), int(depth[0]))


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
