"""Continued-fraction engine for the orbit tail functions.

Notation: [a1; a2; ...; ak] = 1/(a1 + 1/(a2 + ... + 1/ak)).  The dispersion
relations pair the center coefficient with two tails built from the
recurrence coefficients along the orbit,

    f(lambda, nu) = [a_1; a_2; a_3; ...]      (Forward),
    g(lambda, nu) = [a_-1; a_-2; a_-3; ...]   (Backward),

and likewise for the regularized-model coefficient families.  For positive
coefficient streams the even truncations increase, the odd ones decrease, and
the limit sits in between, which gives rigorous two-sided brackets: the
adaptive evaluator doubles the depth until the even/odd bracket is narrower
than the requested tolerance.

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
from .models import CoefficientStream, FlowParams, ModelKind, b

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


@dataclass(frozen=True)
class BracketedValue:
    """An adaptive evaluation together with its final even/odd bracket."""

    value: float
    lower: float
    upper: float
    depth: int

    @property
    def width(self) -> float:
        return self.upper - self.lower


def eval_trunc(coeffs: Sequence[float]) -> float:
    """Evaluate the finite continued fraction [a1; ...; ak] by backward recurrence.

    Innermost term first; numerically stable for positive coefficients and
    free of convergent overflow.  Raises DegenerateFraction on a zero
    intermediate denominator (callers may perturb the depth by one).
    """
    seq = np.asarray(coeffs, dtype=np.float64)
    if seq.size == 0:
        raise ValueError("continued fraction needs at least one coefficient")
    t = 0.0
    for a in seq[::-1].tolist():
        d = a + t
        if d == 0.0:
            raise DegenerateFraction("zero intermediate denominator")
        t = 1.0 / d
    return t


def eval_adaptive_coeffs(
    coeffs_fn: Callable[[int], Sequence[float]],
    tol: float,
    max_depth: int = DEFAULT_MAX_DEPTH,
    start_depth: int = 2,
) -> BracketedValue:
    """Bracket the limit of [a1; a2; ...] between even and odd truncations.

    ``coeffs_fn(k)`` must return the first k coefficients.  Depth doubles
    until the (even, odd) pair is within tol; the final evaluation happens at
    ``max_depth`` exactly before giving up, so the cap is part of the search.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_depth < 2:
        raise ValueError("max_depth must be at least 2")
    m = max(2, start_depth - start_depth % 2)
    m = min(m, max_depth - max_depth % 2)
    while True:
        arr = np.asarray(coeffs_fn(m + 1), dtype=np.float64)
        even = eval_trunc(arr[:m])
        odd = eval_trunc(arr)
        lower, upper = (even, odd) if even <= odd else (odd, even)
        if upper - lower <= tol:
            return BracketedValue(0.5 * (lower + upper), lower, upper, m + 1)
        nxt = min(2 * m, max_depth - max_depth % 2)
        if nxt <= m:
            raise _no_convergence(upper - lower, tol, m)
        m = nxt


def _no_convergence(width: float, tol: float, m: int) -> NoConvergence:
    return NoConvergence(
        f"even/odd bracket width {width:.3e} above tol {tol:.3e} at depth cap {m}",
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
                   tol: float, max_depth: int = DEFAULT_MAX_DEPTH) -> np.ndarray:
    """eval_adaptive_coeffs from depth 2 over ``rows`` fractions at once.

    ``coeffs_fn(live, k)`` gives the first k coefficients of the fractions
    ``live`` as a (k, len(live)) array; at the cap the first failing one raises.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_depth < 2:
        raise ValueError("max_depth must be at least 2")
    cap = max_depth - max_depth % 2
    values, live, m = np.empty(rows), np.arange(rows), 2
    while live.size:
        a = coeffs_fn(live, m + 1)
        t = np.zeros((2, live.size))      # the even and odd truncations, stacked;
        t[1] = _trunc_rows(a[m:], t[1])   # the odd one takes a_{m+1} first
        even, odd = _trunc_rows(a[:m], t)
        del a  # free this level's coefficients before the next level's
        lower, upper = np.where(even <= odd, (even, odd), (odd, even))
        done = upper - lower <= tol
        values[live[done]] = (0.5 * (lower + upper))[done]
        live = live[~done]
        if live.size and m >= cap:
            raise _no_convergence(float((upper - lower)[~done][0]), tol, m)
        m = min(2 * m, cap)
    return values


def eval_adaptive(spec: TailSpec, tol: float,
                  max_depth: int = DEFAULT_MAX_DEPTH,
                  start_depth: int = 2) -> BracketedValue:
    """Adaptive evaluation of a dispersion tail to a two-sided tolerance."""
    return eval_adaptive_coeffs(spec.coeffs, tol, max_depth, start_depth)


def even_trunc_slope_at_zero(k: int, direction: Direction,
                             params: FlowParams) -> float:
    """Slope in nu at nu=0 of the depth-2k even truncation of f(0, nu) or g(0, nu).

    Equals b_2 + b_4 + ... + b_2k (Forward) or the negative-index mirror
    (Backward); the coefficient family exists for NavierStokes only.
    """
    if params.model is not ModelKind.NAVIER_STOKES:
        raise ValueError("even-truncation slope is defined for the NavierStokes family")
    if k < 1:
        raise ValueError("k must be at least 1")
    s = direction.value
    return float(sum(b(2 * j * s, params) for j in range(1, k + 1)))
