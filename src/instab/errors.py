"""Failure modes shared across the toolkit.

Every routine that can fail for a structural (non-programming) reason raises
one of these, so callers can tell "the math said no" apart from a bug.
"""

import sys

import numpy as np

__all__ = [
    "InstabError",
    "IndexUndefined",
    "DegenerateFraction",
    "NoConvergence",
    "NoSignChange",
    "MatchFailure",
    "ThresholdNotFound",
]


class InstabError(Exception):
    """Base class for toolkit failures."""


class IndexUndefined(InstabError):
    """A recurrence coefficient was requested at an index where rho vanishes."""


class DegenerateFraction(InstabError, ZeroDivisionError):
    """A finite continued fraction hit a zero intermediate denominator."""


class NoConvergence(InstabError):
    """An adaptive evaluation reached its cap before meeting tolerance."""

    def __init__(self, message: str, *, depth: int | None = None,
                 width: float | None = None):
        super().__init__(message)
        self.depth = depth
        self.width = width


class NoSignChange(InstabError):
    """A bracketing search saw the same sign at both endpoints."""


class MatchFailure(InstabError):
    """Forward and backward tail values disagree at the junction index."""

    def __init__(self, message: str, *, mismatch: float | None = None,
                 tol: float | None = None):
        super().__init__(message)
        self.mismatch = mismatch
        self.tol = tol


class ThresholdNotFound(InstabError):
    """No viscosity crossing was found below the configured cap."""

    def __init__(self, message: str, *, cap: float | None = None):
        super().__init__(message)
        self.cap = cap


def _check_number(name: str, x, sign: str | None = "positive") -> None:
    """Refuse a number, or an array-like's element, that is not finite or not of ``sign``.

    NaN, inf and a Python int beyond the float range are not finite.  ``sign``
    "positive" refuses x <= 0, "nonnegative" x < 0, None neither.  The
    ValueError names ``name``; callers check at entry, so such a value is
    never chased to a depth cap.
    """
    scalar = isinstance(x, (int, float))  # plain comparisons: _levels checks tol on every pass
    x = x if scalar else np.asarray(x)  # an int beyond the float range makes an object array
    finite = abs(x) <= sys.float_info.max
    if not (finite if scalar else finite.all()):
        raise ValueError(f"{name} must be finite")
    if sign is not None:
        below = x <= 0 if sign == "positive" else x < 0
        if below if scalar else below.any():
            raise ValueError(f"{name} must be {sign}")
