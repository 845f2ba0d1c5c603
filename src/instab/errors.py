"""Failure modes shared across the toolkit.

Every routine that can fail for a structural (non-programming) reason raises
one of these, so callers can tell "the math said no" apart from a bug.
"""

import sys

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


def _check_positive(name: str, x: float, *, zero_ok: bool = False) -> None:
    """Refuse a tolerance, cap or radius that is NaN, infinite or <= 0 (< 0 if zero_ok).

    The ValueError names ``name``; callers check at entry, so such a value is
    never chased to a depth cap.
    """
    if not abs(x) <= sys.float_info.max:  # also a Python int beyond the float range
        raise ValueError(f"{name} must be finite")
    if x < 0 or (x == 0 and not zero_ok):
        raise ValueError(f"{name} must be {'nonnegative' if zero_ok else 'positive'}")
