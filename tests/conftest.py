"""Shared fixtures: the reference instance and its frozen certified values.

The reference instance (p=(3,1), q=(-1,2), NavierStokes, nu=0.06) is the
workhorse TypeI0 example used throughout the suite; its growth rate and
viscosity threshold below were certified by cross-validating the
continued-fraction root against the truncated-operator spectrum, the
determinant zero, and a time-stepped growth rate (all agreeing to ~1e-11).
"""

import math

import numpy as np
import pytest

import instab.dispersion
from instab import (DegenerateFraction, FlowParams, LatticeVector, ModelKind, NoConvergence,
                    PointClass, build_K, classify)

# Certified positive root of the reference instance (bisection to 1e-12,
# matrix oracle at N=128 agrees to 2.4e-12).
LAM_STAR = 0.22315363431475005

# Certified viscosity threshold of the reference orbit (scan + bisection to
# 1e-8; the dispersion value at lambda=0 changes sign across it).
NU_STAR = 0.089645395

P = LatticeVector(3, 1)


def count_calls(monkeypatch, module, name, limit=None):
    """Replace module.name by a wrapper; returns the list of first arguments seen.

    With ``limit``, the call past the limit raises AssertionError, so a search
    that would never end fails at once instead of hanging the suite.
    """
    inner = getattr(module, name)
    seen = []

    def counting(*args, **kwargs):
        seen.append(args[0])
        if limit is not None and len(seen) > limit:
            raise AssertionError(f"{name} called more than {limit} times")
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return seen


def record_passes(monkeypatch):
    """Spy on dispersion._grid_info, the one evaluator of dispersion values.

    Returns the (lam, nu) arguments of each pass, in call order.
    """
    inner, passes = instab.dispersion._grid_info, []

    def recording(spec, lam, nu, *args, **kwargs):
        passes.append((lam, nu))
        return inner(spec, lam, nu, *args, **kwargs)

    monkeypatch.setattr(instab.dispersion, "_grid_info", recording)
    return passes


def one_point(passes):
    """The passes of one point, as value() and the search refinements make."""
    return [(lam, nu) for lam, nu in passes if np.size(lam) == np.size(nu) == 1]


def reference_adaptive(coeffs, tol, max_depth, start_depth=2, bound=(math.inf,) * 3):
    """The adaptive bracket of one fraction, level by level in Python floats.

    ``coeffs(k)`` gives a_1..a_k, ``bound`` is TailSpec.bound's (a_max, first,
    fixed).  Returns (value, lower, upper, depth); raises NoConvergence with
    the last level's depth and width, or DegenerateFraction.
    """
    def trunc(a, t):
        try:
            for x in reversed(a):
                t = 1.0 / (x + t)
        except ZeroDivisionError:
            raise DegenerateFraction("zero intermediate denominator") from None
        return t

    a_max, first, fixed = bound
    cap = max_depth - max_depth % 2
    m = min(max(2, start_depth - start_depth % 2), cap)
    while True:
        a = [float(x) for x in coeffs(m + 1)]
        lo = 0.0  # even/odd, or the value region [L, U] from index first on
        if m + 1 >= first:
            lo = 2.0 / (a_max * (1.0 + math.sqrt(1.0 + 4.0 / (a[m] * a_max))))
        hi = trunc(a[m:], lo)
        # the fixed points of t -> 1/(a_{m+1} + t) and of a_m's map; at nu = 0,
        # where the a_n fall, lo and hi swap, which the sorted ends below undo
        if m >= fixed:
            lo = max(lo, 2.0 / (a[m] + math.sqrt(a[m] * a[m] + 4.0)))
            hi = min(hi, 2.0 / (a[m - 1] + math.sqrt(a[m - 1] * a[m - 1] + 4.0)))
        even, odd = trunc(a[:m], lo), trunc(a[:m], hi)
        lower, upper = (even, odd) if even <= odd else (odd, even)
        if upper - lower <= tol:
            return 0.5 * (lower + upper), lower, upper, m + 1
        if m >= cap:
            raise NoConvergence("at the depth cap", depth=m, width=upper - lower)
        m = min(2 * m, cap)


def reference_det(lam, pr, N):
    """det(I + K_lambda) of the N-section as a Python float loop over build_K's rows.

    The leading minors obey D_m = D_{m-1} - sub_m*sup_{m-1}*D_{m-2}, rescaled
    by an exact power of two once the larger of a pair leaves
    [2^-256, 2^256].  A value beyond the double range raises NoConvergence
    with the library's message, at depth N.
    """
    K = build_K(lam, pr, N)
    d_prev2, d_prev, shift = 1.0, 1.0, 0
    for sub, sup in zip(K.sub.tolist(), K.sup.tolist()):
        d = d_prev - sub * sup * d_prev2
        mag = max(abs(d), abs(d_prev))
        if mag > 2.0 ** 256 or 0.0 < mag < 2.0 ** -256:
            _, e = math.frexp(mag)
            d, d_prev, shift = math.ldexp(d, -e), math.ldexp(d_prev, -e), shift + e
        d_prev2, d_prev = d_prev, d
    try:
        return math.ldexp(d_prev, shift)
    except OverflowError:
        exponent = math.log10(abs(d_prev)) + shift * math.log10(2.0)
        raise NoConvergence(f"|det(I+K)| of the N={N} section is about 1e{exponent:.0f}, "
                            "beyond the double range", depth=N) from None


# one (model, alpha, nu) per model, and one class-I orbit of p=(3,1) per class
MODELS = [
    (ModelKind.NAVIER_STOKES, None, 0.06),
    (ModelKind.SECOND_GRADE, 0.5, 0.04),
    (ModelKind.NS_ALPHA, 1.0, 0.05),
    (ModelKind.NS_VOIGT, 0.5, 0.04),
]
CLASS_Q = [(-1, 2), (0, -2), (0, 2)]  # I0, I+, I-

# every class-I orbit (p, q) with small coordinates, p up to sign
CLASS_I_ORBITS = [
    ((px, py), (qx, qy))
    for px in range(5) for py in range(-4, 5) for qx in range(-4, 5) for qy in range(-4, 5)
    if (px, py) > (0, 0) and px * qy != py * qx and classify(LatticeVector(qx, qy), LatticeVector(px, py)) in (
        PointClass.TYPE_I0, PointClass.TYPE_I_PLUS, PointClass.TYPE_I_MINUS)
]


def make_params(model=ModelKind.NAVIER_STOKES, q=(-1, 2), nu=0.06,
                alpha=None, gamma=None, p=(3, 1)):
    return FlowParams(model=model, p=LatticeVector(*p), q=LatticeVector(*q),
                      nu=nu, alpha=alpha, gamma=gamma)


@pytest.fixture
def fig_params():
    """Reference TypeI0 NavierStokes instance."""
    return make_params()


@pytest.fixture
def plus_params():
    """TypeIPlus companion on the same p: q=(0,-2), nu=0.05."""
    return make_params(q=(0, -2), nu=0.05)


@pytest.fixture
def minus_params():
    """TypeIMinus companion on the same p: q=(0,2), nu=0.05."""
    return make_params(q=(0, 2), nu=0.05)
