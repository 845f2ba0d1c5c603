"""Per-model coefficient families along an advection orbit.

Four flow models share one computational skeleton: linearizing about a
single-mode steady flow whose vorticity Omega has (1 - a^2 Lap) Omega =
Gamma*cos(p.x) (so Omega = Gamma/(1+a^2||p||^2)*cos(p.x), and Gamma*cos(p.x)
for NavierStokes, a = 0) couples the Fourier amplitudes w_n at wavevectors
q + n*p through a three-term recurrence

    rho_{n-1} w_{n-1} - rho_{n+1} w_{n+1} - (lambda + nu*d_n) w_n = 0,

where only the band weights rho_n, the dissipation weights d_n and the
normalization of Gamma differ between models:

* NavierStokes:  rho_n = 1 - ||p||^2/c_n,                     d_n = c_n
* SecondGrade:   rho_n = 1 - (1+a^2||p||^2)||p||^2
                          / ((1+a^2 c_n) c_n),                d_n = c_n/(1+a^2 c_n)
* NSAlpha:       rho_n as SecondGrade,                        d_n = c_n
* NSVoigt:       rho_n = (1 - ||p||^2/c_n)/(1+a^2 c_n),       d_n = c_n/(1+a^2 c_n)

with c_n = ||q + n*p||^2 kept as exact integers and everything else in double
precision (conditioning is benign: all quantities polynomially bounded in n).
NavierStokes is the a = 0 case (FlowParams.alpha_sq is exactly 0.0), so the
code runs it through the NSAlpha formulas; 1 + 0*x = 1 keeps its values
bit-identical to the plain forms above.  The normalized forms assume the
scale fixed by gamma(); an explicit Gamma multiplies every rho_n by
Gamma*(q^p)/(2||p||^2*(1+a^2||p||^2)).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import IndexUndefined, _check_number
from .lattice import LatticeVector, PointClass, canonical_rep, classify, wedge

__all__ = [
    "ModelKind",
    "FlowParams",
    "CoefficientStream",
    "beta",
    "gamma",
    "b",
    "c",
]

UNBOUNDED = (math.inf,) * 3  # CoefficientStream.tail_bound where none is proven


class ModelKind(enum.Enum):
    """The four supported flow models; values are the CLI tags."""

    NAVIER_STOKES = "ns"
    SECOND_GRADE = "second-grade"
    NS_ALPHA = "ns-alpha"
    NS_VOIGT = "ns-voigt"

    @property
    def regularized(self) -> bool:
        return self is not ModelKind.NAVIER_STOKES


@dataclass(frozen=True)
class FlowParams:
    """Immutable problem instance: model, wavevectors, viscosity, scales.

    ``q`` is replaced by the canonical representative of its orbit on
    construction, and the orbit class is cached as ``point_class``.
    ``gamma=None`` selects the normalized scale (the Gamma for which the
    leading prefactor of rho_n is exactly 1); a float is an explicit Gamma.
    ``alpha`` is required (> 0) for the regularized models and ignored for
    NavierStokes.  Parallel q is only representable with an explicit gamma
    (the normalization condition divides by q^p).
    """

    model: ModelKind
    p: LatticeVector
    q: LatticeVector
    nu: float
    alpha: float | None = None
    gamma: float | None = None
    point_class: PointClass = field(init=False)

    def __post_init__(self):
        if self.p.is_zero():
            raise ValueError("p must be nonzero")
        _check_number("nu", self.nu, "nonnegative")
        for name in ("alpha", "gamma"):
            if getattr(self, name) is not None:
                _check_number(name, getattr(self, name), None)
        if self.model.regularized:
            if self.alpha is None or not self.alpha > 0:
                raise ValueError(f"{self.model.value} requires alpha > 0")
        else:
            object.__setattr__(self, "alpha", None)
        if wedge(self.p, self.q) == 0 and self.gamma is None:
            raise ValueError(
                "q parallel to p: the normalized Gamma is undefined; "
                "pass an explicit gamma to study the decoupled orbit"
            )
        object.__setattr__(self, "q", canonical_rep(self.q, self.p).rep)
        object.__setattr__(self, "point_class", classify(self.q, self.p))

    @property
    def p_norm_sq(self) -> int:
        return self.p.norm_sq

    @property
    def alpha_sq(self) -> float:
        return 0.0 if self.alpha is None else self.alpha * self.alpha


def beta(p: LatticeVector, k: LatticeVector, model: ModelKind,
         alpha: float = 0.0) -> float:
    """Vorticity interaction coefficient of the model; 0 if either argument is 0.

    The scalar prefactor and the wedge both change sign under p <-> k, so
    beta is symmetric in its arguments for every model.
    """
    if p.is_zero() or k.is_zero():
        return 0.0
    w = wedge(p, k)
    pp, kk = p.norm_sq, k.norm_sq
    if model is ModelKind.NAVIER_STOKES:
        return 0.5 * (1.0 / kk - 1.0 / pp) * w
    if not alpha > 0:
        raise ValueError(f"{model.value} requires alpha > 0")
    a2 = alpha * alpha
    if model in (ModelKind.SECOND_GRADE, ModelKind.NS_ALPHA):
        return 0.5 * (1.0 / (kk * (1.0 + a2 * kk)) - 1.0 / (pp * (1.0 + a2 * pp))) * w
    # NSVoigt
    return 0.5 * (1.0 / kk - 1.0 / pp) * w / ((1.0 + a2 * pp) * (1.0 + a2 * kk))


def gamma(params: FlowParams) -> float:
    """The steady amplitude Gamma: explicit passthrough or the normalizing value."""
    if params.gamma is not None:
        return params.gamma
    w = wedge(params.q, params.p)
    pp = params.p_norm_sq
    return 2.0 * pp * (1.0 + params.alpha_sq * pp) / w


def _scale(params: FlowParams) -> float:
    # prefactor multiplying the normalized rho_n shape
    if params.gamma is None:
        return 1.0
    w = wedge(params.q, params.p)
    pp = params.p_norm_sq
    return params.gamma * w / (2.0 * pp * (1.0 + params.alpha_sq * pp))


@dataclass(frozen=True)
class CoefficientStream:
    """Array access to c_n, rho_n, d_n and the recurrence coefficients.

    Every method takes an integer index or index array and returns an ndarray
    of its shape (int64 for ``c``, float64 otherwise); the module-level
    helper ``c`` is the scalar entry point and returns an exact int.
    """

    params: FlowParams

    def c(self, n) -> np.ndarray:
        """c_n = ||q + n*p||^2, exact in int64."""
        n = np.asarray(n, dtype=np.int64)
        p, q = self.params.p, self.params.q
        cx = q.x + n * p.x
        cy = q.y + n * p.y
        return cx * cx + cy * cy

    def rho(self, n) -> np.ndarray:
        """Band weight rho_n of the model, at the params' scale.

        Identically zero on parallel orbits (the advection coupling
        vanishes), including at the orbit's zero vector where the shape
        factor alone would be singular.
        """
        s = _scale(self.params)
        if s == 0.0:
            return np.zeros(np.shape(n))
        cn = self.c(n).astype(np.float64)
        pp = float(self.params.p_norm_sq)
        a2 = self.params.alpha_sq
        if self.params.model is ModelKind.NS_VOIGT:
            return s * ((1.0 - pp / cn) / (1.0 + a2 * cn))
        return s * (1.0 - (pp * (1.0 + a2 * pp)) / (cn * (1.0 + a2 * cn)))

    def diag_weight(self, n) -> np.ndarray:
        """Dissipation weight d_n: the operator diagonal is -nu*d_n."""
        cn = self.c(n).astype(np.float64)
        if self.params.model in (ModelKind.NAVIER_STOKES, ModelKind.NS_ALPHA):
            return cn
        return cn / (1.0 + self.params.alpha_sq * cn)

    def coeff(self, n, lam: float) -> np.ndarray:
        """Recurrence coefficient (lambda + nu*d_n)/rho_n.

        Raises IndexUndefined where rho_n = 0 (the degenerate index of the
        I+/I- classes); callers on those classes must not request it.
        """
        return (lam + self.params.nu * self.diag_weight(n)) / self._defined_rho(n)

    def tail_bound(self, lam, nu):
        """(a_max, first, fixed) at each (lam, nu), in either direction: from
        index first on a_n rises to a_max, and from index fixed on the fixed
        points w of t -> 1/(a_n + t) move monotonically, with increments that
        do not grow.  UNBOUNDED where nothing is proven.

        Second-grade coefficients at scale s > 0 read a(c) = (lam c + B c^2) /
        (s Q(c)), Q = alpha^2 c^2 + c - K, B = lam alpha^2 + nu, K = |p|^2 (1 +
        alpha^2 |p|^2).  For nu > 0, s Q^2 a'(c) = g(c) = nu c^2 - 2BK c - lam K,
        so a(c) rises to a_inf = (lam + nu/alpha^2)/s past the larger root c* of g.
        Along the orbit c(x) = |q + x p|^2 has c'^2 = 4(|p|^2 c - W^2), W = p^q,
        and c'' = 2|p|^2, so s Q^3 a(c(x))'' / 2 is the quartic F(c) = 2(g'Q -
        2gQ')(|p|^2 c - W^2) + |p|^2 g Q, with leading coefficient -3 alpha^2 nu |p|^2:
        F <= 0 wherever each of its m positive lower terms is at most 1/m of the
        leading one, and a rising a_n concave in n has w falling, convex in n.
        c_{+-n} = |q +- n p|^2 >= (n|p| - |q|)^2 rises with n >= 1
        because q is the orbit's minimizer, so first and fixed are where that
        floor passes c* and the larger of c* and F's threshold.

        At nu = 0 and lam > 0 the NS, second-grade and NS-alpha coefficients
        read a = A (1 + h), A = lam/s, h = K/G, G = P(c) - K, P(c) = c +
        alpha^2 c^2 (alpha = 0 for NS): past c = |p|^2 they fall to A, so w
        rises.  As dw/da = -w/R and d2w/da2 = w (R + a)/R^3, R = sqrt(a^2 + 4),
        w is concave in x where (R + a) a'^2 <= R^2 a'' (' = d/dx along c(x));
        R^2/(R + a) >= R/2 >= a/2, so 2 h'^2 <= (1 + h) h'' suffices, which
        is 2 G'^2 >= P G''.  With dP/dc = 1 + 2 alpha^2 c that reads c'^2 (1 +
        3 alpha^2 c + 3 alpha^4 c^2) >= |p|^2 c (1 + 3 alpha^2 c + 2 alpha^4 c^2),
        which holds once 4(|p|^2 c - W^2) >= |p|^2 c.  So fixed is where the
        floor passes max(|p|^2, 4 W^2 / (3 |p|^2)), whatever lam > 0.
        """
        params = self.params
        s = _scale(params)
        graded, viscous = params.model is ModelKind.SECOND_GRADE, np.asarray(nu).all()
        if params.model is ModelKind.NS_VOIGT or not s > 0 or viscous and not graded:
            return UNBOUNDED
        # [()] makes scalar inputs numpy scalars, whose arithmetic is cheaper
        lam = np.asarray(lam, dtype=np.float64)[()]
        a2, pp = params.alpha_sq, params.p_norm_sq
        w2 = float(wedge(params.p, params.q)) ** 2

        def index(c_min, where):
            # first n >= 1 with (n|p| - |q|)^2 >= c_min, where ``where`` holds
            return np.where(where, np.maximum(1.0, np.ceil(
                (np.sqrt(c_min) + math.sqrt(params.q.norm_sq)) / math.sqrt(pp))), math.inf)

        fixed = math.inf if viscous else index(max(pp, 4.0 * w2 / (3.0 * pp)),
                                                (np.asarray(nu) == 0.0) & (lam > 0.0))
        if not graded:
            return np.full_like(fixed, math.inf), np.full_like(fixed, math.inf), fixed
        pos = np.asarray(nu) > 0.0
        nu = np.where(pos, nu, 1.0)[()]  # a placeholder where the bound does not hold
        k = pp * (1.0 + a2 * pp)
        bk = (lam * a2 + nu) * k
        c_star = (bk + np.sqrt(bk * bk + nu * lam * k)) / nu
        # F's coefficients of c^0..c^3 are lam*u_j + nu*v_j, its leading one -3 a2 nu pp
        u = (-k * (4.0 * k * w2 * a2 - k * pp + 4.0 * w2),
             3.0 * k * (2.0 * k * a2 * pp - 4.0 * w2 * a2 + pp),
             -3.0 * k * a2 * (4.0 * w2 * a2 - 3.0 * pp),
             10.0 * k * a2 * a2 * pp)
        v = (-4.0 * k * k * w2, 6.0 * k * k * pp, -3.0 * k * (4.0 * w2 * a2 + pp),
             10.0 * k * a2 * pp + 4.0 * w2 * a2 + pp)
        f = [np.maximum(lam * uj + nu * vj, 0.0) for uj, vj in zip(u, v)]
        share = sum(fj > 0.0 for fj in f) / (3.0 * a2 * pp * nu)
        c_fixed = c_star
        for j, fj in enumerate(f):
            c_fixed = np.maximum(c_fixed, (share * fj) ** (1.0 / (4 - j)))
        return (np.where(pos, (lam + nu / a2) / s, math.inf), index(c_star, pos),
                np.minimum(fixed, index(c_fixed, pos)))

    def _defined_rho(self, n) -> np.ndarray:
        # rho_n where every recurrence coefficient a_n is defined, else IndexUndefined
        n = np.asarray(n)
        rho_n = self.rho(n)
        if not rho_n.all():
            raise IndexUndefined(
                f"rho({n[rho_n == 0.0][0]}) = 0 for {self.params.point_class.value}")
        return rho_n


def c(n: int, params: FlowParams) -> int:
    return (params.q.x + n * params.p.x) ** 2 + (params.q.y + n * params.p.y) ** 2


def b(n: int, params: FlowParams) -> float:
    """b_n = c_n^2/(c_n - ||p||^2); equals CoefficientStream.coeff(n, 0)/nu for nu > 0.

    Defined for the NavierStokes coefficient family only.  Raises
    ZeroDivisionError at the degenerate index where c_n = ||p||^2.
    """
    if params.model is not ModelKind.NAVIER_STOKES:
        raise ValueError("b is the NavierStokes coefficient family")
    cn = c(n, params)
    return cn * cn / (cn - params.p_norm_sq)

