"""Per-model coefficient families along an advection orbit.

Four flow models share one computational skeleton: linearizing about a
single-mode steady vorticity Gamma*cos(p.x) couples the Fourier amplitudes
w_n at wavevectors q + n*p through a three-term recurrence

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

from .errors import IndexUndefined
from .lattice import LatticeVector, PointClass, canonical_rep, classify, wedge

__all__ = [
    "ModelKind",
    "FlowParams",
    "SteadyState",
    "CoefficientStream",
    "beta",
    "gamma",
    "rho",
    "recurrence_coeff",
    "b",
    "c",
    "diag_weight",
    "steady_state",
]


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
        if not all(math.isfinite(x) for x in (self.nu, self.alpha, self.gamma)
                   if x is not None):
            raise ValueError("nu, alpha and gamma must be finite")
        if self.nu < 0:
            raise ValueError("viscosity must be nonnegative")
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


@dataclass(frozen=True)
class SteadyState:
    """Amplitudes of the steady vorticity, forcing, and stream function."""

    vorticity_amplitude: float
    forcing_amplitude: float
    stream_amplitude: float


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
    helpers ``c``, ``rho``, ``diag_weight`` and ``recurrence_coeff`` are the
    scalar entry points and return Python numbers.
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

    def _defined_rho(self, n) -> np.ndarray:
        # rho_n where every recurrence coefficient a_n is defined, else IndexUndefined
        n = np.asarray(n)
        rho_n = self.rho(n)
        if not np.all(rho_n):
            raise IndexUndefined(
                f"rho({n[rho_n == 0.0][0]}) = 0 for {self.params.point_class.value}")
        return rho_n


def c(n: int, params: FlowParams) -> int:
    return (params.q.x + n * params.p.x) ** 2 + (params.q.y + n * params.p.y) ** 2


def rho(n: int, params: FlowParams) -> float:
    return float(CoefficientStream(params).rho(n))


def diag_weight(n: int, params: FlowParams) -> float:
    return float(CoefficientStream(params).diag_weight(n))


def recurrence_coeff(n: int, lam: float, params: FlowParams) -> float:
    return float(CoefficientStream(params).coeff(n, lam))


def b(n: int, params: FlowParams) -> float:
    """b_n = c_n^2/(c_n - ||p||^2); equals recurrence_coeff(n, 0)/nu for nu > 0.

    Defined for the NavierStokes coefficient family only.  Raises
    ZeroDivisionError at the degenerate index where c_n = ||p||^2.
    """
    if params.model is not ModelKind.NAVIER_STOKES:
        raise ValueError("b is the NavierStokes coefficient family")
    cn = c(n, params)
    return cn * cn / (cn - params.p_norm_sq)


def steady_state(params: FlowParams) -> SteadyState:
    """Amplitudes of the steady flow the instance linearizes about."""
    g = gamma(params)
    pp = float(params.p_norm_sq)
    reg = 1.0 + params.alpha_sq * pp
    if params.model in (ModelKind.SECOND_GRADE, ModelKind.NS_VOIGT):
        return SteadyState(g, pp * g / reg, g / (pp * reg))  # forcing filtered too
    # NSAlpha, and NavierStokes with reg = 1: dissipation acts on the full
    # Laplacian; transport is filtered
    return SteadyState(g, pp * g, g / (pp * reg))
