"""Certified linear instability of unidirectional flows on the torus.

The package detects positive growth rates of the linearized vorticity
dynamics of four incompressible-flow models (plain Navier-Stokes and three
alpha-regularized variants) on lattice orbits, by solving a continued-
fraction dispersion relation, and then *certifies* each root against three
independent oracles: the spectrum of a finite-section operator matrix, the
zeros of a perturbation determinant, and direct time integration.
"""

from .contfrac import (
    DEFAULT_MAX_DEPTH,
    BracketedValue,
    Direction,
    TailSpec,
    eval_adaptive,
    eval_adaptive_coeffs,
    eval_trunc,
    even_trunc_slope_at_zero,
)
from .dispersion import (
    DispersionSpec,
    RootResult,
    default_lambda_cap,
    find_root,
    nu0_estimate,
    value,
    value_grid,
)
from .eigensystem import EigenvectorResult, build_u, build_w, residual
from .errors import (
    DegenerateFraction,
    IndexUndefined,
    InstabError,
    MatchFailure,
    NoConvergence,
    NoSignChange,
    ThresholdNotFound,
)
from .lattice import (
    LatticeVector,
    OrbitRep,
    PointClass,
    canonical_rep,
    classify,
    enumerate_classes,
    wedge,
)
from .models import (
    CoefficientStream,
    FlowParams,
    ModelKind,
    SteadyState,
    b,
    beta,
    c,
    diag_weight,
    gamma,
    recurrence_coeff,
    rho,
    steady_state,
)
from .spectral import (
    DeterminantSample,
    TruncatedOperator,
    build_K,
    build_L,
    det_I_plus_K,
    det_root,
    dominant_mode,
    growth_rate,
    max_real_eig,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # lattice
    "LatticeVector", "OrbitRep", "PointClass",
    "wedge", "canonical_rep", "classify", "enumerate_classes",
    # models
    "ModelKind", "FlowParams", "SteadyState", "CoefficientStream",
    "beta", "gamma", "c", "rho", "diag_weight",
    "recurrence_coeff", "b", "steady_state",
    # continued fractions
    "Direction", "TailSpec", "BracketedValue", "DEFAULT_MAX_DEPTH",
    "eval_trunc", "eval_adaptive", "eval_adaptive_coeffs",
    "even_trunc_slope_at_zero",
    # dispersion
    "DispersionSpec", "RootResult", "value", "value_grid", "find_root",
    "default_lambda_cap", "nu0_estimate",
    # eigenvectors
    "EigenvectorResult", "build_u", "build_w", "residual",
    # spectral oracles
    "TruncatedOperator", "DeterminantSample",
    "build_L", "max_real_eig", "dominant_mode", "build_K",
    "det_I_plus_K", "det_root", "growth_rate",
    # errors
    "InstabError", "IndexUndefined", "DegenerateFraction", "NoConvergence",
    "NoSignChange", "MatchFailure", "ThresholdNotFound",
]
