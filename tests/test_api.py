"""The public surface: each module's __all__ is the one list of its public
names, the package re-exports exactly those lists, and every numeric
parameter refuses NaN and inf at entry."""

import inspect
import math

import pytest

import instab
from instab import Direction, DispersionSpec, LatticeVector, ModelKind, TailSpec
from conftest import make_params

LIBRARY = [instab.lattice, instab.models, instab.contfrac, instab.dispersion,
           instab.eigensystem, instab.spectral, instab.errors]


def test_package_names_are_unique():
    # a star import would let a later module silently shadow an earlier name
    assert len(instab.__all__) == len(set(instab.__all__))


@pytest.mark.parametrize("module", LIBRARY, ids=lambda m: m.__name__)
def test_package_reexports_the_module(module):
    for name in module.__all__:
        assert getattr(instab, name) is getattr(module, name)


def test_package_all_is_the_union_of_the_modules():
    names = ["__version__"] + [n for m in LIBRARY for n in m.__all__]
    assert sorted(instab.__all__) == sorted(names)


def test_star_import_yields_all():
    namespace = {}
    exec("from instab import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(instab.__all__)


@pytest.mark.parametrize("module", LIBRARY, ids=lambda m: m.__name__)
def test_public_definitions_are_listed(module):
    defined = {name for name, obj in vars(module).items()
               if not name.startswith("_")
               and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == module.__name__}
    assert defined <= set(module.__all__)


FIG = make_params()
SPEC = DispersionSpec(FIG)

# (parameter named in the message, call with the value x)
NUMERIC_PARAMETERS = {
    "value": ("lambda", lambda x: instab.value(x, SPEC)),
    "value_grid": ("nu", lambda x: instab.value_grid(SPEC, 0.0, [0.1, x])),
    "find_root-tol": ("tol", lambda x: instab.find_root(SPEC, tol=x)),
    "find_root-lambda_cap": ("lambda_cap", lambda x: instab.find_root(SPEC, lambda_cap=x)),
    "nu0_estimate-tol": ("tol", lambda x: instab.nu0_estimate(FIG, tol=x)),
    "nu0_estimate-nu_cap": ("nu_cap", lambda x: instab.nu0_estimate(FIG, nu_cap=x)),
    "det_root": ("tol", lambda x: instab.det_root(FIG, 16, (0.1, 0.3), tol=x)),
    "build_w": ("tol", lambda x: instab.build_w(0.2, FIG, 8, tol=x)),
    "eval_adaptive": ("tol", lambda x: instab.eval_adaptive(
        TailSpec(Direction.FORWARD, FIG, 0.1), x)),
    "TailSpec": ("lambda", lambda x: TailSpec(Direction.FORWARD, FIG, x)),
    "growth_rate": ("t_final", lambda x: instab.growth_rate(FIG, 8, t_final=x, dt=1e-3)),
    "growth_rate-dt": ("dt", lambda x: instab.growth_rate(FIG, 8, t_final=1.0, dt=x)),
    "det_root-bracket": ("bracket", lambda x: instab.det_root(FIG, 16, (0.1, x), tol=1e-8)),
    "build_K": ("lambda", lambda x: instab.build_K(x, FIG, 8)),
    "det_I_plus_K": ("lambda", lambda x: instab.det_I_plus_K(x, FIG, 8)),
    "det_grid": ("lambda", lambda x: instab.det_grid([0.2, x], FIG, 8)),
    "FlowParams-nu": ("nu", lambda x: make_params(nu=x)),
    "FlowParams-alpha": ("alpha", lambda x: make_params(model=ModelKind.NS_VOIGT, alpha=x)),
    "FlowParams-gamma": ("gamma", lambda x: make_params(gamma=x)),
    "enumerate_classes": ("radius", lambda x: instab.enumerate_classes(LatticeVector(3, 1), x)),
    "certify": ("agree_tol", lambda x: instab.certify(FIG, 16, x)),
}


@pytest.mark.parametrize("x", [math.nan, math.inf, pytest.param(10 ** 400, id="int1e400")])
@pytest.mark.parametrize("call", NUMERIC_PARAMETERS)
def test_non_finite_numeric_parameter_is_refused(call, x):
    # a ValueError naming the parameter: not a NaN chased to the depth cap, a
    # math domain error, an overflow or a returned value; a Python int beyond
    # the float range is not finite either
    name, fn = NUMERIC_PARAMETERS[call]
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        fn(x)
