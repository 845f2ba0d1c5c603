"""The public surface: each module's __all__ is the one list of its public
names, and the package re-exports exactly those lists."""

import inspect

import pytest

import instab

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
