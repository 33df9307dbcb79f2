"""Every name a unicrit module lists in __all__ exists."""

import importlib
import pkgutil

import pytest

import unicrit

MODULES = sorted(info.name for info in pkgutil.iter_modules(unicrit.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"unicrit.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_numfield_exports_no_orbit_reports():
    # verify builds the orbit claims from periodic_orbit_in_field directly
    from unicrit import numfield

    for name in ("OrbitCongruences", "OrbitUnitReport",
                 "congruence_certificates", "dynamical_unit_check"):
        assert name not in numfield.__all__
        assert not hasattr(numfield, name)
