"""The >>> examples in the package's docstrings run and give what they show."""

import doctest
import importlib

import pytest

MODULES = ("cli", "dynmaps", "factorz", "numfield", "polycore", "raytrace", "verify")


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(f"unicrit.{name}"))
    assert result.failed == 0, f"{result.failed} of {result.attempted} examples failed"
