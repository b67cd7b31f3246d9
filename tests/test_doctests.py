"""The usage examples in the package docstrings run and hold."""

import doctest
import importlib

import pytest

MODULES = (
    "repro",
    "repro.apps.base",
    "repro.loc.lexer",
    "repro.loc.parser",
    "repro.sim.kernel",
    "repro.sim.rng",
    "repro.trace.events",
    "repro.traffic.arrivals",
)


@pytest.mark.parametrize("name", MODULES)
def test_module_examples(name):
    results = doctest.testmod(importlib.import_module(name))
    assert results.attempted > 0
    assert results.failed == 0
