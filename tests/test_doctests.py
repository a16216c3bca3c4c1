"""Run the doctests embedded in the library modules."""

from __future__ import annotations

import doctest
import importlib

import pytest

MODULES = [
    "fracture.bigraded",
    "fracture.matrices",
    "fracture.snf",
    "fracture.presentation",
    "fracture.presets",
    "fracture.localization",
    "fracture.assembler",
    "fracture.charts",
]


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name: str) -> None:
    module = importlib.import_module(name)
    failures, _ = doctest.testmod(module, verbose=False)
    assert failures == 0
