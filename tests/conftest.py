"""Subprocesses that the tests start (`python -m fracture`, `python -O -c`)
import the package from this checkout, as the tests themselves do.  Every
test starts with the package's caches empty, so no test sees results an
earlier one computed."""

import os
from pathlib import Path

import pytest

from helpers import clear_caches

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture(autouse=True)
def empty_caches():
    clear_caches()
