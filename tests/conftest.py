"""Subprocesses that the tests start (`python -m fracture`, `python -O -c`)
import the package from this checkout, as the tests themselves do."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
