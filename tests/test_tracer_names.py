"""The benchmark's tracer wraps fracture by module attribute; keep those names bound.

perfbench/tracer.py replaces module attributes with timing wrappers.  A
refactor that unbinds one of them would only show as an AttributeError
in a traced benchmark run; here it fails the test suite instead.  The
tracer file is loaded by path and only read: nothing is installed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer_names", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize("module,attribute,span", tracer.SPANS + tracer.COUNTED)
def test_traced_name_is_bound(module, attribute, span) -> None:
    assert hasattr(importlib.import_module(module), attribute), f"{module}.{attribute} ({span})"
