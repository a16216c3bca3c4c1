"""Rules the package keeps as a whole.

Correctness checks raise instead of asserting, so they survive python -O,
and the package runs on the standard library alone.  Maps are built
without PHom's checks only inside bigraded.py, where each such map is
derived from maps already checked; the parser, the chart reader, snf and
induced_map stay on the validating constructor.
"""

import ast
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fracture"

FOREIGN_MODULES = """
import sys
sys.path.insert(0, {src!r})
import fracture
fracture.realize("HF2_R", 2, (-2, 2, -2, 2))
foreign = sorted(
    name for name in sys.modules
    if name != "__main__"
    and name.partition(".")[0] not in sys.stdlib_module_names
    and name.partition(".")[0] != "fracture"
)
print("\\n".join(foreign))
"""


def test_no_assert_statements_in_the_package() -> None:
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def unchecked_constructions(tree):
    """Lines that name the trusted constructor or call a __new__ directly."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "_trusted_phom":
            yield node.lineno
        elif isinstance(node, ast.Attribute) and node.attr in ("_trusted_phom", "__new__"):
            yield node.lineno
        elif isinstance(node, ast.alias) and node.name == "_trusted_phom":
            yield node.lineno


def test_only_bigraded_builds_maps_without_checks() -> None:
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "bigraded.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.name}:{line}" for line in unchecked_constructions(tree)]
    assert found == []


def test_the_trusted_constructor_is_named_where_the_rule_looks() -> None:
    source = (PACKAGE / "bigraded.py").read_text(encoding="utf-8")
    assert list(unchecked_constructions(ast.parse(source)))


def test_realize_loads_only_the_standard_library() -> None:
    code = FOREIGN_MODULES.format(src=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().split() == []
