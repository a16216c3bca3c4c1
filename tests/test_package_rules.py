"""Rules the package keeps as a whole.

Correctness checks raise instead of asserting, so they survive python -O,
and the package runs on the standard library alone.  Maps are built
without PHom's checks only inside bigraded.py, where each such map is
derived from maps already checked; the parser, the chart reader, snf and
induced_map stay on the validating constructor, and only bigraded.py
reduces entries, since every map stores them reduced when it is built.
Every module-level function and class is used somewhere in the package
besides its own definition, and every import is read where it is made.  The strings of
the verification flags belong to the JSON format in charts.py; every
other module reads a module's set of unverified cells.
"""

import ast
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fracture"
TESTS = Path(__file__).resolve().parent

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


def reduce_entries_lines(tree):
    """Lines that define reduce_entries or name it, bare, as an attribute or in an import."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.alias)):
            name = node.name
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            continue
        if name == "reduce_entries":
            yield node.lineno


def test_only_bigraded_reduces_entries() -> None:
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "bigraded.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.name}:{line}" for line in reduce_entries_lines(tree)]
    assert found == []


def test_reduce_entries_is_named_where_the_rule_looks() -> None:
    source = (PACKAGE / "bigraded.py").read_text(encoding="utf-8")
    tree = ast.parse(source)
    definition = next(n.lineno for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "reduce_entries")
    assert definition in set(reduce_entries_lines(tree))


FLAG_STRINGS = ("verified", "boundary-unverified")


def flag_string_lines(tree):
    """Lines holding a string constant equal to a verification flag of the JSON format."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in FLAG_STRINGS:
            yield node.lineno


def test_only_charts_spells_the_flag_strings() -> None:
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "charts.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.name}:{line}" for line in flag_string_lines(tree)]
    assert found == []


def test_the_flag_strings_are_spelled_where_the_rule_looks() -> None:
    source = (PACKAGE / "charts.py").read_text(encoding="utf-8")
    assert len(list(flag_string_lines(ast.parse(source)))) == len(FLAG_STRINGS)


def test_realize_loads_only_the_standard_library() -> None:
    code = FOREIGN_MODULES.format(src=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().split() == []


def referenced_names(node):
    """Names a piece of code reads, as a bare name, an attribute or an import."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def unreferenced_definitions(sources):
    """Module-level functions and classes that no other code of the package names.

    sources maps a file name to its text.  A definition's own body does
    not count, so recursion alone does not keep a function alive.
    """
    defined = []
    used = set()
    for name, text in sources.items():
        for stmt in ast.parse(text, name).body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = stmt.name
                defined.append((name, stmt.lineno, own))
            used.update(n for n in referenced_names(stmt) if n != own)
    return [f"{name}:{line} {what}" for name, line, what in defined if what not in used]


def test_every_definition_is_used_in_the_package() -> None:
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.rglob("*.py"))}
    assert unreferenced_definitions(sources) == []


def test_the_unused_definition_rule_sees_dead_and_recursive_code() -> None:
    sources = {
        "a.py": "def live():\n    pass\n\ndef dead():\n    return dead()\n\nclass Old:\n    pass\n",
        "b.py": "from a import live\n",
    }
    assert unreferenced_definitions(sources) == ["a.py:4 dead", "a.py:7 Old"]


def unused_imports(name, text):
    """Names a module imports and never reads.

    Imports from __future__ and statements marked noqa: F401 (names kept
    bound for outside tracers) are exempt.
    """
    tree = ast.parse(text, name)
    lines = text.splitlines()
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or "noqa: F401" in lines[node.lineno - 1]:
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        imported += [(node.lineno, alias.asname or alias.name.partition(".")[0]) for alias in node.names]
    read = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
    return [f"{name}:{line} {bound}" for line, bound in imported if bound not in read]


def test_no_unused_imports_in_the_package_or_the_tests() -> None:
    found = []
    for path in sorted([*PACKAGE.rglob("*.py"), *TESTS.glob("*.py")]):
        # the package's __init__ imports to re-export
        if path != PACKAGE / "__init__.py":
            found += unused_imports(path.name, path.read_text(encoding="utf-8"))
    assert found == []


def test_the_unused_import_rule_sees_dead_imports() -> None:
    text = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js\n"
        "from a import live, dead\n"
        "from b import kept  # noqa: F401\n"
        "print(live, os.sep)\n"
    )
    assert unused_imports("m.py", text) == ["m.py:3 js", "m.py:4 dead"]
