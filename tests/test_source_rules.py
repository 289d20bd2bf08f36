"""Rules the package source keeps, read off its syntax trees.

No ``assert`` statement: ``python -O`` removes them, so none may carry
program logic.  No ``np.unique``: rows are grouped by the one kernel,
``core._classes``.  ``core`` imports no other module of the package, so
every other module can import it.
"""

import ast
from pathlib import Path

import hemirings

SOURCES = sorted(Path(hemirings.__file__).parent.glob("*.py"))


def tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "core.py", "simpleness.py", "verify.py"}


def test_no_assert_statements():
    found = [f"{p.name}:{node.lineno}" for p in SOURCES for node in ast.walk(tree(p))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_no_np_unique():
    found = [f"{p.name}:{node.lineno}" for p in SOURCES for node in ast.walk(tree(p))
             if isinstance(node, ast.Attribute) and node.attr == "unique"
             and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")]
    assert found == []


def imports_the_package(node: ast.AST) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "hemirings"
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "hemirings" for alias in node.names)
    return False


def test_core_imports_no_package_module():
    [core] = [p for p in SOURCES if p.name == "core.py"]
    found = [f"core.py:{node.lineno}" for node in ast.walk(tree(core))
             if imports_the_package(node)]
    assert found == []
