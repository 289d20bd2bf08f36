"""Rules the package source keeps, read off its syntax trees.

No ``assert`` statement: ``python -O`` removes them, so none may carry
program logic.  No ``np.unique``: rows are grouped by the one kernel,
``core._classes``.  ``core`` imports no other module of the package, so
every other module can import it.  No ``validate`` option: every public
constructor checks its input, and the package's own objects are built
through ``core._trusted``.  No ``__init__`` only copies its parameters to
attributes: a type whose fields the package computes has no public
constructor.  Every name in a module's ``__all__`` is defined there.
``SizeGuardExceeded`` is constructed only in ``core._check_bound``, so
every refusal names its bound in one wording.
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


def test_no_validate_option():
    found = []
    for p in SOURCES:
        for node in ast.walk(tree(p)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                params = args.posonlyargs + args.args + args.kwonlyargs
                if any(a.arg == "validate" for a in params):
                    found.append(f"{p.name}:{node.lineno} declares validate")
            elif isinstance(node, ast.Call) and any(k.arg == "validate" for k in node.keywords):
                found.append(f"{p.name}:{node.lineno} passes validate=")
    assert found == []


def copies_its_parameters_only(init: ast.FunctionDef) -> bool:
    """Whether every statement of ``init`` is ``self.x = <parameter>``."""
    args = init.args
    params = {a.arg for a in args.posonlyargs + args.args[1:] + args.kwonlyargs}
    return all(isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
               and isinstance(target := stmt.targets[0], ast.Attribute)
               and isinstance(target.value, ast.Name) and target.value.id == "self"
               and isinstance(stmt.value, ast.Name) and stmt.value.id in params
               for stmt in init.body)


def test_no_init_only_copies_its_parameters():
    found = [f"{p.name}:{cls.name}" for p in SOURCES for cls in ast.walk(tree(p))
             if isinstance(cls, ast.ClassDef)
             for init in cls.body if isinstance(init, ast.FunctionDef)
             and init.name == "__init__" and copies_its_parameters_only(init)]
    assert found == []


def test_all_names_are_defined_in_their_module():
    found = []
    for p in SOURCES:
        body = tree(p).body
        defined = {node.name for node in body
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
        defined |= {target.id for node in body if isinstance(node, ast.Assign)
                    for target in node.targets if isinstance(target, ast.Name)}
        defined |= {node.target.id for node in body
                    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)}
        for node in body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                found += [f"{p.name}: {name}" for name in ast.literal_eval(node.value)
                          if name not in defined]
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


def size_guard_raises(node: ast.AST) -> list[ast.Call]:
    """The calls under ``node`` that construct ``SizeGuardExceeded``."""
    return [call for call in ast.walk(node) if isinstance(call, ast.Call)
            and (call.func.id if isinstance(call.func, ast.Name)
                 else getattr(call.func, "attr", None)) == "SizeGuardExceeded"]


def test_size_guards_refuse_through_one_helper():
    found, helpers = [], 0
    for p in SOURCES:
        module = tree(p)
        allowed = {id(call) for f in module.body if p.name == "core.py"
                   and isinstance(f, ast.FunctionDef) and f.name == "_check_bound"
                   for call in size_guard_raises(f)}
        helpers += len(allowed)
        found += [f"{p.name}:{call.lineno}" for call in size_guard_raises(module)
                  if id(call) not in allowed]
    assert found == []
    assert helpers == 1
