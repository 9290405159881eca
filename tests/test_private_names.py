"""Every module-level private name in ``src/autodegree`` is still used.

A helper such as ``_closure_members`` is private to the package, so no
caller outside ``src/`` keeps it alive: once its last caller in ``src/``
is gone, it is dead code. This module parses each source file with
``ast`` and fails on a module-level name starting with a single
underscore that nothing in ``src/`` reads outside its own definition.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "autodegree"


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def references(node: ast.AST) -> Counter:
    """How often each identifier is read under ``node``: loads, attributes and imports."""
    out: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def module_level_private(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """(name, defining statement) for each private def, class or assignment at module level."""
    out = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, ast.Assign):
            names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            names = [stmt.target.id]
        else:
            names = []
        out.extend((name, stmt) for name in names if is_private(name))
    return out


def unused(trees: dict[str, ast.Module]) -> list[str]:
    """``module:name`` of each private module-level name read nowhere but in its own definition."""
    total: Counter = Counter()
    for tree in trees.values():
        total += references(tree)
    return [
        f"{module}:{name}"
        for module, tree in trees.items()
        for name, stmt in module_level_private(tree)
        if total[name] - references(stmt)[name] == 0
    ]


def test_every_private_module_name_is_referenced_in_src():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    assert unused(trees) == []


def test_the_check_sees_self_references_and_imports():
    helper = ast.parse("def _kept():\n    return _kept()\n\ndef _used():\n    pass\n\n_X = 1\n")
    caller = ast.parse("from .helper import _used\n")
    assert unused({"helper.py": helper, "caller.py": caller}) == ["helper.py:_kept", "helper.py:_X"]
