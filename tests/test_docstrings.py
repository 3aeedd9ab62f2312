"""Every cross-reference in the package's docstrings names something real."""

import ast
import builtins
import importlib
import pathlib
import re
from types import SimpleNamespace

import gridpolicy

PACKAGE = pathlib.Path(gridpolicy.__file__).parent
_ROLE = re.compile(r":(?:meth|func|class|data):`~?([\w.]+)`")
_MISSING = object()


def _docstrings(tree):
    """``(enclosing class name or None, docstring)`` for every docstring."""
    out = []

    def visit(node, cls):
        doc = ast.get_docstring(node, clean=False)
        if doc:
            out.append((cls, doc))
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, cls)

    visit(tree, None)
    return out


def _resolves(target, module, cls):
    """Does ``target`` name an attribute of the enclosing class, of the
    module, of the builtins or, spelled in full, of the package?"""
    scopes = [getattr(module, cls)] if cls else []
    scopes += [module, builtins, SimpleNamespace(gridpolicy=gridpolicy)]
    for scope in scopes:
        obj = scope
        for name in target.split("."):
            obj = getattr(obj, name, _MISSING)
        if obj is not _MISSING:
            return True
    return False


def test_docstring_cross_references_resolve():
    checked, broken = 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        name = "gridpolicy" if path.stem == "__init__" else f"gridpolicy.{path.stem}"
        module = importlib.import_module(name)
        for cls, doc in _docstrings(ast.parse(path.read_text(encoding="utf-8"))):
            for target in _ROLE.findall(doc):
                checked += 1
                if not _resolves(target, module, cls):
                    broken.append(f"{path.name}: {target}")
    assert checked > 40
    assert not broken, broken
