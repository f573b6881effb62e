"""Source hygiene: every name a ``ccflab`` module imports, with ``import ...``
or ``from ... import``, is used in that module or re-exported through its
``__all__``."""

import ast
from pathlib import Path

import pytest

import ccflab

MODULES = sorted(Path(ccflab.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = [alias.asname or alias.name
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and node.module != "__future__"
                for alias in node.names]
    # ``import a.b`` binds ``a``
    imported += [alias.asname or alias.name.split(".")[0]
                 for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used | exported]


def test_detects_unused_import():
    assert unused_imports("from os import path, sep\nprint(sep)\n") == ["path"]
    assert unused_imports("from os import path\n__all__ = ['path']\n") == []
    assert unused_imports("import os, struct\nimport numpy as np\n"
                          "print(os.sep, np.pi)\n") == ["struct"]
    assert unused_imports("import os.path\nos.getcwd()\n") == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
