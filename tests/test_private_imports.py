"""No module of the package imports another module's private name
(`from .module import _name`). Importing a private module itself, as in
`from . import _kernels`, is allowed."""

import ast
from pathlib import Path

import gridcross

SRC = Path(gridcross.__file__).parent


def private_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [f"{path.name}:{node.lineno}: from .{node.module} import {alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level > 0 and node.module
            for alias in node.names if alias.name.startswith("_")]


def test_no_module_imports_a_private_name():
    found = [line for path in sorted(SRC.glob("*.py")) for line in private_imports(path)]
    assert found == []
