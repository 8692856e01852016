"""No module of the package imports another module's private name
(`from .module import _name`). Importing a private module itself, as in
`from . import _kernels`, is allowed. The package's `__all__` names no
module."""

import ast
from pathlib import Path
from types import ModuleType

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


def test_all_names_no_module():
    """`from gridcross import *` binds the public functions and types, not
    the submodules such as `bounds` or `graph`."""
    modules = [name for name in gridcross.__all__
               if isinstance(getattr(gridcross, name), ModuleType)]
    assert modules == []
    assert {"crossing_graph", "build_conflict_graph", "make_grid_graph"} <= set(gridcross.__all__)
