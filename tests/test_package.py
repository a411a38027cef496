"""Packaging facts: the package runs on the standard library alone."""

import ast
import pathlib
import sys

import cgkernel


def test_every_import_is_package_relative_or_standard_library():
    modules = sorted(pathlib.Path(cgkernel.__file__).parent.rglob("*.py"))
    assert len(modules) >= 10
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.partition(".")[0] not in sys.stdlib_module_names]
    assert outside == []
