"""Packaging facts: the package runs on the standard library alone,
importing it loads no more of that library than it uses, and one class
alone writes immutability, equality and hashing."""

import ast
import os
import pathlib
import subprocess
import sys

import cgkernel

SRC = pathlib.Path(cgkernel.__file__).parents[1]


def fresh_python(*args):
    """Run ``python -S`` with only the package's source on the path: -S keeps
    the site module, and with it the installation's .pth files, from
    importing modules of their own."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-S", *args], capture_output=True, text=True,
                          env=env, timeout=120)


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


def test_only_the_record_base_defines_immutability_equality_and_hashing():
    # every record and value type inherits them from words._Record, by a
    # def or by an assignment such as `__delattr__ = __setattr__`
    special = {"__setattr__", "__delattr__", "__eq__", "__hash__"}
    found = []
    for path in sorted(pathlib.Path(cgkernel.__file__).parent.rglob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names = [node.name]
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names = [t.id for t in targets if isinstance(t, ast.Name)]
                else:
                    continue
                found += [f"{path.name}: {cls.name}.{name}" for name in names if name in special]
    assert sorted(found) == [f"words.py: _Record.{name}" for name in sorted(special)]


def test_importing_the_cli_loads_no_dataclasses_inspect_ast_or_typing():
    # each costs a fresh `cgkernel verify` process milliseconds of import;
    # the records share one base class in words, parse_matrix imports ast
    # when it runs, and annotations name collections.abc types
    proc = fresh_python("-c", "import sys; before = set(sys.modules); import cgkernel.cli; "
                              "print(*sorted(set(sys.modules) - before))")
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "cgkernel.cli" in added
    assert sorted(added & {"dataclasses", "inspect", "ast", "typing"}) == []
