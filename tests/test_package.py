"""Packaging facts: the package runs on the standard library alone,
importing it loads no more of that library than it uses, and one class
alone writes immutability, equality and hashing."""

import ast
import importlib.util
import os
import pathlib
import subprocess
import sys

import cgkernel

SRC = pathlib.Path(cgkernel.__file__).parents[1]
CODE_LINES = pathlib.Path(__file__).parents[1] / "tools" / "code_lines.py"


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


def load_code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", CODE_LINES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


FIXTURE = '''"""A module docstring
over two lines."""
# a comment line

import os  # a comment after code


def f(x):
    """A function docstring."""
    s = """a string that is
no docstring"""
    return (x +
            1)


class C:
    "a class docstring"
    y = [

    ]
'''


def test_code_lines_count_tokens_outside_comments_and_docstrings():
    # import, def, both lines of the string and of the return, class, and
    # the two lines of the list but not the blank line between them
    counted = [5, 8, 10, 11, 12, 13, 16, 18, 20]
    lines = FIXTURE.splitlines()
    assert [lines[k - 1].split()[0] for k in counted] == \
        ["import", "def", "s", "no", "return", "1)", "class", "y", "]"]
    assert load_code_lines().code_lines(FIXTURE) == len(counted)
    assert load_code_lines().code_lines("") == 0


def test_code_lines_total_is_the_sum_of_the_modules(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "a.py").write_text("x = 1\n", encoding="utf-8")
    (tmp_path / "sub" / "b.py").write_text(FIXTURE, encoding="utf-8")
    (tmp_path / "notes.txt").write_text("x = 1\n", encoding="utf-8")
    code_lines = load_code_lines().code_lines
    for target in (tmp_path, SRC / "cgkernel"):
        proc = subprocess.run([sys.executable, str(CODE_LINES), str(target)],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        *modules, (total, label) = [line.split(maxsplit=1) for line in proc.stdout.splitlines()]
        assert label == "total" and int(total) == sum(int(n) for n, _ in modules)
        assert {path: int(n) for n, path in modules} == {
            str(m): code_lines(m.read_text(encoding="utf-8")) for m in target.rglob("*.py")}
