"""Count the code lines of Python modules: lines that hold a token other
than a comment, with docstrings left out.

A line counts when some token of the module other than a comment, a line
break or an indentation change starts, ends or continues on it; the lines of
a module's, class's or function's docstring never count.  So blank lines,
comment lines and docstrings are left out, and a statement split over
several lines counts each of them.

    python tools/code_lines.py PATH ...

Each PATH is a module or a directory, searched recursively for ``*.py``.
Prints the count of each module and then the total, as ``wc -l`` does.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

NO_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    docs = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NO_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def modules(paths: list[Path]) -> list[Path]:
    return [m for p in paths for m in (sorted(p.rglob("*.py")) if p.is_dir() else [p])]


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    total = 0
    for module in modules([Path(a) for a in argv]):
        n = code_lines(module.read_text(encoding="utf-8"))
        total += n
        print(f"{n:7d}  {module}")
    print(f"{total:7d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
