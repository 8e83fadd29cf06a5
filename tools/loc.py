"""Count the lines of the package source, per module and in total.

    python3 tools/loc.py [SRC_DIR]

SRC_DIR defaults to src/latinrect next to this script.  For each
module, prints every line, then the code lines: the lines left after
dropping blank lines, comment-only lines and docstrings (the string
that opens a module, class or function body, as the AST finds it).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers, 1-based, of every docstring in tree."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(all lines, code lines) of one module."""
    text = path.read_text()
    docs = docstring_lines(ast.parse(text))
    lines = text.splitlines()
    code = sum(
        1 for i, line in enumerate(lines, 1)
        if i not in docs and line.strip() and not line.strip().startswith("#")
    )
    return len(lines), code


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "latinrect"
    total_all = total_code = 0
    print(f"{'module':<16} {'all':>6} {'code':>6}")
    for path in sorted(src.glob("*.py")):
        n_all, n_code = count(path)
        total_all += n_all
        total_code += n_code
        print(f"{path.name:<16} {n_all:>6} {n_code:>6}")
    print(f"{'total':<16} {total_all:>6} {total_code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
