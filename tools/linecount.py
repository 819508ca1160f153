"""Count the lines of each module of a Python package.

For every `*.py` file of the package directory (default `src/shiftflow`)
this prints the total number of lines and the number of code lines: the
lines that are not blank, not only a comment, and not part of a module,
class or function docstring.  A last row sums the package.

    python3 tools/linecount.py [PACKAGE_DIR]

To report the net change of a commit, run it on a checkout of the commit
and of its parent (for example `git archive <parent> | tar -x -C DIR`)
and subtract the two `total` rows.  Stdlib only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED_TOKENS = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers covered by the docstrings of the module, its classes and functions."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(total lines, code lines) of one module's source."""
    docs = docstring_lines(ast.parse(source))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED_TOKENS:
            code.update(line for line in range(tok.start[0], tok.end[0] + 1) if line not in docs)
    return len(source.splitlines()), len(code)


def main(argv: list[str]) -> int:
    package = Path(argv[0] if argv else "src/shiftflow")
    rows = [(path.name, *count(path.read_text(encoding="utf-8"))) for path in sorted(package.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}")
    for name, total, code in rows:
        print(f"{name:<{width}}  {total:>6}  {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
