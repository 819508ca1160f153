"""Count the lines of each module of a Python package.

For every `*.py` file of the package directory (default `src/shiftflow`)
this prints the total number of lines and the number of code lines: the
lines that are not blank, not only a comment, and not part of a module,
class or function docstring.  A last row sums the package.

    python3 tools/linecount.py [PACKAGE_DIR [OTHER_DIR]]

Given a second package directory, for example a checkout of a parent
commit (`git archive <parent> | tar -x -C DIR`) against the working
tree, it prints the counts of both (`lines` and `code` for the first,
`lines2` and `code2` for the second) and the change from the first to
the second, per module and in total; a module missing on one side counts
as zero lines there.  Stdlib only.
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


def counts(package: Path) -> dict[str, tuple[int, int]]:
    """(total lines, code lines) of every module of a package directory."""
    return {path.name: count(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}


def main(argv: list[str]) -> int:
    sides = [counts(Path(arg)) for arg in (argv or ["src/shiftflow"])[:2]]
    names = sorted(set().union(*sides))
    table = [[side.get(name, (0, 0)) for side in sides] for name in names]
    table.append([(sum(r[i][0] for r in table), sum(r[i][1] for r in table)) for i in range(len(sides))])
    names.append("total")
    if len(sides) == 1:
        header = ["lines", "code"]
        cells = [[total, code] for ((total, code),) in table]
    else:
        header = ["lines", "lines2", "delta", "code", "code2", "delta"]
        cells = [[a[0], b[0], f"{b[0] - a[0]:+d}", a[1], b[1], f"{b[1] - a[1]:+d}"] for a, b in table]
    width = max(len(name) for name in names + ["module"])
    print(f"{'module':<{width}}" + "".join(f"  {h:>6}" for h in header))
    for name, row in zip(names, cells):
        print(f"{name:<{width}}" + "".join(f"  {c:>6}" for c in row))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
