"""Print the two source counts of the package, per file and in total.

    python3 tools/sloc.py [FILE ...]

`lines` is what `wc -l` counts. `code` leaves out blank lines, comment-only
lines and docstrings: a line counts when `tokenize` finds a token on it that
is not a comment, and no docstring that `ast` finds covers it. With no
arguments it counts `src/chainmeet/*.py`.
"""

from __future__ import annotations

import ast
import glob
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counts(source: str) -> tuple[int, int]:
    """(all lines, lines of code) of one file's text."""
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    return source.count("\n"), len(code - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    paths = argv or sorted(glob.glob(os.path.join(ROOT, "src", "chainmeet", "*.py")))
    total_lines = total_code = 0
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            lines, code = counts(handle.read())
        total_lines += lines
        total_code += code
        print(f"{lines:6} {code:6}  {os.path.relpath(path, ROOT)}")
    print(f"{total_lines:6} {total_code:6}  total (lines, code)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
