"""Count the lines of two source trees, all of them and code only.

    python tools/line_count.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories of Python files, such as the
`src/ordinalwalk` directory of two checkouts. For every .py file under
either tree, and in total, it prints the lines of each tree and their
code-only lines: lines that hold a token other than a comment, and that
are not part of a module, class or function docstring. Blank lines hold
no token. It needs only the standard library.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

#: tokens that make no line code
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """(all lines, code-only lines) of one file's text."""
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(text.splitlines()), len(code - _docstring_lines(ast.parse(text)))


def _tree(root: Path) -> dict[str, tuple[int, int]]:
    return {str(path.relative_to(root)): count(path.read_text(encoding="utf-8"))
            for path in sorted(root.rglob("*.py"))}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python tools/line_count.py OLD_SRC NEW_SRC", file=sys.stderr)
        return 2
    old, new = (_tree(Path(arg)) for arg in args)
    print(f"{'module':<24}{'all old':>9}{'all new':>9}{'code old':>10}{'code new':>10}")
    totals = [0, 0, 0, 0]
    for name in sorted(old.keys() | new.keys()):
        (all_old, code_old), (all_new, code_new) = old.get(name, (0, 0)), new.get(name, (0, 0))
        row = [all_old, all_new, code_old, code_new]
        totals = [t + v for t, v in zip(totals, row)]
        print(f"{name:<24}{row[0]:>9}{row[1]:>9}{row[2]:>10}{row[3]:>10}")
    print(f"{'total':<24}{totals[0]:>9}{totals[1]:>9}{totals[2]:>10}{totals[3]:>10}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
