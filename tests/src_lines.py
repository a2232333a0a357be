"""Count the code lines of `src/amalgam`, per module.

A code line holds at least one token that is not a comment and is not
part of a docstring (the leading string of a module, class or function).
Blank lines are not counted, nor is the data module `catalog.py`.

    python tests/src_lines.py [SRC_DIR]

prints one `lines  module` row per module and the total.  SRC_DIR
defaults to the `src/amalgam` beside this file's directory.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

DATA_MODULES = ("catalog.py",)
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    docstrings = _docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in docstrings)
    return len(lines)


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "amalgam"
    total = 0
    for path in sorted(src.glob("*.py")):
        if path.name in DATA_MODULES:
            continue
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
