"""Count the physical and code lines of the Python files under a directory.

Usage (from the root of a source checkout)::

    python tools/src_lines.py [DIRECTORY ...]    # default: src

A *code line* is a physical line that holds at least one token outside
comments and bare string statements.  So blank lines, comment-only lines,
docstrings and other string literals that stand alone as a statement are
not code; a line with code and a trailing comment is.  The rule reads the
token stream, so formatting inside a statement does not move the count,
and the same script run on two trees gives comparable numbers.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path
from typing import List, Tuple

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}


def _bare_strings(tree: ast.AST) -> List[Tuple[Tuple[int, int], Tuple[int, int]]]:
    """The (start, end) positions of every string literal that is a whole statement."""
    return [
        ((node.lineno, node.col_offset), (node.end_lineno, node.end_col_offset))
        for node in ast.walk(tree)
        if isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    ]


def count(source: str) -> Tuple[int, int]:
    """``(physical lines, code lines)`` of one module's source."""
    spans = _bare_strings(ast.parse(source))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _NOT_CODE:
            continue
        if any(start <= token.start < end for start, end in spans):
            continue
        code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code)


def main(argv: List[str]) -> int:
    for directory in argv or ["src"]:
        files = sorted(Path(directory).rglob("*.py"))
        physical = code = 0
        for path in files:
            lines, code_lines = count(path.read_text(encoding="utf-8"))
            physical += lines
            code += code_lines
        print(f"{directory}: {len(files)} files, {physical} physical lines, {code} code lines")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
