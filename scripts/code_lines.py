"""Count the code lines of each module in src/mhd2d, and their total.

A code line holds a token other than a comment, outside the docstrings the
AST finds; blank lines hold no token.

    python3 scripts/code_lines.py
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
        tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
DEFS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(text: str) -> int:
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, DEFS) and ast.get_docstring(node, clean=False) is not None:
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    tokens = tokenize.generate_tokens(io.StringIO(text).readline)
    code = {line for tok in tokens if tok.type not in SKIP
            for line in range(tok.start[0], tok.end[0] + 1)}
    return len(code - docs)


def main() -> None:
    total = 0
    for path in sorted((ROOT / "src" / "mhd2d").glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d} {path.relative_to(ROOT)}")
    print(f"{total:6d} total")


if __name__ == "__main__":
    main()
