"""Count the lines of the package source: the size figures of ROADMAP aim 2.

Prints the total lines of the Python files under ``src/`` and their code
lines, which leave out blank lines, comment-only lines and the lines of
docstrings (a string literal that opens a module, class or function
body), then the same two counts for each file, so a change in size can be
traced to the modules it touched::

    python tools/loc.py            # counts src/ of this checkout
    python tools/loc.py path/src   # counts another tree

Standard library only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(total lines, code lines) of one Python source."""
    total = len(source.splitlines())
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                            tokenize.DEDENT, tokenize.ENDMARKER):
            code.update(range(tok.start[0], tok.end[0] + 1))
    return total, len(code - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else ROOT / "src"
    counts = {path.relative_to(src): count(path.read_text(encoding="utf-8"))
              for path in sorted(src.rglob("*.py"))}
    total, code = (sum(column) for column in zip(*counts.values())) if counts else (0, 0)
    print(f"{src}: {total:,} lines, {code:,} code lines")
    for path, (t, c) in counts.items():
        print(f"  {path.as_posix()}: {t:,} lines, {c:,} code lines")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
