"""Count the lines of each pglambda module: code lines (no blank line, no
comment-only line, no docstring line) and all lines, as ``wc -l`` counts.

A docstring is the string that opens a module, class or function body; a
line it shares with code, such as ``x = 1  # note``, counts as code.

Run from the repository root: ``python3 scripts/loc.py``.  Prints a
Markdown table, one row per module and a total row.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pglambda"


def code_lines(source: str) -> int:
    """The lines holding a token other than a comment or a docstring."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.add((first.lineno, first.col_offset))
    lines = set()
    skip = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER)
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in skip or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main() -> int:
    rows = []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        rows.append((path.name, code_lines(source), len(source.splitlines())))
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print("| module | code lines | all lines |")
    print("|---|---:|---:|")
    for name, code, total in rows:
        print(f"| {name} | {code:,} | {total:,} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
