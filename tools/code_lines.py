"""Count the code lines of the package under ``src/``, per module and in total.

A line counts if it holds a token that is not a comment, and it is not part
of a docstring (the string that opens a module, class or function body).
Blank lines, comment lines and docstrings are left out; a multi-line token
counts on every line it spans.

    python tools/code_lines.py            # the modules of src/neumann_rigidity
    python tools/code_lines.py FILE...    # the given files
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "neumann_rigidity"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """Number of code lines in one Python source text."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            docstrings.update(range(body[0].lineno, body[0].end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str]) -> int:
    paths = [Path(p) for p in argv] or sorted(PACKAGE.glob("*.py"))
    counts = {p.stem: code_lines(p.read_text()) for p in paths}
    for name, n in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"{name:<14}{n:>6}")
    print(f"{'total':<14}{sum(counts.values()):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
