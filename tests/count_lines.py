"""Count the code lines of src/stablepricer, one count per file and a total.

    python tests/count_lines.py

A code line holds a token other than a comment, a newline, an indent or a
dedent, and is not a line of a docstring: the string-constant first
statement of a module, class or function, found with ast.  A string that
spans lines counts on every line it spans.  Blank lines, comments and
docstrings are not code, so the count moves only with the code itself.
This is not a pytest module.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "stablepricer"
NOT_CODE = {
    tokenize.COMMENT, tokenize.NEWLINE, tokenize.NL,
    tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def main() -> int:
    total = 0
    for path in sorted(SOURCE.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d} {path.relative_to(SOURCE.parents[1])}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
