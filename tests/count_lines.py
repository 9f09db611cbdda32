"""Count the code lines of src/stablepricer, one count per file and a total.

    python tests/count_lines.py
    python tests/count_lines.py BASE

BASE is the root of another checkout, such as a pull request's base commit:
each line then gives its count, this checkout's and the difference, and a
file on one side only counts 0 on the other.

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

ROOT = Path(__file__).resolve().parents[1]
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


def counts(root: Path) -> dict[str, int]:
    """Code lines by file of src/stablepricer under a checkout's root."""
    return {
        path.relative_to(root).as_posix(): code_lines(path.read_text(encoding="utf-8"))
        for path in sorted((root / "src" / "stablepricer").glob("*.py"))
    }


def main(argv: list[str]) -> int:
    head = counts(ROOT)
    if not argv:
        for name, count in head.items():
            print(f"{count:6d} {name}")
        print(f"{sum(head.values()):6d} total")
        return 0
    base = counts(Path(argv[0]).resolve())
    print("  base   head   diff")
    rows = [(base.get(name, 0), head.get(name, 0), name) for name in sorted(base.keys() | head.keys())]
    rows.append((sum(base.values()), sum(head.values()), "total"))
    for before, after, name in rows:
        print(f"{before:6d} {after:6d} {after - before:+6d} {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
