"""Count the code lines of each module of a package.

    python tools/codelines.py [PACKAGE_DIR]

A code line is a line that holds at least one token of code (``tokenize``),
so blank lines and comments do not count, and neither do the lines of a
docstring: the string that opens a module, class or function body
(``ast``).  A string that is not a docstring, such as a multi-line
f-string, counts on every line it spans.  PACKAGE_DIR defaults to
``src/lensbordism`` of the checkout this script is in.  It prints one row
per module, ``name count``, largest first, and the total; it writes
nothing else and exits 0.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

# Token types that are not code: the layout, comments and the ends.
NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                doc = node.body[0]
                lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of the Python ``source``."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def count(package: Path) -> dict[str, int]:
    """{module name: code lines} for each ``*.py`` file directly in
    ``package``, largest first, ties by name."""
    counts = {
        path.stem: code_lines(path.read_text(encoding="utf-8"))
        for path in sorted(package.glob("*.py"))
    }
    return dict(sorted(counts.items(), key=lambda item: (-item[1], item[0])))


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    package = Path(args[0]) if args else Path(__file__).resolve().parents[1] / "src" / "lensbordism"
    counts = count(package)
    width = max(map(len, [*counts, "total"]))
    for name, lines in counts.items():
        print(f"{name:<{width}}  {lines:>6,}")
    print(f"{'total':<{width}}  {sum(counts.values()):>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
