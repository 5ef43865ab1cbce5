"""``tools/codelines.py``: which lines of a small fixture package count as
code, the order of its table, and its total."""

from __future__ import annotations

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "tools"))

import codelines  # noqa: E402

# 7 code lines: the import, the class line, ``x = 1``, the def line, the
# three lines of the f-string, and not the docstrings, the comments or the
# blank lines
MODULE = '''"""A module docstring
over two lines."""

import os  # a comment after code counts as code


class A:
    """A class docstring."""

    # a comment alone
    x = 1

    def f(self):
        """A function docstring,

        over three lines."""
        return f"""{os.sep}
        not a docstring
        """
'''


def test_code_lines_leave_out_docstrings_comments_and_blank_lines():
    assert codelines.code_lines(MODULE) == 7
    assert codelines.code_lines('"""Only a docstring."""\n') == 0
    assert codelines.code_lines("") == 0


def test_table_is_largest_first_with_the_total(tmp_path, capsys):
    (tmp_path / "big.py").write_text(MODULE, encoding="utf-8")
    (tmp_path / "small.py").write_text("x = 1\n\n# two\ny = 2\n", encoding="utf-8")
    (tmp_path / "also.py").write_text("a = [\n    1,\n]\n", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("x = 1\n", encoding="utf-8")
    assert codelines.count(tmp_path) == {"big": 7, "also": 3, "small": 2}
    assert codelines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == (
        "big         7\n"
        "also        3\n"
        "small       2\n"
        "total      12\n"
    )
