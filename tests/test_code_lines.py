"""`tools/code_lines.py` counts the lines that hold code: no docstrings, comments or blank lines."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location("code_lines", Path(__file__).resolve().parents[1] / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""A module docstring
over two lines."""

import os  # a comment after code

# a comment on a line of its own
def f(x):
    """A function docstring."""
    s = """a string that is code,
over two lines"""
    return (x +
            1)


class C:
    """A class docstring."""

    y = 1
'''


def test_docstrings_comments_and_blank_lines_are_not_counted():
    # import, def, the two lines of s, the two of the return, class, y
    assert code_lines.code_lines(SOURCE) == 8


def test_the_table_has_a_row_per_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["a.py", "8"], ["sub/b.py", "1"], ["total", "9"]]
