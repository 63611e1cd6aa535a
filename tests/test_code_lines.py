"""The code-line count that the change notes report (`code_lines.py`)."""

from __future__ import annotations

from .code_lines import code_lines, main

SNIPPET = '''"""A module docstring,
over two lines."""

import os  # a comment after code counts


# a comment line does not
def f(x,
      y):
    """One docstring line."""
    s = """a string that is
    not a docstring"""

    return (x +
            y)


class C:
    "a class docstring"
    n = 1
'''


def test_code_lines_leave_out_blanks_comments_and_docstrings():
    # import; def over 2; s over 2; return over 2; class; n
    assert code_lines(SNIPPET) == 9


def test_the_counter_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == [
        "     9 a.py",
        "     1 b.py",
        "    10 total",
        "",
    ]
