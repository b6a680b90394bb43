"""tools/line_count.py counts every line of two source trees, and their
code-only lines: lines that hold a token other than a comment, outside any
module, class or function docstring."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "line_count.py"

# 17 lines, 6 of them code: the import, the class and def lines, the two
# lines of the string that is not a docstring, and the return
DOCUMENTED = '''"""A module docstring,
over two lines."""

# a comment

import os  # a comment after code


class Thing:
    """A class docstring."""

    def method(self):
        """A function
        docstring."""
        text = """not a
docstring"""
        return text
'''

# 4 lines, 3 of them code; the string after the first statement is no docstring
PLAIN = '''x = 1
"""a string, but
not a docstring"""

'''


@pytest.fixture
def line_count():
    spec = importlib.util.spec_from_file_location("line_count", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_of_one_file(line_count):
    assert line_count.count(DOCUMENTED) == (17, 6)
    assert line_count.count(PLAIN) == (4, 3)


def test_a_table_of_two_trees(tmp_path, line_count, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    (old / "pkg").mkdir(parents=True)
    (new / "pkg").mkdir(parents=True)
    (old / "a.py").write_text(DOCUMENTED)
    (new / "a.py").write_text(PLAIN)
    (old / "pkg" / "b.py").write_text(PLAIN)
    # after code, DOCUMENTED's module docstring is a string, and its 2 lines code
    (new / "pkg" / "b.py").write_text(PLAIN + DOCUMENTED)
    (new / "c.py").write_text(PLAIN)
    (old / "notes.txt").write_text("x = 1\n")  # not Python: not counted
    assert line_count.main([str(old), str(new)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "module                    all old  all new  code old  code new",
        "a.py                           17        4         6         3",
        "c.py                            0        4         0         3",
        "pkg/b.py                        4       21         3        11",
        "total                          21       29         9        17",
    ]


def test_two_trees_are_needed(line_count, capsys):
    assert line_count.main(["one"]) == 2
    assert "usage: python tools/line_count.py OLD_SRC NEW_SRC" in capsys.readouterr().err
