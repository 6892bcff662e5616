"""``tools/code_lines.py``'s line kinds, pinned on a snippet that holds one of each."""
import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location("code_lines", Path(__file__).parents[1] / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SNIPPET = '''"""A module docstring,
over two lines."""
import os  # code with a trailing comment


def f():
    """A function docstring."""
    # A comment-only line.
    text = """A multi-line string
that is not a docstring."""

    return text + os.sep
'''


def test_each_line_of_a_snippet_counts_as_its_kind():
    # Docstrings: lines 1, 2 and 7; the comment: line 8; code: lines 3, 6, 9, 10 and 12;
    # blank: lines 4, 5 and 11.
    assert code_lines.count(SNIPPET) == {"total": 12, "code": 5, "docstring": 3, "comment": 1, "blank": 3}
