from code_lines import code_lines

SOURCE = '''"""A module docstring
over two lines."""

import os  # a trailing comment

# a comment line


def f(x):
    """A function docstring."""
    text = """a string
    over two lines"""
    """a string statement that is no docstring"""
    return os.sep + text + x


class C:
    """A class docstring."""

    value = 1
'''


def test_code_lines_count_tokens_outside_comments_and_docstrings():
    # import, def, the two lines of the assigned string, the string
    # statement after the docstring, return, class and its assignment
    assert code_lines(SOURCE) == 8
    assert code_lines("") == 0
    assert code_lines("# only a comment\n\n") == 0
