"""The repository's helper scripts under tools/."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools"))

import sloc  # noqa: E402


def test_sloc_leaves_out_blanks_comments_and_docstrings():
    source = (
        '"""Module."""\n'
        "\n"
        "# a comment\n"
        "x = 1  # code with a comment\n"
        "\n"
        "\n"
        "def f():\n"
        '    """Two\n'
        '    lines."""\n'
        "    return (\n"
        '        "not a docstring"\n'
        "    )\n"
    )
    # code: the assignment, the def and the three lines of the return
    assert sloc.counts(source) == (12, 5)
