"""`tools/code_lines.py`, the count of `src/`'s code lines."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

# (line, counted): docstrings, blank lines and comment-only lines are
# not code; every line of a string that is no docstring is, as are a
# decorator and a continuation line
LINES = [
    ('"""A module docstring', False),
    ('over two lines."""', False),
    ("", False),
    ("import functools", True),
    ("# a comment-only line", False),
    ("", False),
    ("@functools.cache", True),
    ("def f(x):", True),
    ('    """A function docstring."""', False),
    ("    total = x + \\", True),
    ("        1  # a continuation line", True),
    ('    s = """a string that is no docstring', True),
    ("", True),
    ('    each of its lines counts"""', True),
    ("    return total, s", True),
    ("", False),
    ("", False),
    ("class C:", True),
    ('    """A class', False),
    ('    docstring."""', False),
    ("    y = 1", True),
]


def test_counts_code_lines_only():
    source = "".join(line + "\n" for line, _ in LINES)
    assert code_lines.code_lines(source) == sum(counted for _, counted in LINES)
