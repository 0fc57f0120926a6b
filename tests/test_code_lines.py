"""The code-line counter in tools/code_lines.py."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
on two lines."""

import os  # a trailing comment

# a comment line


def f(x):
    """Function docstring."""
    s = """a multi-line string
that is code, not a docstring"""
    return (x +
            len(s))


class C:
    """Class docstring."""

    y = os.sep
'''


def test_counts_code_not_comments_blanks_or_docstrings(tmp_path, capsys):
    # import, def, the two lines of s, the two lines of return, class, y
    assert code_lines.code_lines(SOURCE) == 8
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    assert code_lines.main([str(path)]) == 0
    assert capsys.readouterr().out.split() == ["sample", "8", "total", "8"]
