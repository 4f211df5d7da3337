"""The code-line counter of ``scripts/loc.py``."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.append(os.path.join(ROOT, "scripts"))

from loc import code_lines  # noqa: E402

SNIPPET = '''"""Module docstring,
over two lines."""

# a comment
import os  # a comment after code


def f(x):
    """A docstring."""
    # a comment

    y = f(
        x,
        1,
    )
    "a string" "standing alone"
    s = """an assigned
string"""
    return y
'''


def test_code_lines_skip_comments_docstrings_and_blank_lines():
    # import, def, the four lines of the call, the two of the assigned
    # string, return
    assert code_lines(SNIPPET) == 9
    assert code_lines("") == 0
    assert code_lines('"""Only a docstring."""\n') == 0
    assert code_lines("x = 1") == 1


def test_loc_prints_each_module_and_the_total(tmp_path):
    (tmp_path / "b.py").write_text(SNIPPET)
    (tmp_path / "a.py").write_text("x = (\n    1)\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "loc.py"), str(tmp_path)],
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    counts = [line.split()[0] for line in out.splitlines()]
    assert counts == ["2", "9", "11"]
    assert out.splitlines()[0].endswith("a.py") and out.splitlines()[-1].endswith("total")
