"""``tools/code_lines.py``: the code-line count of ``src/bellkit/``."""

import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# code lines marked "# code"; the count leaves out blank lines, comment-only
# lines and the module, class and function docstrings
SYNTHETIC = '''"""Module docstring,
over two lines."""

import math  # code


class Box:  # code
    """Class docstring."""

    size = 2  # code

    def area(self):  # code
        """Function docstring,

        over three lines."""
        # a comment-only line
        return (  # code
            self.size
            * self.size
        )

    async def later(self):  # code
        """Async function docstring."""
        text = """a string, not a docstring,
over two lines"""
        return text  # code


def first_statement_is_code():  # code
    x = "not a docstring"
    return x  # code
'''


def test_a_synthetic_module():
    # beyond the 9 marked lines: the statement spanning four lines counts all
    # four, the two-line string both, and the string that is not a function's
    # first statement one
    assert SYNTHETIC.count("# code") == 9
    assert code_lines.code_lines(SYNTHETIC) == 9 + 3 + 2 + 1


def test_no_code_counts_zero():
    assert code_lines.code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0


def test_the_report_lists_each_module_and_the_total(tmp_path):
    (tmp_path / "a.py").write_text(SYNTHETIC)
    (tmp_path / "b.py").write_text("x = 1\n\n\ny = 2\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    result = subprocess.run(
        [sys.executable, str(TOOL), str(tmp_path)], capture_output=True, text=True, check=True
    )
    assert result.stdout.splitlines() == ["    15  a.py", "     2  b.py", "    17  total"]
