"""``tools/mutants.py``: the mutants it makes and its ledger.  The probe itself,
which runs the suite once per mutant, is not run here."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "mutants.py"
_spec = importlib.util.spec_from_file_location("mutants", TOOL)
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)

SYNTHETIC = '''"""Module docstring."""

LIMIT = 3 if True or False else 4


class Box:
    """Class docstring."""

    size = 2

    def grow(self, by):
        """Method docstring."""
        self.size += by
        if by > LIMIT:
            raise ValueError(by)
        return self.size


def check(x, y):
    seen = []
    seen.append(x)
    seen.append(x)
    for item in seen:
        total = item
    return x and y and total
'''


def test_each_statement_without_an_exit_and_each_operand_is_one_mutant():
    keys = [key for key, _ in mutants.mutants("m.py", SYNTHETIC)]
    assert keys == [
        "m.py <module>: drop `True` from `True or False`",
        "m.py <module>: drop `False` from `True or False`",
        "m.py Box.grow: delete `self.size += by`",
        "m.py check: delete `seen = []`",
        "m.py check: delete `seen.append(x)`",
        "m.py check: delete `seen.append(x)` (#2)",
        "m.py check: delete `for item in seen:`",
        "m.py check: delete `total = item`",
        "m.py check: drop `x` from `x and y and total`",
        "m.py check: drop `y` from `x and y and total`",
        "m.py check: drop `total` from `x and y and total`",
    ]


def test_a_mutant_changes_its_one_site():
    found = dict(mutants.mutants("m.py", SYNTHETIC))
    mutant = found["m.py check: drop `y` from `x and y and total`"]
    assert "return x and total" in mutant
    assert "self.size += by" in mutant
    assert "pass" in found["m.py Box.grow: delete `self.size += by`"]


def test_a_ledger_entry_is_a_key_line_and_its_indented_reason(tmp_path):
    path = tmp_path / "ledger.txt"
    path.write_text(
        "# a comment\n"
        "\n"
        "m.py check: delete `seen = []`\n"
        "    the list is refilled\n"
        "    before any read\n"
        "m.py <module>: drop `False` from `True or False`\n"
        "    equivalent: True decides it\n"
    )
    assert mutants.read_ledger(path) == {
        "m.py check: delete `seen = []`": "the list is refilled before any read",
        "m.py <module>: drop `False` from `True or False`": "equivalent: True decides it",
    }
