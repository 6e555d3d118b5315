"""CLI reports pinned byte for byte against checked-in JSON stdout.

Each case runs one ``noise`` or ``report`` command in process, from inside
``tests/data`` so that expression and model paths read as given.  A command
that succeeds is compared by its stdout with ``tests/data/golden/<case>.json``;
one that exits 1, as ``noise`` does where there is no violation, by its
stderr with ``<case>.stderr``.  The packaged g-paper
fixture path, which ``report`` names and which depends on where the package
lives, is replaced by ``FIXTURE_PLACEHOLDER`` before the comparison.

Running this file as a script rewrites the golden files from the ``bellkit``
on the import path; do that only for an intended change of the reports.
"""

import contextlib
import io
import os
from pathlib import Path

import pytest

from bellkit.cli import run_command
from bellkit.fixtures import g_paper_expansion_fixture_path

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
FIXTURE_PLACEHOLDER = "<packaged g-paper expansion fixture>"

SOURCES = {
    "g-paper": ["--builtin", "g-paper"],
    "mermin": ["--builtin", "mermin"],
    "mermin4": ["mermin4.bell", "--model", "ghz4-xy.json"],
    "mermin4-fractions": ["mermin4-fractions.bell", "--model", "ghz4-xy.json"],
}
MAGNITUDES = {"default": [], "magnitude": ["--magnitude"], "signed": ["--no-magnitude"]}
CASES = {
    f"{command}-{source}-{convention}": [command, *source_args, *magnitude_args]
    for command in ("noise", "report")
    for source, source_args in SOURCES.items()
    for convention, magnitude_args in MAGNITUDES.items()
}


def golden_output(argv: list) -> tuple:
    """(file name suffix, text) of one command run in ``tests/data``: its stdout
    as ``.json`` when it succeeds, its stderr as ``.stderr`` when it exits 1."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(DATA)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_command(argv)
    finally:
        os.chdir(cwd)
    if code == 0:
        text = out.getvalue().replace(str(g_paper_expansion_fixture_path()), FIXTURE_PLACEHOLDER)
        return ".json", text
    assert code == 1 and not out.getvalue(), argv
    return ".stderr", err.getvalue()


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_the_golden_file(case):
    suffix, text = golden_output(CASES[case])
    assert text == (GOLDEN / f"{case}{suffix}").read_text(encoding="utf-8")


def test_every_golden_file_has_a_case():
    assert sorted(path.stem for path in GOLDEN.iterdir()) == sorted(CASES)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case, argv in CASES.items():
        suffix, text = golden_output(argv)
        (GOLDEN / f"{case}{suffix}").write_text(text, encoding="utf-8")
