"""CLI output pinned byte for byte against checked-in files.

Each case runs one command in process, from inside ``tests/data`` so that
expression and model paths read as given: ``quantum``, ``noise`` and
``report`` on the builtins and the 4-party files, ``quantum`` and ``noise``
on a 5-party Mermin document, ``optimize`` on the same
expressions with a short seeded run, and ``bound``, ``expand`` and
``expand --diff`` on the edge-case text documents under ``tests/data/parse``.  A command that
succeeds is compared by its stdout with ``tests/data/golden/<case>.json``, and
by its stderr with ``<case>.stderr`` when that holds warnings; one that exits
1, as ``noise`` does where there is no violation, by its stderr alone.  The
packaged g-paper fixture path, which ``report`` names and which depends on
where the package lives, is replaced by ``FIXTURE_PLACEHOLDER`` before the
comparison.

Running this file as a script rewrites the golden files from the ``bellkit``
on the import path; do that only for an intended change of the reports.
"""

import contextlib
import io
import os
from pathlib import Path

import pytest

from bellkit import g_paper_expansion_fixture_path
from bellkit.cli import run_command

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
    for command in ("quantum", "noise", "report")
    for source, source_args in SOURCES.items()
    for convention, magnitude_args in MAGNITUDES.items()
}
# past four parties: quantum on a GHZ_5 model with random Bloch vectors, drawn
# once from a seeded generator, and noise on the X/Y model, which violates
FIVE_PARTY_MODELS = {"quantum": "ghz5-random.json", "noise": "ghz5-xy.json"}
CASES.update(
    {
        f"{command}-mermin5-{convention}": [
            command, "mermin5.bell", "--model", model, *magnitude_args
        ]
        for command, model in FIVE_PARTY_MODELS.items()
        for convention, magnitude_args in MAGNITUDES.items()
    }
)
SHORT_RUN = ["--restarts", "3", "--seed", "0"]
CASES.update(
    {
        f"optimize-{name}-{convention}": [
            "optimize", "--builtin", name, *MAGNITUDES[convention], *SHORT_RUN
        ]
        for name in ("g-paper", "mermin")
        for convention in ("signed", "magnitude")
    }
)
CASES["optimize-mermin4"] = ["optimize", "mermin4.bell", "--state", "ghz4-xy.json", *SHORT_RUN]
PARSE = DATA / "parse"
CASES.update(
    {
        f"{command}-parse-{path.stem}": [command, f"parse/{path.name}"]
        for command in ("bound", "expand")
        for path in PARSE.glob("*.bell")
    }
)
CASES.update(
    {
        f"expand-diff-{path.stem}": [
            "expand", "--builtin", "g-paper", "--diff", f"parse/{path.name}"
        ]
        for path in PARSE.glob("*.fixture")
    }
)
# warnings from the expression document come before those from the fixture
CASES["expand-diff-duplicates-in-both"] = [
    "expand", "parse/duplicates.bell", "--diff", "parse/duplicates.fixture"
]


def golden_output(argv: list) -> dict:
    """The golden texts of one command run in ``tests/data``, by file name
    suffix: when it succeeds, its stdout as ``.json`` and any stderr as
    ``.stderr``; when it exits 1, its stderr as ``.stderr``."""
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
        outputs = {".json": text}
        if err.getvalue():  # duplicate-term warnings
            outputs[".stderr"] = err.getvalue()
        return outputs
    assert code == 1 and not out.getvalue(), argv
    return {".stderr": err.getvalue()}


def golden_files(case: str) -> list:
    return sorted(path.name for path in GOLDEN.glob(f"{case}.*"))


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_the_golden_file(case):
    outputs = golden_output(CASES[case])
    assert golden_files(case) == sorted(f"{case}{suffix}" for suffix in outputs)
    for suffix, text in outputs.items():
        assert text == (GOLDEN / f"{case}{suffix}").read_text(encoding="utf-8")


def test_every_golden_file_has_a_case():
    assert sorted({path.stem for path in GOLDEN.iterdir()}) == sorted(CASES)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case, argv in CASES.items():
        for name in golden_files(case):
            (GOLDEN / name).unlink()
        for suffix, text in golden_output(argv).items():
            (GOLDEN / f"{case}{suffix}").write_text(text, encoding="utf-8")
