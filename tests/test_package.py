"""The package namespace and the import graph.

Importing ``bellkit`` loads nothing.  Reading a public name loads only what
its owner imports: an exact-layer name never loads numpy or the quantum
stack, and a quantum-stack name loads all three of its modules.  Each read
goes through to the owning submodule.  Each CLI command imports only the
layers it runs, and numpy only once it builds an array; no command loads
``importlib.resources``, and only the one that diffs the packaged table loads
``pathlib``.  Each probe runs under ``python -S``, so that no ``.pth`` file
of site-packages can import a module first and hide an import of bellkit's.
The packaged g-paper table also reads from a zip import of the package.
"""

import contextlib
import importlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import zipfile
from pathlib import Path

import pytest

import bellkit

SUBMODULES = sorted(f"bellkit.{name}" for name in bellkit._EXPORTS)
LAYERS = ("bellkit.quantum", "bellkit.noise", "bellkit.optimize")


def fresh(probe: str, *argv: str) -> str:
    """Standard output of ``probe`` run in a new interpreter that finds this
    checkout's bellkit first.  It runs under ``-S``, with numpy's directory on
    the path, so that no ``.pth`` file of site-packages imports a module
    before bellkit does."""
    source_root = str(Path(bellkit.__file__).resolve().parents[1])
    numpy_root = str(Path(importlib.util.find_spec("numpy").origin).parents[1])
    env = dict(os.environ)
    paths = [source_root, env.get("PYTHONPATH"), numpy_root]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe, *argv], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


LOADED = "sorted(m for m in sys.modules if m.startswith('bellkit.'))"
README = Path(__file__).resolve().parents[1] / "README.md"


def test_importing_the_package_loads_no_submodule_and_no_numpy():
    probe = f"import sys, bellkit; print({LOADED}, 'numpy' in sys.modules)"
    assert fresh(probe) == "[] False\n"


# a quantum-stack name loads all three layers and what they import
QUANTUM_STACK = ["errors", "lhv", "noise", "optimize", "quantum", "scenario"]


@pytest.mark.parametrize(
    "name,loaded,numpy_loaded",
    [
        ("ParseError", ["errors"], False),
        ("Scenario", ["errors", "scenario"], False),
        ("local_bounds", ["errors", "lhv", "scenario"], False),
        ("builtin_expression", ["builtins", "errors", "scenario"], False),
        ("parse_expression", ["errors", "exprformat", "lhv", "scenario"], False),
        ("expression_value", QUANTUM_STACK, True),
        ("white_noise_tolerance", QUANTUM_STACK, True),
        ("optimize_measurements", QUANTUM_STACK, True),
    ],
)
def test_the_first_name_read_loads_only_what_its_owner_needs(name, loaded, numpy_loaded):
    probe = f"import sys, bellkit; bellkit.{name}; print({LOADED}, 'numpy' in sys.modules)"
    expected = [f"bellkit.{module}" for module in loaded]
    assert fresh(probe) == f"{expected} {numpy_loaded}\n"


EXACT_LAYERS = ("errors", "scenario", "lhv", "exprformat", "builtins")


def test_reading_every_exact_layer_name_loads_no_numpy_and_no_quantum_stack():
    names = [name for module in EXACT_LAYERS for name in bellkit._EXPORTS[module]]
    probe = (
        f"import sys, bellkit\nfor name in {names!r}: getattr(bellkit, name)\n"
        f"print(sorted({{'numpy', *{LAYERS!r}}} & set(sys.modules)))"
    )
    assert fresh(probe) == "[]\n"


def test_a_submodule_read_as_an_attribute_loads_only_itself():
    probe = f"import sys, bellkit; print(bellkit.errors.__name__, {LOADED})"
    assert fresh(probe) == "bellkit.errors ['bellkit.errors']\n"


def test_a_quantum_layer_read_as_an_attribute_is_imported_and_returned():
    # the submodule alone, not the whole quantum stack that its names load
    probe = f"import sys, bellkit; print(bellkit.quantum is sys.modules[{LAYERS[0]!r}], {LOADED})"
    loaded = ["bellkit.errors", "bellkit.quantum", "bellkit.scenario"]
    assert fresh(probe) == f"True {loaded}\n"
    assert bellkit.__getattr__("quantum") is importlib.import_module("bellkit.quantum")


def test_the_table_names_each_public_name_once():
    assert len(SUBMODULES) == 8
    assert len(bellkit.__all__) == len(set(bellkit.__all__))


def test_every_public_name_is_its_owners():
    for owner, names in bellkit._EXPORTS.items():
        module = importlib.import_module(f"bellkit.{owner}")
        for name in names:
            assert getattr(bellkit, name) is getattr(module, name), name


def test_star_import_and_dir_give_every_public_name():
    namespace: dict = {}
    exec("from bellkit import *", namespace)
    assert set(bellkit.__all__) <= namespace.keys()
    assert set(bellkit.__all__) <= set(dir(bellkit))


def test_an_unknown_name_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        bellkit.no_such_name


def test_a_name_patched_in_its_submodule_shows_through_and_comes_back(monkeypatch):
    original = bellkit.lhv.local_bounds
    assert bellkit.local_bounds is original

    def patched(*args, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setattr(bellkit.lhv, "local_bounds", patched)
    assert bellkit.local_bounds is patched
    monkeypatch.undo()
    assert bellkit.local_bounds is original
    assert "local_bounds" not in vars(bellkit)


# the modules the bound command runs on, none of which imports numpy itself
NUMPY_FREE = {f"bellkit.{name}" for name in ("scenario", "lhv", "exprformat", "builtins", "cli")}


@pytest.mark.parametrize("module", ["bellkit", *SUBMODULES, "bellkit.cli"])
def test_each_module_imports_alone(module):
    # with no eager package import, a cycle between submodules shows here
    numpy_loaded = fresh(f"import sys, {module}; print('numpy' in sys.modules)")
    if module in NUMPY_FREE:
        assert numpy_loaded == "False\n"


# standard-library modules that only the packaged fixture's locator or the
# optimizer's restarts may need
STDLIB = ("importlib.resources", "pathlib", "random", "tempfile", "zipfile")
COMMAND = f"""
import contextlib, io, json, sys
from bellkit.cli import run_command
with contextlib.redirect_stdout(io.StringIO()):
    code = run_command(sys.argv[1:])
layers = sorted(set({LAYERS!r}) & set(sys.modules))
modules = ("hashlib", "numpy", "numpy.random", *{STDLIB!r})
print(json.dumps([code, layers, *(name in sys.modules for name in modules)]))
"""
DATA = Path(__file__).parent / "data"
MERMIN4 = str(DATA / "mermin4-fractions.bell")
QUANTUM_NOISE = ["bellkit.noise", "bellkit.quantum"]


@pytest.mark.parametrize(
    "argv,layers,numpy_loaded",
    [
        (["bound", "--builtin", "g-paper"], [], False),
        (["bound", "--builtin", "mermin"], [], False),  # a correlator form
        (["bound", MERMIN4], [], False),
        (["expand", "--builtin", "g-paper"], [], True),
        (["--version"], [], False),
        (["--help"], [], False),
        (["quantum", "--builtin", "g-paper"], ["bellkit.quantum"], True),
        (["noise", "--builtin", "g-paper"], QUANTUM_NOISE, True),
        (["report", "--builtin", "mermin"], QUANTUM_NOISE, True),
        (["report", "--builtin", "g-paper"], QUANTUM_NOISE, True),  # diffs the packaged table
        (
            ["optimize", "--builtin", "g-paper", "--state", "ghz", "--restarts", "2"],
            ["bellkit.optimize", "bellkit.quantum"],
            True,
        ),
    ],
    ids=[
        "bound", "bound-mermin", "bound-file", "expand", "version", "help", "quantum",
        "noise", "report", "report-fixture", "optimize",
    ],
)
def test_each_command_imports_only_the_layers_it_runs(argv, layers, numpy_loaded):
    code, loaded, hashlib_loaded, numpy, numpy_random, *stdlib = json.loads(fresh(COMMAND, *argv))
    assert (code, loaded, numpy) == (0, layers, numpy_loaded)
    # restart draws come from the standard library's generator
    assert not numpy_random
    if argv[:2] == ["bound", "--builtin"]:  # read from no file, so nothing is hashed
        assert not hashlib_loaded
    # the packaged table is found next to the package, so importlib.resources
    # (with tempfile and zipfile) is never loaded, and pathlib only to locate it
    expected = {
        "pathlib": argv == ["report", "--builtin", "g-paper"],
        "random": argv[0] == "optimize",
    }
    assert dict(zip(STDLIB, stdlib)) == {name: expected.get(name, False) for name in STDLIB}


OPENSSL_PROBE = f"""
{COMMAND}
print('_hashlib' in sys.modules)
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["bound", MERMIN4],
        ["quantum", str(DATA / "mermin4.bell"), "--model", str(DATA / "ghz4-xy.json")],
        ["report", "--builtin", "g-paper"],  # hashes the packaged g-paper fixture
    ],
    ids=["bound-file", "quantum-files", "report-fixture"],
)
def test_a_command_that_hashes_a_file_loads_no_openssl(argv):
    # the digest comes from the interpreter's own SHA-256, not hashlib's OpenSSL
    report, openssl_loaded = fresh(OPENSSL_PROBE, *argv).splitlines()
    assert json.loads(report)[0] == 0
    assert openssl_loaded == "False"


ZIP_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import bellkit
from bellkit.exprformat import parse_expansion
fixture = bellkit.g_paper_expansion_fixture()
with open(sys.argv[2], encoding="utf-8") as handle:
    print(bellkit.__file__.startswith(sys.argv[1]), fixture == parse_expansion(handle.read()))
"""


def test_the_packaged_table_reads_from_a_zip_import(tmp_path):
    package = Path(bellkit.__file__).parent
    archive = tmp_path / "bellkit.zip"
    with zipfile.ZipFile(archive, "w") as bundle:
        for path in package.rglob("*"):
            if "__pycache__" not in path.parts:
                bundle.write(path, path.relative_to(package.parent))
    table = package / "data" / "g_paper_expansion.fixture"
    assert fresh(ZIP_PROBE, str(archive), str(table)) == "True True\n"


def test_the_library_use_snippet_prints_what_its_comments_say():
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    snippet = section.split("```python\n", 1)[1].split("```", 1)[0]
    # each print line's trailing comment is the line it prints
    expected = [
        line.rsplit("#", 1)[1].strip() for line in snippet.splitlines() if line.startswith("print(")
    ]
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(snippet, str(README), "exec"), {})
    assert expected and printed.getvalue().splitlines() == expected


# what each line of README's "Command line" block says its report holds:
# (path of keys into the report, value), or None for a line that claims no number
COMMAND_LINE_CLAIMS = {
    "bellkit bound --builtin g-paper": None,
    "bellkit bound --builtin mermin": (("local", "magnitude", "value"), 2),
    "bellkit expand --builtin g-paper": (("expansion", "assignment_count"), 64),
    "bellkit expand --builtin g-paper --diff src/bellkit/data/g_paper_expansion.fixture": (
        ("diff", "mismatches"),
        0,
    ),
    "bellkit quantum --builtin g-paper --model paper": (("quantum", "value"), 3.5),
    "bellkit noise --builtin g-paper --model paper": (("noise", "p_critical", "value"), 0.5),
    "bellkit optimize --builtin g-paper --state ghz --restarts 20 --seed 0": None,
    "bellkit report --builtin g-paper --model paper": None,
}


def test_the_command_line_snippet_runs_and_reports_what_its_comments_say(monkeypatch):
    from bellkit.cli import run_command

    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    snippet = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.partition("#") for line in snippet.splitlines()]
    assert [command.strip() for command, _, _ in lines] == list(COMMAND_LINE_CLAIMS)
    monkeypatch.chdir(README.parent)  # the --diff fixture path is relative to the root
    for (command, _, comment), claim in zip(lines, COMMAND_LINE_CLAIMS.values()):
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            assert run_command(command.split()[1:]) == 0, command
        report = json.loads(printed.getvalue())
        if claim is not None:
            keys, value = claim
            for key in keys:
                report = report[key]
            assert report == value, command
            assert not comment or str(value) in re.findall(r"\d[\d.]*", comment), comment
