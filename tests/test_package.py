"""The package namespace and the import graph.

Importing ``bellkit`` loads nothing.  Reading a public name loads only what
its owner imports: an exact-layer name never loads numpy or the quantum
stack, and a quantum-stack name loads all three of its modules.  Each read
goes through to the owning submodule.  Each CLI command imports only the
layers it runs, and numpy only once it builds an array.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bellkit

SUBMODULES = sorted(f"bellkit.{name}" for name in bellkit._EXPORTS)
LAYERS = ("bellkit.quantum", "bellkit.noise", "bellkit.optimize")


def fresh(probe: str, *argv: str) -> str:
    """Standard output of ``probe`` run in a new interpreter that finds this
    checkout's bellkit first."""
    source_root = str(Path(bellkit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source_root, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", probe, *argv], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


LOADED = "sorted(m for m in sys.modules if m.startswith('bellkit.'))"


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


COMMAND = f"""
import contextlib, io, json, sys
from bellkit.cli import run_command
with contextlib.redirect_stdout(io.StringIO()):
    code = run_command(sys.argv[1:])
layers = sorted(set({LAYERS!r}) & set(sys.modules))
modules = ("hashlib", "numpy", "numpy.random")
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
        (
            ["optimize", "--builtin", "g-paper", "--state", "ghz", "--restarts", "2"],
            ["bellkit.optimize", "bellkit.quantum"],
            True,
        ),
    ],
    ids=[
        "bound", "bound-mermin", "bound-file", "expand", "version", "help", "quantum",
        "noise", "report", "optimize",
    ],
)
def test_each_command_imports_only_the_layers_it_runs(argv, layers, numpy_loaded):
    code, loaded, hashlib_loaded, numpy, numpy_random = json.loads(fresh(COMMAND, *argv))
    assert (code, loaded, numpy) == (0, layers, numpy_loaded)
    # restart draws come from the standard library's generator
    assert not numpy_random
    if argv[:2] == ["bound", "--builtin"]:  # read from no file, so nothing is hashed
        assert not hashlib_loaded


OPENSSL_PROBE = f"""
import sys
preloaded = '_hashlib' in sys.modules
{COMMAND}
print(preloaded, '_hashlib' in sys.modules)
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
    report, loaded = fresh(OPENSSL_PROBE, *argv).splitlines()
    assert json.loads(report)[0] == 0
    preloaded, openssl_loaded = loaded.split()
    if preloaded == "True":
        pytest.skip("_hashlib is loaded before bellkit is imported")
    assert openssl_loaded == "False"
