"""The package namespace and the import graph.

Importing ``bellkit`` loads nothing; the first read of a public name loads
every submodule, and each read goes through to the owning submodule.  Each
CLI command imports only the layers it runs, and numpy only once it builds
an array.
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


def test_the_first_name_read_loads_every_submodule():
    # errors imports nothing of bellkit itself: the read loads all eight
    probe = f"import sys, bellkit; bellkit.ParseError; print({LOADED})"
    assert fresh(probe) == f"{SUBMODULES}\n"


def test_a_submodule_read_as_an_attribute_loads_only_itself():
    probe = f"import sys, bellkit; print(bellkit.errors.__name__, {LOADED})"
    assert fresh(probe) == "bellkit.errors ['bellkit.errors']\n"


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
MERMIN4 = str(Path(__file__).parent / "data" / "mermin4-fractions.bell")
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
