import importlib
import sys
from collections import Counter
from pathlib import Path

import pytest

from bellkit import builtin_expression, ghz_state, paper_model

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def g_expr():
    return builtin_expression("g-paper")


@pytest.fixture
def mermin_expr():
    return builtin_expression("mermin")


@pytest.fixture
def ghz3():
    return ghz_state(3)


@pytest.fixture
def xy_model():
    return paper_model()


# module holding each counted function; every bellkit module that binds the
# name gets the counting wrapper, as the benchmark's tracer does
COUNTED = {
    "local_bounds": "bellkit.lhv",
    "correlator_to_probability": "bellkit.scenario",
    "expression_value": "bellkit.quantum",
    "trivial_bounds": "bellkit.lhv",
    "expand_full_joint": "bellkit.lhv",
    "evaluate_on_strategy": "bellkit.lhv",
    "_coefficient_pass": "bellkit.noise",
}


def _counting(counts, name, original):
    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    return counted


@pytest.fixture
def call_counts(monkeypatch):
    counts = Counter()
    wrappers = {}
    for name, module in COUNTED.items():
        original = getattr(importlib.import_module(module), name)
        wrappers[id(original)] = _counting(counts, name, original)
    for module_name, module in list(sys.modules.items()):
        if module_name == "bellkit" or module_name.startswith("bellkit."):
            for attribute, value in list(vars(module).items()):
                if id(value) in wrappers:
                    monkeypatch.setattr(module, attribute, wrappers[id(value)])
    return counts
