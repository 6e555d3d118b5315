"""Bell expressions over finite measurement scenarios: exact local bounds by
strategy enumeration, quantum values on small multi-qubit states, white-noise
robustness, and measurement-angle search.

Importing the package loads none of its submodules.  Reading a public name
imports only the layers it needs: a name of the exact layers (``errors``,
``scenario``, ``lhv``, ``exprformat``, ``builtins``) its owning submodule and
what that imports, none of which loads numpy; a name of the quantum stack
(``quantum``, ``noise``, ``optimize``) all three, with numpy, so a timed
quantum loop never pays a first import of the noise layer.  Every read is
served from the owning submodule (PEP 562), so a name patched there shows
through here.
"""

import sys
from importlib import import_module

__version__ = "0.1.0"

# each submodule and the public names it defines
_EXPORTS = {
    "builtins": (
        "TRIPARTITE_BINARY",
        "builtin_expression",
        "builtin_magnitude",
        "builtin_names",
        "g_paper_expansion_fixture",
        "g_paper_expansion_fixture_path",
    ),
    "errors": (
        "BellkitError",
        "ConfigError",
        "DimensionMismatchError",
        "EnumerationCapError",
        "NoRootError",
        "NoViolationError",
        "ParseError",
        "ScenarioError",
        "ScenarioMismatchError",
        "UnknownBuiltinError",
        "UnsupportedScenarioError",
    ),
    "exprformat": (
        "DuplicateTermWarning",
        "parse_expansion",
        "parse_expression",
        "serialize_expansion",
        "serialize_expression",
    ),
    "lhv": (
        "DEFAULT_ENUMERATION_CAP",
        "DiffEntry",
        "FullJointExpansion",
        "LocalBoundResult",
        "diff_expansion",
        "enumerate_strategies",
        "evaluate_on_strategy",
        "expand_full_joint",
        "local_bounds",
        "trivial_bounds",
    ),
    "noise": (
        "NoiseReport",
        "ViolationReport",
        "coefficient_sum",
        "tolerance_by_root_scan",
        "violation_report",
        "white_noise_tolerance",
    ),
    "optimize": (
        "OptimizationResult",
        "OptimizerConfig",
        "optimize_measurements",
    ),
    "quantum": (
        "DensityMatrix",
        "ExpressionValue",
        "MeasurementModel",
        "PureState",
        "correlator",
        "expression_value",
        "ghz_state",
        "joint_probability",
        "mix_with_white_noise",
        "paper_model",
        "parse_model",
        "probability_table",
    ),
    "scenario": (
        "BellExpression",
        "CorrelatorExpression",
        "MarginalTerm",
        "Scenario",
        "as_probability_form",
        "correlator_to_probability",
        "make_correlator_expression",
        "make_expression",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

# each public name's owning module, by its full name as sys.modules keys it
_OWNERS = {name: f"{__name__}.{module}" for module, names in _EXPORTS.items() for name in names}
# the quantum stack loads as one, on the first read of any of its names
_QUANTUM_STACK = tuple(f"{__name__}.{module}" for module in ("quantum", "noise", "optimize"))


def __getattr__(name: str):
    owner = _OWNERS.get(name)
    if owner is None:
        if name in _EXPORTS:  # a submodule not yet imported, read as an attribute
            return import_module(f"{__name__}.{name}")
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    try:  # a subscript, not .get: an already loaded owner is the hot path
        module = sys.modules[owner]
    except KeyError:
        for layer in _QUANTUM_STACK if owner in _QUANTUM_STACK else (owner,):
            import_module(layer)
        module = sys.modules[owner]
    # read through, never cached here, so a name rebound in its submodule shows
    return getattr(module, name)


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
