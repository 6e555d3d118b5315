"""Bell expressions over finite measurement scenarios: exact local bounds by
strategy enumeration, quantum values on small multi-qubit states, white-noise
robustness, and measurement-angle search."""

__version__ = "0.1.0"

from .builtins import (
    TRIPARTITE_BINARY,
    builtin_expression,
    builtin_magnitude,
    builtin_names,
    g_paper_expansion_fixture,
    g_paper_expansion_fixture_path,
)
from .errors import (
    BellkitError,
    ConfigError,
    DimensionMismatchError,
    EnumerationCapError,
    NoRootError,
    NoViolationError,
    ParseError,
    ScenarioError,
    ScenarioMismatchError,
    UnknownBuiltinError,
    UnsupportedScenarioError,
)
from .exprformat import (
    DuplicateTermWarning,
    parse_expansion,
    parse_expression,
    serialize_expansion,
    serialize_expression,
)
from .lhv import (
    DEFAULT_ENUMERATION_CAP,
    DiffEntry,
    FullJointExpansion,
    LocalBoundResult,
    diff_expansion,
    enumerate_strategies,
    evaluate_on_strategy,
    expand_full_joint,
    local_bounds,
    trivial_bounds,
)
from .noise import (
    NoiseReport,
    ViolationReport,
    coefficient_sum,
    tolerance_by_root_scan,
    violation_report,
    white_noise_tolerance,
)
from .optimize import (
    OptimizationResult,
    OptimizerConfig,
    optimize_measurements,
)
from .quantum import (
    DensityMatrix,
    ExpressionValue,
    MeasurementModel,
    PureState,
    correlator,
    expression_value,
    ghz_state,
    joint_probability,
    mix_with_white_noise,
    paper_model,
    parse_model,
    probability_table,
)
from .scenario import (
    BellExpression,
    CorrelatorExpression,
    MarginalTerm,
    Scenario,
    as_probability_form,
    correlator_to_probability,
    make_correlator_expression,
    make_expression,
)
