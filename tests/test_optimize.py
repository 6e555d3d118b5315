import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from itertools import pairwise

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bellkit

from bellkit import (
    ConfigError,
    DensityMatrix,
    DimensionMismatchError,
    MeasurementModel,
    OptimizerConfig,
    PureState,
    Scenario,
    UnsupportedScenarioError,
    builtin_expression,
    expression_value,
    ghz_state,
    make_correlator_expression,
    mix_with_white_noise,
    optimize_measurements,
    paper_model,
)
from bellkit.optimize import _ascend
from bellkit.quantum import (
    _affine,
    _bloch_from_angles,
    _environments,
    _expression_weights,
    _paired_density,
    _projector_blocks,
    _table,
)

import oracles

# the optimizer's pinned start: setting 0 along X, setting 1 along Y
XY_ANGLES = (((math.pi / 2, 0.0), (math.pi / 2, math.pi / 2)),) * 3


def angles_from_flat(flat):
    """(2, 2, 2) (theta, phi) rows from a flat [theta_0, phi_0, theta_1, phi_1, ..] vector."""
    pairs = tuple(zip(flat[0::2].tolist(), flat[1::2].tolist()))
    return (pairs[0:2], pairs[2:4], pairs[4:6])


def model_at(angles):
    """The model of a document listing ``angles`` as its measurements."""
    document = {
        "state": "ghz",
        "measurements": [[{"angles": [theta, phi]} for theta, phi in row] for row in angles],
    }
    return bellkit.parse_model(json.dumps(document))[1]


def random_flats(rng, count):
    for _ in range(count):
        flat = np.empty(12)
        flat[0::2] = rng.uniform(0.0, math.pi, 6)
        flat[1::2] = rng.uniform(0.0, 2 * math.pi, 6)
        yield flat


def state_and_density(kind):
    """GHZ_3, pure or mixed with 20 % white noise, with its density matrix."""
    pure = ghz_state(3)
    if kind == "pure":
        return pure, np.outer(pure.amplitudes, pure.amplitudes.conj())
    noisy = mix_with_white_noise(pure, 0.2)
    return noisy, np.array(noisy.matrix)


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"restarts": -1},
            {"seed": -3},
            {"tolerance": 0.0},
            {"tolerance": -1e-9},
            {"max_evals": 0},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ConfigError):
            OptimizerConfig(**kwargs)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("restarts", 2.5),
            ("restarts", "3"),
            ("restarts", True),  # no count, though True passes as 1 by operator.index
            ("seed", 1.5),
            ("max_evals", 100.5),
            ("tolerance", math.inf),
            ("tolerance", "1e-3"),
            ("tolerance", True),
            ("tolerance", None),
            ("tolerance", 1e-3j),
        ],
    )
    def test_a_non_integer_count_or_infinite_tolerance_is_refused_by_name(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be"):
            OptimizerConfig(**{field: value})

    @pytest.mark.parametrize(
        "tolerance",
        [10**400, -(10**5000), Fraction(10**400, 3)],
        ids=["int", "int-past-the-digit-limit", "fraction"],
    )
    def test_a_tolerance_past_the_largest_float_is_refused_by_name(self, tolerance):
        # never a bare OverflowError, and never a repr past the integer digit limit
        match = "^tolerance must be a real number, got one past the largest float$"
        with pytest.raises(ConfigError, match=match):
            OptimizerConfig(tolerance=tolerance)

    def test_integer_counts_are_coerced_to_int(self):
        config = OptimizerConfig(restarts=np.int64(3), seed=np.int32(7), max_evals=np.int16(50))
        assert [type(n) for n in (config.restarts, config.seed, config.max_evals)] == [int] * 3
        assert (config.restarts, config.seed, config.max_evals) == (3, 7, 50)

    def test_defaults(self):
        config = OptimizerConfig()
        assert config.restarts == 20
        assert config.tolerance == 1e-9


class TestAngleConvention:
    def test_the_pinned_start_is_the_paper_model(self, g_expr, ghz3):
        # one evaluation budget: the pinned start is returned as it was
        config = OptimizerConfig(restarts=0, max_evals=1)
        result = optimize_measurements(g_expr, ghz3, config)
        assert result.best_angles == XY_ANGLES
        reference = paper_model()
        for party in range(3):
            for setting in range(2):
                got = result.best_model.bloch[party][setting]
                expected = reference.bloch[party][setting]
                assert all(
                    abs(g - e) < 1e-15 for g, e in zip(got, expected)
                ), (party, setting)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_model_documents_and_the_optimizer_share_one_angle_convention(
        self, g_expr, ghz3, seed
    ):
        # the optimize command prints best_angles as a model document
        result = optimize_measurements(g_expr, ghz3, OptimizerConfig(restarts=2, seed=seed))
        assert model_at(result.best_angles).bloch == result.best_model.bloch

    def test_bloch_vectors_are_unit_norm_for_any_angles(self):
        rng = np.random.default_rng(0)
        vectors = _bloch_from_angles(rng.uniform(-9, 9, 12), rng.uniform(-9, 9, 12))
        assert vectors.shape == (3, 12)
        assert np.allclose(np.sum(vectors**2, axis=0), 1.0, rtol=0.0, atol=1e-12)


class TestTableEvaluator:
    @pytest.mark.parametrize("kind", ["pure", "noisy"])
    @pytest.mark.parametrize("name", ["g-paper", "mermin"])
    def test_expression_value_matches_the_kron_oracle(self, name, kind):
        expr = builtin_expression(name)
        state, density = state_and_density(kind)
        for flat in random_flats(np.random.default_rng(9), 25):
            model = model_at(angles_from_flat(flat))
            reference = oracles.kron_expression_value(expr, density, model)
            assert expression_value(expr, state, model).value == pytest.approx(
                reference, abs=1e-12
            )

    @pytest.mark.parametrize("kind", ["pure", "noisy"])
    @pytest.mark.parametrize("name", ["g-paper", "mermin"])
    def test_affine_step_matches_the_kron_oracle(self, name, kind):
        # with the other slots fixed, a + b . n is the value at any unit n
        expr = builtin_expression(name)
        state, density = state_and_density(kind)
        rng = np.random.default_rng(10)
        for flat in random_flats(rng, 25):
            bloch = _bloch_from_angles(flat[0::2], flat[1::2])
            slot = int(rng.integers(6))
            party, setting = divmod(slot, 2)
            a, b = affines(expr, state, bloch)[party]
            n = rng.normal(size=3)
            bloch[:, slot] = n / np.linalg.norm(n)
            vectors = [tuple(column) for column in bloch.T]
            model = MeasurementModel(tuple(tuple(vectors[i : i + 2]) for i in (0, 2, 4)))
            reference = oracles.kron_expression_value(expr, density, model)
            assert a[setting] + b[:, setting] @ bloch[:, slot] == pytest.approx(
                reference, abs=1e-12
            )


def affines(expr, state, bloch):
    """Per party, the (a, b) of its settings at ``bloch``: b from ``_affine`` on
    the party's environment E, and a = Re sum(E * block) - b . n from E itself."""
    scenario = expr.scenario
    paired = _paired_density(state, scenario.settings_per_party)
    weights = _expression_weights(expr)
    blocks = list(_projector_blocks(bloch, scenario))
    steps = []
    for party, (environment, (lo, hi)) in enumerate(
        zip(_environments(paired, weights, blocks), pairwise(scenario.slot_offsets))
    ):
        b = _affine(environment)
        value = float(np.sum(environment * blocks[party]).real)
        steps.append((value - np.sum(b * bloch[:, lo:hi], axis=0), b))
    return steps


def table_objective(expr, state):
    """The expression value at Bloch columns of shape (3, slots), by one table evaluation."""
    scenario = expr.scenario
    paired = _paired_density(state, scenario.settings_per_party)
    weights = _expression_weights(expr)
    return lambda bloch: float(np.dot(weights, _table(paired, _projector_blocks(bloch, scenario))))


@st.composite
def affine_cases(draw):
    """2-4 parties with 2-3 binary settings each, a pure or mixed state, Bloch
    directions, and an expression of either form, all from one seeded generator."""
    parties = draw(st.integers(2, 4))
    settings = tuple(draw(st.lists(st.integers(2, 3), min_size=parties, max_size=parties)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scenario = Scenario(parties, settings, [(2,) * n for n in settings])
    rank = draw(st.integers(0, 3))  # 0 draws a pure state
    if rank:
        state = DensityMatrix(oracles.random_density_matrix(rng, parties, rank))
    else:
        state = PureState(oracles.random_pure_amplitudes(rng, parties))
    if draw(st.booleans()):
        expr = oracles.random_expression(rng, scenario)
    else:
        terms = [
            (tuple(int(rng.integers(n)) for n in settings), oracles.random_rational(rng))
            for _ in range(int(rng.integers(0, 9)))
        ]
        expr = make_correlator_expression(scenario, terms)
    slots = sum(settings)
    bloch = _bloch_from_angles(rng.uniform(0, math.pi, slots), rng.uniform(0, 2 * math.pi, slots))
    return expr, state, bloch


@settings(max_examples=40, deadline=None)
@given(case=affine_cases())
def test_every_slots_affine_step_matches_the_slot_wise_oracle(case):
    expr, state, bloch = case
    value_at = table_objective(expr, state)
    offsets = expr.scenario.slot_offsets
    for party, (a, b) in enumerate(affines(expr, state, bloch)):
        for setting in range(a.size):
            ref_a, ref_b = oracles.slot_affine(value_at, bloch, offsets[party] + setting)
            assert abs(a[setting] - ref_a) <= 1e-12
            assert np.max(np.abs(b[:, setting] - ref_b)) <= 1e-12


@pytest.mark.parametrize("kind", ["pure", "noisy"])
@pytest.mark.parametrize("name", ["g-paper", "mermin"])
def test_a_party_wise_sweep_takes_the_slot_wise_steps(name, kind):
    # one sweep's budget: the start's value, then one contraction per party
    expr = builtin_expression(name)
    state, _ = state_and_density(kind)
    value_at = table_objective(expr, state)
    config = OptimizerConfig(max_evals=1 + expr.scenario.parties)
    paired = _paired_density(state, expr.scenario.settings_per_party)
    for flat in random_flats(np.random.default_rng(12), 10):
        bloch = _bloch_from_angles(flat[0::2], flat[1::2])
        reference = bloch.copy()
        value, evaluations, _ = _ascend(
            paired, _expression_weights(expr), bloch, expr.scenario, config
        )
        assert evaluations == 1 + expr.scenario.parties
        assert value == pytest.approx(oracles.slot_sweep(value_at, reference), abs=1e-12)
        assert np.max(np.abs(bloch - reference)) <= 1e-9


def test_import_leaves_scipy_unloaded():
    # nothing in bellkit loads scipy, including a full optimizer run
    source_root = str(Path(bellkit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source_root, env.get("PYTHONPATH")]))
    probe = (
        "import sys, bellkit; "
        "bellkit.optimize_measurements(bellkit.builtin_expression('g-paper'), "
        "bellkit.ghz_state(3), bellkit.OptimizerConfig(restarts=1)); "
        "print('scipy' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.strip() == "False"


class TestOptimization:
    def test_paper_start_alone_reproduces_the_quantum_value(self, g_expr, ghz3):
        result = optimize_measurements(g_expr, ghz3, OptimizerConfig(restarts=0))
        assert result.best_value == pytest.approx(3.5, abs=1e-9)
        assert result.evaluations > 0

    def test_every_start_converges_on_g_paper(self, g_expr, ghz3):
        result = optimize_measurements(g_expr, ghz3, OptimizerConfig(restarts=20))
        assert result.converged_starts == 21
        assert result.best_value == pytest.approx(3.5, abs=1e-9)

    def test_magnitude_counts_two_ascents_per_start(self, mermin_expr, ghz3):
        config = OptimizerConfig(restarts=2, seed=5)
        result = optimize_measurements(mermin_expr, ghz3, config, magnitude=True)
        assert result.converged_starts == 6

    def test_one_evaluation_budget_converges_nothing(self, g_expr, ghz3):
        config = OptimizerConfig(restarts=2, max_evals=1)
        result = optimize_measurements(g_expr, ghz3, config)
        assert result.converged_starts == 0
        assert result.evaluations == 3
        # the pinned start is returned as it was
        assert result.best_angles == XY_ANGLES

    def test_best_value_is_the_reevaluated_value(self, g_expr, ghz3):
        result = optimize_measurements(g_expr, ghz3, OptimizerConfig(restarts=1))
        recomputed = expression_value(g_expr, ghz3, result.best_model).value
        assert result.best_value == recomputed

    def test_mermin_magnitude_from_paper_start(self, mermin_expr, ghz3):
        result = optimize_measurements(
            mermin_expr, ghz3, OptimizerConfig(restarts=0), magnitude=True
        )
        assert result.best_value == pytest.approx(4.0, abs=1e-9)
        recomputed = expression_value(mermin_expr, ghz3, result.best_model).value
        assert result.best_value == abs(recomputed)

    def test_correlator_and_probability_forms_optimize_alike(self, mermin_expr, ghz3):
        config = OptimizerConfig(restarts=3, seed=6)
        converted = bellkit.as_probability_form(mermin_expr)
        for magnitude in (False, True):
            assert optimize_measurements(
                mermin_expr, ghz3, config, magnitude
            ) == optimize_measurements(converted, ghz3, config, magnitude)

    def test_restarts_only_improve(self, g_expr, ghz3):
        few = optimize_measurements(g_expr, ghz3, OptimizerConfig(restarts=2, seed=4))
        more = optimize_measurements(g_expr, ghz3, OptimizerConfig(restarts=5, seed=4))
        assert more.best_value >= few.best_value - 1e-12

    def test_identical_seeds_give_identical_results(self, g_expr, ghz3):
        config = OptimizerConfig(restarts=3, seed=11)
        first = optimize_measurements(g_expr, ghz3, config)
        second = optimize_measurements(g_expr, ghz3, config)
        assert first == second
        assert first.best_value == second.best_value
        assert first.best_angles == second.best_angles

    def test_best_value_never_exceeds_the_algebraic_ceiling(self, g_expr, ghz3):
        # the sum of positive coefficients (24) loosely caps any quantum value
        result = optimize_measurements(g_expr, ghz3, OptimizerConfig(restarts=4, seed=2))
        assert result.best_value <= 24

    def test_non_binary_scenario_rejected(self, ghz3):
        from bellkit import MarginalTerm, Scenario, make_expression

        ternary = Scenario.uniform(3, 2, 3)
        expr = make_expression(ternary, [MarginalTerm((0, 0, 0), (2, 2, 2), 1)])
        with pytest.raises(UnsupportedScenarioError):
            optimize_measurements(expr, ghz3)

    def test_state_size_must_match(self, g_expr):
        with pytest.raises(DimensionMismatchError):
            optimize_measurements(g_expr, ghz_state(2))

    def test_density_matrix_states_reach_the_pinned_value(self, g_expr, ghz3):
        from bellkit import mix_with_white_noise

        noisy = mix_with_white_noise(ghz3, 0.2)
        result = optimize_measurements(g_expr, noisy, OptimizerConfig(restarts=0))
        # the pinned start alone already reaches (1-p)*3.5 + p*(-1.5)
        assert result.best_value >= 2.5 - 1e-9
        recomputed = expression_value(g_expr, noisy, result.best_model).value
        assert result.best_value == recomputed
