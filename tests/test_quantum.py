import json
import math
import re
from fractions import Fraction
from itertools import pairwise, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellkit import (
    DensityMatrix,
    DimensionMismatchError,
    MarginalTerm,
    MeasurementModel,
    ParseError,
    PureState,
    Scenario,
    ScenarioError,
    ScenarioMismatchError,
    builtin_expression,
    correlator,
    correlator_to_probability,
    expression_value,
    ghz_state,
    joint_probability,
    make_correlator_expression,
    make_expression,
    mix_with_white_noise,
    paper_model,
    parse_model,
    probability_table,
    tolerance_by_root_scan,
    violation_report,
    white_noise_tolerance,
)
from bellkit.scenario import _parity_signs

from bellkit import quantum

import oracles

TRI = Scenario.uniform(3, 2, 2)

# per-term values of the g-paper expression on GHZ with the X/Y model,
# in the builtin's term order
G_BREAKDOWN = (
    [0.25, 1.25, 1.25, 0.0, 0.0, 1.0, 0.25, 0.25]
    + [0.0] * 8
    + [0.125, 0.125, -0.5, -0.5]
)


class TestStates:
    def test_ghz_amplitudes(self, ghz3):
        amplitudes = ghz3.amplitudes
        assert amplitudes[0] == pytest.approx(1 / math.sqrt(2), abs=1e-15)
        assert amplitudes[-1] == pytest.approx(1 / math.sqrt(2), abs=1e-15)
        assert np.all(amplitudes[1:-1] == 0)
        assert np.linalg.norm(amplitudes) == pytest.approx(1.0, abs=1e-15)

    def test_ghz_needs_two_parties(self):
        with pytest.raises(DimensionMismatchError):
            ghz_state(1)

    def test_a_ghz_state_past_the_cap_is_refused_before_its_amplitudes_exist(self):
        # 2^64 amplitudes cannot even be asked of numpy: the cap must come first
        with pytest.raises(DimensionMismatchError, match="spans 64 qubits"):
            ghz_state(64)

    @pytest.mark.parametrize("parties", ["3", 2.5, None, True, np.True_])
    def test_a_ghz_party_count_that_is_not_an_integer_is_refused_by_name(self, parties):
        with pytest.raises(DimensionMismatchError, match="^parties must be an integer, got "):
            ghz_state(parties)

    def test_pure_state_norm_checked(self):
        with pytest.raises(DimensionMismatchError, match="norm"):
            PureState(np.array([1.0, 1.0], dtype=complex))

    def test_pure_state_dimension_checked(self):
        with pytest.raises(DimensionMismatchError, match="power of two"):
            PureState(np.array([1.0, 0.0, 0.0], dtype=complex))

    @pytest.mark.parametrize(
        "amplitudes",
        [
            # a pure 2-qubit density matrix has unit norm once flattened, as 4 qubits
            np.outer(ghz_state(2).amplitudes, ghz_state(2).amplitudes.conj()),
            np.array([[1.0], [0.0], [0.0], [0.0]]),
            np.array(1.0),
        ],
        ids=["density-matrix", "column", "scalar"],
    )
    def test_pure_state_amplitudes_that_are_not_flat_are_refused_by_shape(self, amplitudes):
        shape = re.escape(str(amplitudes.shape))
        with pytest.raises(DimensionMismatchError, match=f"flat sequence, got shape {shape}$"):
            PureState(amplitudes)

    def test_a_one_amplitude_state_is_refused(self):
        # 1 = 2^0: a power of two, but no qubit
        with pytest.raises(DimensionMismatchError, match="dimension 1 is not a power of two"):
            PureState([1.0])

    @pytest.mark.parametrize(
        "matrix", [np.array([1.0, 0.0]), np.full((2, 2, 2), 0.25)], ids=["flat", "cube"]
    )
    def test_a_density_matrix_that_is_not_two_dimensional_is_refused(self, matrix):
        shape = re.escape(str(matrix.shape))
        with pytest.raises(DimensionMismatchError, match=f"must be square, got {shape}$"):
            DensityMatrix(matrix)

    def test_a_density_matrix_is_read_only(self):
        rho = DensityMatrix(np.eye(2, dtype=complex) / 2)
        with pytest.raises(ValueError, match="read-only"):
            rho.matrix[0, 0] = 1.0

    def test_density_matrix_validation(self):
        with pytest.raises(DimensionMismatchError, match="Hermitian"):
            DensityMatrix(np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex))
        with pytest.raises(DimensionMismatchError, match="trace"):
            DensityMatrix(np.eye(2, dtype=complex))
        with pytest.raises(DimensionMismatchError, match="eigenvalue"):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex))
        with pytest.raises(DimensionMismatchError, match=r"must be square, got \(2, 4\)"):
            DensityMatrix(np.zeros((2, 4), dtype=complex))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_rejected(self, bad):
        with pytest.raises(DimensionMismatchError, match="finite"):
            PureState(np.array([bad, 0.0], dtype=complex))
        with pytest.raises(DimensionMismatchError, match="finite"):
            DensityMatrix(np.array([[bad, 0.0], [0.0, 0.5]], dtype=complex))
        with pytest.raises(DimensionMismatchError, match="party 0 setting 1.*finite"):
            MeasurementModel((((1.0, 0.0, 0.0), (bad, 0.0, 0.0)),))

    def test_states_are_immutable(self, ghz3):
        with pytest.raises(ValueError):
            ghz3.amplitudes[0] = 0.0


class TestModel:
    def test_paper_model_vectors(self, xy_model):
        for party in range(3):
            assert xy_model.bloch[party][0] == (1.0, 0.0, 0.0)
            assert xy_model.bloch[party][1] == (0.0, 1.0, 0.0)

    def test_unit_norms(self, xy_model):
        for row in xy_model.bloch:
            for vector in row:
                assert math.isclose(sum(x * x for x in vector), 1.0, abs_tol=1e-15)

    @pytest.mark.parametrize(
        "bloch,match",
        [
            ((((1.0, 0.0),),), "party 0 setting 0: Bloch vector needs 3 components"),
            ((((1.0, 0.0, 0.0),), ()), "party 1 has no settings"),
            ((), "model has no parties"),
            ((((1.0, 0.0, 0.0),),) * 11, "models are capped at 10 parties"),
            # a model document refuses these too; "1" and True would read as 1.0
            *(
                (
                    (((1.0, 0.0, 0.0), (0.0, bad, 0.0)),),
                    f"party 0 setting 1: Bloch component must be a real number, got {bad!r}",
                )
                for bad in ("1", True, np.True_, None, 1j)
            ),
            (
                (((1.0, 0.0, 0.0), (0.0, 10**400, 0.0)),),
                "party 0 setting 1: Bloch component must be a real number, "
                "got one past the largest float",
            ),
        ],
    )
    def test_malformed_models(self, bloch, match):
        with pytest.raises(DimensionMismatchError, match=f"^{match}$"):
            MeasurementModel(bloch)

    def test_numpy_floats_and_fractions_pass_as_floats(self):
        model = MeasurementModel(
            (((np.float64(1.0), np.float32(0.0), 0), (Fraction(3, 5), np.float64(0.8), 0.0)),)
        )
        assert model.bloch == (((1.0, 0.0, 0.0), (0.6, 0.8, 0.0)),)
        assert {type(x) for row in model.bloch for vector in row for x in vector} == {float}

    def test_bloch_norm_checked(self):
        with pytest.raises(DimensionMismatchError, match="norm"):
            MeasurementModel((((1.0, 1.0, 0.0),),))

    def test_scenario_derivation(self, xy_model):
        assert xy_model.scenario() == TRI
        assert xy_model.scenario() is xy_model.scenario()  # built once, with the model

    def test_the_model_keeps_its_projector_blocks_read_only(self):
        model = MeasurementModel(
            (((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)), ((0.0, 0.0, 1.0),), ((0.6, 0.8, 0.0),))
        )
        assert model.settings_per_party == (2, 1, 1)
        blocks = model._blocks
        assert [block.shape for block in blocks] == [(4, 4), (4, 2), (4, 2)]
        assert not any(block.flags.writeable for block in blocks)


class TestPolarAngles:
    @settings(max_examples=200, deadline=None)
    @given(
        theta=st.floats(0.0, math.pi, exclude_min=True, exclude_max=True),
        phi=st.floats(-math.pi, math.pi, exclude_min=True),
    )
    @example(theta=math.pi / 2, phi=math.pi)
    @example(theta=1e-300, phi=-3.0)
    def test_angles_survive_the_round_trip(self, theta, phi):
        vector = quantum._bloch_from_angles(theta, phi)
        back_theta, back_phi = map(float, quantum._angles_from_bloch(vector))
        # cos(theta) fixes theta to its rounding over sin(theta), ~1.5e-8 at
        # worst near a pole; x and y fix phi to a few ulps until they go subnormal
        sin_theta = math.sin(theta)
        assert abs(back_theta - theta) <= 1e-15 + min(3e-16 / sin_theta, 3e-8)
        assert -math.pi <= back_phi <= math.pi
        if sin_theta > 1e-300:
            assert abs(math.remainder(back_phi - phi, 2 * math.pi)) <= 2e-15

    def test_arrays_turn_back_elementwise(self):
        theta, phi = np.array([[0.5, 1.0], [2.0, 3.0]]), np.array([[-3.0, -1.0], [1.0, 3.0]])
        back_theta, back_phi = quantum._angles_from_bloch(quantum._bloch_from_angles(theta, phi))
        assert back_theta.shape == back_phi.shape == (2, 2)
        assert np.allclose(back_theta, theta, atol=1e-15)
        assert np.allclose(back_phi, phi, atol=1e-15)


class TestJointProbability:
    def test_xxx_all_ones(self, ghz3, xy_model):
        assert joint_probability(ghz3, xy_model, (0, 0, 0), (1, 1, 1)) == pytest.approx(
            0.25, abs=1e-12
        )

    def test_xxx_odd_excluded(self, ghz3, xy_model):
        assert joint_probability(ghz3, xy_model, (0, 0, 0), (1, 0, 1)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_yyy_uniform(self, ghz3, xy_model):
        for outcomes in product((0, 1), repeat=3):
            assert joint_probability(
                ghz3, xy_model, (1, 1, 1), outcomes
            ) == pytest.approx(0.125, abs=1e-12)

    def test_dimension_mismatch(self, xy_model):
        with pytest.raises(DimensionMismatchError):
            joint_probability(ghz_state(2), xy_model, (0, 0, 0), (0, 0, 0))

    @pytest.mark.parametrize("seed", range(20))
    def test_normalization_on_random_states_and_models(self, seed):
        rng = np.random.default_rng(1000 + seed)
        state = PureState(oracles.random_pure_amplitudes(rng, 3))
        model = oracles.random_model(rng)
        for settings in product((0, 1), repeat=3):
            total = sum(
                joint_probability(state, model, settings, outcomes)
                for outcomes in product((0, 1), repeat=3)
            )
            assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_no_signaling_marginals(self, seed):
        rng = np.random.default_rng(2000 + seed)
        state = PureState(oracles.random_pure_amplitudes(rng, 3))
        model = oracles.random_model(rng)
        table = {
            settings: {
                outcomes: joint_probability(state, model, settings, outcomes)
                for outcomes in product((0, 1), repeat=3)
            }
            for settings in product((0, 1), repeat=3)
        }
        parties = (0, 1, 2)
        for kept in [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]:
            dropped = [p for p in parties if p not in kept]
            for kept_settings in product((0, 1), repeat=len(kept)):
                for kept_outcomes in product((0, 1), repeat=len(kept)):
                    marginals = []
                    for other_settings in product((0, 1), repeat=len(dropped)):
                        settings = [0, 0, 0]
                        for p, s in zip(kept, kept_settings):
                            settings[p] = s
                        for p, s in zip(dropped, other_settings):
                            settings[p] = s
                        total = 0.0
                        for other_outcomes in product((0, 1), repeat=len(dropped)):
                            outcomes = [0, 0, 0]
                            for p, o in zip(kept, kept_outcomes):
                                outcomes[p] = o
                            for p, o in zip(dropped, other_outcomes):
                                outcomes[p] = o
                            total += table[tuple(settings)][tuple(outcomes)]
                        marginals.append(total)
                    assert max(marginals) - min(marginals) <= 1e-12


class TestProbabilityTable:
    @settings(max_examples=40, deadline=None)
    @given(
        settings_per_party=st.lists(st.integers(1, 3), min_size=2, max_size=4),
        mixed=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_kron_oracle(self, settings_per_party, mixed, seed):
        rng = np.random.default_rng(seed)
        parties = len(settings_per_party)
        if mixed:
            density = oracles.random_density_matrix(rng, parties, int(rng.integers(1, 5)))
            state = DensityMatrix(density)
        else:
            amplitudes = oracles.random_pure_amplitudes(rng, parties)
            density = np.outer(amplitudes, amplitudes.conj())
            state = PureState(amplitudes)
        model = MeasurementModel(
            tuple(
                tuple(oracles.random_bloch(rng) for _ in range(count))
                for count in settings_per_party
            )
        )
        table = probability_table(state, model)
        assert table.shape == tuple(settings_per_party) + (2,) * parties
        reference = oracles.kron_probability_table(density, model)
        assert np.max(np.abs(table - reference)) <= 1e-12
        outcome_axes = tuple(range(parties, 2 * parties))
        assert np.max(np.abs(table.sum(axis=outcome_axes) - 1.0)) <= 1e-12
        # no signalling: summing out party q's outcome leaves no trace of its setting
        for q in range(parties):
            marginal = table.sum(axis=parties + q)
            assert np.max(np.ptp(marginal, axis=q)) <= 1e-12

    def test_ten_parties_with_two_settings_fit_under_the_cap(self):
        xy = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
        table = probability_table(ghz_state(10), MeasurementModel((xy,) * 10))
        assert table.shape == (2,) * 20
        # GHZ_10 gives outcome parity +1 with certainty when every party measures X
        all_x = table[(0,) * 10]
        even_zeros = [o for o in product((0, 1), repeat=10) if o.count(0) % 2 == 0]
        assert sum(all_x[o] for o in even_zeros) == pytest.approx(1.0, abs=1e-12)

    def test_a_state_with_more_qubits_than_the_model_has_parties_is_refused(self):
        with pytest.raises(DimensionMismatchError, match="state spans 4 qubits"):
            probability_table(ghz_state(4), paper_model())

    def test_size_guard_names_the_size(self):
        xyz = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
        with pytest.raises(DimensionMismatchError, match=r"60466176 complex entries \(923 MiB\)"):
            probability_table(ghz_state(10), MeasurementModel((xyz,) * 10))


class TestCorrelator:
    def test_ghz_stabilizer_values(self, ghz3, xy_model):
        assert correlator(ghz3, xy_model, (0, 0, 0)) == pytest.approx(1.0, abs=1e-12)
        assert correlator(ghz3, xy_model, (0, 1, 1)) == pytest.approx(-1.0, abs=1e-12)
        assert correlator(ghz3, xy_model, (1, 1, 1)) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_observable_expectation_oracle(self, seed):
        rng = np.random.default_rng(3000 + seed)
        amplitudes = oracles.random_pure_amplitudes(rng, 3)
        model = oracles.random_model(rng)
        state = PureState(amplitudes)
        for settings in product((0, 1), repeat=3):
            expected = oracles.observable_expectation(
                amplitudes, [model.bloch[p][settings[p]] for p in range(3)]
            )
            assert correlator(state, model, settings) == pytest.approx(
                expected, abs=1e-12
            )

    def test_parity_signs_are_built_once_from_the_scenario_rule(self):
        signs = _parity_signs(3)
        assert signs is _parity_signs(3)
        assert not signs.flags.writeable
        converted = correlator_to_probability(make_correlator_expression(TRI, [((0, 1, 0), 1)]))
        for outcomes in product((0, 1), repeat=3):
            assert signs[outcomes] == converted.coefficient((0, 1, 0), outcomes)


def _key_kinds(key):
    """One key as a tuple, a list, a numpy array and a generator."""
    return [tuple(key), list(key), np.array(key), (index for index in key)]


@st.composite
def states_and_models(draw):
    """A pure state, its mixture with white noise or a random mixed state, on
    2-4 parties, and a random Bloch model with 1-3 settings per party."""
    parties = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["pure", "noisy", "mixed"]))
    if kind == "mixed":
        state = DensityMatrix(oracles.random_density_matrix(rng, parties, draw(st.integers(1, 4))))
    else:
        state = PureState(oracles.random_pure_amplitudes(rng, parties))
    if kind == "noisy":
        state = mix_with_white_noise(state, draw(st.floats(0.0, 1.0)))
    counts = draw(st.lists(st.integers(1, 3), min_size=parties, max_size=parties))
    model = MeasurementModel(tuple(tuple(oracles.random_bloch(rng) for _ in range(n)) for n in counts))
    return state, model


class TestPointReads:
    """A joint probability and a correlator are each the one term value of
    ``expression_value`` on a one-term expression."""

    def test_every_key_kind_reads_the_same_float(self, ghz3, xy_model):
        settings, outcomes = (0, 1, 1), (1, 1, 0)
        expected = joint_probability(ghz3, xy_model, settings, outcomes)
        assert expected == pytest.approx(0.25, abs=1e-12)
        for s, o in zip(_key_kinds(settings), _key_kinds(outcomes)):
            assert joint_probability(ghz3, xy_model, s, o).hex() == expected.hex()
        expected = correlator(ghz3, xy_model, settings)
        assert expected == pytest.approx(-1.0, abs=1e-12)
        for s in _key_kinds(settings):
            assert correlator(ghz3, xy_model, s).hex() == expected.hex()

    @pytest.mark.parametrize(
        "read",
        [
            lambda state, model: joint_probability(state, model, (0, 0, 2), (0, 0, 0)),
            lambda state, model: joint_probability(state, model, [0, 0], [0, 0]),
            lambda state, model: correlator(state, model, (0, 0, 2)),
            lambda state, model: correlator(state, model, np.array([0, 0])),
        ],
        ids=["probability-range", "probability-length", "correlator-range", "correlator-length"],
    )
    def test_the_key_is_checked_before_the_state(self, xy_model, read):
        with pytest.raises(ScenarioError):
            read(ghz_state(2), xy_model)

    def test_a_non_integer_key_is_named(self, ghz3, xy_model):
        with pytest.raises(ScenarioError, match=r"index 0.5 is not an integer"):
            joint_probability(ghz3, xy_model, (x for x in (0, 0.5, 0)), (0, 0, 0))
        with pytest.raises(ScenarioError, match=r"index '1' is not an integer"):
            correlator(ghz3, xy_model, [0, "1", 0])

    @settings(max_examples=60, deadline=None)
    @given(pair=states_and_models(), data=st.data())
    def test_point_reads_match_the_table_and_the_loop(self, pair, data):
        state, model = pair
        table = probability_table(state, model)
        binary = model.scenario()
        keys = st.tuples(*(st.integers(0, n - 1) for n in binary.settings_per_party))
        for settings in data.draw(st.lists(keys, min_size=1, max_size=4)):
            for outcomes in product((0, 1), repeat=binary.parties):
                read = joint_probability(state, model, settings, outcomes)
                assert read.hex() == float(table[settings + outcomes]).hex()
            unit = make_correlator_expression(binary, [(settings, 1)])
            expected = oracles.correlator_values_by_loop(unit, table)
            assert [correlator(state, model, settings)] == expected

    def test_point_reads_take_the_expression_path(
        self, monkeypatch, call_counts, ghz3, xy_model
    ):
        def refuse(*args):
            raise AssertionError("probability_table called")

        monkeypatch.setattr(quantum, "probability_table", refuse)
        reads = [joint_probability(ghz3, xy_model, (0, 0, 0), o) for o in product((0, 1), repeat=3)]
        assert math.fsum(reads) == pytest.approx(1.0, abs=1e-12)
        assert call_counts["expression_value"] == 8
        assert correlator(ghz3, xy_model, (1, 1, 0)) == pytest.approx(-1.0, abs=1e-12)
        assert call_counts["expression_value"] == 9


class TestExpressionValue:
    def test_g_paper_value_and_breakdown(self, g_expr, ghz3, xy_model):
        valuation = expression_value(g_expr, ghz3, xy_model)
        assert valuation.value == pytest.approx(3.5, abs=1e-9)
        assert len(valuation.breakdown) == 20
        for got, expected in zip(valuation.breakdown, G_BREAKDOWN):
            assert got == pytest.approx(expected, abs=1e-9)

    def test_signed_mermin_value(self, mermin_expr, ghz3, xy_model):
        valuation = expression_value(mermin_expr, ghz3, xy_model)
        assert valuation.value == pytest.approx(-4.0, abs=1e-9)
        assert abs(valuation.value) == pytest.approx(4.0, abs=1e-9)

    def test_g_paper_on_maximally_mixed_state(self, g_expr, xy_model):
        mixed = DensityMatrix(np.eye(8, dtype=complex) / 8)
        valuation = expression_value(g_expr, mixed, xy_model)
        assert valuation.value == pytest.approx(-1.5, abs=1e-12)

    def test_scenario_mismatch(self, g_expr, ghz3):
        lopsided = MeasurementModel(
            (((1.0, 0.0, 0.0),), ((1.0, 0.0, 0.0),), ((1.0, 0.0, 0.0),))
        )
        with pytest.raises(ScenarioMismatchError):
            expression_value(g_expr, ghz3, lopsided)


class TestWhiteNoiseMixing:
    def test_zero_noise_preserves_probabilities(self, ghz3, xy_model):
        mixed = mix_with_white_noise(ghz3, 0.0)
        for settings in product((0, 1), repeat=3):
            for outcomes in product((0, 1), repeat=3):
                assert joint_probability(
                    mixed, xy_model, settings, outcomes
                ) == pytest.approx(
                    joint_probability(ghz3, xy_model, settings, outcomes), abs=1e-12
                )

    def test_full_noise_is_uniform(self, ghz3, xy_model):
        mixed = mix_with_white_noise(ghz3, 1.0)
        for outcomes in product((0, 1), repeat=3):
            assert joint_probability(
                mixed, xy_model, (0, 1, 0), outcomes
            ) == pytest.approx(0.125, abs=1e-12)

    def test_half_noise_g_value(self, g_expr, ghz3, xy_model):
        mixed = mix_with_white_noise(ghz3, 0.5)
        valuation = expression_value(g_expr, mixed, xy_model)
        # linearity: (1-p) * 3.5 + p * (-12/8)
        assert valuation.value == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("bad", [True, np.True_, "0.5", None, 0.5j])
    def test_a_fraction_that_is_not_a_real_number_is_refused(self, ghz3, bad):
        match = "^noise fraction must be a real number, got "
        with pytest.raises(DimensionMismatchError, match=match):
            mix_with_white_noise(ghz3, bad)

    def test_a_fraction_past_the_largest_float_is_refused_by_name(self, ghz3):
        match = "^noise fraction must be a real number, got one past the largest float$"
        with pytest.raises(DimensionMismatchError, match=match):
            mix_with_white_noise(ghz3, 10**400)

    def test_p_out_of_range(self, ghz3):
        with pytest.raises(DimensionMismatchError):
            mix_with_white_noise(ghz3, 1.5)
        with pytest.raises(DimensionMismatchError):
            mix_with_white_noise(ghz3, -0.1)

    @settings(max_examples=40, deadline=None)
    @given(
        parties=st.integers(1, 4),
        rank=st.integers(0, 4),
        p=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_a_mixture_passes_every_state_check(self, parties, rank, p, seed):
        # the mixture skips the constructor's checks; rank 0 mixes a pure state
        rng = np.random.default_rng(seed)
        if rank:
            state = DensityMatrix(oracles.random_density_matrix(rng, parties, rank))
        else:
            state = PureState(oracles.random_pure_amplitudes(rng, parties))
        mixed = mix_with_white_noise(state, p)
        assert not mixed.matrix.flags.writeable
        np.testing.assert_array_equal(DensityMatrix(mixed.matrix).matrix, mixed.matrix)

    def test_mixing_a_mixed_state_composes(self, ghz3):
        # (1 - b)((1 - a) rho + a I/d) + b I/d mixes rho with 1 - (1 - a)(1 - b)
        twice = mix_with_white_noise(mix_with_white_noise(ghz3, 0.2), 0.5)
        once = mix_with_white_noise(ghz3, 0.6)
        np.testing.assert_allclose(twice.matrix, once.matrix, atol=1e-15)

    def test_value_is_affine_in_p(self, g_expr, ghz3, xy_model):
        points = []
        for p in (0.1, 0.45, 0.8):
            mixed = mix_with_white_noise(ghz3, p)
            points.append((p, expression_value(g_expr, mixed, xy_model).value))
        (x0, y0), (x1, y1), (x2, y2) = points
        interpolated = y0 + (y2 - y0) * (x1 - x0) / (x2 - x0)
        assert abs(interpolated - y1) < 1e-10


class TestViolationReport:
    def test_g_paper(self, g_expr, ghz3, xy_model):
        report = violation_report(g_expr, ghz3, xy_model)
        assert report.quantum_value == pytest.approx(3.5, abs=1e-9)
        assert report.local_max == 1
        assert report.violation_factor == pytest.approx(3.5, abs=1e-9)
        assert report.violation_amount == pytest.approx(2.5, abs=1e-9)
        assert report.violated

    def test_mermin_by_magnitude(self, mermin_expr, ghz3, xy_model):
        report = violation_report(mermin_expr, ghz3, xy_model, magnitude=True)
        assert report.quantum_value == pytest.approx(4.0, abs=1e-9)
        assert report.local_max == 2
        assert report.violation_factor == pytest.approx(2.0, abs=1e-9)
        assert report.violation_amount == pytest.approx(2.0, abs=1e-9)

    def test_non_violating_expression(self, ghz3, xy_model):
        expr = make_expression(TRI, [MarginalTerm((0, 0, 0), (1, 1, 1), 1)])
        report = violation_report(expr, ghz3, xy_model)
        assert report.violation_amount < 0
        assert report.violation_factor < 1
        assert not report.violated

    def test_factor_absent_when_local_max_not_positive(self, ghz3, xy_model):
        expr = make_expression(TRI, [])
        report = violation_report(expr, ghz3, xy_model)
        assert report.violation_factor is None
        assert not report.violated


class TestModelDocuments:
    def test_ghz_with_bloch_vectors(self, g_expr, xy_model):
        document = {
            "state": "ghz",
            "measurements": [
                [{"bloch": [1, 0, 0]}, {"bloch": [0, 1, 0]}] for _ in range(3)
            ],
        }
        state, model = parse_model(json.dumps(document))
        assert isinstance(state, PureState)
        assert model.bloch == xy_model.bloch
        assert expression_value(g_expr, state, model).value == pytest.approx(
            3.5, abs=1e-9
        )

    def test_angle_entries(self):
        document = {
            "state": "ghz",
            "measurements": [
                [{"angles": [math.pi / 2, 0.0]}, {"angles": [math.pi / 2, math.pi / 2]}]
                for _ in range(3)
            ],
        }
        _, model = parse_model(json.dumps(document))
        for party in range(3):
            assert model.bloch[party][0][0] == pytest.approx(1.0, abs=1e-12)
            assert model.bloch[party][1][1] == pytest.approx(1.0, abs=1e-12)

    def test_explicit_amplitudes(self):
        amplitude = 1 / math.sqrt(2)
        document = {
            "state": {"amplitudes": [[amplitude, 0], [0, 0], [0, 0], [0, -amplitude]]},
            "measurements": [[{"bloch": [0, 0, 1]}] for _ in range(2)],
        }
        state, model = parse_model(json.dumps(document))
        assert state.parties == 2
        assert model.parties == 2

    @pytest.mark.parametrize("seed", [None, 0, 1])
    def test_the_written_document_reads_back(self, seed):
        # what optimize emits: angles per party and setting, on GHZ or on a state
        rng = np.random.default_rng(seed)
        angles = ((tuple(rng.uniform(0, 3, 2)),) * 2, (tuple(rng.uniform(0, 3, 2)),) * 3)
        state = None if seed is None else PureState(oracles.random_pure_amplitudes(rng, 2))
        read_state, model = parse_model(json.dumps(quantum._model_document(angles, state)))
        expected = [[tuple(quantum._bloch_from_angles(*pair)) for pair in row] for row in angles]
        assert [list(row) for row in model.bloch] == expected
        amplitudes = (ghz_state(2) if state is None else state).amplitudes
        assert np.array_equal(read_state.amplitudes, amplitudes)

    @pytest.mark.parametrize(
        "document,match",
        [
            ("not json", "not valid JSON"),
            ("[]", "JSON object"),
            ('{"state": "ghz"}', "measurements"),
            ('{"measurements": [[{"bloch": [1, 0, 0]}]]}', "state"),
            (
                '{"state": "ghz", "measurements": [[{"spin": [1, 0, 0]}]]}',
                "unknown measurement key",
            ),
            (
                '{"state": "w", "measurements": [[{"bloch": [1, 0, 0]}], [{"bloch": [1, 0, 0]}]]}',
                "state",
            ),
            (
                '{"state": {"amplitudes": [[1, 0], [0, 0]]}, '
                '"measurements": [[{"bloch": [1, 0, 0]}], [{"bloch": [1, 0, 0]}]]}',
                "1 qubits but the model has 2",
            ),
            pytest.param(
                '{"state": "ghz", "measurements": [[{"bloch": [1, 0, 0]}]]}',
                "^a GHZ state needs at least two parties$",
                id="one-party-ghz",
            ),
            (
                '{"state": "ghz", "measurements": [[{"bloch": [NaN, 0, 0]}]]}',
                "party 0 setting 0: 'bloch' must be 3 finite numbers",
            ),
            (
                '{"state": {"amplitudes": [[NaN, 0], [0, 0]]}, '
                '"measurements": [[{"bloch": [1, 0, 0]}]]}',
                "amplitudes must be finite",
            ),
            (
                '{"state": "ghz", "measurements": [[{"bloch": null}]]}',
                "party 0 setting 0: 'bloch' must be 3 finite numbers, got None",
            ),
            (
                '{"state": "ghz", "measurements": '
                '[[{"bloch": [1, 0, 0]}, {"angles": [Infinity, 0]}]]}',
                "party 0 setting 1: 'angles' must be 2 finite numbers",
            ),
            pytest.param(
                '{"state": "ghz", "measurements": [[{"bloch": [1%s, 0, 0]}]]}' % ("0" * 400),
                "party 0 setting 0: 'bloch' must be 3 finite numbers",
                id="bloch-too-large-for-a-float",
            ),
            pytest.param(
                '{"state": "ghz", "measurements": '
                '[[{"bloch": [1, 0, 0]}, {"angles": [0, 1%s]}]]}' % ("0" * 400),
                "party 0 setting 1: 'angles' must be 2 finite numbers",
                id="angles-too-large-for-a-float",
            ),
            pytest.param(
                '{"state": {"amplitudes": [[1%s, 0], [0, 0]]}, '
                '"measurements": [[{"bloch": [1, 0, 0]}]]}' % ("0" * 400),
                "bad amplitude list",
                id="amplitude-too-large-for-a-float",
            ),
            pytest.param("[" * 200000 + "]" * 200000, "nested too deeply", id="nested"),
            pytest.param(
                '{"state": "ghz", "measurements": [[{"bloch": [1%s, 0, 0]}]]}' % ("0" * 5000),
                "number too long: more than 4300 digits",
                id="integer-past-the-digit-limit",
            ),
            # numbers must be JSON numbers: no booleans, no strings
            pytest.param(
                '{"state": "ghz", "measurements": [[{"bloch": [true, false, false]}]]}',
                r"'bloch' must be 3 finite numbers, got \[True, False, False\]",
                id="bloch-booleans",
            ),
            pytest.param(
                '{"state": "ghz", "measurements": [[{"bloch": ["0", "1", "0"]}]]}',
                r"'bloch' must be 3 finite numbers, got \['0', '1', '0'\]",
                id="bloch-strings",
            ),
            pytest.param(
                '{"state": "ghz", "measurements": [[{"angles": [true, "0"]}]]}',
                "'angles' must be 2 finite numbers",
                id="angles-boolean-and-string",
            ),
            pytest.param(
                '{"state": {"amplitudes": [["0.7071067811865476", false], '
                '[0.7071067811865476, 0]]}, "measurements": [[{"bloch": [1, 0, 0]}]]}',
                "bad amplitude list: expected a list of numbers",
                id="amplitude-string-and-boolean",
            ),
            ('{"state": "ghz", "measurements": []}', "'measurements' must be a non-empty list"),
            ('{"state": "ghz", "measurements": {}}', "'measurements' must be a non-empty list"),
            ('{"state": "ghz", "measurements": [[]]}', "party 0: expected a non-empty list"),
            (
                '{"state": "ghz", "measurements": [[{"bloch": [1, 0, 0]}], 5]}',
                "party 1: expected a non-empty list",
            ),
            (
                '{"state": "ghz", "measurements": [[{"bloch": [1, 0, 0], "angles": [0, 0]}]]}',
                r"party 0 setting 0: expected \{'bloch'",
            ),
            ('{"state": "ghz", "measurements": [[[1, 0, 0]]]}', r"party 0 setting 0: expected"),
            (
                '{"state": "ghz", "measurements": [[{"bloch": [2, 0, 0]}]]}',
                "party 0 setting 0: Bloch norm 2.0 is not 1",
            ),
            (
                '{"state": "ghz", "measurements": %s}' % json.dumps([[{"bloch": [0, 0, 1]}]] * 11),
                "models are capped at 10 parties",
            ),
        ],
    )
    def test_malformed_documents(self, document, match):
        with pytest.raises(ParseError, match=match):
            parse_model(document)


rationals = st.fractions(-9, 9, max_denominator=12)


@st.composite
def binary_expressions(draw, correlator=False, scenario=None):
    """Up to 8 rational terms, in probability form or, with ``correlator``, in
    correlator form, over ``scenario`` or over 1-5 parties with 2-3 binary
    settings each."""
    if scenario is None:
        parties = draw(st.integers(1, 5))
        settings_per_party = draw(st.lists(st.integers(2, 3), min_size=parties, max_size=parties))
        scenario = Scenario(parties, settings_per_party, [(2,) * n for n in settings_per_party])
    parties = scenario.parties
    settings_tuples = st.tuples(*(st.integers(0, n - 1) for n in scenario.settings_per_party))
    if correlator:
        terms = draw(st.lists(st.tuples(settings_tuples, rationals), max_size=8))
        return make_correlator_expression(scenario, terms)
    outcome_tuples = st.tuples(*(st.integers(0, 1) for _ in range(parties)))
    terms = draw(st.lists(st.tuples(settings_tuples, outcome_tuples, rationals), max_size=8))
    return make_expression(scenario, [MarginalTerm(*term) for term in terms])


@st.composite
def expression_pairs(draw):
    """Two expressions of one form over one scenario."""
    correlator = draw(st.booleans())
    expr = draw(binary_expressions(correlator))
    return expr, draw(binary_expressions(correlator, expr.scenario))


def random_state_and_model(scenario, seed, rank):
    """A random state, pure for rank 0 and mixed of that rank otherwise, and a
    random model over the scenario's settings."""
    rng = np.random.default_rng(seed)
    if rank:
        state = DensityMatrix(oracles.random_density_matrix(rng, scenario.parties, rank))
    else:
        state = PureState(oracles.random_pure_amplitudes(rng, scenario.parties))
    model = MeasurementModel(
        tuple(tuple(oracles.random_bloch(rng) for _ in range(n)) for n in scenario.settings_per_party)
    )
    return state, model


EMPTY = make_expression(TRI, [])


@settings(max_examples=60, deadline=None)
@given(expr=binary_expressions(), seed=st.integers(0, 2**32 - 1), rank=st.integers(0, 3))
@example(expr=EMPTY, seed=0, rank=0)
def test_probability_values_match_the_table(expr, seed, rank):
    state, model = random_state_and_model(expr.scenario, seed, rank)
    table = probability_table(state, model)
    expected = [float(table[settings + outcomes]) for settings, outcomes in expr.terms]
    valuation = expression_value(expr, state, model)
    assert list(valuation.term_values) == expected
    assert [joint_probability(state, model, *key) for key in expr.terms] == expected
    products = [float(c) * v for c, v in zip(expr.terms.values(), expected)]
    assert list(valuation.breakdown) == products
    assert valuation.value == math.fsum(products)


class TestKeptTableLookup:
    """An expression compiles its table reads on first evaluation and keeps them."""

    def test_values_are_gathered_without_the_probability_table(
        self, monkeypatch, g_expr, mermin_expr, ghz3, xy_model
    ):
        expected = [expression_value(e, ghz3, xy_model) for e in (g_expr, mermin_expr)]

        def refuse(*args):
            raise AssertionError("probability_table called")

        monkeypatch.setattr(quantum, "probability_table", refuse)
        assert [expression_value(e, ghz3, xy_model) for e in (g_expr, mermin_expr)] == expected
        assert correlator(ghz3, xy_model, (0, 1, 1)) == expected[1].term_values[0]

    @settings(max_examples=40, deadline=None)
    @given(
        pair=expression_pairs(),
        seed=st.integers(0, 2**32 - 1),
        rank=st.integers(0, 3),
    )
    def test_derived_expressions_get_their_own_values(self, pair, seed, rank):
        expr, other = pair
        state, model = random_state_and_model(expr.scenario, seed, rank)
        value = expression_value(expr, state, model)  # compiles and keeps expr's lookup
        doubled = expression_value(expr.scale(2), state, model)
        assert doubled.term_values == value.term_values
        assert doubled.breakdown == tuple(2 * b for b in value.breakdown)
        assert doubled.value == 2 * value.value
        negated = expression_value(-expr, state, model)
        assert negated.breakdown == tuple(-b for b in value.breakdown)
        assert negated.value == -value.value
        total = expr + other
        summed = expression_value(total, state, model)
        by_key = dict(zip(expr.terms, value.term_values))
        by_key.update(zip(other.terms, expression_value(other, state, model).term_values))
        assert list(summed.term_values) == [by_key[key] for key in total.terms]


# amplitude parts: exact zeros of either sign, and values of either sign
amplitude_parts = st.one_of(st.sampled_from([0.0, -0.0, 0.6, -0.8]), st.floats(-1.0, 1.0))


@st.composite
def amplitude_vectors(draw):
    """Unit amplitudes over 1-4 qubits: real with mixed signs and exact zeros, or complex."""
    dim = 2 ** draw(st.integers(1, 4))
    parts = st.lists(amplitude_parts, min_size=dim, max_size=dim)
    amplitudes = np.array(draw(parts), dtype=complex)
    if draw(st.booleans()):
        amplitudes += 1j * np.array(draw(parts))
    norm = np.linalg.norm(amplitudes)
    if not norm > 1e-3:
        amplitudes = np.zeros(dim, dtype=complex)
        amplitudes[draw(st.integers(0, dim - 1))] = -1.0
        norm = 1.0
    return amplitudes / norm


@st.composite
def bloch_rows(draw, parties):
    """Per party 1-3 unit Bloch vectors, axis-aligned ones of either sign among them."""
    axes = [tuple(sign * (axis == k) for k in range(3)) for axis in range(3) for sign in (1.0, -1.0)]
    vectors = st.one_of(
        st.sampled_from(axes),
        st.integers(0, 2**32 - 1).map(lambda seed: oracles.random_bloch(np.random.default_rng(seed))),
    )
    return tuple(tuple(draw(st.lists(vectors, min_size=1, max_size=3))) for _ in range(parties))


class TestInputsBuiltOnce:
    """States and models build the engine's inputs once, with the bytes each
    evaluation used to rebuild; ``tobytes`` compares signed zeros too."""

    @settings(max_examples=80, deadline=None)
    @given(amplitudes=amplitude_vectors())
    @example(amplitudes=np.array([0.6, -0.8, 0, 0], dtype=complex))
    def test_a_pure_state_matches_the_outer_product(self, amplitudes):
        state = PureState(amplitudes)
        density = oracles.pure_density_by_outer(state.amplitudes)
        assert state.density().tobytes() == density.tobytes()
        settings_per_party = (1,) * state.parties
        paired = quantum._paired_density(state, settings_per_party)
        assert paired.tobytes() == oracles.paired_density_by_transpose(density).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(amplitudes=amplitude_vectors())
    def test_a_pure_state_keeps_one_read_only_density(self, amplitudes):
        state = PureState(amplitudes)
        density = state.density()
        assert state.density() is density
        assert not density.flags.writeable
        assert density.tobytes() == oracles.pure_density_by_outer(state.amplitudes).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        parties=st.integers(1, 4),
        rank=st.integers(1, 4),
        fortran=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_a_density_matrix_matches_the_transposed_copy(self, parties, rank, fortran, seed):
        matrix = oracles.random_density_matrix(np.random.default_rng(seed), parties, rank)
        state = DensityMatrix(np.asfortranarray(matrix) if fortran else matrix)
        assert state.parties == parties
        paired = quantum._paired_density(state, (1,) * parties)
        assert paired.tobytes() == oracles.paired_density_by_transpose(matrix).tobytes()

    @settings(max_examples=80, deadline=None)
    @given(
        amplitudes=amplitude_vectors(),
        rank=st.integers(0, 3),
        fortran=st.booleans(),
        p=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(amplitudes=np.array([0.6, -0.8, 0, 0], dtype=complex), rank=0, fortran=False,
             p=0.25, seed=0)
    def test_mixing_matches_adding_the_scaled_identity(self, amplitudes, rank, fortran, p, seed):
        # rank 0 mixes the pure state; otherwise a random mixed state of its size
        if rank:
            parties = amplitudes.size.bit_length() - 1
            density = oracles.random_density_matrix(np.random.default_rng(seed), parties, rank)
            state = DensityMatrix(np.asfortranarray(density) if fortran else density)
        else:
            state = PureState(amplitudes)
            density = oracles.pure_density_by_outer(state.amplitudes)
        mixed = mix_with_white_noise(state, p)
        assert mixed.parties == state.parties
        assert mixed.matrix.tobytes() == oracles.white_noise_by_identity(density, p).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), parties=st.integers(1, 4))
    def test_projector_blocks_match_the_per_call_stack(self, data, parties):
        rows = data.draw(bloch_rows(parties))
        model = MeasurementModel(rows)
        settings_per_party = tuple(map(len, rows))
        columns = np.array([vector for row in rows for vector in row]).T
        expected = oracles.projectors_from_bloch_columns(columns, settings_per_party)
        trial = quantum._projector_blocks(columns, model.scenario())  # the optimizer's call
        # the optimizer's rebuild of one party's block after that party's step
        offsets = pairwise(model.scenario().slot_offsets)
        stepped = [quantum._projectors(columns[:, lo:hi]) for lo, hi in offsets]
        for blocks in (model._blocks, trial, stepped):
            assert [block.tobytes() for block in blocks] == [block.tobytes() for block in expected]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), rank=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
    def test_tables_match_the_per_call_inputs(self, data, rank, seed):
        amplitudes = data.draw(amplitude_vectors())
        parties = amplitudes.size.bit_length() - 1
        if rank:
            density = oracles.random_density_matrix(np.random.default_rng(seed), parties, rank)
            state = DensityMatrix(density)
        else:
            state = PureState(amplitudes)
            density = oracles.pure_density_by_outer(state.amplitudes)
        rows = data.draw(bloch_rows(parties))
        model = MeasurementModel(rows)
        columns = np.array([vector for row in rows for vector in row]).T
        reference = quantum._table(
            oracles.paired_density_by_transpose(density),
            oracles.projectors_from_bloch_columns(columns, model.settings_per_party),
        )
        assert quantum._flat_table(state, model).tobytes() == reference.tobytes()


class _NumpyRefusing:
    """numpy, except that the named functions raise when called."""

    def __init__(self, *names):
        self.names = names

    def __getattr__(self, name):
        if name in self.names:

            def refuse(*args, **kwargs):
                raise AssertionError(f"numpy.{name} called")

            return refuse
        return getattr(np, name)


def test_evaluations_build_no_outer_product_identity_or_projectors(
    monkeypatch, g_expr, mermin_expr, xy_model
):
    built = []
    build_blocks = quantum._projector_blocks
    monkeypatch.setattr(
        quantum, "_projector_blocks", lambda *args: built.append(args) or build_blocks(*args)
    )
    model = MeasurementModel(xy_model.bloch)
    state = ghz_state(3)
    expected = [expression_value(expr, state, xy_model) for expr in (g_expr, mermin_expr)]
    monkeypatch.setattr(quantum, "np", _NumpyRefusing("outer", "eye"))
    for _ in range(2):
        assert [expression_value(expr, state, model) for expr in (g_expr, mermin_expr)] == expected
    assert mix_with_white_noise(state, 0.25).parties == 3
    assert white_noise_tolerance(g_expr, state, model).p_critical == pytest.approx(0.5, abs=1e-12)
    assert tolerance_by_root_scan(g_expr, state, model) == pytest.approx(0.5, abs=1e-9)
    assert len(built) == 1  # the model's own blocks, however many evaluations follow
