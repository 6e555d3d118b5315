import sys
from fractions import Fraction
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellkit import (
    BellExpression,
    CorrelatorExpression,
    MarginalTerm,
    Scenario,
    ScenarioError,
    ScenarioMismatchError,
    UnknownBuiltinError,
    UnsupportedScenarioError,
    builtin_expression,
    builtin_magnitude,
    builtin_names,
    as_probability_form,
    correlator_to_probability,
    make_correlator_expression,
    make_expression,
    parse_expression,
    serialize_expression,
)

import oracles

TRI = Scenario.uniform(3, 2, 2)


class TestScenario:
    def test_uniform_constructor(self):
        assert TRI.parties == 3
        assert TRI.settings_per_party == (2, 2, 2)
        assert TRI.outcomes_per_setting == ((2, 2), (2, 2), (2, 2))
        assert TRI.is_binary
        assert TRI.assignment_count == 64

    def test_heterogeneous_scenario(self):
        s = Scenario(2, (1, 3), ((2,), (2, 3, 4)))
        assert s.assignment_count == 2 * 2 * 3 * 4
        assert not s.is_binary
        assert s.uniform_cardinalities() is None

    @pytest.mark.parametrize(
        "parties,settings,outcomes",
        [
            (0, (), ()),
            (1, (0,), ((),)),
            (1, (1,), ((1,),)),
            (2, (1,), ((2,), (2,))),
            (1, (2,), ((2,),)),
        ],
    )
    def test_invalid_scenarios(self, parties, settings, outcomes):
        with pytest.raises(ScenarioError):
            Scenario(parties, settings, outcomes)

    def test_a_party_count_that_is_not_an_integer_is_refused_by_name(self):
        with pytest.raises(ScenarioError, match="^index 2.5 is not an integer$"):
            Scenario.uniform(2.5, 2, 2)

    def test_outcome_rows_that_differ_make_a_scenario_non_uniform(self):
        # every party has two settings; only one setting has three outcomes
        assert Scenario(2, (2, 2), ((2, 2), (2, 3))).uniform_cardinalities() is None
        assert Scenario(2, (2, 2), ((2, 2), (2, 2))).uniform_cardinalities() == (2, 2, 2)

    @pytest.mark.parametrize(
        "settings,outcomes",
        [((0, 0), (1, 1, 1)), ((0, 0, 0), (1, 1))],
        ids=["settings", "outcomes"],
    )
    def test_a_term_key_with_one_side_of_the_wrong_length_is_refused(self, settings, outcomes):
        with pytest.raises(ScenarioError, match="^term must list one setting and one outcome"):
            TRI.validate_term(settings, outcomes)

    def test_slot_order(self):
        assert TRI.slots() == ((0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1))

    def test_slot_layout(self):
        s = Scenario(2, (1, 3), ((2,), (2, 3, 4)))
        assert s.slot_outcomes == (2, 2, 3, 4)
        assert s.setting_slots((0, 2)) == (0, 3)
        assert [s.slots()[i] for i in s.setting_slots((0, 1))] == [(0, 0), (1, 1)]
        assert s.split_slots(("a", "b", "c", "d")) == (("a",), ("b", "c", "d"))
        assert Scenario.uniform(1, 2, 2).split_slots((0, 1)) == ((0, 1),)

    def test_table_shape(self):
        s = Scenario(2, (1, 3), ((2,), (2, 3, 4)))
        assert s.table_shape == (1, 2, 3, 4)
        assert TRI.table_shape == (2, 2) * 3
        # each term reads the entry at (s_0, o_0, s_1, o_1) of a table of that shape
        keys = [((0, s), (o0, o1)) for s in range(3) for o0 in range(2) for o1 in range(s + 2)]
        index, _, _ = BellExpression(s, dict.fromkeys(keys, 1)).table_lookup
        expected = [np.ravel_multi_index((s0, o0, s1, o1), s.table_shape)
                    for (s0, s1), (o0, o1) in keys]
        assert index.reshape(-1).tolist() == expected

    def test_a_repeated_row_is_shared_not_copied(self):
        s = Scenario.uniform(4, 3, 2)
        assert all(row is s.outcomes_per_setting[0] for row in s.outcomes_per_setting)
        assert s.distinct_rows == (((2, 2, 2), 4),)
        row, equal = (2, 3), tuple([2, 3])  # equal rows, two objects
        mixed = Scenario(3, (2, 2, 2), (row, equal, row))
        assert mixed.distinct_rows == ((row, 2), (equal, 1))
        assert mixed.distinct_rows[0][0] is mixed.outcomes_per_setting[0]

    @pytest.mark.parametrize(
        "outcomes,message",
        [
            (((2, 2), (2, 2), (2, 1)), "party 2 setting 1"),
            (((2, 0), (2, 0), (2, 0)), "party 0 setting 1"),
            (((True, 2), (2, 2), (2, 2)), "party 0 setting 0"),
        ],
    )
    def test_too_few_outcomes_are_located(self, outcomes, message):
        with pytest.raises(ScenarioError, match=f"^{message}: need at least two outcomes$"):
            Scenario(3, (2, 2, 2), outcomes)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Scenario(3.0, (2, 2, 2), ((2, 2),) * 3),
            lambda: Scenario(3, (2, 2.0, 2), ((2, 2),) * 3),
            lambda: Scenario.uniform(3, 2.5, 2),
            lambda: Scenario(3, (2, 2, 2), ((2, 2), (2, 2), (2, 2.5))),
            lambda: Scenario(3, (2, 2, 2), ((2, 2.0),) * 3),
            lambda: BellExpression(TRI, {((0.5, 0, 0), (1, 1, 1)): 1}),
            lambda: BellExpression(TRI, {((0, 0, 0), (1, "1", 1)): 1}),
            lambda: CorrelatorExpression(TRI, {(1.0, 0, 0): 1}),
            lambda: MarginalTerm((0, 0, 0), (1, 1, 1.7), 1),
            # one-shot iterables are read once, so they get the same named error
            lambda: Scenario(3, (x for x in (2, 2.0, 2)), ((2, 2),) * 3),
            lambda: Scenario(3, (2, 2, 2), ((2, 2), (2, 2), (x for x in (2, 2.5)))),
            lambda: TRI.validate_settings(x for x in (0, 0.5, 1)),
            lambda: TRI.validate_term((x for x in (0, 0.5, 0)), (1, 1, 1)),
            lambda: TRI.validate_term((0, 0, 0), (x for x in (1, 1.5, 1))),
            lambda: MarginalTerm((x for x in (0, 0.5, 0)), (1, 1, 1), 1),
        ],
        ids=[
            "parties", "settings", "uniform", "outcomes", "outcomes-equal-to-an-int",
            "term-setting", "term-outcome", "correlator", "marginal",
            "generator-settings", "generator-outcomes", "generator-settings-key",
            "generator-term-setting", "generator-term-outcome", "generator-marginal",
        ],
    )
    def test_non_integer_indices_are_rejected_not_truncated(self, build):
        with pytest.raises(ScenarioError, match="is not an integer"):
            build()

    def test_mixed_indices_convert_or_name_the_first_non_integer(self):
        settings = TRI.validate_settings((np.int64(1), 0, np.intp(1)))
        assert settings == (1, 0, 1) and all(type(i) is int for i in settings)
        with pytest.raises(ScenarioError, match=r"^index 0\.5 is not an integer$"):
            TRI.validate_settings((np.int64(1), 0.5, "1"))

    def test_a_generator_strategy_row_gets_the_named_error(self):
        with pytest.raises(ScenarioMismatchError, match=r"^index 1\.5 is not an integer$"):
            TRI.validate_strategy(((0, 0), (x for x in (0, 1.5)), (0, 0)))

    def test_numpy_integer_indices_are_accepted(self):
        key = tuple(np.arange(3)[[0, 1, 0]]), (np.int8(1), np.uint64(0), 1)
        expr = BellExpression(Scenario.uniform(np.int64(3), 2, 2), {key: 1})
        assert list(expr.terms) == [((0, 1, 0), (1, 0, 1))]
        assert all(type(i) is int for i in expr.scenario.settings_per_party)
        row = Scenario(1, (2,), ((2, np.int64(3)),)).outcomes_per_setting[0]
        assert row == (2, 3) and all(type(n) is int for n in row)

    @pytest.mark.parametrize(
        "build,error,message",
        [
            (
                lambda: Scenario(2, (1, 1), ((2,),)),
                ScenarioError,
                "outcomes_per_setting must list one row per party",
            ),
            (
                lambda: TRI.validate_settings((0, 0)),
                ScenarioError,
                r"expected 3 setting indices, got \(0, 0\)",
            ),
            (
                lambda: TRI.validate_settings((0, 2, 0)),
                ScenarioError,
                "party 1: setting 2 out of range",
            ),
            (
                lambda: MarginalTerm((0, 0, 0), (0, 0, 0), "one half"),
                ScenarioError,
                "not a rational coefficient: 'one half'",
            ),
            (
                lambda: MarginalTerm((0, 0), (0, 0, 0), 1),
                ScenarioError,
                "settings and outcomes must have one entry per party",
            ),
            (
                lambda: correlator_to_probability(builtin_expression("g-paper")),
                UnsupportedScenarioError,
                "correlator_to_probability expects a correlator form",
            ),
            # counts past the machine's index size, which no tuple can hold
            (
                lambda: Scenario.uniform(3, 10**20, 2),
                ScenarioError,
                f"settings count {10**20} is past the index size {sys.maxsize}",
            ),
            (
                lambda: Scenario.uniform(3, 2, 10**20),
                ScenarioError,
                f"outcome count {10**20} is past the index size {sys.maxsize}",
            ),
            (
                lambda: Scenario(1, (10**20,), ((2,),)),
                ScenarioError,
                f"settings count {10**20} is past the index size {sys.maxsize}",
            ),
            (
                lambda: Scenario(1, (2,), ((2, 10**20),)),
                ScenarioError,
                f"outcome count {10**20} is past the index size {sys.maxsize}",
            ),
        ],
        ids=["scenario-rows", "settings-length", "settings-range", "coefficient", "marginal",
             "conversion-of-a-probability-form", "uniform-settings-count",
             "uniform-outcome-count", "settings-count", "outcome-count"],
    )
    def test_each_check_names_what_it_refuses(self, build, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            build()


class TestMakeExpression:
    def test_duplicate_keys_merge_by_addition(self):
        terms = [
            MarginalTerm((0, 0, 0), (1, 1, 1), 1),
            MarginalTerm((0, 0, 0), (1, 1, 1), 2),
        ]
        expr = make_expression(TRI, terms)
        assert expr.term_count == 1
        assert expr.coefficient((0, 0, 0), (1, 1, 1)) == 3

    def test_equal_terms_over_different_scenarios_are_unequal(self):
        term = [MarginalTerm((0, 0, 0), (1, 1, 1), 1)]
        assert make_expression(TRI, term) != make_expression(Scenario.uniform(3, 2, 3), term)

    def test_scaling_by_a_float_is_refused(self):
        with pytest.raises(ScenarioError, match="^coefficients must be exact rationals, got 0.5$"):
            builtin_expression("g-paper").scale(0.5)

    def test_exact_cancellation_drops_term(self):
        terms = [
            MarginalTerm((0, 0, 0), (1, 0, 1), 1),
            MarginalTerm((0, 0, 0), (1, 0, 1), -1),
        ]
        expr = make_expression(TRI, terms)
        assert expr.term_count == 0

    def test_out_of_range_names_offending_term(self):
        with pytest.raises(ScenarioError, match="setting 2 out of range"):
            make_expression(TRI, [MarginalTerm((2, 0, 0), (0, 0, 0), 1)])
        with pytest.raises(ScenarioError, match="outcome 5 out of range"):
            make_expression(TRI, [MarginalTerm((0, 0, 0), (5, 0, 0), 1)])

    def test_float_coefficients_rejected(self):
        with pytest.raises(ScenarioError, match="exact rationals"):
            MarginalTerm((0, 0, 0), (0, 0, 0), 0.5)

    def test_no_stored_zero_coefficients(self):
        expr = BellExpression(TRI, {((0, 0, 0), (0, 0, 0)): Fraction(0)})
        assert expr.term_count == 0

    @given(permutation=st.permutations(range(6)))
    @settings(max_examples=50, deadline=None)
    def test_construction_is_order_independent(self, permutation):
        terms = [
            MarginalTerm((0, 0, 0), (1, 1, 1), Fraction(1, 2)),
            MarginalTerm((0, 0, 0), (1, 1, 1), Fraction(1, 3)),
            MarginalTerm((1, 1, 1), (0, 0, 0), -4),
            MarginalTerm((0, 1, 1), (0, 1, 0), -4),
            MarginalTerm((1, 0, 1), (1, 0, 0), -5),
            MarginalTerm((0, 0, 0), (0, 0, 1), 5),
        ]
        reference = make_expression(TRI, terms)
        shuffled = make_expression(TRI, [terms[i] for i in permutation])
        assert shuffled == reference

    @given(
        terms=st.lists(
            st.tuples(
                st.tuples(*[st.integers(0, 1)] * 3),
                st.tuples(*[st.integers(0, 1)] * 3),
                st.fractions(min_value=-2, max_value=2, max_denominator=2),
                st.booleans(),  # whether the settings are spelled as bytes
            ),
            max_size=12,
        ),
        correlator=st.booleans(),
    )
    # two spellings of one term's key: the constructor sums them, as the builders do
    @example(terms=[((0, 0, 0), (1, 1, 1), 1, False), ((0, 0, 0), (1, 1, 1), 2, True)],
             correlator=False)
    @example(terms=[((0, 0, 0), (1, 1, 1), 1, False), ((0, 0, 0), (1, 1, 1), 2, True)],
             correlator=True)
    @settings(max_examples=60, deadline=None)
    def test_the_builders_give_what_the_constructor_gives(self, terms, correlator):
        # one check per key, then the summed map wrapped as the constructor keeps it;
        # b"\x00\x01\x01" names the settings (0, 1, 1), so a key may be spelled twice
        terms = [(bytes(s) if as_bytes else s, o, c) for s, o, c, as_bytes in terms]
        spelled: dict = {}
        for settings_key, outcomes, c in terms:
            key = settings_key if correlator else (settings_key, outcomes)
            spelled[key] = spelled.get(key, 0) + c
        if correlator:
            built = make_correlator_expression(TRI, [(s, c) for s, _, c in terms])
            constructed = CorrelatorExpression(TRI, spelled)
        else:
            built = make_expression(TRI, [MarginalTerm(*term) for term in terms])
            constructed = BellExpression(TRI, spelled)
        assert built == constructed
        assert list(built.terms) == list(constructed.terms)  # same key order, no zeros
        assert {type(c) for c in built.terms.values()} <= {Fraction}

    def test_a_duck_typed_terms_coefficient_becomes_a_fraction(self):
        term = SimpleNamespace(settings=(0, 0, 0), outcomes=(1, 1, 1), coefficient="1/2")
        expr = make_expression(TRI, [term, term])
        assert dict(expr.terms) == {((0, 0, 0), (1, 1, 1)): Fraction(1)}
        assert type(expr.coefficient((0, 0, 0), (1, 1, 1))) is Fraction

    def test_every_key_is_checked_before_any_coefficient(self):
        float_term = SimpleNamespace(settings=(0, 0, 0), outcomes=(1, 1, 1), coefficient=0.5)
        with pytest.raises(ScenarioError, match="setting 2 out of range in term"):
            make_expression(TRI, [float_term, MarginalTerm((2, 0, 0), (0, 0, 0), 1)])
        with pytest.raises(ScenarioError, match="^coefficients must be exact rationals"):
            make_expression(TRI, [float_term])

    def test_a_correlator_builder_checks_its_terms_then_the_scenario(self):
        ternary = Scenario.uniform(3, 2, 3)
        with pytest.raises(ScenarioError, match="^party 0: setting 5 out of range$"):
            make_correlator_expression(ternary, [((5, 0, 0), 1)])
        with pytest.raises(ScenarioError, match="^coefficients must be exact rationals"):
            make_correlator_expression(ternary, [((0, 0, 0), 0.5)])
        with pytest.raises(UnsupportedScenarioError, match="two outcomes"):
            make_correlator_expression(ternary, [((0, 0, 0), 1)])

    @pytest.mark.parametrize("name", ["g-paper", "mermin"])
    def test_parsing_and_the_algebra_check_no_key_twice(self, monkeypatch, name):
        # the parser range-checks its tokens, and sums, multiples and negations
        # of valid expressions hold valid keys: none goes through a key check again
        text = serialize_expression(builtin_expression(name))
        calls = []
        for method in ("validate_term", "validate_settings"):
            def counted(self, *key, _check=getattr(Scenario, method), _name=method):
                calls.append(_name)
                return _check(self, *key)

            monkeypatch.setattr(Scenario, method, counted)
        first, second = parse_expression(text), parse_expression(text)
        results = [first.scale(Fraction(3, 2)), first.scale(0), first + second, first + -second]
        monkeypatch.undo()
        assert calls == []
        form, terms = type(first), first.terms
        expected = [
            {key: Fraction(3, 2) * c for key, c in terms.items()},
            {},
            {key: 2 * c for key, c in terms.items()},
            {},
        ]
        for result, expected_terms in zip(results, expected):
            constructed = form(first.scenario, expected_terms)
            assert type(result) is form and result == constructed
            assert list(result.terms) == list(constructed.terms)

    def test_addition_and_scaling(self):
        e1 = make_expression(TRI, [MarginalTerm((0, 0, 0), (1, 1, 1), 2)])
        e2 = make_expression(TRI, [MarginalTerm((0, 0, 0), (1, 1, 1), -2)])
        assert (e1 + e2).term_count == 0
        assert e1.scale(Fraction(1, 2)).coefficient((0, 0, 0), (1, 1, 1)) == 1
        with pytest.raises(ScenarioMismatchError):
            e1 + make_expression(Scenario.uniform(2, 2, 2), [])

    def test_forms_neither_compare_nor_add_across(self, g_expr, mermin_expr):
        assert g_expr.__eq__(mermin_expr) is NotImplemented
        assert g_expr.__add__(mermin_expr) is NotImplemented
        assert (g_expr == mermin_expr) is False
        with pytest.raises(TypeError, match="unsupported operand"):
            g_expr + mermin_expr


class TestBuiltins:
    def test_names(self):
        assert builtin_names() == ("g-paper", "mermin")
        assert builtin_magnitude("mermin") is True
        assert builtin_magnitude("g-paper") is False

    def test_unknown_builtin_lists_available(self):
        with pytest.raises(UnknownBuiltinError, match="g-paper, mermin"):
            builtin_expression("unknown")

    def test_g_paper_is_the_reference_20_term_form(self, g_expr):
        assert g_expr.term_count == 20
        assert g_expr.coefficient((0, 0, 0), (1, 0, 0)) == 5
        assert g_expr.coefficient((1, 1, 1), (1, 1, 1)) == -4
        assert g_expr.coefficient((1, 1, 1), (0, 0, 1)) == 1
        assert g_expr.coefficient((1, 0, 1), (0, 0, 1)) == -5
        assert g_expr.coefficient((0, 0, 0), (0, 1, 1)) == 0  # absent key

    def test_g_paper_coefficient_balance(self, g_expr):
        total = sum(g_expr.terms.values())
        positive = sum(c for c in g_expr.terms.values() if c > 0)
        assert total == -12
        assert positive == 24
        assert sum(1 for c in g_expr.terms.values() if c > 0) == 10

    def test_mermin_is_the_signed_correlator_sum(self, mermin_expr):
        assert isinstance(mermin_expr, CorrelatorExpression)
        assert mermin_expr.term_count == 4
        assert mermin_expr.coefficient((0, 0, 0)) == -1
        assert mermin_expr.coefficient((0, 1, 1)) == 1
        assert mermin_expr.coefficient((1, 0, 1)) == 1
        assert mermin_expr.coefficient((1, 1, 0)) == 1

    def test_the_tests_mermin_builder_gives_the_builtin(self):
        assert oracles.mermin_expression(3) == builtin_expression("mermin")


class TestCorrelatorConversion:
    def test_single_term_expands_to_eight(self):
        expr = make_correlator_expression(TRI, [((0, 0, 0), 1)])
        converted = correlator_to_probability(expr)
        assert converted.term_count == 8
        assert converted.coefficient((0, 0, 0), (1, 1, 1)) == 1  # no zeros
        assert converted.coefficient((0, 0, 0), (0, 1, 0)) == 1  # two zeros
        assert converted.coefficient((0, 0, 0), (0, 1, 1)) == -1  # one zero

    def test_mermin_converts_to_32_terms(self, mermin_expr):
        converted = correlator_to_probability(mermin_expr)
        assert converted.term_count == 32
        assert sum(converted.terms.values()) == 0
        # settings in stored order, each with its outcome tuples in product order
        assert list(converted.terms) == [
            (settings, outcomes)
            for settings in mermin_expr.terms
            for outcomes in product((0, 1), repeat=3)
        ]

    def test_correlator_needs_binary_outcomes(self):
        ternary = Scenario.uniform(2, 2, 3)
        with pytest.raises(UnsupportedScenarioError):
            CorrelatorExpression(ternary, {(0, 0): Fraction(1)})
        with pytest.raises(UnsupportedScenarioError):  # the scenario before any term
            CorrelatorExpression(ternary, {(5, 0): 0.5})

    @given(
        c1=st.fractions(min_value=-5, max_value=5),
        c2=st.fractions(min_value=-5, max_value=5),
    )
    @settings(max_examples=50, deadline=None)
    def test_conversion_is_linear(self, c1, c2):
        t1 = make_correlator_expression(TRI, [((0, 1, 1), 1), ((0, 0, 0), -1)])
        t2 = make_correlator_expression(TRI, [((1, 0, 1), 1), ((0, 0, 0), 2)])
        combined = correlator_to_probability(t1.scale(c1) + t2.scale(c2))
        separate = correlator_to_probability(t1).scale(c1) + correlator_to_probability(
            t2
        ).scale(c2)
        assert combined == separate

    @pytest.mark.parametrize("seed", range(8))
    def test_conversion_preserves_values_on_product_distributions(self, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        terms = []
        for _ in range(4):
            key = tuple(int(rng.integers(0, 2)) for _ in range(3))
            terms.append((key, oracles.random_rational(rng)))
        expr = make_correlator_expression(TRI, terms)
        converted = correlator_to_probability(expr)
        tables = oracles.random_outcome_tables(rng, TRI)
        assert oracles.evaluate_correlator_expression(
            expr, tables
        ) == oracles.evaluate_probability_expression(converted, tables)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_conversion_equals_the_validating_constructor(self, data):
        # the conversion skips BellExpression's checks; the checked route must
        # agree key for key, in the same order, with Fraction values throughout
        parties = data.draw(st.integers(1, 6))
        settings_per_party = data.draw(
            st.lists(st.integers(1, 3), min_size=parties, max_size=parties)
        )
        scenario = Scenario(parties, settings_per_party, [(2,) * n for n in settings_per_party])
        terms = data.draw(
            st.lists(
                st.tuples(
                    st.tuples(*(st.integers(0, n - 1) for n in settings_per_party)),
                    st.fractions(-9, 9, max_denominator=12),
                ),
                max_size=8,
            )
        )
        expr = make_correlator_expression(scenario, terms)
        converted = correlator_to_probability(expr)
        checked = BellExpression(scenario, dict(converted.terms))
        assert list(converted.terms.items()) == list(checked.terms.items())
        assert converted == checked
        assert converted.term_count == 2**parties * expr.term_count
        for (settings, outcomes), coefficient in converted.terms.items():
            assert type(coefficient) is Fraction and coefficient != 0
            assert all(type(i) is int for i in settings + outcomes)
            zeros = outcomes.count(0)
            assert coefficient == (-1) ** zeros * expr.terms[settings]

    def test_the_public_constructor_still_checks_every_key(self):
        # that it drops zero coefficients is pinned by test_no_stored_zero_coefficients
        with pytest.raises(ScenarioError, match="setting 2 out of range"):
            BellExpression(TRI, {((0, 2, 0), (0, 0, 0)): Fraction(1)})
        with pytest.raises(ScenarioError, match="outcome 2 out of range"):
            BellExpression(TRI, {((0, 0, 0), (0, 0, 2)): Fraction(1)})
        with pytest.raises(ScenarioError, match="one setting and one outcome"):
            BellExpression(TRI, {((0, 0), (0, 0)): Fraction(1)})
        with pytest.raises(ScenarioError, match="exact rationals"):
            BellExpression(TRI, {((0, 0, 0), (0, 0, 0)): 0.5})
        # term by term, each key before its coefficient and both before the next term
        with pytest.raises(ScenarioError, match="^party 1: setting 2 out of range$"):
            BellExpression(TRI, {((0, 2, 0), (0, 0, 0)): 0.5})
        with pytest.raises(ScenarioError, match="^coefficients must be exact rationals"):
            BellExpression(TRI, {((0, 0, 0), (0, 0, 0)): 0.5, ((0, 2, 0), (0, 0, 0)): 1})

    @pytest.mark.parametrize(
        "form, key",
        [(BellExpression, ((0, 0, 0), (1, 1, 1))), (CorrelatorExpression, (0, 1, 1))],
        ids=["bell", "correlator"],
    )
    def test_a_list_of_pairs_is_refused_not_collapsed(self, form, key):
        # a dict copy of these pairs would keep the last coefficient, 2, and drop the 1
        message = "^terms must map each key to its coefficient, got list$"
        with pytest.raises(ScenarioError, match=message):
            form(TRI, [(key, 1), (key, 2)])

    def test_as_probability_form_dispatch(self, g_expr, mermin_expr):
        assert as_probability_form(g_expr) is g_expr
        assert as_probability_form(mermin_expr).term_count == 32
        with pytest.raises(TypeError):
            as_probability_form("not an expression")


class TestTermCount:
    def test_counts(self, g_expr):
        assert g_expr.term_count == 20
        assert make_expression(TRI, []).term_count == 0
