import re
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellkit import (
    BellExpression,
    ConfigError,
    EnumerationCapError,
    FullJointExpansion,
    MarginalTerm,
    Scenario,
    ScenarioError,
    ScenarioMismatchError,
    as_probability_form,
    builtin_expression,
    diff_expansion,
    enumerate_strategies,
    evaluate_on_strategy,
    expand_full_joint,
    g_paper_expansion_fixture,
    ghz_state,
    local_bounds,
    make_correlator_expression,
    make_expression,
    paper_model,
    tolerance_by_root_scan,
    trivial_bounds,
    violation_report,
    white_noise_tolerance,
)

import bellkit.lhv as lhv
import oracles

TRI = Scenario.uniform(3, 2, 2)

# every public function that takes an enumeration cap, called on an expression
CAP_ROUTES = {
    "enumerate_strategies": lambda expr, cap: enumerate_strategies(expr.scenario, cap=cap),
    "local_bounds": local_bounds,
    "trivial_bounds": trivial_bounds,
    "expand_full_joint": expand_full_joint,
    **{
        function.__name__: lambda expr, cap, function=function: function(
            expr, ghz_state(3), paper_model(), cap=cap
        )
        for function in (violation_report, white_noise_tolerance, tolerance_by_root_scan)
    },
}


@st.composite
def small_scenarios(draw):
    """1-4 parties, unequal settings and outcome counts."""
    parties = draw(st.integers(1, 4))
    most_settings = 3 if parties <= 2 else 2
    settings_per_party = draw(
        st.lists(st.integers(1, most_settings), min_size=parties, max_size=parties)
    )
    outcomes_per_setting = [
        draw(st.lists(st.integers(2, 3), min_size=n, max_size=n)) for n in settings_per_party
    ]
    return Scenario(parties, settings_per_party, outcomes_per_setting)


@st.composite
def binary_scenarios(draw):
    """2-4 parties with 1-3 binary settings each: the scenarios qubit models measure."""
    parties = draw(st.integers(2, 4))
    settings_per_party = draw(st.lists(st.integers(1, 3), min_size=parties, max_size=parties))
    return Scenario(parties, settings_per_party, [(2,) * n for n in settings_per_party])


coefficients = st.fractions(-9, 9, max_denominator=12)


@st.composite
def small_expressions(draw, scenarios=small_scenarios()):
    """Random probability-form expressions of up to 12 terms."""
    scenario = draw(scenarios)
    terms = []
    for _ in range(draw(st.integers(0, 12))):
        settings = [draw(st.integers(0, n - 1)) for n in scenario.settings_per_party]
        outcomes = [
            draw(st.integers(0, scenario.outcomes_per_setting[p][s] - 1))
            for p, s in enumerate(settings)
        ]
        terms.append(MarginalTerm(settings, outcomes, draw(coefficients)))
    return make_expression(scenario, terms)


@st.composite
def small_correlator_expressions(draw):
    """Random correlator-form expressions of up to 12 terms."""
    scenario = draw(binary_scenarios())
    terms = [
        ([draw(st.integers(0, n - 1)) for n in scenario.settings_per_party], draw(coefficients))
        for _ in range(draw(st.integers(0, 12)))
    ]
    return make_correlator_expression(scenario, terms)


@st.composite
def tabled_expressions(draw, sparse=True, huge=False):
    """P-forms built table by table: each drawn settings tuple gets either its full
    outcome table, shuffled, or (with ``sparse``) a proper subset of it.  With
    ``huge`` one full table also carries a coefficient beyond 2^62."""
    scenario = draw(small_scenarios().filter(lambda s: s.assignment_count <= 729))
    nonzero = coefficients.filter(bool)
    settings_tuples = draw(
        st.lists(
            st.tuples(*(st.integers(0, n - 1) for n in scenario.settings_per_party)),
            min_size=1,
            max_size=3,
            unique=True,
        )
    )
    terms = []
    for index, settings in enumerate(settings_tuples):
        table = list(
            product(*(range(scenario.outcomes_per_setting[p][s]) for p, s in enumerate(settings)))
        )
        if huge and index == 0:  # the first table is full and holds the big coefficient
            table = draw(st.permutations(table))
            big = draw(st.integers(2**62, 2**70)) * draw(st.sampled_from([-1, 1]))
            terms.append(MarginalTerm(settings, table.pop(), big))
        elif sparse and draw(st.booleans()):
            table = draw(st.lists(st.sampled_from(table), max_size=len(table) - 1, unique=True))
        else:
            table = draw(st.permutations(table))
        terms += [MarginalTerm(settings, outcomes, draw(nonzero)) for outcomes in table]
    return make_expression(scenario, terms)


# ways to spoil a valid strategy, applied one after another
STRATEGY_FAULTS = (
    "outcome-too-big",
    "negative-outcome",
    "extra-party",
    "missing-party",
    "extra-setting",
    "missing-setting",
    "bool-label",
    "numpy-label",
    "float-label",
)
# what holds the rows, and what holds each row's labels; a generator has no len()
STRATEGY_CONTAINERS = (tuple, list, "generator")
ROW_CONTAINERS = (*STRATEGY_CONTAINERS, np.array)


def _contained(kind, items):
    return (item for item in items) if kind == "generator" else kind(items)


@st.composite
def candidate_strategies(draw):
    """(scenario, build): ``build()`` makes a fresh candidate strategy on each call,
    so a generator in it is unconsumed.  It starts valid, takes up to three
    faults and comes in drawn containers."""
    scenario = draw(small_scenarios())
    rows = [
        [draw(st.integers(0, n - 1)) for n in counts] for counts in scenario.outcomes_per_setting
    ]
    for fault in draw(st.lists(st.sampled_from(STRATEGY_FAULTS), max_size=3)):
        if not rows:
            break
        p = draw(st.integers(0, len(rows) - 1))
        if fault == "extra-party":
            rows.insert(p, list(rows[p]))
        elif fault == "missing-party":
            del rows[p]
        elif fault == "extra-setting":
            rows[p].insert(draw(st.integers(0, len(rows[p]))), 0)
        elif rows[p]:
            s = draw(st.integers(0, len(rows[p]) - 1))
            counts = scenario.outcomes_per_setting
            n = counts[p][s] if p < len(counts) and s < len(counts[p]) else 2
            if fault == "missing-setting":
                del rows[p][s]
            elif fault == "outcome-too-big":
                rows[p][s] = draw(st.integers(n, n + 2))
            elif fault == "negative-outcome":
                rows[p][s] = draw(st.integers(-2, -1))
            elif fault == "bool-label":
                rows[p][s] = draw(st.booleans())
            elif fault == "numpy-label":
                integer = draw(st.sampled_from((np.int8, np.int64, np.uint16)))
                rows[p][s] = integer(rows[p][s] % n)
            else:  # float-label
                rows[p][s] = rows[p][s] + draw(st.sampled_from((0.0, 0.5)))
    outer = draw(st.sampled_from(STRATEGY_CONTAINERS))
    inner = [draw(st.sampled_from(ROW_CONTAINERS)) for _ in rows]

    def build():
        return _contained(outer, [_contained(kind, row) for kind, row in zip(inner, rows)])

    return scenario, build


def _result(check, scenario, strategy):
    """The flat ints ``check`` returns with their types, or its error's type and message."""
    try:
        flat = check(scenario, strategy)
    except Exception as exc:
        return type(exc), str(exc)
    return flat, tuple(map(type, flat))


class TestEnumeration:
    def test_paper_scenario_has_64_strategies(self):
        strategies = enumerate_strategies(TRI)
        assert len(strategies) == 64
        assert len(set(strategies)) == 64

    def test_small_scenarios(self):
        assert len(enumerate_strategies(Scenario.uniform(1, 1, 2))) == 2
        assert len(enumerate_strategies(Scenario.uniform(2, 2, 2))) == 16

    def test_lexicographic_order(self):
        strategies = enumerate_strategies(TRI)
        assert strategies[0] == ((0, 0), (0, 0), (0, 0))
        assert strategies[1] == ((0, 0), (0, 0), (0, 1))
        assert strategies[-1] == ((1, 1), (1, 1), (1, 1))
        flattened = [tuple(o for row in s for o in row) for s in strategies]
        assert flattened == sorted(flattened)

    @pytest.mark.parametrize("route", CAP_ROUTES.values(), ids=CAP_ROUTES.keys())
    def test_cap_error_reports_size(self, route, g_expr):
        with pytest.raises(EnumerationCapError, match="64") as excinfo:
            route(g_expr, cap=10)
        assert excinfo.value.size == 64
        assert excinfo.value.cap == 10

    @pytest.mark.parametrize("cap", ["100", None, 100.5, True])
    @pytest.mark.parametrize("route", CAP_ROUTES.values(), ids=CAP_ROUTES.keys())
    def test_a_cap_that_is_not_an_integer_is_refused_by_name(self, route, cap, g_expr):
        # never compared as a float, and never a bare TypeError
        match = f"^cap must be an integer, got {re.escape(repr(cap))}$"
        with pytest.raises(ConfigError, match=match):
            route(g_expr, cap=cap)

    @pytest.mark.parametrize("route", CAP_ROUTES.values(), ids=CAP_ROUTES.keys())
    def test_a_numpy_integer_cap_passes(self, route, g_expr):
        route(g_expr, cap=np.int64(64))

    def test_an_expansion_lists_at_most_the_default_cap(self):
        # a larger cap does not lift the limit of the listing; the space is
        # refused before its grid is built
        expr = make_expression(Scenario.uniform(2, 12, 2), [MarginalTerm((0, 0), (0, 0), 1)])
        with pytest.raises(EnumerationCapError, match="cap of 10000000") as excinfo:
            expand_full_joint(expr, cap=20_000_000)
        assert excinfo.value.size == 2**24
        assert excinfo.value.cap == 10**7

    def test_cap_error_on_a_space_too_large_to_count(self):
        # 2^300000 strategies: refused from logarithms, without the exact size
        with pytest.raises(EnumerationCapError, match="too many elements to count") as excinfo:
            enumerate_strategies(Scenario.uniform(3, 100000, 2), cap=10)
        assert excinfo.value.size is None

    def test_cap_error_keeps_exact_sizes_under_4300_digits(self):
        with pytest.raises(EnumerationCapError) as excinfo:
            enumerate_strategies(Scenario.uniform(3, 1432, 10), cap=10)
        assert excinfo.value.size == 10**4296


class TestEvaluateOnStrategy:
    def test_g_paper_at_all_zero_strategy(self, g_expr):
        assert evaluate_on_strategy(g_expr, ((0, 0), (0, 0), (0, 0))) == 1

    def test_g_paper_at_primed_a_flipped(self, g_expr):
        assert evaluate_on_strategy(g_expr, ((0, 1), (0, 0), (0, 0))) == -4

    def test_signed_mermin_at_all_zero_strategy(self, mermin_expr):
        converted = as_probability_form(mermin_expr)
        # every correlator evaluates to (-1)^3, so the sum is -1-1-1+1
        assert evaluate_on_strategy(converted, ((0, 0), (0, 0), (0, 0))) == -2

    def test_scenario_mismatch(self, g_expr):
        with pytest.raises(ScenarioMismatchError):
            evaluate_on_strategy(g_expr, ((0, 0), (0, 0)))

    def test_non_integer_outcomes_are_rejected_not_truncated(self, g_expr):
        with pytest.raises(ScenarioMismatchError, match="index 1.7 is not an integer"):
            evaluate_on_strategy(g_expr, ((1.7, 0), (0, 0), (1, 0)))

    @settings(max_examples=300, deadline=None)
    @given(candidate=candidate_strategies())
    @example(candidate=(TRI, lambda: ((0, 2), (0, 0), (0, 0))))
    @example(candidate=(TRI, lambda: ((0, -1), (0, 0), (0, 0))))
    @example(candidate=(TRI, lambda: (row for row in ((0, 0), (0, 0), (0, 0)))))
    @example(candidate=(TRI, lambda: ((0, 0), (x for x in (0, 1.5)), (0, 0))))
    def test_the_one_pass_check_agrees_with_validate_strategy(self, candidate):
        # the same flat ints, or the same error type and message
        scenario, build = candidate
        expected = _result(
            lambda sc, strategy: sum(sc.validate_strategy(strategy), ()), scenario, build()
        )
        assert _result(Scenario._strategy_slots, scenario, build()) == expected


class TestExpansion:
    def test_g_paper_expansion_matches_direct_evaluation_oracle(self, g_expr):
        oracle = oracles.expansion_by_direct_evaluation(g_expr)
        expansion = expand_full_joint(g_expr)
        assert expansion.grid.size == 64
        for assignment, expected in oracle.items():
            assert expansion.coefficient(assignment) == expected

    def test_g_paper_expansion_headline_numbers(self, g_expr):
        # frozen from the direct-evaluation oracle
        expansion = expand_full_joint(g_expr)
        values = [value for _, value in expansion.items()]
        assert expansion.coefficient_sum == -96
        assert sum(1 for v in values if v == 1) == 32
        assert sum(1 for v in values if v == -4) == 32
        assert expansion.coefficient(((0, 0), (0, 0), (0, 0))) == 1
        assert expansion.coefficient(((0, 1), (0, 0), (0, 0))) == -4

    def test_expansion_equals_strategy_evaluation_everywhere(self, g_expr):
        expansion = expand_full_joint(g_expr)
        for strategy in enumerate_strategies(TRI):
            assert expansion.coefficient(strategy) == evaluate_on_strategy(
                g_expr, strategy
            )

    @pytest.mark.parametrize(
        "key",
        [
            ((0, 2), (0, 0), (0, 0)),
            ((0, 0), (0, 0)),
            ((0, 0, 0), (0, 0), (0, 0)),
            ((0, 0.5), (0, 0), (0, 0)),
        ],
        ids=["outcome-out-of-range", "too-few-parties", "too-many-settings", "non-integer"],
    )
    def test_a_bad_assignment_key_is_a_scenario_mismatch(self, key, g_expr):
        expansion = expand_full_joint(g_expr)
        with pytest.raises(ScenarioMismatchError):
            expansion.coefficient(key)

    def test_the_constructor_checks_the_grid_shape(self):
        with pytest.raises(ScenarioMismatchError, match=r"\(2, 2, 2\).*\(2, 2, 2, 2, 2, 2\)"):
            FullJointExpansion(TRI, np.zeros((2, 2, 2), np.int64), 1)

    @pytest.mark.parametrize("scale", [0, -1, 1.0, True, Fraction(1), "1"])
    def test_the_constructor_wants_a_positive_int_scale(self, scale):
        with pytest.raises(ScenarioError, match="positive int"):
            FullJointExpansion(TRI, np.zeros(TRI.slot_outcomes, np.int64), scale)

    @pytest.mark.parametrize(
        "grid, dtype",
        [(np.array([0.5, 1.0]), "float64"), (np.array([Fraction(1, 2), 1], object), "object")],
        ids=["float", "object-with-fraction"],
    )
    def test_the_constructor_wants_an_integer_grid(self, grid, dtype):
        with pytest.raises(ScenarioError, match=f"must hold integers, got dtype {dtype}"):
            FullJointExpansion(Scenario.uniform(1, 1, 2), grid, 1)

    def test_the_grid_is_stored_read_only(self, g_expr):
        grid = np.zeros(TRI.slot_outcomes, np.int64)
        expansion = FullJointExpansion(TRI, grid, 1)
        grid[0, 0, 0, 0, 0, 0] = 5  # the caller's array, not the expansion's
        assert expansion.coefficient(((0, 0), (0, 0), (0, 0))) == 0
        for stored in (expansion.grid, expand_full_joint(g_expr).grid):
            with pytest.raises(ValueError, match="read-only"):
                stored[0, 0, 0, 0, 0, 0] = 5

    def test_one_fraction_per_distinct_value(self, g_expr):
        values = [value for _, value in expand_full_joint(g_expr).items()]
        assert len(values) == 64
        assert len(set(map(id, values))) == 2  # 1 and -4

    @pytest.mark.parametrize("seed", range(6))
    def test_expansion_matches_oracle_on_random_expressions(self, seed):
        rng = np.random.default_rng(seed)
        scenario = [TRI, Scenario.uniform(2, 2, 2), Scenario(2, (1, 2), ((3,), (2, 2)))][
            seed % 3
        ]
        expr = oracles.random_expression(rng, scenario)
        oracle = oracles.expansion_by_direct_evaluation(expr)
        expansion = expand_full_joint(expr)
        assert dict(expansion.items()) == oracle

    def test_expansion_never_enumerates_the_strategy_space(self, g_expr, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return enumerate_strategies(*args, **kwargs)

        monkeypatch.setattr(lhv, "enumerate_strategies", counted)
        expansion = expand_full_joint(g_expr)
        assert len(list(expansion.items())) == 64
        assert expansion == expand_full_joint(g_expr)
        assert calls == []

    def test_coefficient_sum_is_exact_beyond_int64(self):
        # 64 of the 256 entries hold 2^61, so the sum is 2^67: past int64,
        # though every entry and their magnitude bound for the grid fit
        expr = make_expression(Scenario.uniform(2, 4, 2), [MarginalTerm((0, 0), (0, 0), 2**61)])
        assert expand_full_joint(expr).coefficient_sum == 64 * 2**61

    def test_expansion_is_linear(self, g_expr):
        rng = np.random.default_rng(7)
        other = oracles.random_expression(rng, TRI)
        factor = Fraction(3, 2)
        combined = expand_full_joint(g_expr + other.scale(factor))
        left = expand_full_joint(g_expr)
        right = expand_full_joint(other)
        for assignment, value in combined.items():
            assert value == left.coefficient(assignment) + factor * right.coefficient(
                assignment
            )

    def test_marginalization_consistency(self):
        # any normalized weight vector over assignments induces marginals
        # that are normalized for every settings choice
        rng = np.random.default_rng(11)
        raw = [int(rng.integers(1, 20)) for _ in range(64)]
        total = sum(raw)
        weights = {
            assignment: Fraction(w, total)
            for assignment, w in zip(oracles.all_assignments(TRI), raw)
        }
        from itertools import product

        for settings in product((0, 1), repeat=3):
            marginal_total = Fraction(0)
            for outcomes in product((0, 1), repeat=3):
                marginal_total += sum(
                    (
                        weight
                        for assignment, weight in weights.items()
                        if oracles.term_matches(assignment, settings, outcomes)
                    ),
                    Fraction(0),
                )
            assert marginal_total == 1


class TestCorrelatorInput:
    def test_the_exact_layer_converts_a_correlator_form(self, mermin_expr):
        converted = as_probability_form(mermin_expr)
        assert local_bounds(mermin_expr) == local_bounds(converted)
        assert trivial_bounds(mermin_expr) == trivial_bounds(converted)
        assert expand_full_joint(mermin_expr) == expand_full_joint(converted)
        for strategy in enumerate_strategies(TRI):
            assert evaluate_on_strategy(mermin_expr, strategy) == evaluate_on_strategy(
                converted, strategy
            )


class TestLocalBounds:
    def test_g_paper_bounds(self, g_expr):
        bounds = local_bounds(g_expr)
        assert bounds.max == 1
        assert bounds.min == -4
        assert bounds.magnitude == 4

    def test_g_paper_extremizers(self, g_expr):
        bounds = local_bounds(g_expr)
        assert len(bounds.maximizers) == 32
        assert len(bounds.minimizers) == 32
        assert all(
            evaluate_on_strategy(g_expr, s) == bounds.max for s in bounds.maximizers
        )
        strategies = enumerate_strategies(TRI)
        order = {s: i for i, s in enumerate(strategies)}
        indices = [order[s] for s in bounds.maximizers]
        assert indices == sorted(indices)

    def test_signed_mermin_bounds(self, mermin_expr):
        bounds = local_bounds(as_probability_form(mermin_expr))
        assert bounds.max == 2
        assert bounds.min == -2
        assert bounds.magnitude == 2

    def test_trivial_bounds_examples(self, g_expr):
        assert trivial_bounds(g_expr) == (-4, 1)
        assert trivial_bounds(make_expression(TRI, [])) == (0, 0)
        single = make_expression(TRI, [MarginalTerm((0, 0, 0), (1, 0, 0), 5)])
        assert trivial_bounds(single) == (0, 5)

    @pytest.mark.parametrize("seed", range(10))
    def test_local_equals_trivial_on_random_expressions(self, seed):
        rng = np.random.default_rng(100 + seed)
        scenario = [TRI, Scenario.uniform(2, 2, 3), Scenario(3, (2, 1, 2), ((2, 2), (4,), (2, 3)))][
            seed % 3
        ]
        expr = oracles.random_expression(rng, scenario)
        bounds = local_bounds(expr)
        assert trivial_bounds(expr) == (bounds.min, bounds.max)

    @settings(max_examples=60, deadline=None)
    @given(expr=small_expressions())
    @example(expr=make_expression(TRI, []))
    @example(
        # one setting per party: each term fixes every slot of the grid
        expr=make_expression(
            Scenario(2, (1, 1), ((2,), (3,))), [MarginalTerm((0, 0), (1, 2), Fraction(3, 2))]
        )
    )
    @example(
        # the last party's settings differ in outcome count
        expr=make_expression(
            Scenario(2, (1, 2), ((2,), (2, 3))),
            [
                MarginalTerm((0, 0), (1, 1), Fraction(1, 2)),
                MarginalTerm((0, 1), (1, 2), Fraction(-1, 3)),
                MarginalTerm((0, 1), (0, 2), 2),
            ],
        )
    )
    def test_both_routes_match_the_brute_oracles(self, expr):
        assert local_bounds(expr) == oracles.vertex_local_bounds(expr)
        oracle = oracles.expansion_by_direct_evaluation(expr)
        expansion = expand_full_joint(expr)
        assert list(expansion.items()) == list(oracle.items())
        assert trivial_bounds(expr) == (min(oracle.values()), max(oracle.values()))

    @settings(max_examples=40, deadline=None)
    @given(
        expr=st.one_of(
            small_correlator_expressions()
            .filter(lambda e: e.scenario.assignment_count <= 1024)
            .map(as_probability_form),
            tabled_expressions(sparse=False),
            tabled_expressions(),
        )
    )
    @example(expr=as_probability_form(-oracles.mermin_expression(4)))
    def test_full_settings_tables_match_the_brute_oracle(self, expr):
        # converted correlators and full tables go through the grid's one
        # broadcast add per settings tuple; mixes also take the per-term path
        oracle = oracles.expansion_by_direct_evaluation(expr)
        assert dict(expand_full_joint(expr).items()) == oracle
        assert trivial_bounds(expr) == (min(oracle.values()), max(oracle.values()))

    @settings(max_examples=25, deadline=None)
    @given(expr=tabled_expressions(huge=True))
    def test_full_tables_beyond_int64_match_the_brute_oracle(self, expr):
        assert lhv._expansion_grid(expr, lhv.DEFAULT_ENUMERATION_CAP)[0].dtype == object
        oracle = oracles.expansion_by_direct_evaluation(expr)
        assert dict(expand_full_joint(expr).items()) == oracle
        assert trivial_bounds(expr) == (min(oracle.values()), max(oracle.values()))

    @pytest.mark.parametrize(
        "terms",
        [
            # scaled by the lcm 7 (2^61 - 1) 1000000007, the 10^30/7 term
            # alone exceeds 2^190
            [
                MarginalTerm((0, 0, 0), (0, 0, 0), Fraction(1, 2**61 - 1)),
                MarginalTerm((0, 1, 0), (0, 1, 1), Fraction(3, 1000000007)),
                MarginalTerm((1, 1, 1), (1, 0, 1), Fraction(10**30, 7)),
                MarginalTerm((1, 0, 1), (1, 0, 1), Fraction(-(10**30), 7)),
            ],
            # each coefficient fits in int64, but where both terms hit, their
            # sum 2^63 would wrap to -2^63 without an error
            [
                MarginalTerm((0, 0, 0), (0, 0, 0), 2**62),
                MarginalTerm((1, 1, 1), (0, 0, 0), 2**62),
            ],
        ],
        ids=["huge-denominators", "wrapping-sum"],
    )
    def test_exact_beyond_int64(self, terms):
        expr = make_expression(TRI, terms)
        oracle = oracles.expansion_by_direct_evaluation(expr)
        assert local_bounds(expr) == oracles.vertex_local_bounds(expr)
        assert trivial_bounds(expr) == (min(oracle.values()), max(oracle.values()))
        assert dict(expand_full_joint(expr).items()) == oracle

    def test_ties_across_denominators_match_the_oracle(self):
        # strategy values 1/2, 1/3, 0, -1/3, -1/2 and -5/6 reduce to different
        # denominators; the max 1/2 shares its numerator with 1/3, and both
        # extremes are tied
        expr = make_expression(
            Scenario.uniform(2, 2, 2),
            [
                MarginalTerm((0, 1), (0, 0), Fraction(1, 2)),
                MarginalTerm((0, 1), (0, 1), Fraction(1, 3)),
                MarginalTerm((1, 0), (0, 1), Fraction(-5, 6)),
            ],
        )
        bounds = local_bounds(expr)
        assert bounds == oracles.vertex_local_bounds(expr)
        assert (bounds.max, bounds.min) == (Fraction(1, 2), Fraction(-5, 6))
        assert (len(bounds.maximizers), len(bounds.minimizers)) == (3, 2)

    @pytest.mark.parametrize("parties", [3, 4, 5, 6])
    def test_mermin_magnitude_is_two_to_half_the_parties(self, parties):
        bounds = local_bounds(as_probability_form(-oracles.mermin_expression(parties)))
        assert bounds.magnitude == 2 ** (parties // 2)

    def test_random_mixtures_stay_within_bounds(self, g_expr):
        rng = np.random.default_rng(5)
        strategies = enumerate_strategies(TRI)
        bounds = local_bounds(g_expr)
        values = [evaluate_on_strategy(g_expr, s) for s in strategies]
        for _ in range(200):
            raw = [int(rng.integers(0, 10)) for _ in strategies]
            total = sum(raw)
            if total == 0:
                continue
            mixture_value = sum(
                (Fraction(w, total) * v for w, v in zip(raw, values)), Fraction(0)
            )
            assert bounds.min <= mixture_value <= bounds.max


class TestKeptExtremes:
    """trivial_bounds builds an expression's grid once and keeps its extremes."""

    def test_the_cap_is_checked_on_a_warm_expression(self, g_expr):
        assert trivial_bounds(g_expr) == (-4, 1)
        with pytest.raises(EnumerationCapError, match="64"):
            trivial_bounds(g_expr, cap=1)
        assert trivial_bounds(g_expr, cap=64) == (-4, 1)

    def test_one_grid_per_expression_object(self, monkeypatch, g_expr):
        builds = []
        grid = lhv._expansion_grid

        def counted(*args):
            builds.append(args)
            return grid(*args)

        monkeypatch.setattr(lhv, "_expansion_grid", counted)
        for _ in range(3):
            assert trivial_bounds(g_expr) == (-4, 1)
        assert len(builds) == 1
        assert trivial_bounds(builtin_expression("g-paper")) == (-4, 1)  # equal, not the same
        assert len(builds) == 2

    @settings(max_examples=40, deadline=None)
    @given(
        expr=st.one_of(small_expressions(), small_correlator_expressions()),
        data=st.data(),
    )
    def test_derived_expressions_get_their_own_bounds(self, expr, data):
        low, high = trivial_bounds(expr)  # keeps expr's extremes
        assert trivial_bounds(expr.scale(2)) == (2 * low, 2 * high)
        assert trivial_bounds(-expr) == (-high, -low)
        if isinstance(expr, BellExpression):
            other = data.draw(small_expressions(st.just(expr.scenario)))
        else:
            other = make_correlator_expression(expr.scenario, [((0,) * expr.scenario.parties, 1)])
        total = expr + other
        sweep = local_bounds(total)
        assert trivial_bounds(total) == (sweep.min, sweep.max)
        assert trivial_bounds(expr) == (low, high)


class TestDiff:
    def test_diff_against_self_is_empty(self, g_expr):
        expansion = expand_full_joint(g_expr)
        assert diff_expansion(expansion, expansion) == ()

    def test_single_perturbation_is_localized(self, g_expr):
        expansion = expand_full_joint(g_expr)
        perturbed = expansion.grid.copy()
        target = ((0, 1), (1, 0), (1, 1))
        perturbed[sum(target, ())] += expansion.scale
        report = diff_expansion(expansion, FullJointExpansion(TRI, perturbed, expansion.scale))
        assert len(report) == 1
        (entry,) = report
        assert entry.assignment == target
        assert entry.fixture == entry.computed + 1

    def test_expansions_at_different_scales_compare_exactly(self, g_expr):
        whole = expand_full_joint(g_expr)
        thirds = expand_full_joint(g_expr.scale(Fraction(1, 3)))
        assert whole != thirds
        report = diff_expansion(whole, thirds)
        assert len(report) == 64
        assert all(entry.fixture == entry.computed / 3 for entry in report)

    def test_an_expansion_equals_no_other_type(self, g_expr):
        expansion = expand_full_joint(g_expr)
        assert expansion.__eq__(object()) is NotImplemented
        assert (expansion == object()) is False

    def test_expansions_over_different_scenarios_are_unequal(self, g_expr):
        other = FullJointExpansion(Scenario.uniform(2, 2, 2), np.zeros((2,) * 4, np.int64), 1)
        assert expand_full_joint(g_expr) != other

    def test_scenario_mismatch(self, g_expr):
        other = FullJointExpansion(Scenario.uniform(2, 2, 2), np.zeros((2,) * 4, np.int64), 1)
        both = "scenario 3 2 2 computed, scenario 2 2 2 in the fixture"
        with pytest.raises(ScenarioMismatchError, match=both):
            diff_expansion(expand_full_joint(g_expr), other)

    def test_shipped_fixture_agrees_with_the_computed_expansion(self, g_expr):
        # computed fact: the shipped table matches the oracle exactly
        fixture = g_paper_expansion_fixture()
        assert not diff_expansion(expand_full_joint(g_expr), fixture)

    def test_shipped_fixture_spot_checks(self):
        fixture = g_paper_expansion_fixture()
        assert fixture.coefficient(((0, 0), (0, 0), (0, 0))) == 1
        assert fixture.coefficient(((0, 1), (0, 0), (0, 0))) == -4
