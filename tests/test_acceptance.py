"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print; without ``-s`` pytest shows them for failing criteria only.
"""

import json
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from bellkit import (
    DensityMatrix,
    PureState,
    Scenario,
    as_probability_form,
    builtin_expression,
    enumerate_strategies,
    evaluate_on_strategy,
    expand_full_joint,
    expression_value,
    g_paper_expansion_fixture,
    ghz_state,
    joint_probability,
    local_bounds,
    diff_expansion,
    optimize_measurements,
    paper_model,
    tolerance_by_root_scan,
    trivial_bounds,
    violation_report,
    white_noise_tolerance,
    FullJointExpansion,
    OptimizerConfig,
)

import oracles

TRI = Scenario.uniform(3, 2, 2)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d}: FAIL - {description}")
        raise
    print(f"criterion {number:02d}: PASS - {description}")


def test_criterion_01_g_paper_local_bounds_are_exact():
    with criterion(1, "g-paper local bounds are exactly 1 and -4 over 64 strategies"):
        start = time.perf_counter()
        expr = builtin_expression("g-paper")
        strategies = enumerate_strategies(expr.scenario)
        assert len(strategies) == 64
        bounds = local_bounds(expr)
        assert bounds.max == Fraction(1)
        assert bounds.min == Fraction(-4)
        assert time.perf_counter() - start < 1.0


def test_criterion_02_mermin_magnitude_bound_is_exactly_two():
    with criterion(2, "mermin local magnitude bound is exactly 2"):
        start = time.perf_counter()
        expr = builtin_expression("mermin")
        bounds = local_bounds(as_probability_form(expr))
        assert bounds.magnitude == Fraction(2)
        assert bounds.max == Fraction(2)
        assert bounds.min == Fraction(-2)
        assert time.perf_counter() - start < 1.0


def test_criterion_03_g_paper_quantum_value_and_breakdown():
    with criterion(3, "g-paper quantum value 3.5 with the reference 20-entry breakdown"):
        expr = builtin_expression("g-paper")
        valuation = expression_value(expr, ghz_state(3), paper_model())
        assert valuation.value == pytest.approx(3.5, abs=1e-9)
        expected = (
            [0.25, 1.25, 1.25, 0.0, 0.0, 1.0, 0.25, 0.25]
            + [0.0] * 8
            + [0.125, 0.125, -0.5, -0.5]
        )
        assert len(valuation.breakdown) == 20
        for got, want in zip(valuation.breakdown, expected):
            assert got == pytest.approx(want, abs=1e-9)


def test_criterion_04_mermin_quantum_magnitude_is_four():
    with criterion(4, "mermin quantum magnitude 4 on GHZ with the X/Y model"):
        expr = builtin_expression("mermin")
        valuation = expression_value(expr, ghz_state(3), paper_model())
        assert abs(valuation.value) == pytest.approx(4.0, abs=1e-9)


def test_criterion_05_violation_factors_and_amounts():
    with criterion(5, "violation factor/amount: 3.5/2.5 for g-paper, 2/2 for mermin"):
        ghz = ghz_state(3)
        model = paper_model()
        g_report = violation_report(builtin_expression("g-paper"), ghz, model)
        assert g_report.violation_factor == pytest.approx(3.5, abs=1e-9)
        assert g_report.violation_amount == pytest.approx(2.5, abs=1e-9)
        m_report = violation_report(
            builtin_expression("mermin"), ghz, model, magnitude=True
        )
        assert m_report.violation_factor == pytest.approx(2.0, abs=1e-9)
        assert m_report.violation_amount == pytest.approx(2.0, abs=1e-9)


def test_criterion_06_white_noise_tolerances():
    with criterion(6, "noise tolerance 0.5 by closed form and root scan; term-count rule flagged"):
        ghz = ghz_state(3)
        model = paper_model()
        for name, magnitude in (("g-paper", False), ("mermin", True)):
            expr = builtin_expression(name)
            closed = white_noise_tolerance(expr, ghz, model, magnitude=magnitude)
            scanned = tolerance_by_root_scan(expr, ghz, model, magnitude=magnitude)
            assert closed.p_critical == pytest.approx(0.5, abs=1e-9), name
            assert scanned == pytest.approx(0.5, abs=1e-9), name
            assert abs(closed.p_critical - scanned) < 1e-9, name
        g_closed = white_noise_tolerance(builtin_expression("g-paper"), ghz, model)
        assert g_closed.p_critical_term_count == pytest.approx(2.5 / 3.5, abs=1e-9)
        assert g_closed.interpretations_agree is False


def test_criterion_07_expansion_facts_from_the_independent_oracle():
    with criterion(7, "g-paper expansion: sum -96, 32 ones and 32 minus-fours, matches strategies"):
        expr = builtin_expression("g-paper")
        oracle = oracles.expansion_by_direct_evaluation(expr)
        assert sum(oracle.values()) == Fraction(-96)
        assert sum(1 for v in oracle.values() if v == 1) == 32
        assert sum(1 for v in oracle.values() if v == -4) == 32
        expansion = expand_full_joint(expr)
        assert expansion.coefficient_sum == Fraction(-96)
        for strategy in enumerate_strategies(expr.scenario):
            value = evaluate_on_strategy(expr, strategy)
            assert expansion.coefficient(strategy) == value
            assert oracle[strategy] == value


def test_criterion_08_fixture_diff_completes_and_localizes():
    with criterion(8, "fixture diff localizes mismatches; spot entries match the oracle"):
        expr = builtin_expression("g-paper")
        expansion = expand_full_joint(expr)
        fixture = g_paper_expansion_fixture()
        assert not diff_expansion(expansion, fixture)  # computed fact: the shipped table is clean
        # the fixture's spot entries match the direct-evaluation oracle
        oracle = oracles.expansion_by_direct_evaluation(expr)
        all_up = ((0, 0), (0, 0), (0, 0))
        flipped = ((0, 1), (0, 0), (0, 0))
        assert fixture.coefficient(all_up) == oracle[all_up] == 1
        assert fixture.coefficient(flipped) == oracle[flipped] == -4
        # localization: a single injected fault is pinned to its assignment
        perturbed = fixture.grid.copy()
        perturbed[sum(flipped, ())] += fixture.scale
        fault_report = diff_expansion(expansion, FullJointExpansion(TRI, perturbed, fixture.scale))
        assert len(fault_report) == 1
        assert fault_report[0].assignment == flipped


def test_criterion_09_property_suites():
    with criterion(9, "1000 random states/models normalize and do not signal; bounds duality holds"):
        rng = np.random.default_rng(20260810)
        outcomes_space = list(product((0, 1), repeat=3))
        settings_space = list(product((0, 1), repeat=3))
        subsets = [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]
        for index in range(1000):
            if index % 5 == 4:
                raw = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
                rho = raw @ raw.conj().T
                state = DensityMatrix(rho / np.trace(rho))
            else:
                state = PureState(oracles.random_pure_amplitudes(rng, 3))
            model = oracles.random_model(rng)
            table = {}
            for settings in settings_space:
                row = {
                    outcomes: joint_probability(state, model, settings, outcomes)
                    for outcomes in outcomes_space
                }
                assert abs(sum(row.values()) - 1.0) <= 1e-12
                table[settings] = row
            for kept in subsets:
                dropped = [p for p in (0, 1, 2) if p not in kept]
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

        # vertex-versus-basis duality on 200 random rational expressions
        scenarios = [
            TRI,
            Scenario.uniform(2, 2, 2),
            Scenario.uniform(2, 2, 3),
            Scenario(2, (1, 2), ((3,), (2, 2))),
        ]
        for index in range(200):
            expr = oracles.random_expression(rng, scenarios[index % len(scenarios)])
            bounds = local_bounds(expr)
            assert trivial_bounds(expr) == (bounds.min, bounds.max)

        # 1000 exact random mixtures of strategies stay inside the bounds
        g_expr = builtin_expression("g-paper")
        g_bounds = local_bounds(g_expr)
        strategies = enumerate_strategies(TRI)
        values = [evaluate_on_strategy(g_expr, s) for s in strategies]
        for _ in range(1000):
            raw = [int(w) for w in rng.integers(0, 8, size=64)]
            total = sum(raw)
            if total == 0:
                continue
            mixture_value = sum(
                (Fraction(w, total) * v for w, v in zip(raw, values)), Fraction(0)
            )
            assert g_bounds.min <= mixture_value <= g_bounds.max


def test_criterion_10_optimizer_reproduces_and_is_deterministic():
    with criterion(10, "optimizer: 3.5 from the pinned start, seeded floors, deterministic"):
        start = time.perf_counter()
        ghz = ghz_state(3)
        g_expr = builtin_expression("g-paper")
        pinned = optimize_measurements(g_expr, ghz, OptimizerConfig(restarts=0))
        assert pinned.best_value == pytest.approx(3.5, abs=1e-9)

        config = OptimizerConfig(restarts=20, seed=0)
        g_run = optimize_measurements(g_expr, ghz, config)
        assert g_run.best_value >= 3.5 - 1e-6

        mermin = builtin_expression("mermin")
        m_run = optimize_measurements(mermin, ghz, config, magnitude=True)
        assert m_run.best_value >= 4.0 - 1e-6

        again = optimize_measurements(g_expr, ghz, config)
        assert again == g_run
        assert repr(again.best_angles) == repr(g_run.best_angles)
        assert json.dumps(g_run.best_value) == json.dumps(again.best_value)
        assert time.perf_counter() - start < 30.0


def test_criterion_11_term_counts():
    with criterion(11, "term counts: 20 for g-paper, 32 for converted mermin"):
        assert builtin_expression("g-paper").term_count == 20
        converted = as_probability_form(builtin_expression("mermin"))
        assert converted.term_count == 32


def test_criterion_12_g_paper_is_rescaled_mermin():
    claim = "g-paper = -5/4 mermin - 3/2, exactly on strategies and on quantum behaviours"
    with criterion(12, claim):
        g_expr = builtin_expression("g-paper")
        mermin = builtin_expression("mermin")
        g_expansion = dict(expand_full_joint(g_expr).items())
        m_expansion = dict(expand_full_joint(as_probability_form(mermin)).items())
        assert len(g_expansion) == 64
        for assignment, value in g_expansion.items():
            assert value == Fraction(-5, 4) * m_expansion[assignment] - Fraction(3, 2)
        rng = np.random.default_rng(2011)
        for _ in range(20):
            state = PureState(oracles.random_pure_amplitudes(rng, 3))
            model = oracles.random_model(rng)
            g_value = expression_value(g_expr, state, model).value
            m_value = expression_value(mermin, state, model).value
            assert abs(g_value - (-1.25 * m_value - 1.5)) <= 1e-12
