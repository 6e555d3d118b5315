from fractions import Fraction

import numpy as np
import pytest

from bellkit import (
    MarginalTerm,
    NoViolationError,
    Scenario,
    as_probability_form,
    builtin_expression,
    coefficient_sum,
    expression_value,
    local_bounds,
    make_expression,
    mix_with_white_noise,
    tolerance_by_root_scan,
    white_noise_tolerance,
)

import oracles

TRI = Scenario.uniform(3, 2, 2)


class TestCoefficientSum:
    def test_g_paper(self, g_expr):
        assert coefficient_sum(g_expr) == -12

    def test_signed_mermin_probability_form_sums_to_zero(self, mermin_expr):
        assert coefficient_sum(mermin_expr) == 0

    def test_empty_expression(self):
        assert coefficient_sum(make_expression(TRI, [])) == 0


class TestClosedForm:
    def test_g_paper_tolerance(self, g_expr, ghz3, xy_model):
        report = white_noise_tolerance(g_expr, ghz3, xy_model)
        assert report.p_critical == pytest.approx(0.5, abs=1e-9)
        assert report.quantum_value == pytest.approx(3.5, abs=1e-9)
        assert report.local_max == 1
        assert report.coefficient_sum == -12
        assert report.outcome_cells == 8

    def test_g_paper_term_count_rule_disagrees(self, g_expr, ghz3, xy_model):
        report = white_noise_tolerance(g_expr, ghz3, xy_model)
        assert report.positive_terms == 10
        assert report.negative_terms == 10
        # counting terms instead of summing coefficients gives 2.5/3.5
        assert report.p_critical_term_count == pytest.approx(2.5 / 3.5, abs=1e-9)
        assert not report.interpretations_agree

    def test_mermin_tolerance_by_magnitude(self, mermin_expr, ghz3, xy_model):
        report = white_noise_tolerance(mermin_expr, ghz3, xy_model, magnitude=True)
        assert report.p_critical == pytest.approx(0.5, abs=1e-9)
        assert report.quantum_value == pytest.approx(4.0, abs=1e-9)
        assert report.local_max == 2
        assert report.coefficient_sum == 0
        # 16 positive and 16 negative unit coefficients: the rules coincide
        assert report.positive_terms == 16
        assert report.negative_terms == 16
        assert report.p_critical_term_count == pytest.approx(0.5, abs=1e-9)
        assert report.interpretations_agree

    @pytest.mark.parametrize("tweak", [0, Fraction(1, 4)], ids=["mermin", "mermin-tweaked"])
    def test_negated_orientation(self, mermin_expr, ghz3, xy_model, tweak):
        # Mermin is -4 on the paper model, so magnitude mode analyzes its
        # negation: S is negated and the term counts trade places.  The tweak,
        # +1/4 P(A1 B1 C1 | 1 1 1), makes both visible (S = 1/4, 17 positive
        # terms and 16 negative before the swap).
        expr = as_probability_form(mermin_expr) + make_expression(
            TRI, [MarginalTerm((1, 1, 1), (1, 1, 1), tweak)]
        )
        assert expression_value(expr, ghz3, xy_model).value < 0
        report = white_noise_tolerance(expr, ghz3, xy_model, magnitude=True)
        assert report.coefficient_sum == -tweak
        assert (report.positive_terms, report.negative_terms) == (16, 16 + (tweak != 0))
        assert report.quantum_value == pytest.approx(4 - tweak / 8, abs=1e-12)
        assert report.local_max == 2 + tweak
        # P(A1 B1 C1 | 1 1 1) = 1/8, so Q - S/8 = 4 and p = (Q - L) / 4
        expected = (4 - tweak / 8 - 2 - tweak) / 4
        assert report.p_critical == pytest.approx(float(expected), abs=1e-12)
        # the negated expression is already in the analyzed orientation
        assert white_noise_tolerance(-expr, ghz3, xy_model, magnitude=True) == report

    def test_no_violation_raises(self, ghz3, xy_model):
        # a single positive term has local max 1 but quantum value 1/4
        expr = make_expression(TRI, [MarginalTerm((0, 0, 0), (1, 1, 1), 1)])
        with pytest.raises(NoViolationError, match="undefined"):
            white_noise_tolerance(expr, ghz3, xy_model)

    def test_zero_margin_violation_has_zero_tolerance(self, ghz3, xy_model):
        # four XXX outcomes of even parity: quantum value 1 equals the local max
        terms = [
            MarginalTerm((0, 0, 0), outcomes, 1)
            for outcomes in [(1, 1, 1), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
        ]
        expr = make_expression(TRI, terms)
        report = white_noise_tolerance(expr, ghz3, xy_model)
        assert report.quantum_value == pytest.approx(1.0, abs=1e-12)
        assert report.local_max == 1
        assert report.p_critical == pytest.approx(0.0, abs=1e-9)
        assert tolerance_by_root_scan(expr, ghz3, xy_model) == pytest.approx(
            0.0, abs=1e-9
        )


class TestRootScan:
    def test_g_paper(self, g_expr, ghz3, xy_model):
        assert tolerance_by_root_scan(g_expr, ghz3, xy_model) == pytest.approx(
            0.5, abs=1e-9
        )

    def test_mermin(self, mermin_expr, ghz3, xy_model):
        assert tolerance_by_root_scan(
            mermin_expr, ghz3, xy_model, magnitude=True
        ) == pytest.approx(0.5, abs=1e-9)

    def test_agrees_with_closed_form(self, g_expr, ghz3, xy_model):
        closed = white_noise_tolerance(g_expr, ghz3, xy_model).p_critical
        scanned = tolerance_by_root_scan(g_expr, ghz3, xy_model)
        assert abs(closed - scanned) < 1e-9

    def test_no_violation_raises(self, ghz3, xy_model):
        expr = make_expression(TRI, [MarginalTerm((0, 0, 0), (1, 1, 1), 1)])
        with pytest.raises(NoViolationError):
            tolerance_by_root_scan(expr, ghz3, xy_model)

    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_violating_expressions_agree(self, seed, ghz3, xy_model):
        # perturb the violating builtin by small random terms; skip draws
        # that destroy the violation
        rng = np.random.default_rng(500 + seed)
        perturbation = oracles.random_expression(rng, TRI, max_terms=4).scale(
            Fraction(1, 20)
        )
        expr = builtin_expression("g-paper") + perturbation
        value = expression_value(expr, ghz3, xy_model).value
        bound = local_bounds(expr).max
        if value <= float(bound):
            pytest.skip("perturbation removed the violation")
        closed = white_noise_tolerance(expr, ghz3, xy_model).p_critical
        scanned = tolerance_by_root_scan(expr, ghz3, xy_model)
        assert abs(closed - scanned) < 1e-9

    def test_crossing_is_monotone(self, g_expr, ghz3, xy_model):
        report = white_noise_tolerance(g_expr, ghz3, xy_model)
        bound = float(report.local_max)
        for delta in (1e-6, 1e-4):
            below = expression_value(
                g_expr, mix_with_white_noise(ghz3, report.p_critical - delta), xy_model
            ).value
            above = expression_value(
                g_expr, mix_with_white_noise(ghz3, report.p_critical + delta), xy_model
            ).value
            assert below > bound
            assert above < bound

    def test_scan_rejects_clearly_negative_margins(self, ghz3, xy_model):
        # all-negative coefficients: quantum value below zero, local max 0
        expr = make_expression(
            TRI, [MarginalTerm((1, 1, 1), outcomes, -1) for outcomes in [(1, 1, 1), (0, 0, 0)]]
        )
        with pytest.raises(NoViolationError):
            tolerance_by_root_scan(expr, ghz3, xy_model)
