import json
import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bellkit import (
    DensityMatrix,
    DimensionMismatchError,
    MarginalTerm,
    MeasurementModel,
    NoViolationError,
    PureState,
    Scenario,
    ScenarioMismatchError,
    as_probability_form,
    builtin_expression,
    coefficient_sum,
    expression_value,
    ghz_state,
    local_bounds,
    make_expression,
    mix_with_white_noise,
    paper_model,
    parse_model,
    tolerance_by_root_scan,
    trivial_bounds,
    violation_report,
    white_noise_tolerance,
)
from bellkit import noise
from bellkit.noise import MARGIN_TOL, SCAN_RESOLUTION, _crossing

import oracles
from test_lhv import binary_scenarios, small_correlator_expressions, small_expressions

TRI = Scenario.uniform(3, 2, 2)
XY = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))


class TestCoefficientSum:
    def test_g_paper(self, g_expr):
        assert coefficient_sum(g_expr) == -12

    def test_signed_mermin_probability_form_sums_to_zero(self, mermin_expr):
        assert coefficient_sum(mermin_expr) == 0

    def test_empty_expression(self):
        assert coefficient_sum(make_expression(TRI, [])) == 0

    @settings(max_examples=60, deadline=None)
    @given(expr=st.one_of(small_expressions(), small_correlator_expressions()))
    def test_one_pass_gives_the_exact_sum_the_signs_and_the_band(self, expr):
        # the pass sums integers scaled by the lcm; the definitions sum Fractions
        coefficients = as_probability_form(expr).terms.values()
        scalars = noise._coefficient_pass(as_probability_form(expr))
        assert scalars.total == coefficient_sum(expr) == sum(coefficients, Fraction(0))
        assert scalars.positive == sum(1 for c in coefficients if c > 0)
        assert scalars.negative == sum(1 for c in coefficients if c < 0)
        magnitudes = math.fsum(abs(c.numerator) / c.denominator for c in coefficients)
        assert scalars.band == MARGIN_TOL * magnitudes


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


def g_paper_plus_constant(c):
    """g-paper plus ``c`` times the sum of the eight outcome terms of settings
    (0, 0, 0), which is 1 on every behaviour: every value moves by exactly ``c``."""
    constant = [MarginalTerm((0, 0, 0), outcomes, c) for outcomes in product((0, 1), repeat=3)]
    return builtin_expression("g-paper") + make_expression(TRI, constant)


class TestUnequalTermCounts:
    """Expressions whose probability form has more positive than negative terms,
    so the term-count rule differs from the coefficient sum.  G1, g-paper plus
    the constant 1, has 12 positive and 10 negative terms, S = -4, local range
    [-3, 2] and Q = 4.5 on GHZ_3 under X/Y."""

    def test_g1_in_the_signed_orientation(self, ghz3, xy_model):
        report = white_noise_tolerance(g_paper_plus_constant(1), ghz3, xy_model)
        assert (report.positive_terms, report.negative_terms) == (12, 10)
        assert report.coefficient_sum == -4
        assert report.local_max == 2
        assert report.quantum_value == pytest.approx(4.5, abs=1e-12)
        # p = (Q - L) / (Q - S/8) = 2.5 / 5; the term count reads 2.5 / (4.5 - 2/8)
        assert report.p_critical == pytest.approx(0.5, abs=1e-12)
        assert report.p_critical_term_count == pytest.approx(10 / 17, abs=1e-12)
        assert not report.interpretations_agree

    def test_g1_over_5_by_magnitude_below_one(self, ghz3, xy_model):
        # Q = 0.9 lies in [0, 1): magnitude mode keeps the signed orientation
        expr = g_paper_plus_constant(1).scale(Fraction(1, 5))
        report = white_noise_tolerance(expr, ghz3, xy_model, magnitude=True)
        assert report.quantum_value == pytest.approx(0.9, abs=1e-12)
        assert report.local_max == Fraction(3, 5)
        assert report.coefficient_sum == Fraction(-4, 5)
        assert (report.positive_terms, report.negative_terms) == (12, 10)
        assert report.p_critical == pytest.approx(0.3, abs=1e-12)
        # the term-count denominator 0.9 - 2/8 = 0.65 lies in (0, 1)
        assert report.p_critical_term_count == pytest.approx(6 / 13, abs=1e-12)

    def test_a_negative_signed_value_keeps_its_orientation(self, ghz3, xy_model):
        # g-paper minus the constant 4: Q = -0.5 against L = -3, S = -44, and
        # 6 positive against 14 negative terms; no magnitude, so nothing is negated
        report = white_noise_tolerance(g_paper_plus_constant(-4), ghz3, xy_model)
        assert report.quantum_value == pytest.approx(-0.5, abs=1e-12)
        assert report.local_max == -3
        assert report.coefficient_sum == -44
        assert (report.positive_terms, report.negative_terms) == (6, 14)
        assert report.p_critical == pytest.approx(0.5, abs=1e-12)
        assert report.p_critical_term_count == pytest.approx(5.0, abs=1e-12)

    def test_a_term_count_denominator_below_zero_gives_no_value(self, ghz3, xy_model):
        # G1/50: Q = 0.09, and the term count's denominator 0.09 - (12 - 10)/8 is negative
        expr = g_paper_plus_constant(1).scale(Fraction(1, 50))
        report = white_noise_tolerance(expr, ghz3, xy_model)
        assert report.quantum_value == pytest.approx(0.09, abs=1e-12)
        assert report.p_critical == pytest.approx(0.5, abs=1e-12)
        assert report.p_critical_term_count is None
        assert report.interpretations_agree is False


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

    def test_a_mixed_state_scans_like_the_closed_form(self, g_expr, ghz3, xy_model):
        rho = mix_with_white_noise(ghz3, 0.1)  # 0.9 |GHZ_3><GHZ_3| + 0.1 I/8
        closed = white_noise_tolerance(g_expr, rho, xy_model).p_critical
        scanned = tolerance_by_root_scan(g_expr, rho, xy_model)
        # Q = 0.9 * 3.5 + 0.1 * (-1.5) = 3, so p = (3 - 1) / (3 + 1.5) = 4/9
        assert closed == pytest.approx(4 / 9, abs=1e-9)
        assert scanned == pytest.approx(4 / 9, abs=1e-9)

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

    @settings(max_examples=60, deadline=None)
    @given(
        base=st.sampled_from(["g-paper", "mermin"]),
        spread=st.floats(0.0, 0.3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_agrees_with_the_bisection_oracle(self, base, spread, seed):
        # a builtin plus small random terms, on a pure state and X/Y settings
        # each moved off the paper's by a random vector of size ~spread
        rng = np.random.default_rng(seed)
        magnitude = base == "mermin"
        expr = as_probability_form(builtin_expression(base)) + oracles.random_expression(
            rng, TRI, max_terms=4
        ).scale(Fraction(1, 20))
        amplitudes = ghz_state(3).amplitudes + spread * oracles.random_pure_amplitudes(rng, 3)
        state = PureState(amplitudes / np.linalg.norm(amplitudes))
        bloch = np.array(XY) + spread * rng.normal(size=(3, 2, 3))
        bloch /= np.linalg.norm(bloch, axis=-1, keepdims=True)
        model = MeasurementModel(tuple(tuple(map(tuple, party)) for party in bloch.tolist()))
        try:
            closed = white_noise_tolerance(expr, state, model, magnitude=magnitude).p_critical
        except NoViolationError:
            assume(False)
        assume(closed > 0)
        scanned = tolerance_by_root_scan(expr, state, model, magnitude=magnitude)
        oracle = oracles.bisection_root_scan(expr, state.amplitudes, model, magnitude)
        assert abs(scanned - oracle) <= SCAN_RESOLUTION
        assert abs(scanned - closed) <= 1e-9

    @pytest.mark.parametrize(
        "expr, state, model, magnitude",
        [
            (builtin_expression("g-paper"), ghz_state(3), paper_model(), False),
            (builtin_expression("mermin"), ghz_state(3), paper_model(), True),
        ]
        + [
            (oracles.mermin_expression(n), ghz_state(n), MeasurementModel((XY,) * n), True)
            for n in (3, 4, 5)
        ],
        ids=["g-paper", "mermin", "mermin3", "mermin4", "mermin5"],
    )
    def test_affine_crossing_takes_four_noisy_states(
        self, monkeypatch, expr, state, model, magnitude
    ):
        # both ends plus one probe either side of the false-position guess
        mixes = []

        def counted(state, p):
            mixes.append(p)
            return mix_with_white_noise(state, p)

        monkeypatch.setattr(noise, "mix_with_white_noise", counted)
        scanned = tolerance_by_root_scan(expr, state, model, magnitude=magnitude)
        assert len(mixes) == 4
        closed = white_noise_tolerance(expr, state, model, magnitude=magnitude)
        assert abs(scanned - closed.p_critical) <= 1e-12

    def test_one_density_matrix_per_noisy_state(self, monkeypatch, g_expr, ghz3, xy_model):
        # the scan mixes the pure state it is given, wrapping no copy of it first
        wraps = []
        original = DensityMatrix._from_valid_matrix.__func__

        def counted(cls, matrix, parties):
            wraps.append(parties)
            return original(cls, matrix, parties)

        monkeypatch.setattr(DensityMatrix, "_from_valid_matrix", classmethod(counted))
        bounds = trivial_bounds(g_expr)
        band = noise._coefficient_pass(g_expr).band
        crossing, evaluations = noise._root_scan(g_expr, ghz3, xy_model, bounds, band, False)
        assert crossing == pytest.approx(0.5, abs=1e-9)
        assert evaluations == 4
        assert len(wraps) == evaluations


# largest evaluation count :func:`_crossing` may take on [0, 1], ends included
MAX_EVALUATIONS = 2 + 3 * math.ceil(math.log2(1 / SCAN_RESOLUTION))


class BracketRecorder:
    """Wraps an amount function, keeps the bracket its evaluations imply and
    checks at every call that the point lies strictly inside that bracket and
    that the bracket ends keep their signs."""

    def __init__(self, amount, lo, hi):
        self.amount = amount
        self.lo, self.hi = lo, hi
        self.lo_amount, self.hi_amount = amount(lo), amount(hi)
        self.points = []

    def __call__(self, p):
        assert self.lo < p < self.hi
        self.points.append(p)
        value = self.amount(p)
        if value > 0:
            self.lo, self.lo_amount = p, value
        else:
            self.hi, self.hi_amount = p, value
        assert self.lo_amount > 0 >= self.hi_amount
        return value

    def crossing(self):
        """Run :func:`_crossing` through this recorder; the evaluations count both ends."""
        result = _crossing(self, self.lo, self.hi, self.lo_amount, self.hi_amount)
        assert self.hi - self.lo <= SCAN_RESOLUTION
        assert result == (self.lo + self.hi) / 2
        return result, 2 + len(self.points)


def step(c):
    return lambda p: 1.0 if p < c else -1.0


class TestCrossing:
    """The bracketing root finder of the root scan, on plain functions."""

    @pytest.mark.parametrize("root", [0.5, 1 / 3, 0.123456789, 1e-6, 0.999999])
    @pytest.mark.parametrize("slope", [1.0, 5.0, 1e-3])
    def test_affine_closes_in_one_step(self, root, slope):
        result, evaluations = BracketRecorder(lambda p: slope * (root - p), 0.0, 1.0).crossing()
        assert evaluations == 4
        assert abs(result - root) <= 1e-15

    def test_kinked(self):
        # |2 - 5p| - 1 falls to its first root at 0.2, kinks at 0.4 and rises
        result, evaluations = BracketRecorder(lambda p: abs(2 - 5 * p) - 1, 0.0, 0.5).crossing()
        assert evaluations <= 8
        assert abs(result - 0.2) <= SCAN_RESOLUTION / 2

    @pytest.mark.parametrize(
        "amount, root",
        [
            (lambda p: 0.3 - p**3, 0.3 ** (1 / 3)),
            (lambda p: (0.6 - p) ** 3, 0.6),
            (step(0.3), 0.3),
            (step(1 / math.pi), 1 / math.pi),
        ],
        ids=["cubic", "triple-root", "step", "step-irrational"],
    )
    def test_bracket_holds_and_closes_on_the_sign_change(self, amount, root):
        result, evaluations = BracketRecorder(amount, 0.0, 1.0).crossing()
        assert abs(result - root) <= SCAN_RESOLUTION / 2
        assert evaluations <= MAX_EVALUATIONS

    @settings(max_examples=200, deadline=None)
    @given(
        root=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        family=st.sampled_from(["step", "cubic", "steep", "flat-then-steep", "sqrt"]),
    )
    def test_evaluation_bound(self, root, family):
        amount = {
            "step": step(root),
            "cubic": lambda p: (root - p) ** 3,
            "steep": lambda p: math.tanh(1e4 * (root - p)),
            "flat-then-steep": lambda p: 1e-9 if p < root else -1e9,
            "sqrt": lambda p: math.copysign(math.sqrt(abs(root - p)), root - p),
        }[family]
        recorder = BracketRecorder(amount, 0.0, 1.0)
        assume(recorder.lo_amount > 0 >= recorder.hi_amount)
        result, evaluations = recorder.crossing()
        assert evaluations <= MAX_EVALUATIONS
        assert abs(result - root) <= SCAN_RESOLUTION / 2

    def test_non_finite_guess_bisects(self):
        # an infinite margin at lo makes the false-position guess inf/inf = NaN
        recorder = BracketRecorder(lambda p: math.inf if p == 0 else 0.3 - p, 0.0, 1.0)
        result, _ = recorder.crossing()
        assert recorder.points[0] == 0.5
        assert abs(result - 0.3) <= SCAN_RESOLUTION / 2

    def test_guess_on_a_bracket_end_skips_the_outer_probe_and_bisects(self):
        # hi's margin -inf puts the guess on lo: the probe below lo is skipped,
        # the one above it leaves the bracket unhalved, and a bisection follows
        recorder = BracketRecorder(lambda p: 1.0 if p < 0.3 else -math.inf, 0.0, 1.0)
        result, evaluations = recorder.crossing()
        first, second = recorder.points[:2]
        assert first == SCAN_RESOLUTION / 4
        assert second == (first + 1.0) / 2
        assert abs(result - 0.3) <= SCAN_RESOLUTION / 2
        assert evaluations <= MAX_EVALUATIONS


def normalization_sum(scenario, settings, coefficient):
    """coefficient times the sum of P(settings | o) over every outcome tuple o:
    the constant ``coefficient`` on every behaviour, local or quantum."""
    return make_expression(
        scenario,
        [
            MarginalTerm(settings, outcomes, coefficient)
            for outcomes in product((0, 1), repeat=scenario.parties)
        ],
    )


class TestZeroMargin:
    """A margin within the zero-margin band gives 0 on both routes and no
    violation; the band scales with the coefficient magnitudes."""

    def test_w_state_normalization_sum(self):
        amplitudes = [[1 / math.sqrt(3), 0] if i in (1, 2, 4) else [0, 0] for i in range(8)]
        settings = [{"angles": [0.5, 0]}, {"angles": [1, 0.5]}]
        state, model = parse_model(
            json.dumps({"state": {"amplitudes": amplitudes}, "measurements": [settings] * 3})
        )
        expr = normalization_sum(TRI, (0, 0, 0), 1)
        # the quantum value is 1 up to rounding, which may fall on either side
        assert abs(expression_value(expr, state, model).value - 1) <= MARGIN_TOL
        report = white_noise_tolerance(expr, state, model)
        assert report.p_critical == 0.0
        assert report.p_critical_term_count == 0.0
        assert tolerance_by_root_scan(expr, state, model) == 0.0
        assert violation_report(expr, state, model).violated is False

    @pytest.mark.parametrize("seed", range(40))
    def test_random_normalization_sums(self, seed):
        rng = np.random.default_rng(900 + seed)
        parties = int(rng.integers(2, 5))
        scenario = Scenario.uniform(parties, 2, 2)
        settings = tuple(int(s) for s in rng.integers(0, 2, size=parties))
        expr = normalization_sum(scenario, settings, oracles.random_rational(rng) or 1)
        state = PureState(oracles.random_pure_amplitudes(rng, parties))
        model = oracles.random_model(rng, parties=parties)
        magnitude = bool(rng.integers(0, 2))
        report = white_noise_tolerance(expr, state, model, magnitude=magnitude)
        assert report.p_critical == 0.0
        assert report.p_critical_term_count == 0.0
        assert tolerance_by_root_scan(expr, state, model, magnitude=magnitude) == 0.0
        assert violation_report(expr, state, model, magnitude=magnitude).violated is False

    @pytest.mark.parametrize("coefficient", [Fraction(1, 10**10), 10**8, 10**12])
    def test_scaled_normalization_sums(self, ghz3, xy_model, coefficient):
        # the sum is `coefficient` on every behaviour; 10^8 and 10^12 miss an
        # absolute band of 1e-9 by rounding (amounts -1.5e-8 and -2.4e-4)
        expr = normalization_sum(TRI, (1, 0, 1), coefficient)
        assert white_noise_tolerance(expr, ghz3, xy_model).p_critical == 0.0
        assert tolerance_by_root_scan(expr, ghz3, xy_model) == 0.0
        assert violation_report(expr, ghz3, xy_model).violated is False

    def test_scaled_down_mermin_keeps_its_violation(self, mermin_expr, ghz3, xy_model):
        # Q = 4e-10 against L = 2e-10: a margin below 1e-9 that is no rounding error
        expr = mermin_expr.scale(Fraction(1, 10**10))
        report = white_noise_tolerance(expr, ghz3, xy_model, magnitude=True)
        assert report.p_critical == pytest.approx(0.5, abs=1e-12)
        scanned = tolerance_by_root_scan(expr, ghz3, xy_model, magnitude=True)
        assert scanned == pytest.approx(0.5, abs=1e-9)
        violation = violation_report(expr, ghz3, xy_model, magnitude=True)
        assert violation.violation_amount == pytest.approx(2e-10, rel=1e-9)
        assert violation.violated is True

    def test_both_routes_give_one_no_violation_message(self, ghz3, xy_model):
        expr = make_expression(TRI, [MarginalTerm((0, 0, 0), (1, 1, 1), 1)])
        with pytest.raises(NoViolationError) as closed:
            white_noise_tolerance(expr, ghz3, xy_model)
        with pytest.raises(NoViolationError) as scanned:
            tolerance_by_root_scan(expr, ghz3, xy_model)
        assert str(scanned.value) == str(closed.value)


class TestLocalBoundRoute:
    """The noise layer reads the local extremes off the expansion grid, never the sweep."""

    @pytest.mark.parametrize(
        "function", [violation_report, white_noise_tolerance, tolerance_by_root_scan]
    )
    @pytest.mark.parametrize("name, magnitude", [("g-paper", False), ("mermin", True)])
    def test_one_grid_read_and_no_sweep(
        self, call_counts, ghz3, xy_model, function, name, magnitude
    ):
        function(builtin_expression(name), ghz3, xy_model, magnitude=magnitude)
        assert call_counts["trivial_bounds"] == 1
        assert call_counts["local_bounds"] == call_counts["evaluate_on_strategy"] == 0
        assert call_counts["_coefficient_pass"] == 1

    @pytest.mark.parametrize(
        "function", [violation_report, white_noise_tolerance, tolerance_by_root_scan]
    )
    @pytest.mark.parametrize("parties", [3, 5])
    def test_a_correlator_form_is_never_converted(self, call_counts, function, parties):
        model = MeasurementModel((XY,) * parties)
        function(oracles.mermin_expression(parties), ghz_state(parties), model, magnitude=True)
        assert call_counts["correlator_to_probability"] == 0

    @pytest.mark.parametrize(
        "function", [violation_report, white_noise_tolerance, tolerance_by_root_scan]
    )
    @pytest.mark.parametrize(
        "parties, error", [(3, ScenarioMismatchError), (2, DimensionMismatchError)]
    )
    def test_the_state_and_model_are_checked_before_the_grid(self, function, parties, error):
        # 3^9 strategies exceed the cap, but the state and the (3,2,2) model are checked first
        expr = make_expression(
            Scenario.uniform(3, 3, 3), [MarginalTerm((2, 2, 2), (2, 2, 2), 1)]
        )
        with pytest.raises(error):
            function(expr, ghz_state(parties), paper_model(), cap=10)

    @settings(max_examples=40, deadline=None)
    @given(
        expr=st.one_of(small_expressions(binary_scenarios()), small_correlator_expressions()),
        ghz=st.booleans(),
        magnitude=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_local_bound_equals_the_sweep(self, expr, ghz, magnitude, seed):
        rng = np.random.default_rng(seed)
        scenario = expr.scenario
        state = (
            ghz_state(scenario.parties)
            if ghz
            else PureState(oracles.random_pure_amplitudes(rng, scenario.parties))
        )
        model = MeasurementModel(
            tuple(
                tuple(oracles.random_bloch(rng) for _ in range(n))
                for n in scenario.settings_per_party
            )
        )
        sweep = local_bounds(as_probability_form(expr))
        expected = sweep.magnitude if magnitude else sweep.max
        assert violation_report(expr, state, model, magnitude).local_max == expected
        try:
            report = white_noise_tolerance(expr, state, model, magnitude)
        except NoViolationError as exc:  # the message names the bound it missed
            assert f"does not reach the local bound {expected};" in str(exc)
        else:
            assert report.local_max == expected


class TestKeptExtremes:
    """The noise pair reads one expression's kept extremes in either order."""

    @pytest.mark.parametrize(
        "make, parties, magnitude",
        [
            (lambda: builtin_expression("g-paper"), 3, False),
            (lambda: oracles.mermin_expression(3), 3, True),
            (lambda: oracles.mermin_expression(5), 5, True),
        ],
    )
    def test_either_call_order_matches_a_fresh_expression(self, make, parties, magnitude):
        state = ghz_state(parties)
        model = MeasurementModel((XY,) * parties)

        def closed(expr):
            return white_noise_tolerance(expr, state, model, magnitude)

        def scanned(expr):
            return tolerance_by_root_scan(expr, state, model, magnitude)

        expected = (closed(make()), scanned(make()))
        closed_first = make()
        assert (closed(closed_first), scanned(closed_first)) == expected
        scanned_first = make()
        p_scanned = scanned(scanned_first)
        assert (closed(scanned_first), p_scanned) == expected
        assert (closed(closed_first), scanned(scanned_first)) == expected  # warm
