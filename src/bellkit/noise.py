"""Quantum value against local bound: the violation and its white-noise robustness.

Every number here compares one pair (Q, L), the quantum value and the exact
local bound, taken in one orientation, which :meth:`ViolationReport.of`
decides: with ``magnitude`` set, |Q| against the larger of |local max| and
|local min|, else the signed Q against the local maximum.  The violation
factor is Q / L and the amount Q - L.

Mixing a state, pure or mixed, with the maximally mixed state moves every joint
probability affinely in the mixing fraction p, so the expression value is
affine in p and the critical fraction has the closed form

    p = (Q - L) / (Q - S / 2^parties)

with S the coefficient sum of the probability form (the value on the
maximally mixed state times the number of outcome cells).  A term-counting
variant replaces S by the number of positive terms minus the number of
negative terms; both results are reported, because the two only agree when
every coefficient has unit magnitude, and a disagreement is worth surfacing
rather than hiding.

An independent root scan cross-checks the closed form.  It reads only the
margins of evaluated noisy states, never Q, S or the number of outcome
cells, and keeps a bracket on the mixing fraction across which the margin
changes sign.  Each step probes either side of the false-position guess and
falls back to bisection when that does not halve the bracket, so the affine
crossing is closed with four noisy states and any crossing still converges.
A margin within the band of :func:`_margin_band` gives 0 by both routes and
is not flagged as a violation: :meth:`ViolationReport.of` compares the margin
with the band and decides ``violated``, and :func:`_margin` reads that verdict.
The scan runs :meth:`ViolationReport.of` once, on the state mixed at p = 0,
for that rule and the orientation; every later margin is the oriented noisy
value minus the float local bound that report holds, the subtraction the
report makes.  Its noisy states all mix the state it is given, pure or mixed,
reading the density matrix that state built once.

Every number here needs only the local extremes (min, max), never the
strategies that attain them, so they are read from
:func:`~bellkit.lhv.trivial_bounds`, not off the vertex sweep.  That builds
the exact expansion grid (one array add per full settings table) on an
expression's first call and keeps the extremes on the expression, so the
closed form and the root scan on one expression, in either order, build one
grid between them.  Every quantum value reads the table entries the
expression compiled once (:func:`~bellkit.quantum.expression_value`), so the
root scan's noisy states cost one table each.  S, the two term counts and the
band come from one pass over the coefficients (:func:`_coefficient_pass`),
which reads a correlator form's own terms: its S is 0 and its terms split
evenly by sign.  No step here builds a correlator form's probability form.
:func:`_intake` is the one place that takes the quantum value, the extremes
and that pass, in that order, so a model that does not fit is refused before
any grid is built.  :func:`violation_report`, :func:`white_noise_tolerance`
and the ``noise`` command read it once and then run their steps: the report,
the closed form, or the closed form and the root scan.
:func:`tolerance_by_root_scan` checks the model and reads the extremes and
the band itself: its first probe takes the value, so :func:`_intake` would
cost it one more table.  The ``report`` command, which lists the
extremizers, passes its one sweep's (min, max) to both steps instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from .errors import NoRootError, NoViolationError
from .lhv import DEFAULT_ENUMERATION_CAP, bound_magnitude, trivial_bounds
from .quantum import (
    MeasurementModel,
    State,
    _check_evaluation,
    expression_value,
    mix_with_white_noise,
)
from .scenario import CorrelatorExpression, Expression, _scaled_coefficients

AGREEMENT_TOL = 1e-9

# quantum values are floats; margins within this much per unit of coefficient
# magnitude are zero margins (tolerance 0, not flagged), not missing violations
MARGIN_TOL = 1e-9
# the root scan narrows its bracket on the mixing fraction to this width; its
# probes sit a quarter of it either side of each false-position guess
SCAN_RESOLUTION = 1e-12
_ZERO = Fraction(0)  # a correlator form's coefficient sum


def coefficient_sum(expr: Expression) -> Fraction:
    """Exact sum of probability-form coefficients: 0 for every correlator form.

    Equals 2^parties times the expression value on the maximally mixed state.
    """
    return _coefficient_pass(expr).total


def _margin_band(ratios, log2_copies: int = 0) -> float:
    """Half-width of the zero-margin band: ``MARGIN_TOL`` times the sum of the
    coefficient magnitudes, which bounds the expression on every behaviour and
    so sets the scale of the rounding error in a quantum value.  ``ratios``
    holds each coefficient as a (numerator, denominator) pair, counted
    2^``log2_copies`` times: scaling the band by a power of two is exact, so it
    equals the band over that many copies, even where their sum overflows."""
    return math.ldexp(MARGIN_TOL * math.fsum(abs(n) / d for n, d in ratios), log2_copies)


class _Coefficients(NamedTuple):
    """What the noise numbers read off the probability-form coefficients: their
    exact sum, how many are positive and negative, and :func:`_margin_band`."""

    total: Fraction
    positive: int
    negative: int
    band: float


def _coefficient_pass(expr: Expression) -> _Coefficients:
    """:class:`_Coefficients` of an expression's probability form, never built.

    A correlator form's T terms over n parties expand to T * 2^(n-1) terms c
    and as many terms -c, which sum to 0, so only its band reads the
    coefficients, unscaled.  A probability form's sum and signs come from its
    coefficients scaled to integers by the lcm of their denominators."""
    values = expr.terms.values()
    if isinstance(expr, CorrelatorExpression):
        parties = expr.scenario.parties
        ratios = list(map(Fraction.as_integer_ratio, values))
        half = len(ratios) * 2 ** (parties - 1)
        return _Coefficients(_ZERO, half, half, _margin_band(ratios, parties))
    ratios, scale, scaled = _scaled_coefficients(values)
    positive = sum(v > 0 for v in scaled)  # coefficients are never zero
    total = Fraction(sum(scaled), scale)
    return _Coefficients(total, positive, len(scaled) - positive, _margin_band(ratios))


@dataclass(frozen=True)
class ViolationReport:
    """Quantum value against the exact local bound of the same expression.

    Under the magnitude convention both sides are magnitudes: |quantum value|
    against max(|local max|, |local min|).  The factor is absent when the local
    bound is not positive.  ``violated`` holds only for a margin above ``band``.
    """

    quantum_value: float
    local_max: Fraction
    violation_factor: Optional[float]
    violation_amount: float
    violated: bool

    @classmethod
    def of(cls, value: float, bounds: tuple, magnitude: bool, band: float) -> "ViolationReport":
        """Compare a signed quantum value with the exact local (min, max) in the analyzed
        orientation; ``band`` is the expression's :func:`_margin_band`."""
        low, high = bounds
        quantum = abs(value) if magnitude else value
        local = bound_magnitude(low, high) if magnitude else high
        local_value = float(local)
        factor = quantum / local_value if local_value > 0 else None
        amount = quantum - local_value
        return cls(quantum, local, factor, amount, amount > band)


def _intake(expr: Expression, state: State, model: MeasurementModel, cap: int) -> tuple:
    """(value, bounds, coefficients): the signed quantum value, the exact local
    (min, max) of :func:`~bellkit.lhv.trivial_bounds` and the
    :func:`_coefficient_pass`.  The value comes first, so a model that does not
    fit the expression is refused before any grid is built."""
    value = expression_value(expr, state, model).value
    return value, trivial_bounds(expr, cap), _coefficient_pass(expr)


def violation_report(
    expr: Expression,
    state: State,
    model: MeasurementModel,
    magnitude: bool = False,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> ViolationReport:
    value, bounds, coefficients = _intake(expr, state, model, cap)
    return ViolationReport.of(value, bounds, magnitude, coefficients.band)


@dataclass(frozen=True)
class NoiseReport:
    """Critical white-noise fraction and the quantities that produce it.

    All fields describe the analyzed orientation: under the magnitude
    convention, when the signed quantum value is negative, the expression is
    negated first so that the violation is against the positive local bound.
    ``p_critical_term_count`` is the term-counting variant of the closed
    form (None when its denominator is not positive), and
    ``interpretations_agree`` records whether the two variants coincide
    within 1e-9.
    """

    p_critical: float
    quantum_value: float
    local_max: Fraction
    coefficient_sum: Fraction
    outcome_cells: int
    p_critical_term_count: Optional[float]
    positive_terms: int
    negative_terms: int
    interpretations_agree: bool


def _margin(violation: ViolationReport, band: float) -> float:
    """Q - L when the report is ``violated``, else exactly 0.0: the report has
    compared the margin with ``band``.  Below -``band`` there is no violation to
    measure."""
    amount = violation.violation_amount
    if amount < -band:
        raise NoViolationError(
            f"quantum value {violation.quantum_value:.12g} does not reach the local bound "
            f"{violation.local_max}; the noise tolerance is undefined"
        )
    return amount if violation.violated else 0.0


def _closed_form(
    coefficients: _Coefficients, parties: int, value: float, bounds, magnitude: bool
) -> NoiseReport:
    """The closed form of :func:`white_noise_tolerance`, given the expression's
    :func:`_coefficient_pass`, its party count, the signed value and the exact
    local (min, max)."""
    band = coefficients.band
    violation = ViolationReport.of(value, bounds, magnitude, band)
    margin = _margin(violation, band)
    quantum, local = violation.quantum_value, violation.local_max
    cells = 2**parties
    total, positive, negative = coefficients.total, coefficients.positive, coefficients.negative
    if magnitude and value < 0:  # the analyzed orientation is the negated expression
        total, positive, negative = -total, negative, positive
    if margin > 0:
        # the uniform distribution is local, so L >= S/2^n exactly; rounding is
        # monotone and 2^n a power of two, so fl(S)/2^n <= fl(L) < Q here
        p_critical = margin / (quantum - float(total) / cells)
        denominator_tc = quantum - (positive - negative) / cells
        p_term_count = margin / denominator_tc if denominator_tc > 0 else None
    else:  # zero margin: the noisy value meets the bound at p = 0
        p_critical = p_term_count = 0.0
    agree = p_term_count is not None and abs(p_critical - p_term_count) <= AGREEMENT_TOL
    return NoiseReport(
        p_critical=p_critical,
        quantum_value=quantum,
        local_max=local,
        coefficient_sum=total,
        outcome_cells=cells,
        p_critical_term_count=p_term_count,
        positive_terms=positive,
        negative_terms=negative,
        interpretations_agree=agree,
    )


def white_noise_tolerance(
    expr: Expression,
    state: State,
    model: MeasurementModel,
    magnitude: bool = False,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> NoiseReport:
    """Closed-form critical fraction; requires an actual violation.

    The returned fraction is the unique p with
    (1-p) * Q + (p / 2^parties) * S = L, i.e. where the noisy value meets the
    local bound.  Under :func:`_margin`'s zero-margin rule, margins within the
    band of :func:`_margin_band` give p = 0; lower ones raise NoViolationError.
    """
    value, bounds, coefficients = _intake(expr, state, model, cap)
    return _closed_form(coefficients, expr.scenario.parties, value, bounds, magnitude)


def _crossing(
    amount: Callable[[float], float], lo: float, hi: float, lo_amount: float, hi_amount: float
) -> float:
    """A sign change of ``amount`` in [lo, hi], to within ``SCAN_RESOLUTION / 2``.

    Requires amount(lo) = ``lo_amount`` > 0 >= ``hi_amount`` = amount(hi).  The
    bracket keeps that invariant and shrinks to at most ``SCAN_RESOLUTION``;
    its midpoint is returned.  Each step evaluates ``amount`` a quarter of the
    resolution either side of the false-position guess, which closes the
    bracket of an affine ``amount`` at once.  Probes outside the open bracket,
    as from a non-finite guess, are skipped, and a step that leaves more than
    half the bracket adds a bisection, so no step costs more than three
    evaluations or fails to halve the bracket.
    """

    def probe(p: float) -> None:
        nonlocal lo, hi, lo_amount, hi_amount
        value = amount(p)
        if value > 0:
            lo, lo_amount = p, value
        else:
            hi, hi_amount = p, value

    while hi - lo > SCAN_RESOLUTION:
        width = hi - lo
        guess = lo + width * (lo_amount / (lo_amount - hi_amount))
        for p in (guess - SCAN_RESOLUTION / 4, guess + SCAN_RESOLUTION / 4):
            if lo < p < hi:
                probe(p)
        if hi - lo > width / 2:
            probe((lo + hi) / 2)
    return (lo + hi) / 2


def _root_scan(expr, state, model, bounds, band: float, magnitude: bool) -> tuple[float, int]:
    """The scan of :func:`tolerance_by_root_scan`, against a given local (min, max) and
    band: the crossing and the number of noisy states evaluated to find it.

    Every probe mixes the given state, which built its density matrix once.
    :meth:`ViolationReport.of` runs once, at p = 0; every later probe subtracts
    the float local bound it reported, as it would."""
    evaluations = 0

    def value_at(p: float) -> float:
        nonlocal evaluations
        evaluations += 1
        return expression_value(expr, mix_with_white_noise(state, p), model).value

    start = ViolationReport.of(value_at(0.0), bounds, magnitude, band)
    margin = _margin(start, band)
    if margin == 0.0:
        return 0.0, evaluations  # zero-margin violation: the crossing sits at the start
    local = float(start.local_max)

    def amount(p: float) -> float:
        value = value_at(p)
        return (abs(value) if magnitude else value) - local

    end = amount(1.0)
    if end > 0:
        raise NoRootError("the violation survives the whole interval; no root in [0, 1]")
    return _crossing(amount, 0.0, 1.0, margin, end), evaluations


def tolerance_by_root_scan(
    expr: Expression,
    state: State,
    model: MeasurementModel,
    magnitude: bool = False,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> float:
    """Root scan on the mixing fraction, independent of the closed form.

    Solves value(noisy state at p) = local bound on p in [0, 1] down to an
    interval of width ``SCAN_RESOLUTION`` by :func:`_crossing`, which reads
    only the margins of evaluated noisy states.  The noisy value is affine
    and decreasing across a violation, so a single sign change exists
    whenever the violation dies by p = 1, and four noisy states (both ends
    and one probe either side of the false-position guess) locate it.
    """
    _check_evaluation(expr, state, model)  # as expression_value would, before the grid
    bounds = trivial_bounds(expr, cap)
    band = _coefficient_pass(expr).band
    return _root_scan(expr, state, model, bounds, band, magnitude)[0]
