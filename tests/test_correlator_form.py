"""A correlator form gives the numbers of its probability form without building it.

The expansion grid, the noise layer's coefficient pass and the quantum values
read a correlator expression's own terms.  Each property here compares one of
them, with ``==``, against the same computation on ``as_probability_form`` of
the expression, or, for the quantum values, against the term-by-term loop of
``oracles.correlator_values_by_loop``.
"""

from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellkit import (
    DensityMatrix,
    MeasurementModel,
    PureState,
    Scenario,
    as_probability_form,
    correlator,
    expand_full_joint,
    expression_value,
    make_correlator_expression,
    probability_table,
    trivial_bounds,
)
from bellkit import lhv, noise

import oracles

rationals = st.fractions(-9, 9, max_denominator=12)
# one such coefficient takes the scaled magnitudes past 2^62, even after it
# merges with a rational one, and so the grid into object dtype
huge = st.integers(2**63, 2**70).map(Fraction) | st.integers(-(2**70), -(2**63)).map(Fraction)


@st.composite
def correlator_expressions(draw):
    """1-5 parties with 2-3 binary settings each and up to 8 rational terms, one
    of them sometimes beyond 2^62."""
    parties = draw(st.integers(1, 5))
    settings_per_party = draw(st.lists(st.integers(2, 3), min_size=parties, max_size=parties))
    scenario = Scenario(parties, settings_per_party, [(2,) * n for n in settings_per_party])
    settings_tuples = st.tuples(*(st.integers(0, n - 1) for n in settings_per_party))
    terms = draw(st.lists(st.tuples(settings_tuples, rationals), max_size=8))
    if draw(st.booleans()):
        terms.append((draw(settings_tuples), draw(huge)))
    return make_correlator_expression(scenario, terms)


EMPTY = make_correlator_expression(Scenario.uniform(3, 2, 2), [])
BIG = make_correlator_expression(Scenario.uniform(2, 2, 2), [((0, 1), 2**63), ((1, 1), -1)])


def test_a_huge_coefficient_takes_the_grid_to_object_dtype():
    assert lhv._expansion_grid(BIG, lhv.DEFAULT_ENUMERATION_CAP)[0].dtype == object
    assert trivial_bounds(BIG) == (-(2**63) - 1, 2**63 + 1)


@settings(max_examples=60, deadline=None)
@given(expr=correlator_expressions())
@example(expr=EMPTY)
@example(expr=BIG)
def test_exact_numbers_match_the_probability_form(expr):
    converted = as_probability_form(expr)
    assert trivial_bounds(expr) == trivial_bounds(converted)
    assert expand_full_joint(expr) == expand_full_joint(converted)
    # a NamedTuple compares field by field: the exact sum, both counts and the band
    assert noise._coefficient_pass(expr) == noise._coefficient_pass(converted)


@settings(max_examples=60, deadline=None)
@given(expr=correlator_expressions(), seed=st.integers(0, 2**32 - 1), rank=st.integers(0, 3))
@example(expr=EMPTY, seed=0, rank=0)
def test_quantum_values_match_the_term_loop(expr, seed, rank):
    # rank 0 draws a pure state, any other rank a mixed state of that rank
    rng = np.random.default_rng(seed)
    scenario = expr.scenario
    if rank:
        state = DensityMatrix(oracles.random_density_matrix(rng, scenario.parties, rank))
    else:
        state = PureState(oracles.random_pure_amplitudes(rng, scenario.parties))
    model = MeasurementModel(
        tuple(tuple(oracles.random_bloch(rng) for _ in range(n)) for n in scenario.settings_per_party)
    )
    expected = oracles.correlator_values_by_loop(expr, probability_table(state, model))
    valuation = expression_value(expr, state, model)
    assert list(valuation.term_values) == expected
    assert [correlator(state, model, settings) for settings in expr.terms] == expected
