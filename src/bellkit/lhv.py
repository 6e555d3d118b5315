"""Deterministic local strategies: enumeration, full-joint expansion, exact bounds.

A deterministic strategy fixes one outcome for every (party, setting) slot.
These strategies are the vertices of the local polytope, so the exact minimum
and maximum of a Bell expression over all local models are attained on them;
enumerating the vertices therefore gives exact rational bounds.  The
full-joint expansion rewrites a marginal expression in the basis of complete
assignments: its coefficient at an assignment equals the expression value on
the corresponding deterministic strategy, which is why the extreme expansion
coefficients reproduce the enumerated bounds.

Both routes work in exact integers: every coefficient is multiplied by the
lcm of the coefficient denominators, and results are divided back as
``Fraction(x, scale)``.  The vertex sweep reads each strategy off a lookup
compiled once per expression (``strategy_lookup``): one dict lookup per
distinct settings tuple, after ``Scenario._strategy_slots`` checks the
strategy in one pass; this module checks no labels itself.  It keeps one
public ``evaluate_on_strategy`` call per strategy and tracks the extremes
and their ties on the exact integer value times the lookup's scale.  It
streams the strategies from ``_assignments``, the one owner of the
enumeration order, which ``enumerate_strategies`` lists and an expansion's
``items()`` follows.  The expansion route builds one integer array with an
axis per slot; a ``FullJointExpansion`` is that grid and its scale, with no
per-assignment map.  numpy is imported where that grid is built or checked,
not with this module, so the sweep, pure Python, never loads it.  The two
routes share no code beyond ``Scenario``'s slot layout and the enumeration
order: a defect in either one makes ``local_bounds`` and ``trivial_bounds``
disagree rather than repeat the same wrong number.  Both take either
expression form after the cap check: the grid reads a correlator form's own
terms and never builds its probability form; the sweep reads the lookup of
that probability form.

Callers that need only the extremes read ``trivial_bounds``, one array add per
full settings table and one slice-add per other term: the noise layer and the
``noise`` command.  It builds an expression's grid on the first call and
keeps the exact extremes on the immutable expression, so later calls only
check the cap.  The sweep, one call per strategy, stays the route behind
``bound`` and ``report``, which list the tied extremizers, and the independent
check on the grid; ``local_bounds`` keeps nothing between calls.

The canonical tripartite two-setting binary scenario has 2^6 = 64 strategies;
a configurable cap guards against accidentally enormous enumerations.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product, repeat
from operator import itemgetter
from typing import TYPE_CHECKING, Sequence

from .errors import ConfigError, EnumerationCapError, ScenarioError, ScenarioMismatchError
from .scenario import (
    BellExpression,
    CorrelatorExpression,
    Expression,
    Scenario,
    _integer,
    _parity_signs,
    _read_only,
    _scaled_coefficients,
    _scenario_text,
)

if TYPE_CHECKING:  # numpy itself is imported where an array is built
    import numpy as np

DEFAULT_ENUMERATION_CAP = 10**7
# the instance-dict key under which trivial_bounds keeps an expression's extremes
_EXTREMES = "_expansion_extremes"

# One outcome per (party, setting): tuple of per-party tuples, e.g. the
# tripartite strategy ((a, a'), (b, b'), (c, c')).
DeterministicStrategy = tuple


def _check_cap(scenario: Scenario, cap: int) -> None:
    cap = _integer(cap, "cap", ConfigError)
    # the log-size first: an exact size of 4300 digits or more is slow to
    # multiply out and beyond Python's int-to-text limit
    if scenario._log10_assignment_count >= 4299:
        raise EnumerationCapError(None, cap)
    size = scenario.assignment_count
    if size > cap:
        raise EnumerationCapError(size, cap)


def _assignments(scenario: Scenario):
    """Every deterministic strategy, lazily, in enumeration order: lexicographic
    in party-major slot order.  Unchecked against the cap."""
    return map(scenario.split_slots, product(*map(range, scenario.slot_outcomes)))


def enumerate_strategies(
    scenario: Scenario, cap: int = DEFAULT_ENUMERATION_CAP
) -> list:
    """All deterministic strategies, lexicographic in party-major slot order."""
    _check_cap(scenario, cap)
    return list(_assignments(scenario))


def evaluate_on_strategy(expr: Expression, strategy: Sequence) -> Fraction:
    """Exact expression value when every measurement has a pre-assigned outcome.

    Under a deterministic strategy each joint probability is 0 or 1, so the
    value is the sum of coefficients of the terms the strategy hits: at most
    one term per distinct settings tuple, found by one dict lookup.  A
    correlator form reads the lookup of its probability form, built once.
    The scenario checks and flattens the strategy in one pass
    (``Scenario._strategy_slots``) and the lookup reads that flat tuple; an
    invalid strategy raises what ``Scenario.validate_strategy`` raises.
    """
    flat = expr.scenario._strategy_slots(strategy)
    scale, pick, tables = expr.strategy_lookup
    labels = iter(pick(flat))
    keys = zip(*[labels] * expr.scenario.parties)  # one outcome tuple per table
    return Fraction(sum(map(dict.get, tables, keys, repeat(0))), scale)


@dataclass(frozen=True, eq=False)
class FullJointExpansion:
    """Coefficients of an expression in the complete-assignment basis.

    ``grid`` holds them times ``scale`` as exact integers, one axis per slot, so
    in C order it covers the whole space, zeros included, in enumeration order.
    Two expansions compare by exact value, whatever their scales and dtypes.
    """

    scenario: Scenario
    grid: np.ndarray  # int64, or Python ints past int64; stored read-only
    scale: int

    def __post_init__(self):
        import numpy as np

        grid = np.asarray(self.grid)
        if grid.shape != self.scenario.slot_outcomes:
            needs = f"{_scenario_text(self.scenario)} needs {self.scenario.slot_outcomes}"
            raise ScenarioMismatchError(f"expansion grid has shape {grid.shape}, {needs}")
        # a signed-integer dtype, or Python ints held as objects past int64
        if not np.issubdtype(grid.dtype, np.signedinteger) and not (
            grid.dtype == object and all(type(value) is int for value in grid.flat)
        ):
            raise ScenarioError(f"expansion grid must hold integers, got dtype {grid.dtype}")
        if isinstance(self.scale, bool) or not isinstance(self.scale, int) or self.scale < 1:
            raise ScenarioError(f"expansion scale must be a positive int, got {self.scale!r}")
        if grid.flags.writeable:
            grid = _read_only(grid.copy())
        object.__setattr__(self, "grid", grid)

    def __eq__(self, other):
        if not isinstance(other, FullJointExpansion):
            return NotImplemented
        return self.scenario == other.scenario and not diff_expansion(self, other)

    __hash__ = None

    def coefficient(self, assignment: Sequence) -> Fraction:
        flat = self.scenario._strategy_slots(assignment)
        return Fraction(int(self.grid[flat]), self.scale)

    def items(self):
        """(assignment, coefficient) over the whole space in enumeration order,
        one ``Fraction`` per distinct value."""
        values = self.grid.reshape(-1).tolist()
        exact = {value: Fraction(value, self.scale) for value in set(values)}
        return zip(_assignments(self.scenario), map(exact.__getitem__, values))

    @property
    def coefficient_sum(self) -> Fraction:
        return Fraction(int(self.grid.sum(dtype=object)), self.scale)


def _zero_grid(scenario: Scenario, values, cap: int) -> tuple:
    """(zeros, scale, scaled): a grid with one axis per slot, once the cap allows
    it, for sums of the ``values`` times ``scale`` with signs +/-1; int64 only
    while the scaled magnitudes, which bound every such sum, sum below 2^62."""
    import numpy as np

    _check_cap(scenario, cap)
    _, scale, scaled = _scaled_coefficients(values)
    dtype = np.int64 if sum(map(abs, scaled)) < 2**62 else object
    return np.zeros(scenario.slot_outcomes, dtype=dtype), scale, scaled


def _expansion_grid(expr: Expression, cap: int) -> tuple:
    """(grid, scale): the full-joint expansion times scale, read-only, one axis per slot.

    Axes follow Scenario.slots(), so the grid in C order lists assignments in
    enumeration order.  A correlator adds its full outcome table, the parity
    table times its scaled coefficient, broadcast along the slots it leaves
    free; so does a probability form's settings tuple whose outcome table is
    full, and any other tuple adds each term on the slice it fixes.  Each term
    touches its share of the grid once.
    """
    scenario = expr.scenario
    grid, scale, scaled = _zero_grid(scenario, expr.terms.values(), cap)
    if isinstance(expr, CorrelatorExpression):
        parity = _parity_signs(scenario.parties).astype(grid.dtype, copy=False)
        tables = {settings: parity * value for settings, value in zip(expr.terms, scaled)}
    else:
        tables = _probability_tables(expr, scaled, grid)
    for settings, table in tables.items():
        broadcast = [1] * grid.ndim
        for slot, size in zip(scenario.setting_slots(settings), table.shape):
            broadcast[slot] = size
        grid += table.reshape(broadcast)
    return _read_only(grid), scale


def _probability_tables(expr: BellExpression, scaled: list, grid: np.ndarray) -> dict:
    """Add each probability term whose settings tuple has a partial outcome
    table to ``grid`` on the slice it fixes; return the full tables, one array
    per settings tuple, for the caller to broadcast-add."""
    import numpy as np

    scenario = expr.scenario
    shape = grid.shape
    # the slots of each settings tuple, and an array for each full outcome table
    axes = {}
    tables = {}
    for settings, count in Counter(map(itemgetter(0), expr.terms)).items():
        axes[settings] = slots = scenario.setting_slots(settings)
        if count == math.prod(map(shape.__getitem__, slots)):
            tables[settings] = np.zeros([shape[slot] for slot in slots], grid.dtype)
    # indexing with the trailing Ellipsis gives a view even when every axis is
    # fixed, so an add on the view lands in the grid
    free = [slice(None)] * len(shape) + [Ellipsis]
    for (settings, outcomes), value in zip(expr.terms, scaled):
        if settings in tables:
            tables[settings][outcomes] = value
        else:
            index = free.copy()
            for slot, o in zip(axes[settings], outcomes):
                index[slot] = o
            view = grid[tuple(index)]
            view += value
    return tables


def expand_full_joint(
    expr: Expression, cap: int = DEFAULT_ENUMERATION_CAP
) -> FullJointExpansion:
    """Rewrite a marginal expression over complete assignments.

    Each term distributes its coefficient over every completion of the slots
    it does not measure (marginalization run in reverse), so the coefficient
    at assignment t equals evaluate_on_strategy(expr, t).  The result lists every
    assignment, so the space is capped at the smaller of ``cap`` and the default.
    """
    cap = min(_integer(cap, "cap", ConfigError), DEFAULT_ENUMERATION_CAP)
    grid, scale = _expansion_grid(expr, cap)
    return FullJointExpansion(expr.scenario, grid, scale)


def bound_magnitude(low: Fraction, high: Fraction) -> Fraction:
    """Bound on |expression| over all local models, from its local extremes."""
    return max(abs(high), abs(low))


@dataclass(frozen=True)
class LocalBoundResult:
    """Exact extrema over deterministic strategies, with every tied extremizer."""

    max: Fraction
    min: Fraction
    maximizers: tuple
    minimizers: tuple

    @property
    def magnitude(self) -> Fraction:
        """Bound on |expression| over all local models: :func:`bound_magnitude`."""
        return bound_magnitude(self.min, self.max)


def local_bounds(
    expr: Expression, cap: int = DEFAULT_ENUMERATION_CAP
) -> LocalBoundResult:
    """Exact local extrema by exhaustive vertex enumeration.

    Convex mixtures of strategies cover every local model, so the vertex
    extrema bound them all.  Tied extremizers are reported in enumeration
    order rather than picking an arbitrary winner.  Strategies are streamed,
    never listed, so memory grows with the extremizers only.  Each strategy
    goes through one public :func:`evaluate_on_strategy` call, and the
    extremes and ties are tracked on the exact integer value times the
    lookup's ``scale``, not by comparing ``Fraction``s.
    """
    _check_cap(expr.scenario, cap)
    scale = expr.strategy_lookup[0]
    high = low = None
    maximizers: list = []
    minimizers: list = []
    for strategy in _assignments(expr.scenario):
        value = evaluate_on_strategy(expr, strategy)
        scaled = value.numerator * (scale // value.denominator)
        if high is None or scaled > high:
            high = scaled
            maximizers = [strategy]
        elif scaled == high:
            maximizers.append(strategy)
        if low is None or scaled < low:
            low = scaled
            minimizers = [strategy]
        elif scaled == low:
            minimizers.append(strategy)
    return LocalBoundResult(
        Fraction(high, scale), Fraction(low, scale), tuple(maximizers), tuple(minimizers)
    )


def trivial_bounds(
    expr: Expression, cap: int = DEFAULT_ENUMERATION_CAP
) -> tuple:
    """(lower, upper) from the extreme full-joint expansion coefficients.

    Deterministic strategies are the basis vectors of the assignment simplex,
    so these equal local_bounds exactly.  They are read straight off the
    integer expansion grid, never from the vertex sweep or its compiled
    lookup, so the two routes stay independent and each checks the other.
    The grid is built on an expression's first call only: its extremes are
    kept on the immutable expression, as ``functools.cached_property`` keeps
    ``strategy_lookup``.  ``cap`` is checked on every call.
    """
    kept = vars(expr)
    if _EXTREMES in kept:
        _check_cap(expr.scenario, cap)
    else:
        grid, scale = _expansion_grid(expr, cap)
        kept[_EXTREMES] = (Fraction(int(grid.min()), scale), Fraction(int(grid.max()), scale))
    return kept[_EXTREMES]


@dataclass(frozen=True)
class DiffEntry:
    assignment: DeterministicStrategy
    computed: Fraction
    fixture: Fraction


def _check_same_scenario(computed: Scenario, fixture: Scenario, source="the fixture") -> None:
    """Refuse expansions over different scenarios, naming both and the fixture's source."""
    if computed != fixture:
        raise ScenarioMismatchError(
            f"expansions cover different scenarios: {_scenario_text(computed)} computed, "
            f"{_scenario_text(fixture)} in {source}"
        )


def diff_expansion(computed: FullJointExpansion, fixture: FullJointExpansion) -> tuple:
    """Every :class:`DiffEntry` where the two expansions disagree, with both
    values, in assignment order; exact whatever the two scales."""
    _check_same_scenario(computed.scenario, fixture.scenario)
    return tuple(
        DiffEntry(assignment, value, other)
        for (assignment, value), (_, other) in zip(computed.items(), fixture.items())
        if value != other
    )
