"""Measurement scenarios and Bell expressions with exact rational coefficients.

A scenario fixes, for every party, how many measurement settings it has and
how many outcomes each setting produces.  It owns every label check: term
keys, settings keys and deterministic strategies, each coerced by
``_indices`` (``_integer`` for a count argument, ``_real`` for a real one);
and it reads each distinct outcome row object once, however many parties
share it.  A Bell expression is a finite linear combination of
joint-probability terms; each term names one setting and one outcome per
party and carries an exact rational coefficient.  When every measurement is
binary the same functional can be written in correlator form, as a signed
sum of full correlators E(settings).  Both forms share one base, which owns
their algebra, the validating constructor and the two compiled lookups:
``strategy_lookup`` for the vertex sweep and ``table_lookup`` for the
quantum engine and the optimizer.  A form supplies only its key check and
its table rows.  The constructor and both builders merge through one rule,
``_merged``: keys that name one term sum their coefficients, in the order
the keys first appear, and exact cancellations are dropped.

Everything in this module is exact: coefficients are `fractions.Fraction`
and no float arithmetic is performed, so polytope bounds computed downstream
are exact rationals rather than approximations.  Floats are rejected as
coefficient inputs instead of being silently converted.  The one float an
expression holds is the copy of each coefficient in its ``table_lookup``,
which the quantum engine multiplies its float term values by.

numpy is imported inside the functions that build arrays, ``table_lookup``
and ``_parity_signs``, not with this module: ``strategy_lookup`` and the
correlator conversion are pure Python, reading the sign rule from
``_parity_row``, so a vertex sweep never loads numpy.
"""

from __future__ import annotations

import math
import numbers
import operator
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from itertools import accumulate, chain, pairwise, product
from operator import itemgetter
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence, Union

from .errors import ScenarioError, ScenarioMismatchError, UnsupportedScenarioError

if TYPE_CHECKING:  # numpy itself is imported where an array is built
    import numpy as np

SettingsKey = tuple  # one setting index per party
OutcomesKey = tuple  # one outcome label per party
TermKey = tuple      # (SettingsKey, OutcomesKey)

RationalInput = Union[Fraction, int, str]

# eigenvalue of outcome 0 and of outcome 1 in a binary measurement: the one
# statement of the correlator sign rule, which quantum.py reads as well
_OUTCOME_SIGNS = (-1, 1)


@cache
def _parity_row(parties: int) -> tuple:
    """(outcomes, sign) for each tuple of ``parties`` binary outcomes, in C order:
    a correlator's sign there is the product of each party's ``_OUTCOME_SIGNS``
    entry.  The one build of the binary outcome tuples and of the sign rule, in
    pure Python, once per party count."""
    return tuple(
        (outcomes, math.prod(map(_OUTCOME_SIGNS.__getitem__, outcomes)))
        for outcomes in product((0, 1), repeat=parties)
    )


@cache
def _parity_signs(parties: int) -> np.ndarray:
    """The signs of ``_parity_row`` as a read-only int64 array of shape
    (2,) * parties, indexed by the outcome tuple.  The expansion grid and the
    correlator form's table rows read it."""
    import numpy as np

    signs = [sign for _, sign in _parity_row(parties)]
    return _read_only(np.array(signs, np.int64).reshape((2,) * parties))


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)  # half the cost of writing array.flags.writeable
    return array


def _scenario_text(scenario: "Scenario") -> str:
    """The text format's header line of a uniform scenario, else its repr."""
    uniform = scenario.uniform_cardinalities()
    return repr(scenario) if uniform is None else "scenario {} {} {}".format(*uniform)


def as_fraction(value: RationalInput) -> Fraction:
    """Coerce to an exact rational; floats and bools are rejected outright.  A
    Fraction comes back as itself: it is immutable, so no copy is needed."""
    if type(value) is Fraction:
        return value
    if isinstance(value, (float, bool)):
        raise ScenarioError(f"coefficients must be exact rationals, got {value!r}")
    try:
        return Fraction(value)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"not a rational coefficient: {value!r}") from exc


def _scaled_coefficients(values) -> tuple:
    """(ratios, scale, scaled): ``values`` as (numerator, denominator) pairs, the
    lcm of the denominators, and the values times it as exact integers.  The one
    scaling of coefficients to integers: ``strategy_lookup``'s tables, the
    expansion grid and the noise module's coefficient pass read it."""
    ratios = list(map(Fraction.as_integer_ratio, values))
    scale = math.lcm(*(d for _, d in ratios))
    return ratios, scale, [n * (scale // d) for n, d in ratios]


def _indices(values: Iterable, error: type = ScenarioError) -> tuple:
    """Indices and counts as a tuple of ints, through ``operator.index``.

    Python and numpy integers pass; a float, string or other non-integer
    raises ``error`` naming the value, where ``int()`` would truncate it.
    ``values`` is read once, so a generator gets that error too, and a tuple
    of exact ints comes back as it is, without a copy.
    """
    values = tuple(values)  # an exact tuple is returned as itself
    if set(map(type, values)) <= {int}:
        return values
    indices = []
    for value in values:
        try:
            indices.append(operator.index(value))
        except TypeError:
            raise error(f"index {value!r} is not an integer") from None
    return tuple(indices)


def _integer(value, name: str, error: type) -> int:
    """One integer argument through :func:`_indices`, or ``error`` naming ``name``.
    A bool is refused, as :func:`_real` refuses one: ``True`` is no count."""
    if not isinstance(value, bool):
        try:
            (index,) = _indices((value,), error)
            return index
        except error:
            pass
    raise error(f"{name} must be an integer, got {value!r}")


def _real(value, name: str, error: type) -> float:
    """A real-number argument as a float: a bool, a string or anything else that
    is not a ``numbers.Real`` raises ``error`` naming ``name``, and so does a
    value past the largest float, such as ``10**400``.  numpy floats pass."""
    # float first: a float, numpy's float64 included, then skips the abstract check
    if isinstance(value, bool) or not isinstance(value, (float, numbers.Real)):
        raise error(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # its repr may pass the digit limit, so it is not shown
        raise error(f"{name} must be a real number, got one past the largest float") from None


def _counts(values: Iterable, kind: str) -> tuple:
    """``_indices(values)`` for cardinalities: a count past the machine's index
    size, which no tuple, range or array can hold, raises a ScenarioError
    naming it."""
    values = _indices(values)
    for value in values:
        if value > sys.maxsize:
            raise ScenarioError(f"{kind} count {value} is past the index size {sys.maxsize}")
    return values


def _tuple_getter(indices: Sequence) -> Callable:
    """``itemgetter(*indices)`` that always returns a tuple: itemgetter returns
    the bare item when given one index and refuses none."""
    if len(indices) > 1:
        return itemgetter(*indices)
    return lambda flat: tuple(flat[i] for i in indices)


@dataclass(frozen=True)
class Scenario:
    """Cardinalities of a finite measurement scenario.

    ``outcomes_per_setting[p][s]`` is the number of outcome labels
    (``0 .. count-1``) of party ``p``'s setting ``s``.  The canonical
    tripartite case used throughout the builtins is
    ``Scenario.uniform(3, 2, 2)``.
    """

    parties: int
    settings_per_party: tuple
    outcomes_per_setting: tuple
    # (row, copies) per distinct row object of ``outcomes_per_setting``, each
    # coerced and checked once: ``uniform`` and a text header repeat one row
    distinct_rows: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "parties", _counts([self.parties], "party")[0])
        object.__setattr__(
            self, "settings_per_party", _counts(self.settings_per_party, "settings")
        )
        rows = tuple(self.outcomes_per_setting)
        distinct = {}  # id of each distinct row object: (its ints, copies)
        for row in rows:
            coerced, copies = distinct.get(id(row)) or (_counts(row, "outcome"), 0)
            distinct[id(row)] = (coerced, copies + 1)
        object.__setattr__(self, "distinct_rows", tuple(distinct.values()))
        rows = tuple(distinct[id(row)][0] for row in rows)
        object.__setattr__(self, "outcomes_per_setting", rows)
        if self.parties < 1:
            raise ScenarioError("a scenario needs at least one party")
        if len(self.settings_per_party) != self.parties:
            raise ScenarioError("settings_per_party must list one count per party")
        if len(self.outcomes_per_setting) != self.parties:
            raise ScenarioError("outcomes_per_setting must list one row per party")
        short = {id(row) for row, _ in self.distinct_rows if min(row, default=2) < 2}
        for p, (n_settings, row) in enumerate(
            zip(self.settings_per_party, self.outcomes_per_setting)
        ):
            if n_settings < 1:
                raise ScenarioError(f"party {p} needs at least one setting")
            if len(row) != n_settings:
                raise ScenarioError(
                    f"party {p}: expected {n_settings} outcome counts, got {len(row)}"
                )
            if id(row) in short:
                s = next(s for s, n_outcomes in enumerate(row) if n_outcomes < 2)
                raise ScenarioError(f"party {p} setting {s}: need at least two outcomes")

    @classmethod
    def uniform(cls, parties: int, settings: int, outcomes: int) -> "Scenario":
        parties, = _counts([parties], "party")
        settings, = _counts([settings], "settings")
        outcomes, = _counts([outcomes], "outcome")
        return cls(parties, (settings,) * parties, ((outcomes,) * settings,) * parties)

    @cached_property
    def is_binary(self) -> bool:
        return all(row.count(2) == len(row) for row, _ in self.distinct_rows)

    def uniform_cardinalities(self) -> tuple | None:
        """(parties, settings, outcomes) when uniform, else None."""
        settings = self.settings_per_party[0]
        outcomes = self.outcomes_per_setting[0][0]
        uniform = self.settings_per_party.count(settings) == self.parties and all(
            row.count(outcomes) == len(row) for row, _ in self.distinct_rows
        )
        return (self.parties, settings, outcomes) if uniform else None

    @cached_property
    def assignment_count(self) -> int:
        """Size of the complete-assignment (deterministic strategy) space."""
        return math.prod(self.slot_outcomes)

    @cached_property
    def _log10_assignment_count(self) -> float:
        """log10 of ``assignment_count``, without multiplying it out.  A row object
        shared by several parties is read once and counted once per party."""
        return math.fsum(
            copies * row.count(n) * math.log10(n)
            for row, copies in self.distinct_rows
            for n in set(row)
        )

    def slots(self) -> tuple:
        """(party, setting) pairs in party-major, setting-minor order."""
        return tuple(
            (p, s) for p in range(self.parties) for s in range(self.settings_per_party[p])
        )

    @cached_property
    def slot_offsets(self) -> tuple:
        """Index of each party's first slot in ``slots()`` order, then the slot count."""
        return tuple(accumulate(self.settings_per_party, initial=0))

    @cached_property
    def table_shape(self) -> tuple:
        """The shape of the quantum engine's table of joint probabilities, laid
        out ``(s_0, o_0, s_1, o_1, ..)``: party by party, its settings count,
        then its largest outcome count."""
        return tuple(
            dim
            for count, row in zip(self.settings_per_party, self.outcomes_per_setting)
            for dim in (count, max(row))
        )

    @cached_property
    def slot_outcomes(self) -> tuple:
        """The outcome count of each slot, in ``slots()`` order."""
        return tuple(chain.from_iterable(self.outcomes_per_setting))

    def setting_slots(self, settings: Sequence[int]) -> tuple:
        """The slot index, in ``slots()`` order, of each party's setting in ``settings``."""
        return tuple(map(operator.add, self.slot_offsets, settings))

    @cached_property
    def split_slots(self):
        """Callable splitting a flat tuple in ``slots()`` order into one row per party.

        An ``itemgetter`` over one slice per party, so a strategy sweep splits
        every flat tuple without a Python-level call.
        """
        return _tuple_getter([slice(lo, hi) for lo, hi in pairwise(self.slot_offsets)])

    def validate_term(self, settings: Sequence[int], outcomes: Sequence[int]) -> TermKey:
        """Range-check a term key against this scenario and return it as tuples."""
        settings = _indices(settings)
        outcomes = _indices(outcomes)
        if len(settings) != self.parties or len(outcomes) != self.parties:
            raise ScenarioError(
                f"term must list one setting and one outcome for each of "
                f"{self.parties} parties, got settings={settings} outcomes={outcomes}"
            )
        for p, (s, o) in enumerate(zip(settings, outcomes)):
            if not 0 <= s < self.settings_per_party[p]:
                raise ScenarioError(f"party {p}: setting {s} out of range")
            if not 0 <= o < self.outcomes_per_setting[p][s]:
                raise ScenarioError(f"party {p}: outcome {o} out of range for setting {s}")
        return (settings, outcomes)

    def validate_settings(self, settings: Sequence[int]) -> SettingsKey:
        settings = _indices(settings)
        if len(settings) != self.parties:
            raise ScenarioError(f"expected {self.parties} setting indices, got {settings}")
        for p, s in enumerate(settings):
            if not 0 <= s < self.settings_per_party[p]:
                raise ScenarioError(f"party {p}: setting {s} out of range")
        return settings

    def validate_strategy(self, strategy: Sequence) -> tuple:
        """Shape- and range-check a deterministic strategy, one row of outcomes
        per party, and return it as a tuple of int rows."""
        if len(strategy) != self.parties:
            raise ScenarioMismatchError(
                f"strategy lists {len(strategy)} parties, scenario has {self.parties}"
            )
        normalized = []
        for p, row in enumerate(strategy):
            row = _indices(row, ScenarioMismatchError)
            if len(row) != self.settings_per_party[p]:
                raise ScenarioMismatchError(
                    f"party {p}: strategy lists {len(row)} settings, "
                    f"scenario has {self.settings_per_party[p]}"
                )
            for s, o in enumerate(row):
                if not 0 <= o < self.outcomes_per_setting[p][s]:
                    raise ScenarioMismatchError(
                        f"party {p} setting {s}: outcome {o} out of range"
                    )
            normalized.append(row)
        return tuple(normalized)

    def _strategy_slots(self, strategy: Sequence) -> tuple:
        """``sum(self.validate_strategy(strategy), ())`` by a one-pass check: the
        labels as ints, flat in ``slots()`` order.

        Row lengths are matched against ``settings_per_party``, each label goes
        through ``operator.index`` and the flat tuple is range-checked against
        ``slot_outcomes``, all in C-level calls.  Whatever fails, a row without a
        length (a generator) included, goes to ``validate_strategy``, which
        raises its exact error.  ``len(strategy)`` comes first, so a generator
        strategy is refused before anything consumes it.
        """
        if len(strategy) == self.parties:
            try:
                if tuple(map(len, strategy)) == self.settings_per_party:
                    flat = tuple(map(operator.index, chain.from_iterable(strategy)))
                    if min(flat) >= 0 and all(map(operator.lt, flat, self.slot_outcomes)):
                        return flat
            except TypeError:
                pass
        return sum(self.validate_strategy(strategy), ())


@dataclass(frozen=True)
class MarginalTerm:
    """One joint-probability term: a setting and an outcome per party, with weight."""

    settings: tuple
    outcomes: tuple
    coefficient: Fraction

    def __post_init__(self):
        object.__setattr__(self, "settings", _indices(self.settings))
        object.__setattr__(self, "outcomes", _indices(self.outcomes))
        object.__setattr__(self, "coefficient", as_fraction(self.coefficient))
        if len(self.settings) != len(self.outcomes):
            raise ScenarioError("settings and outcomes must have one entry per party")


@dataclass(frozen=True, eq=False)
class _LinearExpression:
    """Exact linear-combination algebra shared by both expression forms.

    ``terms`` maps a term key to a nonzero rational coefficient.  Equality
    and addition hold only between expressions of one form; across the two
    forms they return NotImplemented.
    """

    scenario: Scenario
    terms: Mapping

    def __post_init__(self):
        if not isinstance(self.terms, Mapping):  # a list of pairs may repeat a key
            kind = type(self.terms).__name__
            raise ScenarioError(f"terms must map each key to its coefficient, got {kind}")
        # each key, then its coefficient, term by term; keys that name one term sum
        pairs = ((self._valid_key(key), as_fraction(c)) for key, c in self.terms.items())
        object.__setattr__(self, "terms", MappingProxyType(_merged(pairs)))

    @classmethod
    def _from_valid_terms(cls, scenario: Scenario, terms: dict):
        """Wrap ``terms`` without re-checking them: every key must already be a
        valid key of ``scenario`` for this form, as int tuples, and every value a
        nonzero Fraction.  For builders and conversions that checked each key
        once or whose keys are valid by construction."""
        self = object.__new__(cls)
        object.__setattr__(self, "scenario", scenario)
        object.__setattr__(self, "terms", MappingProxyType(terms))
        return self

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.scenario == other.scenario and dict(self.terms) == dict(other.terms)

    __hash__ = None

    @property
    def term_count(self) -> int:
        return len(self.terms)

    def scale(self, factor: RationalInput):
        factor = as_fraction(factor)
        scaled = {key: factor * c for key, c in self.terms.items()} if factor else {}
        return self._from_valid_terms(self.scenario, scaled)

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        if self.scenario != other.scenario:
            raise ScenarioMismatchError("cannot add expressions over different scenarios")
        merged = _merged(chain(self.terms.items(), other.terms.items()))
        return self._from_valid_terms(self.scenario, merged)

    def __neg__(self):
        return self.scale(-1)

    @cached_property
    def strategy_lookup(self) -> tuple:
        """(scale, pick, tables): the terms compiled for reading off a deterministic strategy.

        ``scale`` is the lcm of the coefficient denominators.  ``tables`` holds
        one dict per distinct settings tuple of the probability form, mapping an
        outcome tuple to its coefficient times ``scale``, an exact integer.
        ``pick`` reads every table's outcome labels, table after table and party
        by party, off a strategy flattened in ``Scenario.slots()`` order.  Built
        on first use and kept, since the expression is immutable.
        """
        terms = as_probability_form(self).terms
        _, scale, scaled = _scaled_coefficients(terms.values())
        tables: dict = {}
        for (settings, outcomes), value in zip(terms, scaled):
            tables.setdefault(settings, {})[outcomes] = value
        setting_slots = self.scenario.setting_slots
        pick = _tuple_getter([slot for settings in tables for slot in setting_slots(settings)])
        return scale, pick, tuple(tables.values())

    @cached_property
    def table_lookup(self) -> tuple:
        """(index, signs, coefficients): the terms compiled for reading off a table
        of joint probabilities laid out as ``Scenario.table_shape`` says.

        Row t of ``index`` holds the flat positions of the entries term t reads and
        ``signs`` each entry's float sign, so a term is its row times ``signs``,
        summed: one entry with sign 1.0 for a probability term, the outcome tuples
        in C order with their ``_parity_signs`` for a correlator.  ``coefficients``
        holds each coefficient as a float.  Built on first use and kept.
        """
        import numpy as np

        settings, outcomes, signs = self._table_rows()
        shape = self.scenario.table_shape
        strides = np.cumprod([1, *shape[:0:-1]])[::-1]  # one step on each axis
        index = (settings @ strides[0::2])[:, None] + outcomes @ strides[1::2]
        return _read_only(index), _read_only(signs), tuple(map(float, self.terms.values()))


@dataclass(frozen=True, eq=False)
class BellExpression(_LinearExpression):
    """Exact linear combination of joint-probability terms over one scenario.

    The term map preserves construction order, which downstream per-term
    value breakdowns follow; equality compares coefficient maps and ignores
    order.  Instances are immutable and safe to share across threads.
    """

    def _valid_key(self, key) -> TermKey:
        settings, outcomes = key
        return self.scenario.validate_term(settings, outcomes)

    def _table_rows(self) -> tuple:
        """(settings, outcomes, signs) for :attr:`table_lookup`: each term's one entry."""
        import numpy as np

        keys = np.array(list(self.terms), dtype=np.intp).reshape(-1, 2, 1, self.scenario.parties)
        return keys[:, 0, 0], keys[:, 1], np.ones(1)

    def coefficient(self, settings: Sequence[int], outcomes: Sequence[int]) -> Fraction:
        """Stored coefficient of a term key, or 0 when absent."""
        return self.terms.get(self.scenario.validate_term(settings, outcomes), Fraction(0))



@dataclass(frozen=True, eq=False)
class CorrelatorExpression(_LinearExpression):
    """Signed sum of full correlators E(settings); binary outcomes only.

    Each term maps a per-party settings choice to a rational coefficient.
    The correlator uses the sign convention of ``_OUTCOME_SIGNS``: outcome 1
    carries eigenvalue +1 and outcome 0 carries -1, so a term expands over
    outcome tuples with sign (-1)^z where z counts zero outcomes.
    """

    def __post_init__(self):
        _require_binary(self.scenario)
        super().__post_init__()

    def _valid_key(self, settings) -> SettingsKey:
        return self.scenario.validate_settings(settings)

    def coefficient(self, settings: Sequence[int]) -> Fraction:
        return self.terms.get(self.scenario.validate_settings(settings), Fraction(0))

    def _table_rows(self) -> tuple:
        """(settings, outcomes, signs) for :attr:`table_lookup`: each term's
        outcome tuples, in C order as ``_parity_row`` lists them, with their
        ``_parity_signs``."""
        import numpy as np

        parties = self.scenario.parties
        settings = np.array(list(self.terms), dtype=np.intp).reshape(-1, parties)
        outcomes = np.array([outcomes for outcomes, _ in _parity_row(parties)], dtype=np.intp)
        return settings, outcomes, _parity_signs(parties).reshape(-1).astype(float)


Expression = Union[BellExpression, CorrelatorExpression]


def _require_binary(scenario: Scenario) -> None:
    if not scenario.is_binary:
        raise UnsupportedScenarioError(
            "correlator expressions require two outcomes for every measurement"
        )


def _merged(pairs: Iterable) -> dict:
    """(key, Fraction) pairs summed key by key, in the order keys first appear,
    without the exact cancellations."""
    merged: dict = {}
    for key, c in pairs:
        merged[key] = merged[key] + c if key in merged else c
    return {key: c for key, c in merged.items() if c}


def make_expression(scenario: Scenario, terms: Iterable[MarginalTerm]) -> BellExpression:
    """Build a probability-form expression, merging duplicate keys by addition.

    Exact cancellations are dropped, so the result never stores a zero
    coefficient.  Input order only affects the order of the surviving keys,
    never the coefficients.
    """
    keys, coefficients = [], []
    for term in terms:
        try:
            keys.append(scenario.validate_term(term.settings, term.outcomes))
        except ScenarioError as exc:
            raise ScenarioError(f"{exc} in term {term}") from None
        coefficients.append(term.coefficient)
    # every key is checked before any coefficient, so a bad key is the error reported
    merged = _merged(zip(keys, map(as_fraction, coefficients)))
    return BellExpression._from_valid_terms(scenario, merged)


def make_correlator_expression(
    scenario: Scenario, terms: Iterable
) -> CorrelatorExpression:
    """Build a correlator-form expression from (settings, coefficient) pairs,
    merging duplicate keys and dropping exact cancellations as
    :func:`make_expression` does."""
    merged = _merged(
        (scenario.validate_settings(settings), as_fraction(coefficient))
        for settings, coefficient in terms
    )
    _require_binary(scenario)
    return CorrelatorExpression._from_valid_terms(scenario, merged)


def correlator_to_probability(expr: CorrelatorExpression) -> BellExpression:
    """Expand every correlator term into its 2^parties signed probability terms.

    A term with coefficient c contributes c * (-1)^z at each outcome tuple,
    z being the number of outcome labels equal to 0.  Conversion is linear,
    and distinct settings tuples give distinct keys, so no two pieces merge.
    The keys are valid by construction (validated settings, binary outcomes)
    and every piece is c or -c with c nonzero, so the result skips the
    public constructor's checks.
    """
    if not isinstance(expr, CorrelatorExpression):
        raise UnsupportedScenarioError("correlator_to_probability expects a correlator form")
    # each outcome tuple with True where its sign is +1, to index the pair (-c, c)
    signs = [(outcomes, sign > 0) for outcomes, sign in _parity_row(expr.scenario.parties)]
    terms = {
        (settings, outcomes): pair[plus]
        for settings, pair in ((settings, (-c, c)) for settings, c in expr.terms.items())
        for outcomes, plus in signs
    }
    return BellExpression._from_valid_terms(expr.scenario, terms)


def as_probability_form(expr: Expression) -> BellExpression:
    """Return the expression itself, or its probability-form conversion."""
    if isinstance(expr, BellExpression):
        return expr
    if isinstance(expr, CorrelatorExpression):
        return correlator_to_probability(expr)
    raise TypeError(f"not a Bell expression: {type(expr).__name__}")
