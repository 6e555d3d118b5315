"""Born-rule evaluation for small multi-qubit systems under binary measurements.

Conventions, fixed so that amplitude-level fixtures are reproducible:

* party 0 is the leftmost tensor factor, and basis index 0 is the spin-up
  (+Z) state, so a three-party basis state reads ``|o0 o1 o2>``;
* a measurement setting is a Bloch unit vector ``n`` with observable ``n . sigma``;
  outcome 1 projects onto the +1 eigenspace ``(I + n.sigma)/2`` and outcome 0
  onto the -1 eigenspace, the sign convention under which the all-ones
  outcome enters a correlator with positive sign;
* polar angles (theta, phi) mean ``n = (sin t cos f, sin t sin f, cos t)``,
  and a state has one qubit per party.  :func:`_bloch_from_angles` with its
  inverse :func:`_angles_from_bloch`, and :func:`_check_parties`, own these
  two; model documents and the optimizer call them.  A model document has
  one reader, :func:`parse_model`, and one writer, :func:`_model_document`;
  its numbers must be JSON numbers.

Every quantum number comes from one engine, :func:`_table`:
``Tr(rho Pi)`` for every setting and outcome tuple, with ``Pi`` the tensor
product of the parties' projectors, contracted one party at a time so that
no 2^n x 2^n operator is built.  Each state keeps its density matrix from
construction: a pure state builds its once, as one broadcast product of its
amplitudes and their conjugates, with no ``np.outer``, and reads it back as
a :class:`DensityMatrix` reads its own.  One gather through a permutation
built once per party count (:func:`_pair_order`) then sets each party's row
and column index side by side, so pure and mixed states share one path.
Each state keeps its party count, and each model its per-party projector
blocks (:func:`_projector_blocks`), built with it; the optimizer builds
blocks for each trial the same way.  :func:`_flat_table`
runs the engine for a model and yields the table flat in
``(s_0, o_0, s_1, o_1, ..)`` order.  Every quantum number takes one path,
:func:`expression_value`, which gathers and clamps only the entries an
expression's terms read, at positions it compiles once and keeps
(``table_lookup``); a joint probability or a correlator is the one term of a
one-term expression.  :func:`probability_table` is the full-table view only.
The optimizer's primitives live here too, so this module alone knows the
flat table layout, the contraction order and the projector basis:
:func:`_expression_weights` places an expression's weights in the flat
table, whose dot product with them is the objective; :func:`_environments`
is the engine contracted with one party left open; and :func:`_affine`,
the adjoint of :func:`_projectors`, reads each setting's slope off an
environment.  An
:class:`ExpressionValue` holds numbers only; each term's key and coefficient
stay on the expression.  Local bounds play no part here: comparing a quantum
value with one is the job of :mod:`bellkit.noise`.

Dense complex algebra only; dimensions are capped at 2^10 and the table's
largest intermediate at ``MAX_TABLE_ENTRIES``.
"""

from __future__ import annotations

import json
import math
import operator
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import pairwise
from typing import Sequence, Union

import numpy as np

from .errors import DimensionMismatchError, ParseError, ScenarioMismatchError
from .scenario import _OUTCOME_SIGNS, BellExpression, CorrelatorExpression, Expression, Scenario
from .scenario import _integer, _read_only, _real

MAX_PARTIES = 10
# complex entries in the largest array the table contraction allocates (64 MiB);
# 10 parties with 2 settings each need 4^10, 10 parties with 3 settings 6^10
MAX_TABLE_ENTRIES = 2**22
STATE_ATOL = 1e-12
EIGENVALUE_FLOOR = -1e-10

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_SIGNS = np.array(_OUTCOME_SIGNS, dtype=float)  # eigenvalue of n.sigma per outcome
# halves of one-qubit operators M, flattened to rows 2a + b holding M[b, a]
_HALF_IDENTITY_AB = np.eye(2).reshape(4) / 2.0
_HALF_PAULI_AB = np.array([PAULI_X, PAULI_Y, PAULI_Z]).transpose(2, 1, 0).reshape(4, 3) / 2.0


def _parties_from_dim(dim: int, what: str) -> int:
    parties = int(round(math.log2(dim))) if dim > 0 else 0
    if dim <= 1 or 2**parties != dim:
        raise DimensionMismatchError(f"{what} dimension {dim} is not a power of two")
    if parties > MAX_PARTIES:
        raise DimensionMismatchError(
            f"{what} spans {parties} qubits; dense algebra is capped at {MAX_PARTIES}"
        )
    return parties


@cache
def _pair_order(parties: int) -> np.ndarray:
    """Flat positions in a 2^n x 2^n matrix, read in the order
    ``(a_0, b_0, a_1, b_1, ..)`` of each party's row and column index: one
    gather through it puts a matrix in :func:`_paired_density`'s layout, the
    same entries a transposed copy holds at less cost.  Built once per party
    count and read-only: 4^n indices, 8 MiB at the cap of 10 parties."""
    axes = [axis for party in range(parties) for axis in (party, parties + party)]
    order = np.arange(4**parties).reshape((2,) * (2 * parties)).transpose(axes)
    return _read_only(order.reshape(-1))


@dataclass(frozen=True, eq=False)
class PureState:
    """Complex amplitudes over the computational product basis, a flat sequence
    of unit norm, with their density matrix, built once and kept read-only."""

    amplitudes: np.ndarray
    parties: int = field(init=False, repr=False)

    def __post_init__(self):
        amplitudes = np.array(self.amplitudes, dtype=complex)
        if amplitudes.ndim != 1:  # a matrix or a column must not pass for more qubits
            raise DimensionMismatchError(
                f"state amplitudes must be a flat sequence, got shape {amplitudes.shape}"
            )
        parties = _parties_from_dim(amplitudes.size, "state")
        if not np.all(np.isfinite(amplitudes)):
            raise DimensionMismatchError("state amplitudes must be finite")
        norm = float(np.linalg.norm(amplitudes))
        if abs(norm - 1.0) > STATE_ATOL:
            raise DimensionMismatchError(f"state norm {norm!r} is not 1 within {STATE_ATOL}")
        object.__setattr__(self, "amplitudes", _read_only(amplitudes))
        object.__setattr__(self, "parties", parties)
        object.__setattr__(self, "_density", _read_only(amplitudes[:, None] * amplitudes.conj()))

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def density(self) -> np.ndarray:
        return self._density


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix on qubits, kept
    C-ordered and read-only."""

    matrix: np.ndarray
    parties: int = field(init=False, repr=False)

    def __post_init__(self):
        matrix = np.array(self.matrix, dtype=complex, order="C")
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise DimensionMismatchError(f"density matrix must be square, got {matrix.shape}")
        parties = _parties_from_dim(matrix.shape[0], "density matrix")
        if not np.all(np.isfinite(matrix)):
            raise DimensionMismatchError("density matrix entries must be finite")
        if float(np.max(np.abs(matrix - matrix.conj().T))) > STATE_ATOL:
            raise DimensionMismatchError("density matrix is not Hermitian within 1e-12")
        trace = complex(np.trace(matrix))
        if abs(trace - 1.0) > STATE_ATOL:
            raise DimensionMismatchError(f"density matrix trace {trace!r} is not 1 within 1e-12")
        smallest = float(np.min(np.linalg.eigvalsh(matrix)))
        if smallest < EIGENVALUE_FLOOR:
            raise DimensionMismatchError(
                f"density matrix has eigenvalue {smallest!r} below {EIGENVALUE_FLOOR}"
            )
        object.__setattr__(self, "matrix", _read_only(matrix))
        object.__setattr__(self, "parties", parties)

    @classmethod
    def _from_valid_matrix(cls, matrix: np.ndarray, parties: int) -> "DensityMatrix":
        """Wrap a complex ``matrix`` on ``parties`` qubits without re-checking it:
        it must already pass every check of the public constructor.  For
        mixtures of valid states."""
        self = object.__new__(cls)
        object.__setattr__(self, "matrix", _read_only(matrix))
        object.__setattr__(self, "parties", parties)
        return self

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def density(self) -> np.ndarray:
        return self.matrix


State = Union[PureState, DensityMatrix]


@dataclass(frozen=True, eq=False)
class MeasurementModel:
    """Per party, per setting, the Bloch vector of a binary +/-1 observable."""

    bloch: tuple
    settings_per_party: tuple = field(init=False, repr=False)

    def __post_init__(self):
        rows = []
        for party, row in enumerate(self.bloch):
            vectors = []
            for setting, vector in enumerate(row):
                where = f"party {party} setting {setting}"
                name = f"{where}: Bloch component"
                vector = tuple(_real(x, name, DimensionMismatchError) for x in vector)
                if len(vector) != 3:
                    raise DimensionMismatchError(f"{where}: Bloch vector needs 3 components")
                if not all(math.isfinite(x) for x in vector):
                    raise DimensionMismatchError(f"{where}: Bloch vector {vector} is not finite")
                norm = math.sqrt(sum(x * x for x in vector))
                if abs(norm - 1.0) > STATE_ATOL:
                    raise DimensionMismatchError(f"{where}: Bloch norm {norm!r} is not 1")
                vectors.append(vector)
            if not vectors:
                raise DimensionMismatchError(f"party {party} has no settings")
            rows.append(tuple(vectors))
        if not rows:
            raise DimensionMismatchError("model has no parties")
        if len(rows) > MAX_PARTIES:
            raise DimensionMismatchError(f"models are capped at {MAX_PARTIES} parties")
        object.__setattr__(self, "bloch", tuple(rows))
        settings = tuple(len(row) for row in rows)
        object.__setattr__(self, "settings_per_party", settings)
        scenario = Scenario(len(rows), settings, tuple((2,) * n for n in settings))
        object.__setattr__(self, "_scenario", scenario)
        # every evaluation reads the same projector blocks: built once here
        columns = np.array([vector for row in rows for vector in row]).T
        object.__setattr__(self, "_blocks", _projector_blocks(columns, scenario))

    @property
    def parties(self) -> int:
        return len(self.bloch)

    def scenario(self) -> Scenario:
        """The binary scenario this model measures, built once with the model."""
        return self._scenario


def ghz_state(parties: int) -> PureState:
    """Equal superposition of the all-up and all-down basis states."""
    parties = _integer(parties, "parties", DimensionMismatchError)
    if parties < 2:
        raise DimensionMismatchError("a GHZ state needs at least two parties")
    _parties_from_dim(2**parties, "state")  # the size cap, before any amplitude exists
    amplitudes = np.zeros(2**parties, dtype=complex)
    amplitudes[0] = amplitudes[-1] = 1.0 / math.sqrt(2.0)
    return PureState(amplitudes)


def paper_model() -> MeasurementModel:
    """Three parties, setting 0 measuring X and setting 1 measuring Y."""
    xy = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    return MeasurementModel((xy, xy, xy))


def _check_parties(state: State, parties: int, holder: str = "model") -> None:
    if state.parties != parties:
        raise DimensionMismatchError(
            f"state spans {state.parties} qubits but the {holder} has {parties} parties"
        )


def _paired_density(state: State, settings_per_party) -> np.ndarray:
    """The density matrix with each party's row and column index side by side.

    Entry ``rho[a, b]`` sits at multi-index ``(a_0, b_0, a_1, b_1, ..)``,
    flattened to shape (4, 4^(n-1)) so that party 0's pair leads: one gather
    through :func:`_pair_order`.  The size guard for the whole contraction
    runs here, before anything is allocated.
    """
    size = largest = 4 ** len(settings_per_party)
    for count in settings_per_party:
        size = size // 4 * 2 * count  # one party's (a, b) pair becomes (s, o)
        largest = max(largest, size)
    if largest > MAX_TABLE_ENTRIES:
        raise DimensionMismatchError(
            f"the probability table for settings {tuple(settings_per_party)} needs "
            f"{largest} complex entries ({largest * 16 / 2**20:.0f} MiB); "
            f"the cap is {MAX_TABLE_ENTRIES}"
        )
    return state.density().reshape(-1)[_pair_order(state.parties)].reshape(4, -1)


def _projectors(bloch: np.ndarray) -> np.ndarray:
    """The read-only (4, 2 * slots) projector columns of Bloch vectors ``bloch``,
    of shape (3, slots).  Column ``2s + o`` is slot s's outcome-o projector
    ``Pi = (I + (2o - 1) n.sigma) / 2`` read as ``Pi[b, a]`` at row ``2a + b``.
    Each column reads only its own slot's vector, so one party's columns are
    those of its slots alone.
    """
    half_observables = _HALF_PAULI_AB @ bloch
    projectors = _HALF_IDENTITY_AB[:, None, None] + half_observables[:, :, None] * _SIGNS
    return _read_only(projectors.reshape(4, -1))


def _projector_blocks(bloch: np.ndarray, scenario: Scenario) -> tuple:
    """Per party, the projectors that :func:`_table` contracts with, for Bloch
    vectors ``bloch`` of shape (3, slots), one per slot of the binary
    ``scenario``, in its ``slots()`` order: :func:`_projectors`, cut into
    read-only views of shape (4, 2 * settings) at the scenario's ``slot_offsets``.
    """
    projectors = _projectors(bloch)
    return tuple(projectors[:, 2 * lo : 2 * hi] for lo, hi in pairwise(scenario.slot_offsets))


def _table(paired: np.ndarray, blocks: tuple) -> np.ndarray:
    """Unclamped Tr(rho Pi) for every setting and outcome tuple, flat in
    ``(s_0, o_0, s_1, o_1, ..)`` order, from :func:`_paired_density` and
    :func:`_projector_blocks`.

    Each matrix product applies one party's share of
    ``Tr(rho Pi) = sum rho[a, b] Pi[b, a]``: it consumes the leading (a, b)
    pair and appends that party's (s, o) pair at the end.
    """
    table = paired
    for block in blocks:
        table = table.reshape(4, -1).T @ block
    return table.real.reshape(-1)


def _flat_table(state: State, model: MeasurementModel) -> np.ndarray:
    """The model's unclamped :func:`_table` on the state, flat in
    ``(s_0, o_0, s_1, o_1, ..)`` order: what :func:`probability_table` reshapes
    and an expression's ``table_lookup`` indexes, from the projector blocks
    the model built once.  The caller checks the party count."""
    return _table(_paired_density(state, model.settings_per_party), model._blocks)


def _expression_weights(expr: Expression) -> np.ndarray:
    """Each entry's weight in the engine's flat ``(s_0, o_0, s_1, o_1, ..)`` table,
    placed by ``table_lookup``: a term's coefficient times each entry's sign."""
    index, signs, coefficients = expr.table_lookup
    weights = np.zeros(math.prod(expr.scenario.table_shape))
    weights[index] = np.array(coefficients)[:, None] * signs
    return weights


def _environments(paired: np.ndarray, weights: np.ndarray, blocks: list):
    """Yield each party's environment in party order: the (4, 2 * settings)
    array ``E`` with ``value = Re sum(E * blocks[p])`` while every other
    party's block stays as it is.  It is the contraction of the paired density
    and the weights with every other party's projector block.

    The right partial products, ``weights`` contracted with the blocks of
    parties p + 1 .. n - 1, are built once, before the first yield; the left
    partial product, ``paired`` contracted with the blocks of parties 0 .. p - 1,
    grows by one party after each yield and reads ``blocks[p]`` only then, so a
    caller that replaces ``blocks[p]`` in between sees its environments follow.
    The left product is :func:`_table`'s running table in its
    ``(r_p, .., r_{n-1}, c_0, .., c_{p-1})`` layout, each ``r`` a party's (a, b)
    pair and each ``c`` its (s, o) pair; the right product is laid out
    ``(r_{p+1}, .., r_{n-1}, c_0, .., c_p)``, so one matrix product joins them.
    """
    rights = [weights]
    for block in reversed(blocks[1:]):
        rights.append(block @ rights[-1].reshape(-1, block.shape[1]).T)
    left = paired
    for party, right in enumerate(reversed(rights)):
        yield left.reshape(4, -1) @ right.reshape(-1, blocks[party].shape[1])
        if party + 1 < len(blocks):
            left = left.reshape(4, -1).T @ blocks[party]


def _affine(environment: np.ndarray) -> np.ndarray:
    """Each setting's direction b, shape (3, settings), off its party's
    ``environment``: with the other slots fixed, the value is affine in setting
    s's Bloch vector with slope ``b[:, s]``.  A projector is
    ``I/2 + sign * (sigma . n)/2`` (:func:`_projectors`), so b sums a setting's
    environment columns by outcome sign against the halved Pauli matrices; the
    party's settings never share a term, so each b is free of the others'."""
    signed = environment.reshape(4, -1, 2) @ _SIGNS
    return (_HALF_PAULI_AB.T @ signed).real


def probability_table(state: State, model: MeasurementModel) -> np.ndarray:
    """Born probabilities of every outcome tuple under every setting tuple.

    Entry ``[s_0, .., s_{n-1}, o_0, .., o_{n-1}]`` is the expectation value of
    the tensor-product projector, clamped to [0, 1] against sub-1e-15
    rounding excursions.
    """
    _check_parties(state, model.parties)
    shape = model.scenario().table_shape
    order = [*range(0, 2 * model.parties, 2), *range(1, 2 * model.parties, 2)]
    return np.clip(_flat_table(state, model).reshape(shape).transpose(order), 0.0, 1.0)


@dataclass(frozen=True)
class ExpressionValue:
    """An expression's value on a state and, in its term order, each term's value
    (a probability, or a correlator for E terms) and that times its coefficient."""

    value: float
    term_values: tuple
    breakdown: tuple


def _check_evaluation(expr: Expression, state: State, model: MeasurementModel) -> None:
    """The checks :func:`expression_value` makes: party count, then scenario."""
    _check_parties(state, model.parties)
    if expr.scenario != model.scenario():
        raise ScenarioMismatchError("expression scenario does not match the measurement model")


def expression_value(expr: Expression, state: State, model: MeasurementModel) -> ExpressionValue:
    """Evaluate an expression termwise, keeping the per-term breakdown.

    Terms are visited in the expression's stored order, so builtin expressions
    report their contributions in their declared term order.  The expression's
    ``table_lookup``, compiled on the first evaluation and kept, gathers the
    entries its terms read, clamped as :func:`probability_table` clamps them.
    A term's value is its row of entries times their signs, summed: a
    correlator's row is contiguous, so it adds in the order of a sum over that
    block of the probability table.  Each is multiplied by its float coefficient.
    """
    _check_evaluation(expr, state, model)
    index, signs, coefficients = expr.table_lookup
    # np.add.reduce is the sum that ndarray.sum runs, without its Python wrapper
    entries = _flat_table(state, model)[index].clip(0.0, 1.0)
    term_values = tuple(np.add.reduce(entries * signs, axis=1).tolist())
    breakdown = tuple(map(operator.mul, coefficients, term_values))
    return ExpressionValue(math.fsum(breakdown), term_values, breakdown)


def joint_probability(
    state: State, model: MeasurementModel, settings: Sequence[int], outcomes: Sequence[int]
) -> float:
    """Born probability of one outcome tuple under one setting choice."""
    scenario = model.scenario()
    key = scenario.validate_term(settings, outcomes)  # before a list key meets a dict
    unit = BellExpression._from_valid_terms(scenario, {key: Fraction(1)})
    return expression_value(unit, state, model).term_values[0]


def correlator(state: State, model: MeasurementModel, settings: Sequence[int]) -> float:
    """Signed sum of joint probabilities: outcome 1 counts +1, outcome 0 counts -1."""
    scenario = model.scenario()  # binary: every model observable is +/-1
    key = scenario.validate_settings(settings)
    unit = CorrelatorExpression._from_valid_terms(scenario, {key: Fraction(1)})
    return expression_value(unit, state, model).term_values[0]


def mix_with_white_noise(state: State, p: float) -> DensityMatrix:
    """(1-p) times the state plus p times the maximally mixed state.

    A mixture of valid states is valid (Hermitian, unit trace, smallest
    eigenvalue at least (1-p) times the state's), so the result skips the
    constructor's checks, which cost more than the mixing on every noisy
    state the root scan evaluates.  The noise term is added on the diagonal
    alone, through a flat view of the C-ordered product; the pass adding 0.0
    then turns every -0.0 into +0.0, as adding ``(p / dim) * I`` would, so the
    bytes match that formula's.
    """
    p = _real(p, "noise fraction", DimensionMismatchError)
    if not 0.0 <= p <= 1.0:
        raise DimensionMismatchError(f"noise fraction must lie in [0, 1], got {p}")
    dim = state.dim
    matrix = (1.0 - p) * state.density()
    diagonal = matrix.reshape(-1)[:: dim + 1]
    diagonal += p / dim
    matrix += 0.0
    return DensityMatrix._from_valid_matrix(matrix, state.parties)


def _bloch_from_angles(theta, phi) -> np.ndarray:
    """Bloch vectors at polar angles, shape (3,) + the angles' shape."""
    sin_theta = np.sin(theta)
    return np.array((sin_theta * np.cos(phi), sin_theta * np.sin(phi), np.cos(theta)))


def _angles_from_bloch(bloch) -> tuple:
    """The inverse of :func:`_bloch_from_angles`: (theta, phi) arrays of Bloch
    vectors of shape (3,) + any shape, theta in [0, pi] and phi in [-pi, pi]."""
    x, y, z = bloch
    return np.arccos(np.clip(z, -1.0, 1.0)), np.arctan2(y, x)


def _json_numbers(values) -> tuple:
    """A list of JSON numbers as floats.  Anything else, booleans and strings
    included, raises TypeError, and a number past the float range OverflowError."""
    if not isinstance(values, list) or not all(type(x) in (int, float) for x in values):
        raise TypeError(f"expected a list of numbers, got {values!r}")
    return tuple(map(float, values))


def _setting_numbers(entry: dict, key: str, count: int, party: int, setting: int) -> tuple:
    values = entry[key]
    try:
        numbers = _json_numbers(values)
    except (TypeError, OverflowError):
        numbers = ()
    if len(numbers) != count or not all(math.isfinite(x) for x in numbers):
        raise ParseError(
            f"party {party} setting {setting}: {key!r} must be {count} finite numbers, "
            f"got {values!r}"
        )
    return numbers


def _refuse_unknown_keys(spec: dict, known: tuple, holder: str) -> None:
    """Raise a ParseError naming the first key of ``spec`` not in ``known``: a
    key the reader would skip must not leave a number silently unchanged."""
    for key in spec:
        if key not in known:
            raise ParseError(
                f"{holder} has an unknown key {key!r}; it takes {', '.join(map(repr, known))}"
            )


def _object_without_repeats(pairs: list) -> dict:
    """A JSON object's pairs as a dict, refused if a key repeats: JSON would
    keep the last value and drop the earlier one silently."""
    document = {}
    for key, value in pairs:
        if key in document:
            raise ParseError(f"model document repeats the key {key!r}")
        document[key] = value
    return document


def parse_model(text: str) -> tuple:
    """Parse a JSON model document into (state, measurement model).

    Schema::

        {
          "state": "ghz" | {"amplitudes": [[re, im], ...]},
          "measurements": [
            [{"bloch": [x, y, z]} | {"angles": [theta, phi]}, ...],   # party 0
            ...
          ]
        }

    The amplitude list must have length 2^parties, ordered with party 0 as
    the leftmost tensor factor and basis index 0 as spin-up.  Any other key,
    at the top level or in ``state``, is refused by name, and so is a key
    repeated in any object.
    """
    try:
        document = json.loads(text, object_pairs_hook=_object_without_repeats)
    except json.JSONDecodeError as exc:
        raise ParseError(f"model document is not valid JSON: {exc.msg}", exc.lineno, exc.colno)
    except ParseError:  # a repeated key, which the ValueError branch must not rename
        raise
    except RecursionError:
        raise ParseError("model document is nested too deeply") from None
    except ValueError:  # an integer past the interpreter's digit limit
        raise ParseError(
            f"model document holds a number too long: more than {sys.get_int_max_str_digits()} "
            "digits"
        ) from None
    if not isinstance(document, dict):
        raise ParseError("model document must be a JSON object")
    try:
        state_spec = document["state"]
        measurement_spec = document["measurements"]
    except KeyError as exc:
        raise ParseError(f"model document is missing the {exc.args[0]!r} key") from None
    _refuse_unknown_keys(document, ("state", "measurements"), "model document")
    if isinstance(state_spec, dict):
        _refuse_unknown_keys(state_spec, ("amplitudes",), "'state'")

    rows = []
    if not isinstance(measurement_spec, list) or not measurement_spec:
        raise ParseError("'measurements' must be a non-empty list of per-party lists")
    for party, row in enumerate(measurement_spec):
        if not isinstance(row, list) or not row:
            raise ParseError(f"party {party}: expected a non-empty list of settings")
        vectors = []
        for setting, entry in enumerate(row):
            if not isinstance(entry, dict) or len(entry) != 1:
                raise ParseError(
                    f"party {party} setting {setting}: expected "
                    "{'bloch': [x, y, z]} or {'angles': [theta, phi]}"
                )
            if "bloch" in entry:
                vectors.append(_setting_numbers(entry, "bloch", 3, party, setting))
            elif "angles" in entry:
                theta, phi = _setting_numbers(entry, "angles", 2, party, setting)
                vectors.append(_bloch_from_angles(theta, phi))
            else:
                raise ParseError(
                    f"party {party} setting {setting}: unknown measurement key "
                    f"{next(iter(entry))!r}"
                )
        rows.append(tuple(vectors))

    try:  # a model, or a state that does not fit it, GHZ or given, is a fault of the document
        model = MeasurementModel(tuple(rows))
        if state_spec == "ghz":
            state: State = ghz_state(model.parties)
        elif isinstance(state_spec, dict) and "amplitudes" in state_spec:
            pairs = state_spec["amplitudes"]
            try:
                amplitudes = np.array(
                    [complex(re, im) for re, im in map(_json_numbers, pairs)], dtype=complex
                )
            except (TypeError, ValueError, OverflowError) as exc:
                raise ParseError(f"bad amplitude list: {exc}") from None
            state = PureState(amplitudes)
            _check_parties(state, model.parties)
        else:
            raise ParseError("'state' must be \"ghz\" or {'amplitudes': [[re, im], ...]}")
    except DimensionMismatchError as exc:
        raise ParseError(str(exc)) from None
    return state, model


def _model_document(angles, state: PureState | None = None) -> dict:
    """The model document that :func:`parse_model` reads back: each party's
    (theta, phi) ``angles``, on ``state``, or on the GHZ state when it is None."""
    rows = [[{"angles": [theta, phi]} for theta, phi in row] for row in angles]
    if state is None:
        return {"state": "ghz", "measurements": rows}
    amplitudes = [[a.real, a.imag] for a in state.amplitudes]
    return {"state": {"amplitudes": amplitudes}, "measurements": rows}
