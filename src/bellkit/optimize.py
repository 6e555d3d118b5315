"""Seeded random-restart see-saw ascent over measurement directions for a fixed state.

Measurements stay rank-1 projective qubit observables, one Bloch unit vector
per (party, setting) slot.  With every other slot fixed, the expression
value is affine in one slot's vector n, ``a + b . n``, so the best unit
vector for that slot is ``b / |b|``.  The value is linear in each party's
projector block, so contracting the paired density and the weights with
every other party's block leaves a 4 x 2s_p "environment" for party p, and
every slot of p reads its (a, b) off it.  A party's settings never share a
term, so all of them step at once and the steps are those of a slot-by-slot
sweep, up to rounding.  One sweep takes that step party by party, in party
order, and reads the value off the last party's environment, so an ascent
is monotone.  The right partial products are built once per sweep and the
left one grows as the sweep moves, as in a tensor-network sweep (Schollwöck,
Ann. Phys. 326, 96 (2011)), so a sweep costs a few table evaluations
whatever the party count.  An ascent stops when a sweep gains no more than
``tolerance`` (converged) or when the next sweep would exceed ``max_evals``
contractions (out of budget): the start's value counts one, each sweep one
per party.  This is the measurement half of the see-saw of Werner & Wolf,
Quantum Inf. Comput. 1, 1 (2001) and Liang & Doherty, Phys. Rev. A 75,
042103 (2007); the state stays fixed.

One start is pinned at the in-plane X/Y directions (t = pi/2, f = s * pi/2
for setting s, in polar angles); each random start draws its polar angles
from the standard library's generator keyed by (seed, restart index) as its
ascents begin, so results are deterministic for a given seed and
independent of restart execution order.  Magnitude runs ascend on the
expression and on its negation from every start.  Ties go to the earliest
ascent.

The start's value is the probability-table engine of :mod:`bellkit.quantum`
called directly, and the environments contract in its layout, with the
density matrix and the expression's weight vector prepared once per run.
The result holds the best directions as polar angles, per party one
(theta, phi) pair per setting, and the model at those angles, on which
:func:`bellkit.quantum.expression_value` re-evaluates the best value.

No qubit convention is re-derived here: angles become Bloch vectors in
``quantum._bloch_from_angles`` and turn back in ``quantum._angles_from_bloch``,
projectors are built by ``quantum._projector_blocks``, whose halved Pauli
matrices and outcome signs give each slot's b, party counts are checked by
``quantum._check_parties``, and each weight is a coefficient times an
entry's sign, both placed by the expression's ``table_lookup``, which reads
every form alike and takes its correlator signs from ``scenario._parity_signs``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import chain, pairwise
from typing import Optional

import numpy as np

from .errors import ConfigError, UnsupportedScenarioError
from .quantum import (
    _HALF_PAULI_AB,
    _SIGNS,
    MeasurementModel,
    State,
    _angles_from_bloch,
    _bloch_from_angles,
    _check_parties,
    _paired_density,
    _projector_blocks,
    _table,
    expression_value,
)
from .scenario import Expression, Scenario


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 20  # random restarts; the pinned X/Y start always runs
    seed: int = 0
    tolerance: float = 1e-9  # an ascent converges once a sweep gains no more
    max_evals: int = 6000  # contraction budget per ascent

    def __post_init__(self):
        if self.restarts < 0:
            raise ConfigError(f"restarts must be >= 0, got {self.restarts}")
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")
        if not self.tolerance > 0:
            raise ConfigError(f"tolerance must be positive, got {self.tolerance}")
        if self.max_evals < 1:
            raise ConfigError(f"max_evals must be >= 1, got {self.max_evals}")


@dataclass(frozen=True)
class OptimizationResult:
    """Best value found (a lower bound on the quantum supremum), and how.  Equality
    ignores ``best_model``, which ``best_angles`` determine."""

    best_value: float
    best_angles: tuple  # per party, one (theta, phi) pair per setting
    best_model: MeasurementModel = field(compare=False)  # at best_angles, which gave best_value
    restarts: int
    evaluations: int  # contractions over all ascents
    seed: int
    converged_starts: int  # ascents stopped by tolerance, not by budget


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
    The left product is :func:`~bellkit.quantum._table`'s running table in its
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


def _affine(environment: np.ndarray, block: np.ndarray, vectors: np.ndarray) -> tuple:
    """(a, b) of every setting of one party, from its ``environment``: while
    the other slots stay as they are, the value is ``a[s] + b[:, s] . n`` with
    setting s's Bloch vector at n.  ``block`` and ``vectors``, of shape
    (3, settings), are the party's current projectors and directions.

    A projector is ``I/2 + sign * (sigma . n)/2`` (:func:`_projector_blocks`),
    so b sums the environment's columns of one setting by outcome sign against
    the halved Pauli matrices, and a is the value less ``b . n``.  The party's
    settings never share a term, so each one's (a, b) is free of the others'.
    """
    value = float(np.sum(environment * block).real)
    signed = environment.reshape(4, -1, 2) @ _SIGNS
    b = (_HALF_PAULI_AB.T @ signed).real
    return value - np.sum(b * vectors, axis=0), b


def _ascend(
    paired: np.ndarray,
    weights: np.ndarray,
    bloch: np.ndarray,
    scenario: Scenario,
    config: OptimizerConfig,
) -> tuple:
    """Party-wise ascent on ``bloch`` in place: (value, contractions, converged).

    The start's value is one table evaluation.  A sweep then takes, party by
    party, one environment and points every setting of the party along its b;
    the value after the sweep is the last party's, read off its environment.
    """
    offsets = list(pairwise(scenario.slot_offsets))
    blocks = list(_projector_blocks(bloch, scenario))
    value = float(np.dot(weights, _table(paired, blocks)))
    evaluations = 1
    while evaluations + scenario.parties <= config.max_evals:
        for party, environment in enumerate(_environments(paired, weights, blocks)):
            vectors = bloch[:, slice(*offsets[party])]
            _, b = _affine(environment, blocks[party], vectors)
            norms = np.linalg.norm(b, axis=0)
            np.divide(b, norms, out=vectors, where=norms > 0)
            blocks[party] = _projector_blocks(bloch, scenario)[party]
        previous = value
        value = float(np.sum(environment * blocks[-1]).real)
        evaluations += scenario.parties
        if value - previous <= config.tolerance:
            return value, evaluations, True
    return value, evaluations, False


def _random_start(slots: int, seed: int, index: int) -> np.ndarray:
    """Restart ``index``'s Bloch vectors, shape (3, slots), from a generator keyed
    by (seed, index): every slot's theta uniform in [0, pi], then its phi in [0, 2 pi]."""
    rng = random.Random(f"{seed},{index}")
    theta = [rng.uniform(0.0, math.pi) for _ in range(slots)]
    phi = [rng.uniform(0.0, 2.0 * math.pi) for _ in range(slots)]
    return _bloch_from_angles(np.array(theta), np.array(phi))


def optimize_measurements(
    expr: Expression,
    state: State,
    config: Optional[OptimizerConfig] = None,
    magnitude: bool = False,
) -> OptimizationResult:
    """Maximize the expression value (or its magnitude) over measurement directions.

    Deterministic for a fixed config; the best value across ascents is
    reported, re-evaluated through ``expression_value`` at the returned
    angles.  It is a lower bound on the quantum supremum, not a certificate.
    """
    if config is None:
        config = OptimizerConfig()
    scenario = expr.scenario
    if not scenario.is_binary:
        raise UnsupportedScenarioError("angle optimization needs binary outcomes")
    _check_parties(state, scenario.parties, holder="expression")
    paired = _paired_density(state, scenario.settings_per_party)
    weights = _expression_weights(expr)
    orientations = [weights, -weights] if magnitude else [weights]

    slots = scenario.slot_offsets[-1]
    pinned_phi = [s * math.pi / 2 for _, s in scenario.slots()]  # X, then Y, in the plane
    pinned = _bloch_from_angles(np.full(slots, math.pi / 2), np.array(pinned_phi))
    # each restart draws its start as its ascents begin
    randoms = (_random_start(slots, config.seed, index) for index in range(config.restarts))

    best_score = None
    best_bloch = None
    evaluations = 0
    converged_starts = 0
    for start in chain([pinned], randoms):
        for oriented in orientations:
            bloch = start.copy()
            score, used, converged = _ascend(paired, oriented, bloch, scenario, config)
            evaluations += used
            converged_starts += converged
            if best_score is None or score > best_score:
                best_score, best_bloch = score, bloch

    theta, phi = map(np.ndarray.tolist, _angles_from_bloch(best_bloch))
    best_angles = scenario.split_slots(tuple(zip(theta, phi)))
    best_model = MeasurementModel(
        tuple(tuple(_bloch_from_angles(t, f) for t, f in row) for row in best_angles)
    )
    final = expression_value(expr, state, best_model).value
    best_value = abs(final) if magnitude else final
    return OptimizationResult(
        best_value=best_value,
        best_angles=best_angles,
        best_model=best_model,
        restarts=config.restarts,
        evaluations=evaluations,
        seed=config.seed,
        converged_starts=converged_starts,
    )
