"""Seeded random-restart see-saw ascent over measurement directions for a fixed state.

Measurements stay rank-1 projective qubit observables, one Bloch unit vector
per (party, setting) slot.  With every other slot fixed, the expression
value is affine in one slot's vector n, ``a + b . n``, so the best unit
vector for that slot is ``b / |b|``; ``a`` and ``b`` come from four table
evaluations, at n = 0, e_x, e_y and e_z.  One sweep takes that step for
every slot in party-major order and re-evaluates the value, so an ascent is
monotone.  It stops when a sweep gains no more than ``tolerance``
(converged) or when the next sweep would exceed ``max_evals`` table
evaluations (out of budget).  This is the measurement half of the see-saw
of Werner & Wolf, Quantum Inf. Comput. 1, 1 (2001) and Liang & Doherty,
Phys. Rev. A 75, 042103 (2007); the state stays fixed.

One start is pinned at the in-plane X/Y directions (t = pi/2, f = s * pi/2
for setting s, in polar angles); each random start draws its polar angles
from a generator keyed by (seed, restart index), so results are
deterministic for a given seed and independent of restart execution order.
Magnitude runs ascend on the expression and on its negation from every
start.  Ties go to the earliest ascent.

Each table evaluation is the probability-table engine of
:mod:`bellkit.quantum` called directly, with the density matrix and the
expression's weight vector prepared once per run.  The result holds the best
directions as polar angles, per party one (theta, phi) pair per setting, and
the model at those angles, on which :func:`bellkit.quantum.expression_value`
re-evaluates the best value.

No qubit convention is re-derived here: angles become Bloch vectors in
``quantum._bloch_from_angles`` and turn back in ``quantum._angles_from_bloch``,
party counts are checked by ``quantum._check_parties``, and each weight is a
coefficient times an entry's sign, both placed by the expression's
``table_lookup``, which reads every form alike and takes its correlator signs
from ``scenario._parity_signs``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, UnsupportedScenarioError
from .quantum import (
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
from .scenario import Expression


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 20  # random restarts; the pinned X/Y start always runs
    seed: int = 0
    tolerance: float = 1e-9  # an ascent converges once a sweep gains no more
    max_evals: int = 6000  # table-evaluation budget per ascent

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
    evaluations: int  # table evaluations over all ascents
    seed: int
    converged_starts: int  # ascents stopped by tolerance, not by budget


def _expression_weights(expr: Expression) -> np.ndarray:
    """Each entry's weight in the engine's flat ``(s_0, o_0, s_1, o_1, ..)`` table,
    placed by ``table_lookup``: a term's coefficient times each entry's sign."""
    index, signs, coefficients = expr.table_lookup
    weights = np.zeros(math.prod(expr.scenario.table_shape))
    weights[index] = np.array(coefficients)[:, None] * signs
    return weights


def _objective(expr: Expression, state: State) -> Callable[[np.ndarray], float]:
    """The expression value as a function of Bloch vectors of shape (3, slots),
    one column per (party, setting) slot, party-major."""
    scenario = expr.scenario
    paired = _paired_density(state, scenario.settings_per_party)
    weights = _expression_weights(expr)
    return lambda bloch: float(np.dot(weights, _table(paired, _projector_blocks(bloch, scenario))))


def _affine(value_at, bloch: np.ndarray, slot: int) -> tuple:
    """(a, b) with ``value_at(bloch) = a + b . n`` while column ``slot`` is n
    and the other columns stay as they are; ``bloch`` is left unchanged."""
    kept = bloch[:, slot].copy()
    bloch[:, slot] = 0.0
    a = value_at(bloch)
    b = np.empty(3)
    for axis, unit in enumerate(np.eye(3)):
        bloch[:, slot] = unit
        b[axis] = value_at(bloch) - a
    bloch[:, slot] = kept
    return a, b


def _ascend(value_at, bloch: np.ndarray, config: OptimizerConfig) -> tuple:
    """Coordinate ascent on ``bloch`` in place: (value, table evaluations, converged)."""
    slots = bloch.shape[1]
    sweep_evals = 4 * slots + 1
    value = value_at(bloch)
    evaluations = 1
    while evaluations + sweep_evals <= config.max_evals:
        for slot in range(slots):
            _, b = _affine(value_at, bloch, slot)
            norm = np.linalg.norm(b)
            if norm > 0:
                bloch[:, slot] = b / norm
        previous, value = value, value_at(bloch)
        evaluations += sweep_evals
        if value - previous <= config.tolerance:
            return value, evaluations, True
    return value, evaluations, False


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
    value_at = _objective(expr, state)
    orientations = [value_at]
    if magnitude:
        orientations.append(lambda bloch: -value_at(bloch))

    slots = scenario.slot_offsets[-1]
    pinned_phi = [s * math.pi / 2 for _, s in scenario.slots()]  # X, then Y, in the plane
    starts = [_bloch_from_angles(np.full(slots, math.pi / 2), np.array(pinned_phi))]
    for index in range(config.restarts):
        rng = np.random.default_rng([config.seed, index])
        theta = rng.uniform(0.0, math.pi, slots)  # every slot's theta, then its phi
        phi = rng.uniform(0.0, 2.0 * math.pi, slots)
        starts.append(_bloch_from_angles(theta, phi))

    best_score = None
    best_bloch = None
    evaluations = 0
    converged_starts = 0
    for start in starts:
        for oriented in orientations:
            bloch = start.copy()
            score, used, converged = _ascend(oriented, bloch, config)
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
