"""Seeded random-restart see-saw ascent over measurement directions for a fixed state.

Measurements stay rank-1 projective qubit observables, one Bloch unit vector
per (party, setting) slot.  With every other slot fixed, the expression
value is affine in one slot's vector n, ``a + b . n``, so the best unit
vector for that slot is ``b / |b|``.  The value is linear in each party's
projector block, so contracting the paired density and the weights with
every other party's block leaves a 4 x 2s_p "environment" for party p, and
every slot of p reads its b off it.  A party's settings never share a
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

The engine's pieces come from :mod:`bellkit.quantum`, which alone knows the
flat table layout, the contraction order and the projector basis: the
start's value is its table, each party's environment is ``_environments``,
each slot's b is read off it by ``_affine``, and the expression's weights
are placed by ``_expression_weights``, with the density matrix and the
weights prepared once per run.  The result holds the best directions as
polar angles, per party one (theta, phi) pair per setting, and the model at
those angles, on which :func:`bellkit.quantum.expression_value` re-evaluates
the best value.  The config's counts go through ``scenario._integer``, its
tolerance ``_real``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import chain, pairwise
from typing import Optional

from .errors import ConfigError, UnsupportedScenarioError
from .quantum import (
    MeasurementModel,
    State,
    _affine,
    _angles_from_bloch,
    _bloch_from_angles,
    _check_parties,
    _environments,
    _expression_weights,
    _paired_density,
    _projector_blocks,
    _projectors,
    _table,
    expression_value,
)
from .scenario import Expression, Scenario, _integer, _real

# numpy after .quantum: when bellkit runs from source, quantum.py then compiles
# before numpy loads, not on top of numpy's heap, which would set the memory
# peak of the optimize command
import numpy as np


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 20  # random restarts; the pinned X/Y start always runs
    seed: int = 0
    tolerance: float = 1e-9  # an ascent converges once a sweep gains no more
    max_evals: int = 6000  # contraction budget per ascent

    def __post_init__(self):
        for name in ("restarts", "seed", "max_evals"):
            object.__setattr__(self, name, _integer(getattr(self, name), name, ConfigError))
        object.__setattr__(self, "tolerance", _real(self.tolerance, "tolerance", ConfigError))
        if self.restarts < 0:
            raise ConfigError(f"restarts must be >= 0, got {self.restarts}")
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")
        if not 0 < self.tolerance < math.inf:
            raise ConfigError(f"tolerance must be positive and finite, got {self.tolerance}")
        if self.max_evals < 1:
            raise ConfigError(f"max_evals must be >= 1, got {self.max_evals}")


@dataclass(frozen=True)
class OptimizationResult:
    """Best value found (a lower bound on the quantum supremum), and how.  Equality
    ignores ``best_model``, which ``best_angles`` determine."""

    best_value: float
    best_angles: tuple  # per party, one (theta, phi) pair per setting
    best_model: MeasurementModel = field(compare=False)  # at best_angles, which gave best_value
    evaluations: int  # contractions over all ascents
    converged_starts: int  # ascents stopped by tolerance, not by budget


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
            b = _affine(environment)
            norms = np.linalg.norm(b, axis=0)
            np.divide(b, norms, out=vectors, where=norms > 0)
            blocks[party] = _projectors(vectors)
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
    return OptimizationResult(best_value, best_angles, best_model, evaluations, converged_starts)
