"""Seeded random-restart search over measurement angles for a fixed state.

Measurements stay rank-1 projective qubit observables, parameterized per
(party, setting) by polar angles with Bloch vector
(sin t cos f, sin t sin f, cos t).  Each restart runs a Nelder-Mead simplex
from an independently seeded random start; one extra start is pinned at the
in-plane X/Y angles (t = pi/2, f = s * pi/2 for setting s).  Restart
generators are keyed by (seed, restart index), so results are deterministic
for a given seed and independent of restart execution order; ties go to the
earliest start.

The objective is the probability-table engine of :mod:`bellkit.quantum`
called directly: the density matrix and the expression's weight tensor are
prepared once per run, each evaluation turns all angles into Bloch vectors
in one vectorised step and dots the weights against the resulting table.
Pure and mixed states take the same path.  The returned best value is
re-evaluated through :func:`bellkit.quantum.expression_value` at the
returned angles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, DimensionMismatchError, UnsupportedScenarioError
from .quantum import (
    MeasurementModel,
    State,
    _bloch_from_angles,
    _interleaved,
    _paired_density,
    _parity_signs,
    _table,
    expression_value,
)
from .scenario import CorrelatorExpression, Expression


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 20  # random restarts; the pinned X/Y start always runs
    seed: int = 0
    tolerance: float = 1e-9  # value tolerance passed to the simplex
    max_evals: int = 6000  # objective-evaluation budget per start

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
class AngleParameterization:
    """(theta, phi) per party per setting; Bloch vectors are unit by construction."""

    angles: tuple

    def __post_init__(self):
        object.__setattr__(
            self,
            "angles",
            tuple(
                tuple((float(t), float(f)) for t, f in row) for row in self.angles
            ),
        )

    __hash__ = None

    @property
    def settings_per_party(self) -> tuple:
        return tuple(len(row) for row in self.angles)

    def to_model(self) -> MeasurementModel:
        return MeasurementModel(
            tuple(tuple(_bloch_from_angles(t, f) for t, f in row) for row in self.angles)
        )

    def flatten(self) -> np.ndarray:
        return np.array(
            [x for row in self.angles for pair in row for x in pair], dtype=float
        )

    @classmethod
    def from_flat(cls, values, settings_per_party) -> "AngleParameterization":
        values = list(float(x) for x in values)
        if len(values) != 2 * sum(settings_per_party):
            raise ConfigError(
                f"expected {2 * sum(settings_per_party)} angles, got {len(values)}"
            )
        rows = []
        cursor = 0
        for n_settings in settings_per_party:
            row = []
            for _ in range(n_settings):
                row.append((values[cursor], values[cursor + 1]))
                cursor += 2
            rows.append(tuple(row))
        return cls(tuple(rows))

    @classmethod
    def xy_plane_start(cls, settings_per_party) -> "AngleParameterization":
        """Equatorial angles: setting s points at azimuth s * pi/2 (X, then Y)."""
        return cls(
            tuple(
                tuple((math.pi / 2, s * math.pi / 2) for s in range(n))
                for n in settings_per_party
            )
        )


@dataclass(frozen=True)
class OptimizationResult:
    """Best value found (a lower bound on the quantum supremum), and how."""

    best_value: float
    best_angles: AngleParameterization
    restarts: int
    evaluations: int
    seed: int

    __hash__ = None


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on first call so that ``import bellkit``
    does not load scipy.  A module-level name, so that each start's call can be traced."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


def _expression_weights(expr: Expression) -> np.ndarray:
    """weights[s_0, .., s_k, o_0, .., o_k]: the coefficient of P(outcomes | settings)."""
    scenario = expr.scenario
    weights = np.zeros(scenario.settings_per_party + (2,) * scenario.parties)
    if isinstance(expr, CorrelatorExpression):
        signs = _parity_signs(scenario.parties)
        for settings, coefficient in expr.terms.items():
            weights[settings] += float(coefficient) * signs
    else:
        for (settings, outcomes), coefficient in expr.terms.items():
            weights[settings + outcomes] += float(coefficient)
    return weights


def optimize_measurements(
    expr: Expression,
    state: State,
    config: Optional[OptimizerConfig] = None,
    magnitude: bool = False,
) -> OptimizationResult:
    """Maximize the expression value (or its magnitude) over measurement angles.

    Deterministic for a fixed config; the best value across starts is
    reported, re-evaluated through ``expression_value`` at the returned
    angles.  It is a lower bound on the quantum supremum, not a certificate.
    """
    if config is None:
        config = OptimizerConfig()
    scenario = expr.scenario
    if not scenario.is_binary:
        raise UnsupportedScenarioError("angle optimization needs binary outcomes")
    if state.parties != scenario.parties:
        raise DimensionMismatchError(
            f"state spans {state.parties} qubits but the expression has "
            f"{scenario.parties} parties"
        )
    settings_per_party = scenario.settings_per_party
    paired = _paired_density(state, settings_per_party)
    # in the engine's flat (s_0, o_0, s_1, o_1, ..) order
    weights = _expression_weights(expr).transpose(_interleaved(scenario.parties)).reshape(-1)
    evaluations = 0

    def objective(flat: np.ndarray) -> float:
        nonlocal evaluations
        evaluations += 1
        theta, phi = flat[0::2], flat[1::2]
        sin_theta = np.sin(theta)
        bloch = np.array((sin_theta * np.cos(phi), sin_theta * np.sin(phi), np.cos(theta)))
        value = float(np.dot(weights, _table(paired, bloch, settings_per_party)))
        return -(abs(value) if magnitude else value)

    slots = sum(settings_per_party)
    starts = [AngleParameterization.xy_plane_start(settings_per_party).flatten()]
    for index in range(config.restarts):
        rng = np.random.default_rng([config.seed, index])
        flat = np.empty(2 * slots)
        flat[0::2] = rng.uniform(0.0, math.pi, slots)
        flat[1::2] = rng.uniform(0.0, 2.0 * math.pi, slots)
        starts.append(flat)

    best_score = None
    best_flat = None
    for flat in starts:
        result = minimize(
            objective,
            flat,
            method="Nelder-Mead",
            options={
                "xatol": 1e-6,
                "fatol": config.tolerance,
                "maxfev": config.max_evals,
                "maxiter": config.max_evals,
            },
        )
        score = -float(result.fun)
        if best_score is None or score > best_score:
            best_score = score
            best_flat = np.array(result.x, dtype=float)

    best_angles = AngleParameterization.from_flat(best_flat, settings_per_party)
    final = expression_value(expr, state, best_angles.to_model()).value
    best_value = abs(final) if magnitude else final
    return OptimizationResult(
        best_value=best_value,
        best_angles=best_angles,
        restarts=config.restarts,
        evaluations=evaluations,
        seed=config.seed,
    )
