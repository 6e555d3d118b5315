"""Reference values and independent oracles that every benchmark job is checked against.

Nothing here imports bellkit.  The fixed references are published values:
the g-paper expression and the tripartite Mermin inequality, and the n-party
Mermin family (Mermin, PRL 65, 1838 (1990)), whose quantum value on GHZ_n
with X/Y settings, local bound and white-noise tolerance have closed forms at
every n.  The oracles evaluate GHZ states under product qubit measurements
in closed form, O(parties) per term, and enumerate small local polytopes by
brute force, so a check never compares bellkit with itself.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

# Published values for the two builtins; none depends on the workload seed.
G_PAPER = {
    "local_max": Fraction(1),
    "quantum": 3.5,
    "p_critical": 0.5,
    "expansion_min": Fraction(-4),
    "expansion_sum": Fraction(-96),
}
MERMIN = {"local_magnitude": Fraction(2), "quantum_magnitude": 4.0, "p_critical": 0.5}
OPTIMIZER_FLOOR = {"g-paper": 3.5, "mermin": 4.0}
OPTIMIZER_SLACK = 1e-6
CROSS_CHECK_TOL = 1e-9  # root scan against the closed-form tolerance
VALUE_TOL = 1e-9  # float results against their references, relative to max(1, |ref|)


def close(value: float, reference: float, tol: float = VALUE_TOL) -> bool:
    return abs(value - reference) <= tol * max(1.0, abs(reference))


def mermin_terms(parties: int) -> list:
    """(settings, coefficient) of the n-party Mermin correlator sum.

    The terms of Re prod_k (A_k + i A'_k) with an even number m of primed
    (setting 1) parties carry (-1)^(m/2); the whole sum is negated so that
    n = 3 reproduces the builtin E(A,B',C') + E(A',B,C') + E(A',B',C) - E(A,B,C).
    """
    terms = []
    for settings in product((0, 1), repeat=parties):
        primed = sum(settings)
        if primed % 2 == 0:
            terms.append((settings, -((-1) ** (primed // 2))))
    return terms


def mermin_local_bound(parties: int) -> Fraction:
    """Largest |value| over local models: 2^floor(n/2)."""
    return Fraction(2 ** (parties // 2))


def mermin_quantum_magnitude(parties: int) -> float:
    """|value| on GHZ_n with setting 0 = X and setting 1 = Y: 2^(n-1)."""
    return float(2 ** (parties - 1))


def mermin_p_critical(parties: int) -> float:
    """Critical white-noise fraction 1 - L/Q; the coefficient sum is 0."""
    return 1.0 - 2.0 ** (parties // 2 - parties + 1)


def bloch_from_angles(theta: float, phi: float) -> tuple:
    return (
        math.sin(theta) * math.cos(phi),
        math.sin(theta) * math.sin(phi),
        math.cos(theta),
    )


def ghz_correlator(vectors) -> float:
    """<GHZ_n| (x) n_k.sigma |GHZ_n> for Bloch vectors n_k = (x, y, z).

    Only the |0..0><0..0|, |1..1><1..1| and the two off-diagonal corners of
    the GHZ projector contribute: (1 + (-1)^n)/2 prod z_k + Re prod (x_k + i y_k).
    """
    diagonal = 1.0
    corner = 1.0 + 0.0j
    for x, y, z in vectors:
        diagonal *= z
        corner *= complex(x, y)
    parity = 1.0 if len(vectors) % 2 == 0 else 0.0
    return parity * diagonal + corner.real


def ghz_joint_probability(vectors, outcomes) -> float:
    """P(outcomes) on GHZ_n; outcome 1 projects onto the +1 eigenspace.

    With s = +1 for outcome 1 and -1 for outcome 0 the projector has
    <0|P|0> = (1 + s z)/2, <1|P|1> = (1 - s z)/2 and <0|P|1> = s (x - i y)/2.
    """
    up = 1.0
    down = 1.0
    corner = 1.0 + 0.0j
    for (x, y, z), outcome in zip(vectors, outcomes):
        sign = 1.0 if outcome == 1 else -1.0
        up *= (1.0 + sign * z) / 2.0
        down *= (1.0 - sign * z) / 2.0
        corner *= sign * complex(x, -y) / 2.0
    return (up + down) / 2.0 + corner.real


def ghz_correlator_value(terms, bloch) -> float:
    """Correlator-form expression value; terms are (settings, coefficient)."""
    return math.fsum(
        float(c) * ghz_correlator([bloch[p][s] for p, s in enumerate(settings)])
        for settings, c in terms
    )


def ghz_probability_value(terms, bloch) -> float:
    """Probability-form expression value; terms are (settings, outcomes, coefficient)."""
    return math.fsum(
        float(c)
        * ghz_joint_probability([bloch[p][s] for p, s in enumerate(settings)], outcomes)
        for settings, outcomes, c in terms
    )


def local_extrema(parties: int, settings: int, outcomes: int, terms) -> tuple:
    """(min, max) over every deterministic strategy, by brute force.

    Terms are (settings, outcomes, coefficient); affordable for the small
    scenarios whose references are computed during set-up.
    """
    values = []
    slots = [range(outcomes)] * (parties * settings)
    for flat in product(*slots):
        total = Fraction(0)
        for term_settings, term_outcomes, c in terms:
            if all(
                flat[p * settings + term_settings[p]] == term_outcomes[p]
                for p in range(parties)
            ):
                total += c
        values.append(total)
    return min(values), max(values)
