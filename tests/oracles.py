"""Independent brute-force oracles the tests check the engine paths against.

Everything here stays deliberately close to the definitions: explicit loops
over assignments, term matching by comparing outcome labels slot by slot,
observable expectations through one dense operator product, and joint
probabilities as Tr(rho Pi) with every projector built by ``np.kron``.  None
of it shares code with the package's computational routines; the slot-wise
optimizer step takes the value function it differentiates as an argument.
"""

from fractions import Fraction
from itertools import product

import numpy as np

from bellkit import (
    LocalBoundResult,
    MarginalTerm,
    MeasurementModel,
    Scenario,
    make_correlator_expression,
    make_expression,
)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def all_assignments(scenario):
    """Complete outcome assignments, built per party and then combined."""
    per_party = []
    for p in range(scenario.parties):
        per_party.append(
            list(product(*(range(n) for n in scenario.outcomes_per_setting[p])))
        )
    return [tuple(combo) for combo in product(*per_party)]


def term_matches(assignment, settings, outcomes):
    return all(
        assignment[p][settings[p]] == outcomes[p] for p in range(len(settings))
    )


def expansion_by_direct_evaluation(expr):
    """Coefficient at each assignment: the sum of coefficients of matching terms."""
    table = {}
    for assignment in all_assignments(expr.scenario):
        total = Fraction(0)
        for (settings, outcomes), coefficient in expr.terms.items():
            if term_matches(assignment, settings, outcomes):
                total += coefficient
        table[assignment] = total
    return table


def vertex_local_bounds(expr):
    """Extremes of the direct-evaluation table, every tie kept in assignment order."""
    table = expansion_by_direct_evaluation(expr)
    high = max(table.values())
    low = min(table.values())
    return LocalBoundResult(
        high,
        low,
        tuple(a for a, value in table.items() if value == high),
        tuple(a for a, value in table.items() if value == low),
    )


def observable_expectation(state_vector, bloch_vectors):
    """<psi| tensor_p (n_p . sigma) |psi> via one dense operator product."""
    op = None
    for nx, ny, nz in bloch_vectors:
        single = nx * PAULI_X + ny * PAULI_Y + nz * PAULI_Z
        op = single if op is None else np.kron(op, single)
    return float(np.real(np.vdot(state_vector, op @ state_vector)))


def kron_projector(bloch_vectors, outcomes):
    """Tensor product of one projector (I + (2o - 1) n.sigma) / 2 per party."""
    op = None
    for (nx, ny, nz), outcome in zip(bloch_vectors, outcomes):
        sign = 1 if outcome == 1 else -1
        single = (np.eye(2) + sign * (nx * PAULI_X + ny * PAULI_Y + nz * PAULI_Z)) / 2
        op = single if op is None else np.kron(op, single)
    return op


def kron_probability_table(density, model):
    """P[s_0.., o_0..] = Tr(rho Pi), each joint projector built densely with np.kron."""
    parties = model.parties
    table = np.zeros(model.settings_per_party + (2,) * parties)
    for settings in product(*(range(n) for n in model.settings_per_party)):
        vectors = [model.bloch[p][settings[p]] for p in range(parties)]
        for outcomes in product((0, 1), repeat=parties):
            projector = kron_projector(vectors, outcomes)
            table[settings + outcomes] = np.real(np.trace(density @ projector))
    return table


def kron_expression_value(expr, density, model):
    """Expression value summed term by term over the kron-projector table."""
    table = kron_probability_table(density, model)
    total = 0.0
    for key, coefficient in expr.terms.items():
        if isinstance(key[0], tuple):  # (settings, outcomes) of a probability term
            total += float(coefficient) * table[key[0] + key[1]]
        else:  # settings of a correlator term
            for outcomes in product((0, 1), repeat=len(key)):
                sign = -1 if outcomes.count(0) % 2 else 1
                total += float(coefficient) * sign * table[key + outcomes]
    return total


def slot_affine(value_at, bloch, slot):
    """(a, b) with ``value_at(bloch) = a + b . n`` while column ``slot`` is n and
    the other columns stay as they are, from four evaluations: at n = 0, e_x,
    e_y and e_z.  ``bloch`` (shape (3, slots)) is left unchanged."""
    kept = bloch[:, slot].copy()
    bloch[:, slot] = 0.0
    a = value_at(bloch)
    b = np.empty(3)
    for axis, unit in enumerate(np.eye(3)):
        bloch[:, slot] = unit
        b[axis] = value_at(bloch) - a
    bloch[:, slot] = kept
    return a, b


def slot_sweep(value_at, bloch):
    """One coordinate-ascent sweep on ``bloch`` in place, slot by slot in column
    order, each slot set to b / |b| from :func:`slot_affine`; returns the value."""
    for slot in range(bloch.shape[1]):
        _, b = slot_affine(value_at, bloch, slot)
        norm = np.linalg.norm(b)
        if norm > 0:
            bloch[:, slot] = b / norm
    return value_at(bloch)


def correlator_values_by_loop(expr, table):
    """Each correlator term's value on a probability table, one term at a time:
    the sum of its outcome block times the signs, outcome 1 counting +1."""
    parties = expr.scenario.parties
    signs = np.empty((2,) * parties)
    for outcomes in product((0, 1), repeat=parties):
        signs[outcomes] = -1.0 if outcomes.count(0) % 2 else 1.0
    return [float(np.sum(signs * table[settings])) for settings in expr.terms]


def bisection_root_scan(expr, amplitudes, model, magnitude=False, resolution=1e-12):
    """Critical white-noise fraction by plain bisection on [0, 1].

    The noisy state is rho = (1 - p)|psi><psi| + p I / 2^n and its value
    Tr(rho W), with W the sum of coefficient times kron projector over the
    terms of the probability-form ``expr``; the bound comes from vertex
    enumeration.  With ``magnitude`` set |value| meets the larger bound
    magnitude, else the value meets the local maximum.  The bracket [lo, hi]
    keeps a positive margin at lo and none at hi until it is ``resolution``
    wide; the midpoint is returned.
    """
    bounds = vertex_local_bounds(expr)
    local = float(max(abs(bounds.max), abs(bounds.min)) if magnitude else bounds.max)
    operator = sum(
        float(c) * kron_projector([model.bloch[p][s] for p, s in enumerate(settings)], outcomes)
        for (settings, outcomes), c in expr.terms.items()
    )
    pure = np.outer(amplitudes, np.conj(amplitudes))
    mixed = np.eye(len(amplitudes)) / len(amplitudes)

    def margin(p):
        value = float(np.real(np.trace(((1 - p) * pure + p * mixed) @ operator)))
        return (abs(value) if magnitude else value) - local

    if not margin(0.0) > 0 >= margin(1.0):
        raise ValueError("no violation that dies by p = 1")
    lo, hi = 0.0, 1.0
    while hi - lo > resolution:
        mid = (lo + hi) / 2
        if margin(mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


# The quantum engine's inputs as each evaluation once rebuilt them: the density
# matrix by np.outer and a transposed copy, white noise by adding (p/dim) I, and
# the projector stack from the model's Bloch columns.  The engine now builds
# them where states and models are built; these references pin its bytes.


def pure_density_by_outer(amplitudes):
    return np.outer(amplitudes, np.conj(amplitudes))


def paired_density_by_transpose(density):
    """rho[a, b] at (a_0, b_0, a_1, b_1, ..), flattened to (4, 4^(n-1))."""
    parties = len(density).bit_length() - 1
    axes = [axis for party in range(parties) for axis in (party, parties + party)]
    return np.asarray(density).reshape((2,) * (2 * parties)).transpose(axes).reshape(4, -1)


def white_noise_by_identity(density, p):
    """(1 - p) rho + (p / dim) I."""
    dim = len(density)
    return (1.0 - p) * np.asarray(density) + (p / dim) * np.eye(dim, dtype=complex)


def projectors_from_bloch_columns(bloch, settings_per_party):
    """Each party's (4, 2 * settings) slice of one projector stack built from Bloch
    columns of shape (3, slots): column 2k + o holds slot k's outcome-o projector
    (I + (2o - 1) n.sigma) / 2 read as Pi[b, a] at row 2a + b."""
    half_identity = np.eye(2).reshape(4) / 2.0
    half_pauli = np.array([PAULI_X, PAULI_Y, PAULI_Z]).transpose(2, 1, 0).reshape(4, 3) / 2.0
    signs = np.array([-1.0, 1.0])
    projectors = half_identity[:, None, None] + (half_pauli @ bloch)[:, :, None] * signs
    projectors = projectors.reshape(4, -1)
    slices, start = [], 0
    for count in settings_per_party:
        slices.append(projectors[:, start : start + 2 * count])
        start += 2 * count
    return tuple(slices)


def random_pure_amplitudes(rng, parties):
    raw = rng.normal(size=2**parties) + 1j * rng.normal(size=2**parties)
    return raw / np.linalg.norm(raw)


def random_density_matrix(rng, parties, rank):
    """G G^dagger / Tr for a complex Gaussian G with the given number of columns."""
    dim = 2**parties
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_bloch(rng):
    v = rng.normal(size=3)
    v = v / np.linalg.norm(v)
    return (float(v[0]), float(v[1]), float(v[2]))


def random_model(rng, parties=3, settings=2):
    return MeasurementModel(
        tuple(tuple(random_bloch(rng) for _ in range(settings)) for _ in range(parties))
    )


def random_rational(rng, span=9):
    return Fraction(int(rng.integers(-span, span + 1)), int(rng.integers(1, 7)))


def random_expression(rng, scenario, max_terms=8):
    terms = []
    for _ in range(int(rng.integers(0, max_terms + 1))):
        settings = tuple(
            int(rng.integers(0, scenario.settings_per_party[p]))
            for p in range(scenario.parties)
        )
        outcomes = tuple(
            int(rng.integers(0, scenario.outcomes_per_setting[p][settings[p]]))
            for p in range(scenario.parties)
        )
        terms.append(MarginalTerm(settings, outcomes, random_rational(rng)))
    return make_expression(scenario, terms)


def mermin_expression(parties):
    """The n-party Mermin correlator sum with the builtin's sign: minus
    Re prod_k (A_k + i A'_k), m primed (setting 1) parties, m even, weighing
    -(-1)^(m/2).  n = 3 is the builtin ``mermin``."""
    terms = [
        (settings, -((-1) ** (sum(settings) // 2)))
        for settings in product((0, 1), repeat=parties)
        if sum(settings) % 2 == 0
    ]
    return make_correlator_expression(Scenario.uniform(parties, 2, 2), terms)


def product_distribution_probability(tables, settings, outcomes):
    """P(outcomes | settings) under independent per-(party, setting) tables.

    tables[p][s][o] is the exact probability that party p's setting s yields
    outcome o.
    """
    value = Fraction(1)
    for p, (s, o) in enumerate(zip(settings, outcomes)):
        value *= tables[p][s][o]
    return value


def evaluate_probability_expression(expr, tables):
    return sum(
        (
            c * product_distribution_probability(tables, settings, outcomes)
            for (settings, outcomes), c in expr.terms.items()
        ),
        Fraction(0),
    )


def evaluate_correlator_expression(expr, tables):
    total = Fraction(0)
    for settings, c in expr.terms.items():
        correlator = Fraction(0)
        for outcomes in product((0, 1), repeat=len(settings)):
            sign = -1 if outcomes.count(0) % 2 else 1
            correlator += sign * product_distribution_probability(
                tables, settings, outcomes
            )
        total += c * correlator
    return total


def random_outcome_tables(rng, scenario):
    """Random exact product distribution over outcomes for every slot."""
    tables = []
    for p in range(scenario.parties):
        rows = []
        for n in scenario.outcomes_per_setting[p]:
            raw = [int(rng.integers(0, 10)) + 1 for _ in range(n)]
            total = sum(raw)
            rows.append(tuple(Fraction(x, total) for x in raw))
        tables.append(tuple(rows))
    return tuple(tables)
