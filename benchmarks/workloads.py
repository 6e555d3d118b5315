"""The benchmark's workloads: inputs made from the seed, jobs, and each job's check.

A workload is a closed loop with one client: the timed phase runs whole
cycles of jobs, each job starting when the previous one has returned and
been checked.  Every job ends in a reference check; a miss raises
CheckFailed and the job counts as failed.  bellkit receives only the inputs
generated here.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import product
from pathlib import Path
from typing import Callable

import bellkit

import references as ref

HERE = Path(__file__).resolve().parent
TRACED_CLI = HERE / "traced_cli.py"
G_PAPER_FIXTURE = "src/bellkit/data/g_paper_expansion.fixture"
CLI_TIMEOUT_S = 120

TERMS_PER_EXPRESSION = 40
VARIANTS = 4  # distinct seeded inputs per rung, taken in turn by successive jobs
COEFFICIENTS = (
    tuple(Fraction(k) for k in range(-5, 6) if k)
    + tuple(Fraction(k, 2) for k in (-3, -1, 1, 3))
    + (Fraction(-2, 3), Fraction(1, 3))
)
XY = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))


class CheckFailed(Exception):
    """A job's output missed its reference."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Job:
    kind: str  # what the job runs, e.g. "local_bounds" or a CLI command
    rung: str  # input size label, e.g. "3-3-3" or "ghz5"
    run: Callable  # run(tracer or None); raises CheckFailed on a reference miss


def random_terms(seed: int, label: str, parties: int, settings: int, outcomes: int,
                 variant: int, count: int = TERMS_PER_EXPRESSION) -> list:
    """Distinct (settings, outcomes, coefficient) terms drawn from the seed."""
    rng = random.Random(f"{seed}/{label}/{variant}")
    keys = list(product(product(range(settings), repeat=parties),
                        product(range(outcomes), repeat=parties)))
    return [(s, o, rng.choice(COEFFICIENTS)) for s, o in rng.sample(keys, count)]


def random_bloch(seed: int, label: str, parties: int, variant: int) -> tuple:
    """Two seeded unit Bloch vectors per party."""
    rng = random.Random(f"{seed}/{label}/{variant}")
    rows = []
    for _ in range(parties):
        row = []
        for _ in range(2):
            x, y, z = (rng.gauss(0.0, 1.0) for _ in range(3))
            norm = (x * x + y * y + z * z) ** 0.5
            row.append((x / norm, y / norm, z / norm))
        rows.append(tuple(row))
    return tuple(rows)


def random_angles(seed: int, label: str, parties: int) -> list:
    rng = random.Random(f"{seed}/{label}")
    return [[(rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi)) for _ in range(2)]
            for _ in range(parties)]


def make_expression(parties: int, settings: int, outcomes: int, terms):
    scenario = bellkit.Scenario.uniform(parties, settings, outcomes)
    return bellkit.make_expression(
        scenario, [bellkit.MarginalTerm(s, o, c) for s, o, c in terms]
    )


def mermin_expression(parties: int):
    return bellkit.make_correlator_expression(
        bellkit.Scenario.uniform(parties, 2, 2), ref.mermin_terms(parties)
    )


# -- polytope-ladder ----------------------------------------------------------


def check_bounds(expr, magnitude=None):
    """The vertex sweep and the full-joint expansion must agree exactly."""
    bounds = bellkit.local_bounds(expr)
    low, high = bellkit.trivial_bounds(expr)
    require(
        (bounds.min, bounds.max) == (low, high),
        f"local_bounds {bounds.min}..{bounds.max} != trivial_bounds {low}..{high}",
    )
    if magnitude is not None:
        require(bounds.magnitude == magnitude, f"|L| = {bounds.magnitude}, reference {magnitude}")
    return bounds


def check_mermin_bounds(expr, parties: int) -> None:
    check_bounds(bellkit.as_probability_form(expr), ref.mermin_local_bound(parties))


def check_g_paper_bounds(expr) -> None:
    bounds = check_bounds(expr)
    require((bounds.min, bounds.max) == (ref.G_PAPER["expansion_min"], ref.G_PAPER["local_max"]),
            f"g-paper bounds {bounds.min}..{bounds.max}")


class PolytopeLadder:
    """Exact local bounds by both routes, up a ladder of scenario sizes.

    g-paper rides along as a ninth job: with an odd number of jobs per cycle
    the median job falls inside a group of like jobs, not on the boundary
    between two groups of very different cost.
    """

    name = "polytope-ladder"
    in_process = True
    # one cycle's wall time, speed probes included, on a 2-CPU x86-64
    # host running the seed code
    cycle_s = 3.6
    rungs = ((3, 2, 2), (5, 2, 2), (4, 3, 2), (6, 2, 2), (3, 3, 3))
    mermin_parties = (3, 4, 5)

    def __init__(self, seed: int, workdir: Path):
        self.random = {
            rung: [
                make_expression(*rung, random_terms(seed, "polytope", *rung, variant))
                for variant in range(VARIANTS)
            ]
            for rung in self.rungs
        }
        self.mermin = {n: mermin_expression(n) for n in self.mermin_parties}
        self.g_paper = bellkit.builtin_expression("g-paper")

    def cycle(self, index: int) -> list:
        jobs = [
            Job("local_bounds", "-".join(map(str, rung)),
                lambda tracer, e=exprs[index % VARIANTS]: check_bounds(e))
            for rung, exprs in self.random.items()
        ]
        jobs += [
            Job("local_bounds", f"mermin{n}",
                lambda tracer, e=expr, n=n: check_mermin_bounds(e, n))
            for n, expr in self.mermin.items()
        ]
        jobs.append(Job("local_bounds", "g-paper", lambda tracer: check_g_paper_bounds(self.g_paper)))
        return jobs


# -- quantum-ghz-ladder -------------------------------------------------------


def check_value(expr, state, model, reference: float, magnitude=None) -> None:
    value = bellkit.expression_value(expr, state, model).value
    require(ref.close(value, reference), f"value {value!r}, closed form {reference!r}")
    if magnitude is not None:
        require(ref.close(abs(value), magnitude), f"|Q| = {abs(value)!r}, reference {magnitude}")


def check_noise(expr, state, model, parties: int) -> None:
    closed = bellkit.white_noise_tolerance(expr, state, model, magnitude=True)
    scanned = bellkit.tolerance_by_root_scan(expr, state, model, magnitude=True)
    require(closed.local_max == ref.mermin_local_bound(parties),
            f"L = {closed.local_max}, reference {ref.mermin_local_bound(parties)}")
    require(ref.close(closed.quantum_value, ref.mermin_quantum_magnitude(parties)),
            f"Q = {closed.quantum_value!r}")
    require(ref.close(closed.p_critical, ref.mermin_p_critical(parties)),
            f"p = {closed.p_critical!r}, reference {ref.mermin_p_critical(parties)!r}")
    require(abs(scanned - closed.p_critical) <= ref.CROSS_CHECK_TOL,
            f"root scan {scanned!r} vs closed form {closed.p_critical!r}")


class QuantumGhzLadder:
    """n-party Mermin values on GHZ_n, pure and white-noise mixed.

    GHZ_7 is left out: its two 2.5 s jobs made a cycle 11 s long, so only
    three cycles fitted in a run, and the median and tail each rested on
    three samples of one job.  GHZ_3..GHZ_6 still show the O(8^n) cost.

    Each rung runs two random-setting jobs per cycle.  With one, the median
    job was the 6th of the 8 GHZ_5 value jobs of a run, each about 60 ms and
    jittering by 20 % with the host, and run medians spread by 0.11-0.19;
    with two it is in the middle of 12, and they spread by 0.03-0.07.
    """

    name = "quantum-ghz-ladder"
    in_process = True
    cycle_s = 6.4  # as for PolytopeLadder
    parties = (3, 4, 5, 6)
    noise_parties = (3, 4, 5)
    random_per_rung = 2

    def __init__(self, seed: int, workdir: Path):
        self.inputs = {}
        for n in self.parties:
            terms = ref.mermin_terms(n)
            xy = (XY,) * n
            randoms = [random_bloch(seed, "ghz", n, variant) for variant in range(VARIANTS)]
            self.inputs[n] = (
                mermin_expression(n),
                bellkit.ghz_state(n),
                (bellkit.MeasurementModel(xy), ref.ghz_correlator_value(terms, xy)),
                [(bellkit.MeasurementModel(b), ref.ghz_correlator_value(terms, b))
                 for b in randoms],
            )

    def cycle(self, index: int) -> list:
        jobs = []
        for n, (expr, state, (xy, xy_value), randoms) in self.inputs.items():
            jobs.append(Job("value-xy", f"ghz{n}", lambda tracer, e=expr, s=state, m=xy, v=xy_value, n=n:
                            check_value(e, s, m, v, ref.mermin_quantum_magnitude(n))))
            for k in range(self.random_per_rung):
                model, value = randoms[(self.random_per_rung * index + k) % VARIANTS]
                jobs.append(Job("value-random", f"ghz{n}", lambda tracer, e=expr, s=state, m=model, v=value:
                                check_value(e, s, m, v)))
            if n in self.noise_parties:
                jobs.append(Job("noise", f"ghz{n}", lambda tracer, e=expr, s=state, m=xy, n=n:
                                check_noise(e, s, m, n)))
        return jobs


# -- cli-session --------------------------------------------------------------


def _exact(block) -> Fraction:
    return Fraction(block["exact"])


class CliSession:
    """One bellkit CLI command per job, each in a fresh interpreter."""

    name = "cli-session"
    in_process = False
    cycle_s = 18.5  # as for PolytopeLadder

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.root = Path.cwd()
        self.workdir = workdir
        self.env = dict(os.environ)  # run.py has put src/ on PYTHONPATH
        self.digests = {}

        terms = random_terms(seed, "cli", 3, 2, 2, 0)
        angles = random_angles(seed, "cli-model", 3)
        bloch = [[ref.bloch_from_angles(t, f) for t, f in row] for row in angles]
        self.expr_path = workdir / "random-3-2-2.txt"
        self.model_path = workdir / "random-angles.json"
        lines = ["scenario 3 2 2"]
        for settings, outcomes, c in terms:
            parties = " ".join(f"{chr(65 + p)}{s}" for p, s in enumerate(settings))
            lines.append(f"{c} P({parties} | {' '.join(map(str, outcomes))})")
        self.expr_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.model_path.write_text(json.dumps({
            "state": "ghz",
            "measurements": [[{"angles": [t, f]} for t, f in row] for row in angles],
        }), encoding="utf-8")

        low, high = ref.local_extrema(3, 2, 2, terms)
        quantum = ref.ghz_probability_value(terms, bloch)
        total = float(sum((c for _, _, c in terms), Fraction(0)))
        margin = quantum - float(high)
        self.random_ref = {
            "local_min": low,
            "local_max": high,
            "quantum": quantum,
            "p_critical": max(0.0, margin) / (quantum - total / 8),
            "violated": margin > ref.VALUE_TOL,
            "unviolated": margin < -ref.VALUE_TOL,
        }

    # checks, one per report block ---------------------------------------------

    def _check_local(self, target: str, local: dict) -> None:
        if target == "g-paper":
            require(_exact(local["max"]) == ref.G_PAPER["local_max"], f"L = {local['max']}")
        elif target == "mermin":
            require(_exact(local["magnitude"]) == ref.MERMIN["local_magnitude"],
                    f"|L| = {local['magnitude']}")
        else:
            got = (_exact(local["min"]), _exact(local["max"]))
            want = (self.random_ref["local_min"], self.random_ref["local_max"])
            require(got == want, f"local bounds {got}, brute force {want}")

    def _check_quantum(self, target: str, quantum: dict) -> None:
        if target == "g-paper":
            require(ref.close(quantum["value"], ref.G_PAPER["quantum"]), f"Q = {quantum['value']}")
        elif target == "mermin":
            require(ref.close(quantum["magnitude"], ref.MERMIN["quantum_magnitude"]),
                    f"|Q| = {quantum['magnitude']}")
        else:
            require(ref.close(quantum["value"], self.random_ref["quantum"]),
                    f"Q = {quantum['value']}, closed form {self.random_ref['quantum']!r}")

    def _check_noise(self, target: str, noise: dict) -> None:
        closed = noise["p_critical"]["value"]
        scanned = noise["p_critical_root_scan"]["value"]
        require(abs(scanned - closed) <= ref.CROSS_CHECK_TOL,
                f"root scan {scanned} vs closed form {closed}")
        if target == "g-paper":
            reference = ref.G_PAPER["p_critical"]
        elif target == "mermin":
            reference = ref.MERMIN["p_critical"]
        else:
            reference = self.random_ref["p_critical"]
        require(ref.close(closed, reference), f"p = {closed}, reference {reference}")

    def _check_expansion(self, target: str, expansion: dict, diff) -> None:
        extremes = (_exact(expansion["min"]), _exact(expansion["max"]))
        if target == "g-paper":
            require(extremes == (ref.G_PAPER["expansion_min"], ref.G_PAPER["local_max"])
                    and _exact(expansion["coefficient_sum"]) == ref.G_PAPER["expansion_sum"],
                    f"expansion extremes {extremes}")
            require(diff is not None and diff["mismatches"] == 0,
                    f"fixture diff: {diff and diff['mismatches']} mismatches")
        elif target == "mermin":
            magnitude = ref.MERMIN["local_magnitude"]
            require(extremes == (-magnitude, magnitude), f"expansion extremes {extremes}")
        else:
            want = (self.random_ref["local_min"], self.random_ref["local_max"])
            require(extremes == want, f"expansion extremes {extremes}, brute force {want}")

    def _check(self, command: str, target: str, report: dict) -> None:
        if command == "bound":
            self._check_local(target, report["local"])
        elif command == "expand":
            self._check_expansion(target, report["expansion"], report.get("diff"))
        elif command == "quantum":
            self._check_quantum(target, report["quantum"])
        elif command == "noise":
            self._check_noise(target, report["noise"])
        elif command == "optimize":
            best = report["optimization"]["best_value"]
            floor = ref.OPTIMIZER_FLOOR[target] - ref.OPTIMIZER_SLACK
            require(best >= floor, f"optimizer best {best} < {floor}")
        elif command == "report":
            self._check_local(target, report["local"])
            self._check_quantum(target, report["quantum"])
            self._check_expansion(target, report["expansion"], report["expansion"].get("diff"))
            noise = report["noise"]
            if target in ref.OPTIMIZER_FLOOR or self.random_ref["violated"]:
                require(noise["defined"], f"noise undefined: {noise.get('reason')}")
            elif self.random_ref["unviolated"]:
                require(not noise["defined"], "noise defined without a violation")
            if noise["defined"]:
                self._check_noise(target, noise)

    # jobs -----------------------------------------------------------------------

    def _run(self, command: str, target: str, argv: list, tracer) -> None:
        if tracer is None:
            program = [sys.executable, "-m", "bellkit.cli"]
        else:
            spans_path = self.workdir / "traced-cli-spans.json"
            program = [sys.executable, str(TRACED_CLI), str(spans_path)]
        done = subprocess.run(program + argv, cwd=self.root, env=self.env,
                              capture_output=True, timeout=CLI_TIMEOUT_S)
        require(done.returncode == 0,
                f"exit {done.returncode}: {done.stderr.decode(errors='replace')[-300:]}")
        if tracer is not None:
            tracer.absorb(spans_path, tracer.job)
        digest = hashlib.sha256(done.stdout).hexdigest()
        first = self.digests.setdefault(tuple(argv), digest)
        require(digest == first, "stdout differs from an earlier run of the same argv")
        self._check(command, target, json.loads(done.stdout))

    def cycle(self, index: int) -> list:
        argvs = []
        for builtin in ("g-paper", "mermin"):
            source = ["--builtin", builtin]
            diff = ["--diff", G_PAPER_FIXTURE] if builtin == "g-paper" else []
            argvs += [
                ("bound", builtin, ["bound", *source]),
                ("expand", builtin, ["expand", *source, *diff]),
                ("quantum", builtin, ["quantum", *source]),
                ("noise", builtin, ["noise", *source]),
                ("report", builtin, ["report", *source]),
                ("optimize", builtin, ["optimize", *source, "--state", "ghz",
                                       "--restarts", "20", "--seed", str(self.seed)]),
            ]
        expr, model = str(self.expr_path), str(self.model_path)
        argvs += [
            ("bound", "random", ["bound", expr]),
            ("quantum", "random", ["quantum", expr, "--model", model]),
            ("report", "random", ["report", expr, "--model", model]),
        ]
        return [Job(command, target, partial(self._run, command, target, argv))
                for command, target, argv in argvs]


WORKLOADS = {w.name: w for w in (CliSession, PolytopeLadder, QuantumGhzLadder)}
