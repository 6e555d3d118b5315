"""Tests of the benchmark's own logic: checks, metric names, seeding, span analysis.

Run with ``PYTHONPATH=src python -m pytest benchmarks`` from the repository
root.  They run only the smallest jobs, in-process, in a few seconds.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import bellkit.cli
import metrics
import references
import speed
import worker
import workloads
from tracing import Tracer, self_times

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SMALL_RUNGS = ("3-2-2", "mermin3")


class SmallPolytopes:
    """The polytope ladder restricted to its two cheapest rungs."""

    in_process = True

    def __init__(self, seed: int, workdir: Path):
        self.ladder = workloads.PolytopeLadder(seed, workdir)

    def cycle(self, index: int) -> list:
        return [job for job in self.ladder.cycle(index) if job.rung in SMALL_RUNGS]


def run_small(tmp_path, tracer=None) -> dict:
    return worker.timed_phase(SmallPolytopes(7, tmp_path), 2, tracer)


def failed_ratio(result: dict) -> float:
    _, notes = metrics.end_to_end(result["jobs"], [1.0], 1.0)
    return notes["failed_ratio"]


def test_seed_code_passes_every_check(tmp_path):
    result = run_small(tmp_path)
    assert len(result["jobs"]) == 4
    assert failed_ratio(result) == 0


def test_perturbed_local_bound_raises_failed_ratio(tmp_path, monkeypatch):
    real = references.mermin_local_bound
    monkeypatch.setattr(references, "mermin_local_bound", lambda n: real(n) + Fraction(1, 2))
    result = run_small(tmp_path)
    assert failed_ratio(result) == 0.5  # both mermin3 jobs, neither random one
    assert all(job["ok"] == (job["rung"] != "mermin3") for job in result["jobs"])


def cli_report(argv, capsys) -> dict:
    assert bellkit.cli.run_command(argv) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize(
    "command, key, perturbed",
    [
        ("bound", "local_max", Fraction(3, 2)),
        ("quantum", "quantum", 4.0),
        ("noise", "p_critical", 0.5 + 1e-6),
    ],
)
def test_cli_checks_reject_perturbed_references(tmp_path, monkeypatch, capsys,
                                                command, key, perturbed):
    session = workloads.CliSession(7, tmp_path)
    report = cli_report([command, "--builtin", "g-paper"], capsys)
    session._check(command, "g-paper", report)
    monkeypatch.setitem(references.G_PAPER, key, perturbed)
    with pytest.raises(workloads.CheckFailed):
        session._check(command, "g-paper", report)


def test_random_cli_inputs_match_the_oracles(tmp_path, capsys):
    session = workloads.CliSession(7, tmp_path)
    expr, model = str(session.expr_path), str(session.model_path)
    session._check("bound", "random", cli_report(["bound", expr], capsys))
    session._check("quantum", "random",
                   cli_report(["quantum", expr, "--model", model], capsys))


def test_metric_names_match_benchmark_json(tmp_path):
    declared = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == metrics.PER_LAYER
    assert [w["name"] for w in declared["workloads"]] == sorted(workloads.WORKLOADS)

    result = run_small(tmp_path)
    emitted, _ = metrics.end_to_end(result["jobs"], [1.0], 1.0)
    assert set(emitted) == set(metrics.END_TO_END)
    tracer = Tracer()
    traced = run_small(tmp_path, tracer)
    layers = metrics.per_layer(tracer.spans, tracer.counts, traced["jobs"])
    assert set(layers) == set(metrics.PER_LAYER)
    assert layers["lhv.strategies"] == layers["lhv.evaluate_on_strategy_calls"] > 0
    assert layers["lhv.local_bounds_s.mermin3"] > 0
    assert traced["overhead_ratio"] > 0


def test_tracer_restores_every_wrapped_name():
    import bellkit.lhv

    original = bellkit.lhv.local_bounds
    tracer = Tracer()
    tracer.install()
    assert bellkit.local_bounds is not original
    tracer.uninstall()
    assert bellkit.local_bounds is original and bellkit.cli.local_bounds is original


def test_seed_changes_inputs_not_references(tmp_path):
    one = workloads.PolytopeLadder(1, tmp_path)
    two = workloads.PolytopeLadder(2, tmp_path)
    assert one.random[3, 3, 3][0] != two.random[3, 3, 3][0]
    assert one.mermin[5] == two.mermin[5]

    ghz_one = workloads.QuantumGhzLadder(1, tmp_path)
    ghz_two = workloads.QuantumGhzLadder(2, tmp_path)
    for n in ghz_one.parties:
        xy_one, xy_two = ghz_one.inputs[n][2][1], ghz_two.inputs[n][2][1]
        assert xy_one == xy_two == -references.mermin_quantum_magnitude(n)
        assert ghz_one.inputs[n][3][0][1] != ghz_two.inputs[n][3][0][1]

    assert workloads.random_terms(1, "cli", 3, 2, 2, 0) != workloads.random_terms(2, "cli", 3, 2, 2, 0)
    assert workloads.random_terms(1, "cli", 3, 2, 2, 0) == workloads.random_terms(1, "cli", 3, 2, 2, 0)


def test_mermin_references_hold_for_the_builtin():
    expr = workloads.mermin_expression(3)
    assert expr == bellkit.builtin_expression("mermin")
    assert references.mermin_local_bound(3) == references.MERMIN["local_magnitude"]
    assert references.mermin_p_critical(3) == references.MERMIN["p_critical"]


def test_self_time_subtracts_direct_children():
    spans = [
        [0, "cli.run_command", 0, 100, None, "j", None],
        [1, "lhv.local_bounds", 10, 40, 0, "j", 64],
        [2, "lhv.evaluate", 15, 25, 1, "j", None],
    ]
    assert self_times(spans) == [70, 20, 10]


def test_start_hit_ratio_and_cross_check_gap():
    jobs = [{"id": "j", "kind": "report", "rung": "g-paper"}]
    spans = [
        [0, "optimize.optimize_measurements", 0, 10, None, "j", 300],
        [1, "optimize.minimize", 1, 2, 0, "j", -3.5],
        [2, "optimize.minimize", 3, 4, 0, "j", -3.5 + 1e-9],
        [3, "optimize.minimize", 5, 6, 0, "j", -2.0],
        [4, "noise.white_noise_tolerance", 11, 12, None, "j", 0.5],
        [5, "noise.root_scan", 12, 13, None, "j", 0.5 + 2e-12],
    ]
    layers = metrics.per_layer(spans, Counter(), jobs)
    assert layers["optimize.starts"] == 3
    assert layers["optimize.start_hit_ratio"] == pytest.approx(2 / 3)
    assert layers["optimize.evaluations"] == 300
    assert layers["noise.cross_check_gap"] == pytest.approx(2e-12)


def test_tail_leaves_ten_samples_above():
    value, percentile = metrics.tail(list(range(1, 31)))
    assert (value, percentile) == (20, pytest.approx(200 / 3))
    assert metrics.tail([3, 1, 2]) == (3, 100.0)


def test_speed_scaling_uses_only_the_bracketing_probes():
    class Fixed:
        reference_s = 1.0

    log = speed.SpeedLog(Fixed())
    log.samples = [(float(t), 100.0 if t in (0, 7) else float(t)) for t in range(8)]
    # a job over [2.5, 4.5] sees t = 1, 2 before it, 3, 4 during and 5, 6 after
    assert log.scale(7.0, 2.5, 4.5) == (2.0, 3.5)
    # a job with no probe inside it sees t = 2, 3 and 4, 5
    assert log.scale(7.0, 3.2, 3.8) == (2.0, 3.5)
