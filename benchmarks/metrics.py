"""End-to-end metrics from job records, per-layer metrics from spans.

Every name the benchmark reports is declared here with its unit, once; the
tests check that the declarations match BENCHMARK.json.  Per-layer times are
totals over the traced timed phase unless the name says otherwise; a layer
a workload never calls reads 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracing import END, JOB, NAME, PARENT, START, VALUE, self_times

END_TO_END = {
    "setup_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "jobs_per_s": "1/s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}

CLI_COMMANDS = ("bound", "expand", "quantum", "noise", "report", "optimize")
POLYTOPE_RUNGS = ("3-2-2", "5-2-2", "4-3-2", "6-2-2", "3-3-3",
                  "mermin3", "mermin4", "mermin5", "g-paper")
GHZ_RUNGS = ("ghz3", "ghz4", "ghz5", "ghz6")
SELF_TIMED_LAYERS = ("cli", "exprformat", "scenario", "lhv", "quantum", "noise", "optimize")

PER_LAYER = {
    "import.bellkit_s": "s",
    "import.scipy_s": "s",
    **{f"cli.{command}_s": "s" for command in CLI_COMMANDS},
    **{f"{layer}.self_s": "s" for layer in SELF_TIMED_LAYERS},
    "optimize.optimize_measurements_s": "s",
    "optimize.evaluations": "count",
    "optimize.eval_us": "us",
    "optimize.starts": "count",
    "optimize.start_hit_ratio": "ratio",
    "exprformat.parse_expression_s": "s",
    "exprformat.parse_expansion_s": "s",
    "quantum.parse_model_s": "s",
    "lhv.local_bounds_s": "s",
    **{f"lhv.local_bounds_s.{rung}": "s" for rung in POLYTOPE_RUNGS},
    "lhv.strategies": "count",
    "lhv.strategies_per_s": "1/s",
    "lhv.evaluate_on_strategy_calls": "count",
    "lhv.expand_full_joint_s": "s",
    "lhv.trivial_bounds_s": "s",
    "scenario.as_probability_form_s": "s",
    "quantum.expression_value_s": "s",
    **{f"quantum.expression_value_s.{rung}": "s" for rung in GHZ_RUNGS},
    "quantum.expression_value_calls": "count",
    "quantum.joint_probability_calls": "count",
    "quantum.correlator_calls": "count",
    "quantum.mix_with_white_noise_s": "s",
    "noise.white_noise_tolerance_s": "s",
    "noise.root_scan_s": "s",
    "noise.root_scan_steps": "count",
    "noise.cross_check_gap": "fraction",
    "proc.cpu_util": "ratio",
    "trace.overhead_ratio": "ratio",
}

START_HIT_TOL = 1e-6  # a start "hits" when it ends this close to the best start


def tail_rank(count: int) -> int:
    """1-based rank of the highest sample that leaves at least 10 samples above it.

    With 10 samples or fewer no rank does; the largest sample stands in.
    """
    return count - 10 if count > 10 else count


def tail(values) -> tuple:
    """(value, percentile) at tail_rank; the largest sample when there are <= 10."""
    ordered = sorted(values)
    rank = tail_rank(len(ordered))
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def end_to_end(jobs, setup_samples, peak_rss_mb: float) -> tuple:
    """(metrics, notes): metrics by name; notes hold sample counts and percentiles.

    Times are at the reference speed of speed.py (each job's ``seconds``);
    the notes repeat the median and tail of the raw wall times.
    """
    times = [job["seconds"] for job in jobs]
    passed = sum(1 for job in jobs if job["ok"])
    tail_value, percentile = tail(times)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "job_p50_s": statistics.median(times),
        "job_tail_s": tail_value,
        "jobs_per_s": passed / sum(times),
        "ok_ratio": passed / len(jobs),
        "peak_rss_mb": peak_rss_mb,
    }
    walls = [job["wall_s"] for job in jobs]
    notes = {
        "jobs": len(jobs),
        "failed_ratio": (len(jobs) - passed) / len(jobs),
        "job_tail_percentile": percentile,
        "job_tail_samples_above": len(times) - tail_rank(len(times)),
        "setup_samples": len(setup_samples),
        "setup_samples_s": list(setup_samples),
        "wall_job_p50_s": statistics.median(walls),
        "wall_job_tail_s": tail(walls)[0],
        "probe_median_s": statistics.median(job["probe_s"] for job in jobs),
    }
    return metrics, notes


def per_layer(spans, counts, jobs) -> dict:
    """Every PER_LAYER metric derivable from one process's spans and job records.

    The import metrics, CPU utilisation and tracing overhead are measured
    outside the spans and filled in by the caller.
    """
    job_by_id = {job["id"]: job for job in jobs}
    seconds = defaultdict(float)  # span name -> total duration
    by_rung = defaultdict(float)  # (span name, rung) -> total duration
    per_command = defaultdict(list)  # cli command -> run_command durations
    layer_self = defaultdict(float)
    values = defaultdict(list)  # (span name, job id) -> recorded values
    children = defaultdict(list)  # parent id -> child spans
    for record, own_ns in zip(spans, self_times(spans)):
        name = record[NAME]
        duration = (record[END] - record[START]) / 1e9
        seconds[name] += duration
        layer_self[name.split(".", 1)[0]] += own_ns / 1e9
        job = job_by_id.get(record[JOB])
        if job is not None:
            by_rung[name, job["rung"]] += duration
            if name == "cli.run_command":
                per_command[job["kind"]].append(duration)
        if record[VALUE] is not None:
            values[name, record[JOB]].append(record[VALUE])
        if record[PARENT] is not None:
            children[record[PARENT]].append(record)

    metrics = {name: 0.0 for name in PER_LAYER}
    for command in CLI_COMMANDS:
        if per_command[command]:
            metrics[f"cli.{command}_s"] = statistics.median(per_command[command])
    for layer in SELF_TIMED_LAYERS:
        metrics[f"{layer}.self_s"] = layer_self[layer]
    for metric, span in (
        ("optimize.optimize_measurements_s", "optimize.optimize_measurements"),
        ("exprformat.parse_expression_s", "exprformat.parse_expression"),
        ("exprformat.parse_expansion_s", "exprformat.parse_expansion"),
        ("quantum.parse_model_s", "quantum.parse_model"),
        ("lhv.local_bounds_s", "lhv.local_bounds"),
        ("lhv.expand_full_joint_s", "lhv.expand_full_joint"),
        ("lhv.trivial_bounds_s", "lhv.trivial_bounds"),
        ("scenario.as_probability_form_s", "scenario.as_probability_form"),
        ("quantum.expression_value_s", "quantum.expression_value"),
        ("quantum.mix_with_white_noise_s", "quantum.mix_with_white_noise"),
        ("noise.white_noise_tolerance_s", "noise.white_noise_tolerance"),
        ("noise.root_scan_s", "noise.root_scan"),
    ):
        metrics[metric] = seconds[span]
    for rung in POLYTOPE_RUNGS:
        metrics[f"lhv.local_bounds_s.{rung}"] = by_rung["lhv.local_bounds", rung]
    for rung in GHZ_RUNGS:
        metrics[f"quantum.expression_value_s.{rung}"] = by_rung[
            "quantum.expression_value", rung
        ]
    for metric in (
        "lhv.evaluate_on_strategy_calls",
        "quantum.expression_value_calls",
        "quantum.joint_probability_calls",
        "quantum.correlator_calls",
    ):
        metrics[metric] = counts.get(metric, 0)

    strategies = sum(v for (name, _), vs in values.items() if name == "lhv.local_bounds" for v in vs)
    metrics["lhv.strategies"] = strategies
    if metrics["lhv.local_bounds_s"] > 0:
        metrics["lhv.strategies_per_s"] = strategies / metrics["lhv.local_bounds_s"]

    evaluations = sum(
        v for (name, _), vs in values.items() if name == "optimize.optimize_measurements" for v in vs
    )
    metrics["optimize.evaluations"] = evaluations
    if evaluations:
        metrics["optimize.eval_us"] = 1e6 * metrics["optimize.optimize_measurements_s"] / evaluations
    starts = hits = 0
    for record in spans:
        if record[NAME] != "optimize.optimize_measurements":
            continue
        scores = [c[VALUE] for c in children[record[0]] if c[NAME] == "optimize.minimize"]
        if scores:
            best = min(scores)  # minimize returns the negated objective
            starts += len(scores)
            hits += sum(1 for score in scores if score <= best + START_HIT_TOL)
    metrics["optimize.starts"] = starts
    if starts:
        metrics["optimize.start_hit_ratio"] = hits / starts

    steps = 0
    for record in spans:
        if record[NAME] == "noise.root_scan":
            steps += sum(
                1 for c in children[record[0]] if c[NAME] == "quantum.mix_with_white_noise"
            )
    metrics["noise.root_scan_steps"] = steps
    gaps = [
        abs(scan - closed)
        for (name, job), scans in values.items()
        if name == "noise.root_scan"
        for scan in scans
        for closed in values.get(("noise.white_noise_tolerance", job), [])
    ]
    metrics["noise.cross_check_gap"] = max(gaps, default=0.0)
    return metrics
