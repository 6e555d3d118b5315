"""One benchmark process: set up a workload, then run its timed phase.

run.py starts this script with PYTHONPATH pointing at the checkout's src/.
It prints READY once the package is imported and the inputs are generated
(the parent times set-up up to that line) and then, unless --setup-only, one
JSON document with the job records and the process measurements, to the
file named by --result.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

import bellkit  # noqa: F401  (the package import is part of the timed set-up)

import metrics
import speed
import workloads
from tracing import Tracer, write_spans


def usage(who) -> tuple:
    """(CPU seconds, peak resident MB) of this process or of its waited-for children."""
    data = resource.getrusage(who)
    return data.ru_utime + data.ru_stime, data.ru_maxrss / 1024.0


def run_job(workload, job, job_id: str, tracer, records: list, log) -> None:
    """Probe the host speed, then run one job, check it and append its record.

    Untraced in-process jobs also probe while they run; the probes' time is
    taken out of the job's wall time.
    """
    hooked = tracer is not None and workload.in_process
    if tracer is not None:
        tracer.job = job_id
    if hooked:
        tracer.install()
    sampler = speed.Sampler(log, enabled=workload.in_process and tracer is None)
    error = None
    log.probe()
    start = time.perf_counter()
    with sampler:
        try:
            job.run(tracer)
        except workloads.CheckFailed as exc:
            error = str(exc)
        except Exception as exc:  # a crash inside bellkit fails this job, not the run
            error = f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()
    if hooked:
        tracer.uninstall()
    records.append({"id": job_id, "kind": job.kind, "rung": job.rung, "start": start,
                    "end": end, "wall_s": end - start - sampler.spent_s,
                    "ok": error is None, "error": error})


def timed_phase(workload, cycles: int, tracer) -> dict:
    """Run whole cycles of jobs back to back.

    Each record's ``seconds`` is its wall time at the reference speed of
    speed.py.  With a tracer, every job of the first cycle also runs once
    untraced (id suffix "u"), alternately before and after its traced run;
    the two sums give the tracing overhead.
    """
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    records: list = []
    log = speed.SpeedLog(speed.KernelProbe() if workload.in_process
                         else speed.StartupProbe(Path.cwd(), workload.env))
    cpu_before, _ = usage(who)
    start = time.perf_counter()
    for index in range(cycles):
        for position, job in enumerate(workload.cycle(index)):
            job_id = f"{index}.{position}"
            twin = tracer is not None and index == 0
            if twin and position % 2 == 0:
                run_job(workload, job, job_id + "u", None, records, log)
            run_job(workload, job, job_id, tracer, records, log)
            if twin and position % 2 == 1:
                run_job(workload, job, job_id + "u", None, records, log)
    log.probe()
    phase_s = time.perf_counter() - start
    cpu_after, peak_rss_mb = usage(who)
    for record in records:
        record["seconds"], record["probe_s"] = log.scale(
            record["wall_s"], record["start"], record["end"])
    result = {
        "cycles": cycles,
        "jobs": records,
        "phase_s": phase_s,
        "cpu_util": (cpu_after - cpu_before) / phase_s,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        # raw wall times: each pair runs back to back, in one speed phase
        untraced = sum(r["wall_s"] for r in records if r["id"].endswith("u"))
        traced = sum(r["wall_s"] for r in records
                     if r["id"].startswith("0.") and not r["id"].endswith("u"))
        result["overhead_ratio"] = traced / untraced
    return result


def cycles_for(workload, seconds: float) -> int:
    """Fixed work for a given --seconds: whole cycles, at least two.

    Every run at one --seconds does the same jobs, so job counts and
    percentiles compare across runs and commits; two cycles repeat every
    CLI argv for the byte-identity check.
    """
    return max(2, round(seconds / workload.cycle_s))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--result", help="where the timed phase writes its result")
    parser.add_argument("--spans", help="where a traced run writes its spans")
    args = parser.parse_args()

    out_dir = Path.cwd() / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        tracer = Tracer() if args.trace else None
        result = timed_phase(workload, cycles_for(workload, args.seconds), tracer)
        if tracer is not None:
            result["per_layer"] = metrics.per_layer(tracer.spans, tracer.counts, result["jobs"])
            if args.spans:
                write_spans(tracer.spans, args.spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
