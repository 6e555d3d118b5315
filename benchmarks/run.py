"""bellkit benchmark: python3 benchmarks/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a bellkit checkout; the package is used from src/
without being installed.  Set-up is timed in fresh interpreters
(worker.py --setup-only) several times per run and reported as the median.
The timed phase runs in one more worker.  With --trace 0 the last line of
standard output carries the end-to-end metrics, with --trace 1 the
per-layer ones; the line before it and .bench_out/ hold the run's metadata,
job records and, for a traced run, its spans.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import metrics
import speed

HERE = Path(__file__).resolve().parent
# Set-ups timed per run in --setup-only workers: half before the timed phase
# and half after it, so the median spans more of the host's speed phases.  The
# timed worker's own set-up is left out: no probe can follow it until the
# timed phase is over.
SETUP_SAMPLES = 8
IMPORT_SAMPLES = 3  # -X importtime runs behind the import.* metrics
RUN_BUDGET_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# One BLAS thread, whatever the caller's environment says: the matrices are
# at most 64 x 64, where a second thread made GHZ_6 values up to 4x slower
# and bimodal on a 2-CPU machine, and one client should occupy one CPU.
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchmarkError(Exception):
    pass


def run_worker(command, root: Path, env: dict, deadline: float) -> tuple:
    """Run one worker to completion.

    Returns the seconds from its start to READY and when they began and ended.
    """
    start = time.perf_counter()
    with subprocess.Popen(command, cwd=root, env=env, stdout=subprocess.PIPE, text=True) as proc:
        try:
            ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
            line = proc.stdout.readline() if ready else ""
            setup_s = time.perf_counter() - start
            proc.wait(timeout=max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchmarkError(f"worker overran the {RUN_BUDGET_S:.0f} s budget") from None
    if line.strip() != "READY" or proc.returncode != 0:
        raise BenchmarkError(f"worker failed with exit code {proc.returncode}")
    return setup_s, start, start + setup_s


def timed_setups(count: int, worker: list, root: Path, env: dict, deadline: float) -> list:
    """Set-up times of ``count`` --setup-only workers, scaled by speed probes.

    A probe precedes each worker and follows the last, so the probes around
    a set-up are never further away than the next set-up.
    """
    log = speed.SpeedLog(speed.StartupProbe(root, env))
    samples = []
    for _ in range(count):
        log.probe()
        samples.append(run_worker(worker + ["--setup-only"], root, env, deadline))
    log.probe()
    return [log.scale(*sample)[0] for sample in samples]


def import_times(root: Path, env: dict) -> tuple:
    """Medians of bellkit's cumulative and scipy's summed self import time (s)."""
    package, scipy = [], []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import bellkit"],
                              cwd=root, env=env, capture_output=True, text=True, timeout=60)
        if done.returncode != 0:
            raise BenchmarkError(f"import bellkit failed: {done.stderr[-300:]}")
        cumulative = scipy_self = 0
        for line in done.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) != 3 or not fields[0].strip().isdigit():
                continue
            name = fields[2].strip()
            if name == "bellkit":
                cumulative = int(fields[1])
            if name == "scipy" or name.startswith("scipy."):
                scipy_self += int(fields[0])
        package.append(cumulative / 1e6)
        scipy.append(scipy_self / 1e6)
    return statistics.median(package), statistics.median(scipy)


def git_commit(root: Path):
    if not (root / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                          text=True, timeout=30)
    return done.stdout.strip() or None


def package_version(name: str):
    try:
        return metadata.version(name)
    except metadata.PackageNotFoundError:
        return None


def run_metadata(args, root: Path, env: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": package_version("numpy"),
        "scipy": package_version("scipy"),
        "thread_env": {name: env.get(name) for name in THREAD_VARS},
        "git_commit": git_commit(root),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "bellkit" / "__init__.py").is_file():
        print("error: run from the root of a bellkit checkout; src/bellkit is missing",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])
    )
    for name in PINNED_THREADS:
        env[name] = "1"
    worker = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
              "--seed", str(args.seed)]

    try:
        setups_around = 0 if args.trace else SETUP_SAMPLES // 2
        setup = timed_setups(setups_around, worker, root, env, deadline)
        result_path = out_dir / f"{stem}.worker.json"
        timed = worker + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                          "--result", str(result_path)]
        if args.trace:
            timed += ["--spans", str(out_dir / f"{stem}.spans.jsonl")]
        run_worker(timed, root, env, deadline)
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result_path.unlink()
        setup += timed_setups(setups_around, worker, root, env, deadline)
        if args.trace:
            values = result["per_layer"]
            values["import.bellkit_s"], values["import.scipy_s"] = import_times(root, env)
            values["proc.cpu_util"] = result["cpu_util"]
            values["trace.overhead_ratio"] = result["overhead_ratio"]
            units = metrics.PER_LAYER
            notes = {"jobs": len(result["jobs"]), "import_samples": IMPORT_SAMPLES}
        else:
            values, notes = metrics.end_to_end(result["jobs"], setup, result["peak_rss_mb"])
            units = metrics.END_TO_END
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failed = [job for job in result["jobs"] if not job["ok"]]
    meta = run_metadata(args, root, env)
    meta.update(notes, cycles=result["cycles"])
    summary = {
        "correct": not failed,
        "attempted": len(result["jobs"]),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    (out_dir / f"{stem}.json").write_text(
        json.dumps({"meta": meta, "jobs": result["jobs"], **summary}, indent=1) + "\n",
        encoding="utf-8",
    )
    for job in failed:
        print(f"failed {job['id']} {job['kind']} {job['rung']}: {job['error']}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
