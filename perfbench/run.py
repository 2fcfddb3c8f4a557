"""orthologic benchmark: one workload, every metric with its unit, answers checked.

    python3 perfbench/run.py --workload exact-scan --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the benchmark imports orthologic from its
``src``.  Each measurement runs in a fresh worker process (worker.py), one
client in a closed loop, with the BLAS thread count pinned to 1.

``--trace 0`` prints the end-to-end metrics.  Set-up is repeated in
separate processes and its median reported; peak RSS is read with
``wait4`` on the measuring process alone.

``--trace 1`` runs every job untraced and then traced in one worker,
prints the per-layer metrics of the traced copies and the tracing overhead,
and fails if the two copies disagree on any answer.  It writes the spans to
``perfbench/out/trace-<workload>.jsonl`` and the per-layer self-time table to
``perfbench/out/layers-<workload>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("exact-scan", "state-search", "models", "point-queries")
SETUP_REPEATS = 3
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class WorkerFailed(Exception):
    pass


def worker(workload: str, seed: int, seconds: float, *flags: str):
    """Run worker.py to completion; return its result and its own rusage."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), *flags]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                            env={**os.environ, **PINNED})
    with proc.stdout:
        out = proc.stdout.read()
    # wait4 reaps the worker and returns the resource usage of that process only
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise WorkerFailed(f"worker {' '.join(flags)} exited with {proc.returncode}")
    return json.loads(out.decode().splitlines()[-1]), usage


def nearest_rank(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def job_metrics(times: list[float]) -> dict:
    return {
        "jobs_per_s": (len(times) / sum(times), "1/s"),
        "job_p50_s": (nearest_rank(times, 0.5), "s"),
        "job_p90_s": (nearest_rank(times, 0.9), "s"),
    }


def print_jobs(result: dict) -> None:
    by_label: dict[str, list[float]] = {}
    for label, seconds in zip(result["labels"], result["times"]):
        by_label.setdefault(label, []).append(seconds)
    for label, times in sorted(by_label.items(), key=lambda kv: statistics.median(kv[1])):
        print(f"  job {label:34s} n={len(times):<6d} median {statistics.median(times):.6f} s")


def timed_run(workload: str, seed: int, seconds: float):
    setups = [worker(workload, seed, seconds, "--setup-only")[0]["setup_s"]
              for _ in range(SETUP_REPEATS - 1)]
    result, usage = worker(workload, seed, seconds)
    setups.append(result["setup_s"])
    times = result["times"]
    metrics = job_metrics(times)
    metrics["peak_rss_mb"] = (usage.ru_maxrss / 1024, "MB")  # ru_maxrss is in KiB
    metrics["setup_s"] = (statistics.median(setups), "s")
    metrics["success_frac"] = (1 - len(result["failures"]) / len(times), "frac")
    print_jobs(result)
    p90 = metrics["job_p90_s"][0]
    print(f"job_p50_s and job_p90_s over {len(times)} jobs; "
          f"{sum(t > p90 for t in times)} lie beyond the p90; "
          f"setup_s is the median of {len(setups)} set-ups")
    return metrics, len(times), result["failures"]


def traced_run(workload: str, seed: int, seconds: float):
    result, usage = worker(workload, seed, seconds, "--trace")
    metrics = {name: tuple(value) for name, value in result["metrics"].items()}
    overhead = (sum(result["traced_times"]) / sum(result["times"]) - 1) * 100
    metrics["trace.overhead_pct"] = (overhead, "%")

    total = sum(result["layers"].values())
    table = {layer: {"self_s": s, "share": s / total} for layer, s in result["layers"].items()}
    OUT.mkdir(exist_ok=True)
    (OUT / f"layers-{workload}.json").write_text(json.dumps(
        {"workload": workload, "seed": seed, "jobs": len(result["times"]),
         "self_time": table, "tracing_overhead_pct": overhead,
         "peak_rss_mb": usage.ru_maxrss / 1024}, indent=2) + "\n")
    print(f"self time by layer over {len(result['times'])} traced jobs and set-up:")
    for layer, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {layer:10s} {row['self_s']:10.4f} s {100 * row['share']:6.1f} %")
    print(f"tracing overhead {overhead:.1f} % on the same jobs run untraced")
    attempted = len(result["times"]) + len(result["traced_times"])
    return metrics, attempted, result["failures"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="orthologic benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "orthologic" / "__init__.py").is_file():
        print(f"no orthologic source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    run = traced_run if args.trace else timed_run
    try:
        metrics, attempted, failures = run(args.workload, args.seed, args.seconds)
    except WorkerFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    for index, label, reason in failures:
        print(f"FAILED job {index} ({label}): {reason}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    correct = not failures
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
