"""One benchmark process: set up a workload, run whole passes of it, report.

run.py starts this script in a fresh interpreter for every measurement, so
that the process's peak RSS covers one workload only.  The last line of its
standard output is one JSON object with the set-up time, every job's label
and wall time, the failed jobs, and (traced) the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def _import_checkout():
    """Import orthologic from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import orthologic

    if not Path(orthologic.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"orthologic was imported from {orthologic.__file__}, not {SRC}")


def _timed(call):
    """Wall time, outcome and error of one job; a crash fails this job only."""
    t0 = time.perf_counter()
    try:
        outcome, error = call(), None
    except Exception as exc:
        outcome, error = None, f"raised {type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, outcome, error


def run(workload: str, seed: int, seconds: float, trace: bool, setup_only: bool) -> dict:
    """Set up and measure; input files go to the current directory.

    Traced, every job runs twice in a row, untraced and then traced, so that
    both copies see the same machine state: their time ratio is the tracing
    overhead, and every traced answer must equal its untraced twin.
    """
    start = time.perf_counter()
    _import_checkout()
    import jobs  # imports orthologic and numpy, which counts as set-up

    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        tracer.job = "setup"
    passes = jobs.WORKLOADS[workload](seed)
    if tracer is not None:
        tracer.uninstall()
    result = {"setup_s": time.perf_counter() - start}
    if setup_only:
        return result

    labels, times, traced_times, failures = [], [], [], []
    begun = time.perf_counter()
    for batch in passes:
        pass_start = time.perf_counter()
        for job in batch:
            index = len(times)
            seconds_taken, outcome, error = _timed(job.call)
            error = error or job.failure(outcome)
            if error is not None:
                failures.append([index, job.label, error])
            times.append(seconds_taken)
            labels.append(job.label)
            if tracer is None:
                continue
            tracer.install()
            tracer.job = index
            seconds_taken, traced, traced_error = _timed(
                lambda: tracer.span("client.job", job.call))
            tracer.uninstall()
            traced_times.append(seconds_taken)
            if (traced_error or jobs.answer_digest(traced)) != (error or jobs.answer_digest(outcome)):
                failures.append([index, job.label, "traced answer differs from untraced"])
        now = time.perf_counter()
        # whole passes only, and none that would end after the time is up
        if now - begun + (now - pass_start) > seconds:
            break

    result.update(labels=labels, times=times, failures=failures)
    if tracer is not None:
        result.update(traced_times=traced_times, metrics=tracer.metrics(),
                      layers=tracer.layer_self_time())
        tracer.write(OUT / f"trace-{workload}.jsonl",
                     {"workload": workload, "seed": seed, "jobs": labels})
    return result


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    OUT.mkdir(exist_ok=True)
    # inputs live in a fresh directory and reports name them relatively
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        os.chdir(workdir)
        try:
            result = run(args.workload, args.seed, args.seconds, args.trace, args.setup_only)
        finally:
            os.chdir(HERE)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
