"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest perfbench/test_smoke.py

Checks that the expected-answer model agrees with orthologic on small
lattices, that the tracer nests spans and restores what it replaced, and that
run.py prints exactly the metrics BENCHMARK.json names.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import orthologic  # noqa: E402
from orthologic import cli  # noqa: E402

import jobs  # noqa: E402
import model  # noqa: E402
import tracing  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_all(job_list):
    for job in job_list:
        assert job.failure(job.call()) is None, job.label


def test_cli_jobs_match_the_model(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rng = random.Random(0)
    gen = np.random.default_rng(0)
    tiny = [("MO2", "B2"), ("O6", "B2"), ("B4", "B2"), ("MO3",)]
    job_list = [jobs.check_job(model.Product(labels), rng) for labels in tiny]
    job_list.append(jobs.product_job(model.Product(("MO2",)), rng))
    job_list += [jobs.states_job(model.Product(labels), rng)
                 for labels in (("B4", "B2"), ("MO2", "B4"), ("MO2",))]
    job_list += [jobs.commuting_job(3, gen), jobs.mo3_job(gen), jobs.capped_job(gen)]
    job_list += [jobs.wigner_job(preset) for preset in jobs.WIGNER_EXPECTED]
    job_list += [jobs.detect_job(f, 7, 4000) for f in (0.0, 0.5, 1.0)]
    _run_all(job_list)


def test_oversized_states_job_is_refused(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _run_all([jobs.states_job(model.Product(("MO2", "MO2", "B2")), random.Random(1))])


def test_query_oracle_matches_every_pair():
    doc = model.Document(model.Product(("MO2", "B2")), random.Random(2))
    lattice = orthologic.parse_lattice(doc.text)
    oracle = jobs.QueryOracle(doc)
    _run_all(jobs.query_job(lattice, oracle, kind, a, b)
             for kind, _ in jobs.QUERY_MIX
             for a in range(lattice.n) for b in range(lattice.n))


def test_a_wrong_answer_is_caught(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    job = jobs.states_job(model.Product(("B4", "B2")), random.Random(3))
    code, text = job.call()
    report = json.loads(text)
    report["results"]["count"] += 1
    with pytest.raises(jobs.Mismatch):
        job.check(jobs.CliOutcome(code, json.dumps(report)))


def test_tracer_nests_spans_and_restores_the_package(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    original = cli.main
    job = jobs.check_job(model.Product(("MO2", "B2")), random.Random(4))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main is not original
        tracer.job = 0
        job.check(tracer.span("client.job", job.call))
    finally:
        tracer.uninstall()
    assert cli.main is original
    spans = {s[0]: s for s in tracer.spans}
    for _, name, start, end, parent, job_id in tracer.spans:
        assert job_id == 0 and start <= end
        if parent is not None:
            assert spans[parent][2] <= start and end <= spans[parent][3]
    metrics = tracer.metrics()
    assert metrics["cli.main.calls"][0] == 1
    assert metrics["cli.exit_code.0"][0] == 1
    # classify is bound by name in cli: the wrapper must reach that namespace too
    assert metrics["lattice.classify.calls"][0] == 1
    for name, (value, unit) in metrics.items():
        if name.endswith(".self_s") and not name.startswith("layer."):
            assert value <= metrics[name[: -len(".self_s")] + ".s"][0]
    root = next(s for s in tracer.spans if s[1] == "client.job")
    assert sum(tracer.layer_self_time().values()) == pytest.approx(root[3] - root[2])


def _bench(*argv, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_run_prints_the_declared_metrics(trace, section):
    proc = _bench("--workload", "state-search", "--seed", "5", "--seconds", "1",
                  "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 7
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_run_without_the_program_fails_quietly(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "models", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
