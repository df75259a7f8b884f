"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench

The traced-run tests make two short traced runs per workload (about a
minute in all) and require every count metric to repeat exactly.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import checks
import spans
import speed
import workloads
from workloads import Job

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          capture_output=True, text=True, cwd=cwd, timeout=180)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_self_time_subtracts_the_union_of_children():
    # 0..100 with children 10..40 and 30..60 (a pool thread overlapping
    # the first) and a grandchild inside the first child
    rows = [
        (1, 0, "a", 0, 100, "j"),
        (2, 1, "b", 10, 40, "j"),
        (3, 1, "b", 30, 60, "j"),
        (4, 2, "c", 15, 20, "j"),
    ]
    assert spans.self_times(rows) == {1: 50, 2: 25, 3: 30, 4: 5}
    assert spans.by_name(rows)["b"][0] == 2


def test_differences_are_numeric():
    ref = checks.parse("csv", "R,family,bound_nats\n0.05,kl_phi,-0\n")
    same = checks.parse("csv", "R,family,bound_nats\n0.05,kl_phi,0.0\n")
    moved = checks.parse("csv", "R,family,bound_nats\n0.05,kl_phi,1e-6\n")
    assert checks.differences(ref, same) == []
    assert checks.differences(ref, moved)
    assert checks.differences({"n": 3, "ok": True}, {"n": 3, "ok": 1})
    assert checks.differences({"code_file": "a"}, {"code_file": "b"})


def test_check_job_flags_bad_runs():
    job = Job("idcode-eval", ("idcode", "eval"), same_errors_as="idcode-build")
    built = {"idcode-build": [{"mu": 0.0, "lam": 0.5}]}
    assert checks.check_job(job, 2, "", {}, {}, None) == ["exit code 2"]
    assert checks.check_job(job, 0, '{"mu": 0.0, "lam": 0.5}\n',
                            dict(built), {}, None) == []
    assert checks.check_job(job, 0, '{"mu": 0.0, "lam": 0.25}\n',
                            dict(built), {}, None)
    assert checks.check_job(job, 0, '{"mu": NaN, "lam": 0.5}\n',
                            dict(built), {}, None)
    assert checks.check_job(job, 0, '{"mu": 1.5, "lam": 0.5}\n',
                            dict(built), {}, None)


def test_scale_turns_probed_time_into_reference_time():
    assert speed.scale(1.0, 1.0) == 1
    assert speed.scale(1.0, 3.0) == 0.5
    assert speed.probe() > 0 and speed.probe(0.5) > 0


def test_seed_keeps_the_asymmetric_channel_support():
    for seed in (0, 1, 2**40):
        rows = workloads.asym_rows(seed)
        assert len(rows) == 3 and all(len(r) == 3 for r in rows)
        assert all(v > 0 for r in rows for v in r)
        assert all(abs(sum(r) - 1.0) < 1e-12 for r in rows)
    assert workloads.asym_rows(1) != workloads.asym_rows(2)
    assert workloads.asym_rows(5) == workloads.asym_rows(5)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    counts = []
    for _ in range(2):
        found = _result(_run("--workload", workload, "--seed", "3",
                             "--seconds", "1", "--trace", "1"))
        assert found["correct"] and found["failed"] == 0
        assert set(found["metrics"]) == {name for name, _, _ in spans.PER_LAYER}
        counts.append({k: v["value"] for k, v in found["metrics"].items()
                       if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["cli.main.calls"] == len(workloads.jobs(workload, 3))


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = _run("--workload", "sweep", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
