"""The benchmark's own test: second seeds, exact counts, missing source.

Run from the repository root with ``python3 -m pytest perfbench -q``;
it drives ``run.py`` in subprocesses, as a user would, and takes about
five minutes.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from run import ROUTING, WORKLOADS  # noqa: E402


def bench(*args: str, cwd: pathlib.Path = ROOT):
    done = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return done


def last_json(done) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_second_seed_runs_correctly(workload):
    """Each workload, briefly, on inputs its tuning never saw."""
    args = ["--workload", workload, "--seed", "11", "--seconds", "1"]
    if workload in ROUTING:
        args += ["--circuit-seed", "11"]
    done = bench(*args)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    out = last_json(done)
    assert out["correct"] and out["failed"] == 0
    assert out["attempted"] >= 1
    assert set(out["metrics"]) == {
        "setup_s", "route_s", "peak_rss_mb", "wirelength", "pathlength",
        "critical_delay", "job_p50_ms", "job_p90_ms", "hit_p50_ms",
        "jobs_per_min",
    }
    assert all(row["value"] > 0 for row in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat_between_traced_runs(workload):
    counts = []
    for _ in range(2):
        done = bench("--workload", workload, "--seed", "5", "--seconds", "1",
                     "--trace", "1")
        assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
        out = last_json(done)
        assert set(out["metrics"]) == set(layers.per_layer_names())
        counts.append(
            {name: out["metrics"][name]["value"]
             for name in layers.EXACT_COUNTS}
        )
    assert counts[0] == counts[1]
    if workload == "service_jobs":
        assert counts[0]["journal.appends_per_job"] > 0
    else:
        assert counts[0]["engine.passes"] > 0
        assert counts[0]["graph.freeze.calls"] > 0


def test_refuses_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "mtf_pfa_16x16", "--seed", "1", "--seconds",
                 "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
