"""Self-test of the benchmark at tiny sizes (a few seconds in total).

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload to three events."""
    for name, w in workloads.WORKLOADS.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, dataclasses.replace(w, n_events=3))


def test_workloads_are_a_function_of_the_seed(tiny):
    for w in workloads.WORKLOADS.values():
        a = workloads.scenario_obj(w, 5)
        assert a == workloads.scenario_obj(w, 5)
        assert a != workloads.scenario_obj(w, 6)
        assert len(a["workload"]) == 3


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {name: w.why for name, w in workloads.WORKLOADS.items()}
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(tiny, tmp_path, name):
    report = run.run_benchmark(name, 3, 0.01, False, tmp_path)
    result = report["result"]
    assert result["correct"], report["lines"]
    assert result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    expected = 29.0 if name == "compare_wide" else 19.0
    assert result["metrics"]["msgs_per_event"]["value"] == expected


def test_traced_run_attributes_all_command_time(tiny, tmp_path):
    report = run.run_benchmark("leader_sweep", 3, 0.01, True, tmp_path)
    result = report["result"]
    assert result["correct"], report["lines"]
    assert set(result["metrics"]) == set(run.PER_LAYER)
    values = {k: m["value"] for k, m in result["metrics"].items()}
    traces_checked = values["netsim.crash_points"] + 2  # sweep points, run, check
    assert values["checker.run_builds"] == 6 * traces_checked
    assert values["netsim.runs"] == values["netsim.crash_points"] + 2  # + run, sweep base

    spans_file = json.loads((tmp_path / "spans-leader_sweep-s3.json").read_text())
    edges = spans_file["edges"]
    command_time = sum(e["total_s"] for e in edges if e["span"] == "cli.main")
    self_time = sum(e["self_s"] for e in edges)
    assert self_time == pytest.approx(command_time, rel=1e-6)


def test_simulator_failure_is_a_failed_point_not_a_crash(tiny, tmp_path, monkeypatch):
    sdnsim = run.import_sdnsim()

    def broken(self, crashed):
        raise AssertionError("injected invariant failure")

    monkeypatch.setattr(sdnsim.replica.Replica, "on_failure_notice", broken)
    result = run.run_benchmark("leader_sweep", 3, 0.01, False, tmp_path)["result"]
    assert not result["correct"]
    # the sweep command failed, and so did every replayed crash point
    assert result["failed"] == result["attempted"] - 2


def test_checkout_without_sources_exits_nonzero(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "long_run",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "no sdnsim sources" in proc.stderr
