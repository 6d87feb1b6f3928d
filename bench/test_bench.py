"""Tests of the benchmark itself: python3 -m pytest bench -q"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import reference as ref  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

import cowpath  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_same_seed_gives_same_tasks(workload):
    assert workloads.task_list(workload, 7) == workloads.task_list(workload, 7)
    assert workloads.task_list(workload, 7) != workloads.task_list(workload, 8)


def test_references_match_the_paper_claims():
    assert ref.position_consistency(9.0) == pytest.approx(3.0)
    assert ref.direction_pair(2.0, 1.0) == pytest.approx((9.0, 9.0))
    assert ref.kbit_upper(9.0, 1) == pytest.approx(1.0 + 4.0 * math.sqrt(2.0))
    assert ref.direction_edge(88.0) == pytest.approx(5.098886154, abs=1e-9)
    assert ref.direction_edge(100.0) == pytest.approx(5.086101220, abs=1e-9)
    assert ref.geometric_ratio(2.0, 64) == pytest.approx(9.0)


def _frontier_csv(rows):
    lines = [ref.FRONTIER_HEADER]
    lines += [f"direction,,{r:g},{c:.9g},{c:.9g},50,0.02" for r, c in rows]
    return "\n".join(lines) + "\n"


def test_capped_direction_rows_are_known_failures_only_above_5003():
    task = {"name": "frontier-direction", "range": (5000.0, 5250.0, 250.0)}
    good = [(5000.0, ref.direction_edge(5000.0)), (5250.0, ref.direction_edge(5250.0))]
    assert workloads.check_cli(task, (0, _frontier_csv(good))) == ([], [])
    capped = [good[0], (5250.0, 5.00160064)]
    problems, known = workloads.check_cli(task, (0, _frontier_csv(capped)))
    assert problems == [] and len(known) == 1
    wrong_low = [(5000.0, 5.0017), good[1]]
    problems, known = workloads.check_cli(task, (0, _frontier_csv(wrong_low)))
    assert len(problems) == 1 and known == []


def test_checks_reject_wrong_outputs():
    assert ref.check_position(ref.Pair(3.0, 9.0), 9.0) == []
    assert ref.check_position(ref.Pair(3.001, 9.0), 9.0)
    assert ref.check_kbit(ref.Pair(1.0 + 4.0 * math.sqrt(2.0) + 1e-3, 9.0), 9.0, 1)
    task = workloads.task_list("library-eval", 3)[-2]
    part = cowpath.preferred_partition(task["r"], task["k"], task["max"])
    assert workloads.check_task(task, part) == ([], [])
    cells = ref.partition_cells(part)
    mid = len(cells[0]) // 2
    cells[0][mid] = (*cells[0][mid][:2], (cells[0][mid][2] + 1) % 2 ** task["k"])
    probes = random.Random(0)
    assert ref.check_partition(cells, task["r"], task["k"], task["max"], probes)


def test_garbage_output_and_exceptions_are_failed_checks():
    task = {"name": "eval-kbit", "r": 9.0, "k": 6}
    tally = run.Tally()
    tally.record(task, (0, "garbage"), workloads.check_cli)
    tally.record(task, RuntimeError("boom"), workloads.check_cli)
    assert (tally.attempted, tally.failed) == (2, 2)
    assert "eval-kbit" in tally.unexpected


def test_tracer_counts_and_restores():
    original = cowpath.ratios.search_costs
    trace = tracer.Tracer()
    with trace:
        assert cowpath.ratios.search_costs is not original
        cowpath.evaluate_hinted(cowpath.kbit_family(9.0, 2))
    assert cowpath.ratios.search_costs is original
    metrics = tracer.layer_metrics(trace.stats)
    assert metrics["hints.select.builds_per_hint"] == 1.0
    assert metrics["ratios.evaluate_hinted.calls"] == 1
    assert metrics["bounds.direction_frontier.calls"] == 0
    assert metrics["model.search_costs.targets"] > 0


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metric_names_match_benchmark_json(trace, kind):
    proc = _run(ROOT, "--workload", "library-eval", "--seed", "2",
                "--seconds", "0.1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    printed = {line.split(" = ")[0] for line in lines if " = " in line}
    assert printed == set(declared)


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=skip)
    proc = _run(tmp_path, "--workload", "library-eval", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
