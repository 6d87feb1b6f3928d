"""The benchmark's workloads: seeded task lists, task execution, output checks.

A workload is a fixed task list (one "pass") derived from the seed.  Task
specs are plain dicts, so the same seed gives an equal list.  In-process
tasks call the package through ``cowpath.<name>`` at call time, so the
tracer's wrappers, when installed, see every call.  CLI tasks are argv
lists for ``python -m cowpath``.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import cowpath

import reference as ref

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# frontier --class direction rows that fail at the seed: the frontier's base
# search is capped at b = 50, which binds above r ~ 5003 and prints c =
# 5.0016 where the optimum is 5.0008 at r = 1e4.  They are counted as failed
# tasks, not as a broken benchmark.
KNOWN_FAILURE_MIN_R = 5003.0

# Hint grid of the in-process position evals: 1/16 of the CLI default (128
# per decade).  One eval then takes about a second, on the same code path as
# `eval --family position`, so a run holds enough passes for a steady median.
POSITION_HINTS_PER_DECADE = 8

CLI_COMMANDS = (
    "eval-geometric",
    "eval-kbit",
    "eval-direction",
    "frontier-all",
    "frontier-direction",
    "partition",
    "verify",
)


def _uniform(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 3)


def task_list(workload: str, seed: int) -> list[dict]:
    """The seeded task list of one pass."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "library-eval":
        # Trusted hints: one member built and one scalar search_cost per target.
        tasks = [
            {"name": "position", "r": _uniform(rng, 9.0, 30.0)} for _ in range(3)
        ]
        for _ in range(3):
            b = _uniform(rng, 1.5, 4.0)
            for frac in (0.0, 0.5, 1.0):
                # delta >= 1/b keeps every segment at length >= 1.
                delta = 1.0 / b + frac * (1.0 - 1.0 / b)
                delta = min(1.0, math.ceil(delta * 1e3) / 1e3)
                tasks.append({"name": "direction", "b": b, "delta": delta})
        # k-bit families: few members, many targets through search_costs, and
        # preferred_partition's per-cell member rebuilds.
        r_a, r_b = _uniform(rng, 9.0, 30.0), _uniform(rng, 9.0, 30.0)
        tasks += [
            {"name": "kbit", "r": r, "k": k} for r in (r_a, r_b) for k in range(1, 9)
        ]
        tasks += [
            {"name": "partition", "r": r_a, "k": k, "max": ref.partition_max(r_a, k),
             "probe_seed": rng.randrange(2**31)}
            for k in range(1, 5)
        ]
        tasks.append({"name": "oracle", "count": 200, "seed": rng.randrange(2**31)})
        return tasks
    if workload == "cli-session":
        # `eval --family position` is left out: one call takes about 20 s,
        # and library-eval runs the same code path.
        b_dir = _uniform(rng, 1.5, 4.0)
        delta = min(1.0, math.ceil(rng.uniform(1.0 / b_dir, 1.0) * 1e3) / 1e3)
        r_part = _uniform(rng, 9.0, 30.0)
        start = 9.0 + round(rng.uniform(0.0, 0.5), 2)
        return [
            {"name": "eval-geometric", "b": _uniform(rng, 1.5, 3.0)},
            {"name": "eval-kbit", "r": _uniform(rng, 9.0, 30.0), "k": 6},
            {"name": "eval-direction", "b": b_dir, "delta": delta},
            {"name": "frontier-all", "range": (start, 1000.0, 0.5), "k": 4},
            {"name": "frontier-direction", "range": (5000.0, 10000.0, 250.0)},
            {"name": "partition", "r": r_part, "k": 4,
             "max": ref.partition_max(r_part, 4), "probe_seed": rng.randrange(2**31)},
            {"name": "verify", "seed": rng.randrange(1000)},
        ]
    raise ValueError(f"unknown workload {workload!r}")


# ---- in-process tasks ------------------------------------------------------


def run_task(task: dict):
    """Run one in-process task and return its raw output."""
    name = task["name"]
    if name == "position":
        return cowpath.evaluate_hinted(cowpath.position_family(
            task["r"], hints_per_decade=POSITION_HINTS_PER_DECADE
        ))
    if name == "direction":
        return cowpath.evaluate_hinted(
            cowpath.direction_family(task["b"], task["delta"])
        )
    if name == "kbit":
        return cowpath.evaluate_hinted(cowpath.kbit_family(task["r"], task["k"]))
    if name == "partition":
        return cowpath.preferred_partition(task["r"], task["k"], task["max"])
    if name == "oracle":
        return cowpath.oracle_equivalence_gaps(task["count"], task["seed"])
    raise ValueError(f"unknown in-process task {name!r}")


def check_task(task: dict, output) -> tuple[list, list]:
    """(problems, known seed failures) of one in-process output."""
    name = task["name"]
    if name == "position":
        return ref.check_position(output, task["r"]), []
    if name == "direction":
        return ref.check_direction(output, task["b"], task["delta"]), []
    if name == "kbit":
        return ref.check_kbit(output, task["r"], task["k"]), []
    if name == "partition":
        probes = random.Random(task["probe_seed"])
        return ref.check_partition(
            ref.partition_cells(output), task["r"], task["k"], task["max"], probes
        ), []
    return ref.check_oracle(output, task["count"]), []


# ---- CLI tasks -------------------------------------------------------------


def _range_text(start: float, stop: float, step: float) -> str:
    return f"{start:g}:{stop:g}:{step:g}"


def cli_argv(task: dict) -> list[str]:
    name = task["name"]
    if name == "eval-geometric":
        return ["eval", "--geometric", f"b={task['b']!r}"]
    if name == "eval-kbit":
        return ["eval", "--family", "kbit", "--r-params",
                f"r={task['r']!r},k={task['k']}"]
    if name == "eval-direction":
        return ["eval", "--family", "direction", "--r-params",
                f"b={task['b']!r},delta={task['delta']!r}"]
    if name == "frontier-all":
        return ["frontier", "--class", "all", "--r", _range_text(*task["range"]),
                "--k", str(task["k"])]
    if name == "frontier-direction":
        return ["frontier", "--class", "direction", "--r", _range_text(*task["range"])]
    if name == "partition":
        return ["partition", "--r", repr(task["r"]), "--k", str(task["k"]),
                "--max", repr(task["max"])]
    if name == "verify":
        return ["verify", "--seed", str(task["seed"])]
    raise ValueError(f"unknown CLI task {name!r}")


def cli_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def run_cli_subprocess(task: dict) -> tuple[int, str]:
    """``python -m cowpath ...`` in a child process: (exit code, stdout)."""
    proc = subprocess.run(
        [sys.executable, "-m", "cowpath", *cli_argv(task)],
        cwd=ROOT, env=cli_env(), capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout


def run_cli_inprocess(task: dict, call=None) -> tuple[int, str]:
    """``cowpath.cli.main(argv)`` with stdout and stderr captured.  ``call``
    wraps the call into main (the tracer's span)."""
    import cowpath.cli

    out, err = io.StringIO(), io.StringIO()
    argv = cli_argv(task)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if call is None:
            code = cowpath.cli.main(argv)
        else:
            code = call(f"cli.main.{task['name']}", cowpath.cli.main, argv)
    return code, out.getvalue()


def check_cli(task: dict, output: tuple[int, str]) -> tuple[list, list]:
    """(problems, known seed failures) of one CLI output."""
    code, stdout = output
    if code != 0:
        return [f"exit code {code}"], []
    name = task["name"]
    if name == "eval-geometric":
        return ref.check_cli_geometric(stdout, task["b"]), []
    if name == "eval-kbit":
        return ref.check_cli_kbit(stdout, task["r"], task["k"]), []
    if name == "eval-direction":
        return ref.check_cli_direction(stdout, task["b"], task["delta"]), []
    if name in ("frontier-all", "frontier-direction"):
        rs = ref.r_range(*task["range"])
        classes = ["position", "direction", "onebit", "kbit"]
        if name == "frontier-direction":
            classes = ["direction"]
        problems, bad_rows = ref.check_frontier(stdout, classes, rs, task.get("k", 2))
        known = []
        for r, got, want in bad_rows:
            line = f"direction r={r:g}: c={got!r}, edge optimum {want!r}"
            (known if r > KNOWN_FAILURE_MIN_R else problems).append(line)
        return problems, known
    if name == "partition":
        probes = random.Random(task["probe_seed"])
        return ref.check_cli_partition(
            stdout, task["r"], task["k"], task["max"], probes
        ), []
    return ref.check_cli_verify(stdout), []
