"""cowpath benchmark: end-to-end metrics per workload and a traced per-layer run.

One workload (the last stdout line is the result JSON):

    python3 bench/run.py --workload library-eval --seed 1 --seconds 55 --trace 0

Every workload, untraced and then traced, as two tables:

    python3 bench/run.py --all [--seed 1] [--seconds 55]

Load is a closed loop with one caller: the next task starts only when the
previous one returned (CLI tasks run one child process at a time), and no
threads are started.  A run
measures whole passes over the workload's task list for at most --seconds
(at least one pass) and checks every output against bench/reference.py;
in-process workloads first run one task of each kind, checked but not timed.
With --trace 1 the run alternates untraced and traced passes; the traced
ones install span wrappers (bench/tracer.py) and remove them afterwards.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, and inherited by every child process.
THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

# The seed used when none is given.  Every seed draws parameters from the
# same ranges, sized so that a pass costs about the same at any seed.
DEFAULT_SEED = 1

# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3

WORKLOADS = ("library-eval", "cli-session")


def _fail(message: str, code: int = 2) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return code


def _load_package():
    """Import cowpath from this checkout's src/ and the benchmark modules."""
    if not (SRC / "cowpath" / "__init__.py").is_file():
        raise ImportError(f"no cowpath package under {SRC}")
    sys.path.insert(0, str(SRC))
    import cowpath

    if Path(cowpath.__file__).resolve().parent != (SRC / "cowpath").resolve():
        raise ImportError(f"cowpath was imported from {cowpath.__file__}, not {SRC}")
    import tracer
    import workloads

    return workloads, tracer


# ---- machine record --------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _version(package: str) -> str:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def machine_record() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "commit": _git_commit(),
        "threads": THREAD_ENV,
    }


# ---- timing helpers --------------------------------------------------------


def _wall(argv: list, env: dict) -> float:
    start = time.perf_counter()
    subprocess.run(
        argv, cwd=ROOT, env=env, check=True, timeout=170,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


def setup_samples(wl, workload: str, seed: int) -> list:
    """Wall times of fresh interpreters doing the workload's set-up: for the
    CLI, ``python -m cowpath --help`` (pure cold start); in-process, import
    cowpath and generate the task list.  One untimed start warms the
    bytecode cache first."""
    env = wl.cli_env()
    if workload == "cli-session":
        argv = [sys.executable, "-m", "cowpath", "--help"]
    else:
        code = (
            "import sys; sys.path[:0] = [sys.argv[1]]; import workloads; "
            "workloads.task_list(sys.argv[2], int(sys.argv[3]))"
        )
        here = str(Path(__file__).resolve().parent)
        argv = [sys.executable, "-c", code, here, workload, str(seed)]
    _wall(argv, env)
    return [_wall(argv, env) for _ in range(SETUP_SAMPLES)]


def import_times(wl) -> tuple[float, float]:
    """(total, scipy) seconds of ``import cowpath`` from ``-X importtime``;
    scipy counts every scipy module not imported by another scipy module."""
    totals, scipys = [], []
    for _ in range(IMPORTTIME_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import cowpath"],
            cwd=ROOT, env=wl.cli_env(), capture_output=True, text=True,
            check=True, timeout=170,
        )
        rows = []
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            name = parts[2].rstrip()
            depth = len(name) - len(name.lstrip())
            rows.append((depth, name.strip(), int(parts[1]) * 1e-6))
        total = scipy = 0.0
        stack: list = []  # (depth, inside scipy) of the enclosing imports
        for depth, name, cumulative in reversed(rows):  # parents come first
            while stack and stack[-1][0] >= depth:
                stack.pop()
            inside = bool(stack) and stack[-1][1]
            is_scipy = name == "scipy" or name.startswith("scipy.")
            if is_scipy and not inside:
                scipy += cumulative
            if name == "cowpath":
                total = cumulative
            stack.append((depth, inside or is_scipy))
        totals.append(total)
        scipys.append(scipy)
    return statistics.median(totals), statistics.median(scipys)


def repeat(seconds: float, step) -> None:
    """Run ``step`` until the next run would pass ``seconds`` (at least once)."""
    start = time.perf_counter()
    cycles = []
    while True:
        t0 = time.perf_counter()
        step()
        cycles.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(cycles) > seconds:
            return


# ---- passes ----------------------------------------------------------------


class Tally:
    """Attempted and failed tasks; failures outside the known seed failures
    make the run incorrect."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.unexpected: dict = {}
        self.known: dict = {}

    def record(self, task: dict, output, check) -> None:
        self.attempted += 1
        try:
            if isinstance(output, Exception):
                raise output
            problems, known = check(task, output)
        except Exception as exc:  # a failed task or an unparsable output
            error = "".join(traceback.format_exception_only(exc)).strip()
            problems, known = [error], []
        if problems or known:
            self.failed += 1
        if problems:
            self.unexpected.setdefault(task["name"], problems)
        if known:
            self.known.setdefault(task["name"], known)


def _run_all(tasks: list, run) -> tuple[float, list]:
    """Run every task in order; an exception is that task's output."""
    outputs = []
    start = time.perf_counter()
    for task in tasks:
        try:
            outputs.append(run(task))
        except Exception as exc:  # a failed task must not stop the pass
            outputs.append(exc)
    return time.perf_counter() - start, outputs


def _check_all(tally: Tally, tasks: list, outputs: list, check) -> None:
    for task, output in zip(tasks, outputs):
        tally.record(task, output, check)


def run_untraced(wl, workload: str, tasks: list, seconds: float, tally: Tally):
    """End-to-end metrics (setup_s excepted) and the pass times."""
    cli = workload == "cli-session"
    run = wl.run_cli_subprocess if cli else wl.run_task
    check = wl.check_cli if cli else wl.check_task
    passes = []

    def step():
        duration, outputs = _run_all(tasks, run)
        passes.append(duration)
        _check_all(tally, tasks, outputs, check)

    warm_up = None
    if not cli:
        # Lazy imports and first-call set-up: the first task of each kind
        # runs once, checked but not timed.  CLI passes start fresh processes.
        first: dict = {}
        for task in tasks:
            first.setdefault(task["name"], task)
        warm = list(first.values())
        warm_up, outputs = _run_all(warm, run)
        _check_all(tally, warm, outputs, check)
    repeat(seconds - (warm_up or 0.0), step)
    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    return {
        "pass_s": statistics.median(passes),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "success_rate": 1.0 - tally.failed / tally.attempted,
    }, passes, warm_up


def run_traced(wl, tr, workload: str, tasks: list, seconds: float, tally: Tally):
    """Per-layer metrics and the untraced and traced pass times.  Untraced
    and traced passes alternate; for the CLI both are in-process
    ``cli.main`` passes, after a subprocess pass that gives each command's
    untraced wall time."""
    cli = workload == "cli-session"
    check = wl.check_cli if cli else wl.check_task
    untraced, traced, layers = [], [], []
    command_walls: dict = {task["name"]: [] for task in tasks} if cli else {}

    def step():
        if cli:
            for task in tasks:
                wall, outputs = _run_all([task], wl.run_cli_subprocess)
                command_walls[task["name"]].append(wall)
                _check_all(tally, [task], outputs, check)
        run = wl.run_cli_inprocess if cli else wl.run_task
        duration, outputs = _run_all(tasks, run)
        untraced.append(duration)
        _check_all(tally, tasks, outputs, check)
        tracer = tr.Tracer()
        with tracer:
            if cli:
                duration, outputs = _run_all(
                    tasks, lambda task: wl.run_cli_inprocess(task, tracer.call)
                )
            else:
                duration, outputs = _run_all(tasks, run)
        traced.append(duration)
        _check_all(tally, tasks, outputs, check)
        metrics = tr.layer_metrics(tracer.stats)
        for name in wl.CLI_COMMANDS:
            span = tracer.stats[f"cli.main.{name}"]
            metrics[f"cli.main.{name}.self_s"] = span["self_s"]
        layers.append(metrics)

    repeat(seconds, step)
    out = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
    for name in wl.CLI_COMMANDS:
        walls = command_walls.get(name)
        out[f"cli.cmd.{name}.wall_s"] = statistics.median(walls) if walls else 0.0
    out["cli.import.total_s"], out["cli.import.scipy_s"] = import_times(wl)
    out["trace.overhead"] = statistics.median(traced) / statistics.median(untraced)
    return out, untraced, traced


# ---- output ----------------------------------------------------------------


def _spec() -> dict:
    with open(SPEC, encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    try:
        wl, tr = _load_package()
    except ImportError as exc:
        return _fail(f"cannot load the package: {exc}")
    spec = _spec()
    kind = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[kind]}
    tasks = wl.task_list(workload, seed)
    print("machine:", json.dumps(machine_record()))
    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload)
    print(f"workload: {workload} (seed {seed}, default {DEFAULT_SEED}); why: {why}")
    print(f"tasks per pass: {len(tasks)}; budget {seconds:g} s; trace {int(trace)}")

    tally = Tally()
    if trace:
        result, untraced, traced = run_traced(wl, tr, workload, tasks, seconds, tally)
        print(f"passes: {len(untraced)} untraced, median "
              f"{statistics.median(untraced):.4f} s; {len(traced)} traced, "
              f"median {statistics.median(traced):.4f} s")
    else:
        setup = setup_samples(wl, workload, seed)
        result, passes, warm_up = run_untraced(wl, workload, tasks, seconds, tally)
        result["setup_s"] = statistics.median(setup)
        print(f"setup: {len(setup)} samples, median {result['setup_s']:.4f} s, "
              f"range {min(setup):.4f}-{max(setup):.4f} s")
        if warm_up is not None:
            print(f"warm-up: {warm_up:.4f} s (not in pass_s)")
        print(f"passes: {len(passes)}, median {result['pass_s']:.4f} s, "
              f"range {min(passes):.4f}-{max(passes):.4f} s; "
              f"all: {' '.join(f'{p:.3f}' for p in passes)}")
    for name, problems in tally.known.items():
        print(f"known seed failure in {name}: {len(problems)} problems, "
              f"e.g. {problems[0]}")
    for name, problems in tally.unexpected.items():
        print(f"FAILED {name}: {'; '.join(problems[:3])}")
    print(f"tasks: {tally.attempted} attempted, {tally.failed} failed "
          f"(error_rate {tally.failed / tally.attempted:.4f})")

    if set(result) != set(declared):
        mismatch = sorted(set(result) ^ set(declared))
        return _fail(f"metrics {mismatch} do not match {SPEC.name}", 3)
    for name in declared:
        print(f"{name} = {result[name]:.6g} {declared[name]}")
    print(json.dumps({
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": result[name], "unit": unit}
            for name, unit in declared.items()
        },
    }))
    return 0


def _table(title: str, metrics: list, results: dict) -> None:
    print(f"\n{title}")
    width = max(len(m["name"]) for m in metrics) + 2
    header = "".join(w.rjust(15) for w in results)
    print("metric".ljust(width) + "unit".ljust(8) + header)
    for m in metrics:
        cells = "".join(
            f"{results[w]['metrics'][m['name']]['value']:15.6g}" for w in results
        )
        print(m["name"].ljust(width) + m["unit"].ljust(8) + cells)


def run_all(seed: int, seconds: float) -> int:
    """Run every workload in its own process, untraced then traced, and print
    the end-to-end table and the per-layer table."""
    spec = _spec()
    print("machine:", json.dumps(machine_record()))
    tables = {}
    for trace in (0, 1):
        results = {}
        for workload in WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return _fail(f"{workload} --trace {trace} exited {proc.returncode}")
            lines = proc.stdout.strip().splitlines()
            print("\n".join(f"[{workload}] {line}" for line in lines[1:-1]))
            results[workload] = json.loads(lines[-1])
        tables[trace] = results
    title = f"end-to-end (seed {seed}, {seconds:g} s per run)"
    _table(title, spec["end_to_end"], tables[0])
    _table("per-layer (traced run)", spec["per_layer"], tables[1])
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not SPEC.is_file():
        return _fail(f"{SPEC.name} not found")
    seconds = args.seconds if args.seconds is not None else _spec()["run_seconds"]
    if args.all:
        return run_all(args.seed, seconds)
    if args.workload is None:
        parser.error("give --workload NAME or --all")
    return run_workload(args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
