"""The CLI's output contract, kept as a checked data file, and a numeric
comparison of two checkouts.

    python tools/contract.py --write
        Run every command of COMMANDS in process through cowpath.cli.main
        and write tests/data/cli_contract.json: per command its argv, exit
        code, exact stdout and stderr, and every file it wrote.
        tests/test_cli_contract.py checks the package against that file.

    python tools/contract.py --compare TREE
        Score 21 hinted evaluations, oracle_equivalence_gaps(200, 0) and
        preferred_partition(9, 4, 1e6) in two child processes, one importing
        this checkout's src and one TREE's, and compare their pickled
        outputs byte for byte.  Exits 1 if any differ.

Text is split into lines at "\\n" only, so joining them with "\\n" gives the
exact bytes back.  "{out}" in an argv stands for the folder the command
writes its files into.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import pathlib
import pickle
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data" / "cli_contract.json"

# The seven commands of one cli-session pass, for seeds 1-3.
_SESSIONS = [
    ("2.386", "r=20.311,k=6", "b=3.947,delta=0.624", "9.27",
     ["--r", "26.67", "--k", "4", "--max", "2.6804135465406436e+21"], "987"),
    ("2.932", "r=14.699,k=6", "b=2.846,delta=0.767", "9.46",
     ["--r", "21.354", "--k", "4", "--max", "1.4641214486094555e+19"], "622"),
    ("2.298", "r=10.709,k=6", "b=2.074,delta=0.598", "9.22",
     ["--r", "17.765", "--k", "4", "--max", "1.5838376329678653e+17"], "580"),
]

COMMANDS = [
    argv
    for b, kbit, direction, start, partition, seed in _SESSIONS
    for argv in (
        ["eval", "--geometric", f"b={b}"],
        ["eval", "--family", "kbit", "--r-params", kbit],
        ["eval", "--family", "direction", "--r-params", direction],
        ["frontier", "--class", "all", "--r", f"{start}:1000:0.5", "--k", "4"],
        ["frontier", "--class", "direction", "--r", "5000:10000:250"],
        ["partition", *partition],
        ["verify", "--seed", seed],
    )
] + [
    ["eval", "--family", "position", "--r-params", "r=9"],
    ["eval", "--family", "position", "--r-params", "r=9", "--horizon", "3"],
    ["verify"],
    ["partition", "--r", "9", "--k", "4", "--max", "1e6",
     "--json", "{out}/partition.json", "--csv", "{out}/partition.csv"],
    ["frontier", "--class", "all", "--r", "9:1000:0.5", "--k", "4"],
    # error exits
    ["eval", "--no-such-flag"],
    ["eval", "--json", "{"],
    ["eval", "--family", "kbit", "--r-params", "r=9,k=15"],
    ["eval", "--family", "kbit", "--r-params", "r=9,k=2", "--horizon", "1"],
    ["frontier", "--class", "all", "--r", "9:10000000:1"],
    ["eval", "--geometric", "b=2", "scale=1e-300"],
]

# argparse wraps its usage text to the terminal's width.
COLUMNS = "80"


def run(argv: list[str], folder: pathlib.Path) -> dict:
    """One command's contract entry: ``argv`` run through cowpath.cli.main
    in process, "{out}" standing for ``folder``."""
    from cowpath.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([arg.replace("{out}", str(folder)) for arg in argv])
    return {
        "argv": argv,
        "exit": code,
        "stdout": out.getvalue().split("\n"),
        "stderr": err.getvalue().split("\n"),
        "files": {
            p.name: p.read_text(encoding="utf-8").split("\n")
            for p in sorted(folder.iterdir())
        },
    }


def write() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["COLUMNS"] = COLUMNS
    entries = []
    for argv in COMMANDS:
        with tempfile.TemporaryDirectory() as folder:
            entries.append(run(argv, pathlib.Path(folder)))
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} commands to {DATA.relative_to(ROOT)}")


def _evaluations():
    """(name, thunk) of every evaluation --compare pickles."""
    import cowpath

    def hinted(build, *params, **options):
        return lambda: cowpath.evaluate_hinted(build(*params, **options))

    evaluations = [
        (f"position r={r} hints_per_decade={h}",
         hinted(cowpath.position_family, r, hints_per_decade=h))
        for r in (9, 9.5, 12, 25, 100)
        for h in (8, 128)
    ]
    evaluations += [(f"kbit r=9 k={k}", hinted(cowpath.kbit_family, 9, k))
                    for k in range(1, 9)]
    evaluations += [(f"direction b={b} delta={delta}",
                     hinted(cowpath.direction_family, b, delta))
                    for b, delta in ((2, 1), (2, 0.5), (3.7, 0.3))]
    evaluations += [
        ("oracle_equivalence_gaps(200, 0)",
         lambda: cowpath.oracle_equivalence_gaps(200, 0).tobytes()),
        ("preferred_partition(9, 4, 1e6)",
         lambda: cowpath.preferred_partition(9, 4, 1e6)),
    ]
    return evaluations


def dump() -> None:
    """Write {name: pickled output} of every evaluation to stdout, with the
    cowpath that PYTHONPATH names."""
    pickled = {name: pickle.dumps(thunk()) for name, thunk in _evaluations()}
    sys.stdout.buffer.write(pickle.dumps(pickled))


def _pickles(tree: pathlib.Path) -> dict:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    child = subprocess.run(
        [sys.executable, __file__, "--dump"], env=env, capture_output=True, check=True
    )
    return pickle.loads(child.stdout)


def compare(tree: pathlib.Path) -> int:
    ours, theirs = _pickles(ROOT), _pickles(tree)
    same = 0
    for name in ours:
        verdict = "identical" if ours[name] == theirs.get(name) else "DIFFERENT"
        same += verdict == "identical"
        print(f"{name}: {verdict}")
    print(f"{same} of {len(ours)} identical against {tree}")
    return 0 if same == len(ours) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true",
                      help="regenerate tests/data/cli_contract.json")
    mode.add_argument("--compare", metavar="TREE", type=pathlib.Path,
                      help="compare pickled outputs with another checkout")
    mode.add_argument("--dump", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.write:
        write()
    elif args.dump:
        dump()
    else:
        return compare(args.compare.resolve())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
