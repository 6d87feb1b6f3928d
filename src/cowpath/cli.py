"""Command-line front end: build strategies, evaluate tradeoffs, emit
frontier tables and partition data.  Every file format the CLI reads or
writes lives here: strategy JSON, frontier CSV, partition JSON and CSV.

Exit codes: 0 success, 1 verification failure, 2 input error,
3 horizon too short.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from typing import TYPE_CHECKING, Optional, Sequence

from ._rules import DEFAULT_HORIZON, HorizonTooShort, _integer, _real

if TYPE_CHECKING:
    from .bounds import FrontierCurve

# Only the input rules are imported here, so --help and usage errors load
# nothing else of the package; each command imports what it needs when it
# runs: frontier the numpy-free bounds, the others model, hints and ratios.

__all__ = ["main"]

# The input rules raise only these; any other exception is a bug to show.
_INPUT_ERRORS = (ValueError, OSError)

_MAX_R_POINTS = 10**6


def _parse_r_range(text: str) -> tuple[float, ...]:
    """Inclusive start:stop:step range; a bare number is a one-point range."""
    try:
        numbers = [float(part) for part in text.split(":")]
    except ValueError:
        numbers = []
    if len(numbers) == 1:
        return (numbers[0],)
    if len(numbers) != 3:
        raise argparse.ArgumentTypeError(
            f"range must be START:STOP:STEP or a single value, got {text!r}"
        )
    start, stop, step = numbers
    if not (step > 0 and stop >= start):  # also rejects nan
        raise argparse.ArgumentTypeError(
            f"range needs stop >= start and step > 0, got {text!r}"
        )
    steps = (stop - start) / step + 1e-9
    if not steps < _MAX_R_POINTS:  # also rejects inf
        raise argparse.ArgumentTypeError(
            f"range must hold at most {_MAX_R_POINTS} points, got {text!r}"
        )
    rs = tuple(start + i * step for i in range(math.floor(steps) + 1))
    if any(a == b for a, b in itertools.pairwise(rs)):  # rs never decreases
        raise argparse.ArgumentTypeError(
            f"range step is below the float spacing and repeats a budget, got {text!r}"
        )
    return rs


def _kv_pairs(
    items: Sequence[str], flag: str, fields: dict, where: str
) -> dict[str, float]:
    """KEY=VALUE entries as floats, each key once and one of ``fields``
    (name -> default, None if required); returns every field's value.
    Errors in the text name ``flag``, errors in the fields ``where``."""
    out: dict[str, float] = {}
    for item in items:
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ValueError(f"{flag} entries must be key=value, got {item!r}")
        if key in out:
            raise ValueError(f"{flag} repeats field '{key}'")
        try:
            out[key] = float(value)
        except ValueError:
            raise ValueError(f"{flag} field '{key}' must be a number, got {value!r}")
    unknown = sorted(set(out) - set(fields))
    if unknown:
        raise ValueError(f"{where} has no field '{unknown[0]}'")
    for key, default in fields.items():
        if default is None and key not in out:
            raise ValueError(f"{where} needs field '{key}'")
    return {**fields, **out}


def _write_text(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_json(flag: str, text: Optional[str] = None, path: Optional[str] = None):
    """The JSON document ``text``, or the UTF-8 file at ``path``: one json
    cannot read is named by ``flag`` and any path (an OSError passes on)."""
    try:
        if path is not None:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        where = flag if path is None else f"{flag} {path}"
        raise ValueError(f"{where}: not JSON: {exc}") from None


def _strategy_from_json(obj: object):
    """Parse the strategy JSON object form, {"segments": [{"length": ..,
    "branch": 0|1}, ..]}; errors name the offending field."""
    import numpy as np

    from .model import Strategy

    if not isinstance(obj, dict):
        raise ValueError("strategy JSON must be an object")
    if "segments" not in obj:
        raise ValueError("strategy JSON is missing field 'segments'")
    raw = obj["segments"]
    if not isinstance(raw, list):
        raise ValueError("field 'segments' must be a list")
    lengths, branches = [], []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise ValueError(f"segments[{i}] must be an object")
        for key in ("length", "branch"):
            if key not in entry:
                raise ValueError(f"segments[{i}] is missing field '{key}'")
        try:
            lengths.append(_real(entry["length"], "segment length", 0.0, open_lo=True))
            branches.append(_integer(entry["branch"], "branch", 0, 1))
        except ValueError as exc:
            raise ValueError(f"segments[{i}]: {exc}") from exc
    return Strategy(np.array(lengths), np.array(branches))  # read once, above


def _frontier_to_csv(curves: Sequence[FrontierCurve]) -> str:
    """CSV with header hint_class,k,r,c_upper,c_lower,b_star,delta_star;
    numbers use 9 significant digits, '.' decimal separator, 'inf' for
    infinity, empty for absent fields."""

    def num(value: Optional[float]) -> str:
        if value is None:
            return ""
        if math.isinf(value):
            return "inf"
        return f"{value:.9g}"

    lines = ["hint_class,k,r,c_upper,c_lower,b_star,delta_star"]
    for curve in curves:
        k_str = "" if curve.k is None else str(curve.k)
        for p in curve.points:
            lines.append(
                f"{curve.hint_class},{k_str},{num(p.r)},{num(p.c_upper)},"
                f"{num(p.c_lower)},{num(p.b_star)},{num(p.delta_star)}"
            )
    return "\n".join(lines) + "\n"


def _partition_to_json(partition) -> dict:
    """JSON form: {"branch0": [{"lo": .., "hi": .., "label": ..}, ..], ..}."""
    return {
        f"branch{branch}": [
            {"lo": iv.lo, "hi": iv.hi, "label": iv.label}
            for iv in partition.intervals(branch)
        ]
        for branch in (0, 1)
    }


def _print_strategy_report(strategy) -> None:
    import numpy as np

    from .model import Members
    from .ratios import _cells, competitive_ratio_measured

    cells, settled = _cells(Members.stack(strategy))
    measured = competitive_ratio_measured(strategy)  # may raise: print nothing
    # per branch, the rule evaluate_hinted applies to every member
    suffix = " (converged)" if settled.all() else ""
    print(f"cr={float(np.fmax.reduce(cells[0])):.6f}{suffix}")
    print(f"cr_measured={measured:.6f}")


def cmd_eval(args: argparse.Namespace) -> int:
    from ._rules import _MAX_SEGMENTS  # the limit make_geometric admits now
    from .hints import direction_family, kbit_family, position_family
    from .model import make_geometric
    from .ratios import evaluate_hinted

    sources = (args.file, args.json, args.geometric, args.family)
    if sum(source is not None for source in sources) != 1:
        raise ValueError(
            "exactly one of --file, --json, --geometric, --family is required"
        )
    if args.file is not None or args.json is not None:
        flag = "--file" if args.file is not None else "--json"
        strategy = _strategy_from_json(_load_json(flag, args.json, args.file))
    elif args.geometric is not None:
        fields = {"b": None, "n": float(DEFAULT_HORIZON), "scale": 1.0, "first": 0.0}
        params = _kv_pairs(args.geometric, "--geometric", fields, "--geometric")
        b, n, scale, first = params.values()
        n = _integer(n, "--geometric field 'n'", 1, _MAX_SEGMENTS)
        first = _integer(first, "--geometric field 'first'", 0, 1)
        try:
            strategy = make_geometric(b, n, first, scale)
        except ValueError as exc:
            raise ValueError(f"--geometric b={b:g}, n={n}: {exc}") from None
    if args.family is None:
        _print_strategy_report(strategy)
        return 0
    builder, names = {
        "position": (position_family, ("r",)),
        "direction": (direction_family, ("b", "delta")),
        "kbit": (kbit_family, ("r", "k")),
    }[args.family]
    pairs = args.r_params.split(",") if args.r_params else []
    params = _kv_pairs(
        pairs, "--r-params", dict.fromkeys(names), f"family '{args.family}'"
    )
    family = builder(*params.values(), args.horizon)
    point = evaluate_hinted(family)
    print(f"consistency={point.consistency:.6f} robustness={point.robustness:.6f}")
    print(f"method={point.method} converged={'true' if point.converged else 'false'}")
    if not point.converged:
        print(
            f"warning: the ratio terms have not settled within horizon "
            f"{args.horizon}; the values hold for this finite prefix only "
            "(raise --horizon)",
            file=sys.stderr,
        )
    return 0


def cmd_frontier(args: argparse.Namespace) -> int:
    from .bounds import build_frontiers, frontier_curve

    if args.hint_class is None:
        raise ValueError("frontier needs --class")
    if args.r is None:
        raise ValueError("frontier needs --r")
    if args.hint_class == "all":
        curves = build_frontiers(args.r, args.k)
    else:
        curves = [frontier_curve(args.hint_class, args.r, args.k)]
    _write_text(args.output, _frontier_to_csv(curves))
    return 0


def _verify_sweep(label: str, sweep) -> tuple[bool, str]:
    """Run an inequality sweep over geometric strategies and report its
    worst margin and where it occurs."""
    from .bounds import _sweep_cells

    reports = sweep()
    worst = -math.inf
    where = ""
    for (r, b), report in zip(_sweep_cells(), reports):
        i = report.margins.index(max(report.margins))
        if report.margins[i] > worst:
            worst, where = report.margins[i], f"r={r:g},b={b:.6g},i={i}"
    ok = all(report.holds for report in reports)
    line = "holds" if ok else "VIOLATED"
    return ok, f"{label}: {line}; worst margin {worst:.6g} at {where}"


def _verify_oracle(count: int, seed: int) -> tuple[bool, str]:
    from .ratios import oracle_equivalence_gaps

    gaps = oracle_equivalence_gaps(count, seed)
    worst = float(gaps.max())
    ok = worst <= 1e-6
    line = "holds" if ok else "VIOLATED"
    return ok, (
        f"oracle: {line}; max |formula-measured| {worst:.3g} "
        f"over {count} strategies (seed {seed})"
    )


def cmd_verify(args: argparse.Namespace) -> int:
    from .bounds import (
        check_segment_growth_lemma,
        growth_lemma_sweep,
        prefix_bound_sweep,
    )
    from .model import strategy_from_lengths

    _integer(args.count, "--count", 1)
    _integer(args.seed, "--seed", 0)
    oracle = None
    if args.suite in ("oracle", "all"):
        # first: its strategies' admission rejects --count before any sweep
        oracle = _verify_oracle(args.count, args.seed)
    checks = []
    if args.suite in ("lemma", "all"):
        ok, detail = _verify_sweep("lemma", growth_lemma_sweep)
        counter = check_segment_growth_lemma(strategy_from_lengths([1.0, 100.0]), 9.0)
        flagged = (not counter.holds) and counter.violation_index == 1
        detail += f"; counterexample (1,100) {'flagged' if flagged else 'NOT flagged'}"
        checks.append((ok and flagged, detail))
    if args.suite in ("corollary", "all"):
        checks.append(_verify_sweep("corollary", prefix_bound_sweep))
    if oracle is not None:
        checks.append(oracle)
    for _, detail in checks:
        print(detail)
    ok = all(passed for passed, _ in checks)
    print("verify: PASS" if ok else "verify: FAIL")
    return 0 if ok else 1


def cmd_partition(args: argparse.Namespace) -> int:
    from .hints import preferred_partition

    for name in ("r", "k", "max"):
        if getattr(args, name) is None:
            raise ValueError(f"partition needs --{name}")
    part = preferred_partition(args.r, args.k, args.max, args.horizon)
    payload = json.dumps(_partition_to_json(part), indent=2) + "\n"
    rows = ["branch,lo,hi,label"]
    for branch in (0, 1):
        for iv in part.intervals(branch):
            rows.append(f"{branch},{iv.lo:.9g},{iv.hi:.9g},{iv.label}")
    csv_text = "\n".join(rows) + "\n"
    if args.json_out is not None or args.csv_out is None:
        _write_text(args.json_out, payload)  # stdout when neither is given
    if args.csv_out is not None:
        _write_text(args.csv_out, csv_text)
    return 0


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
        prog="cowpath",
        description=(
            "Linear search on two rays with untrusted hints: evaluate "
            "strategies, sweep tradeoff frontiers, verify inequalities."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser(
        "eval", help="competitive ratio of a strategy or hinted family"
    )
    p_eval.add_argument("--file", help="strategy JSON file")
    p_eval.add_argument("--json", help="inline strategy JSON")
    p_eval.add_argument(
        "--geometric",
        nargs="+",
        metavar="KEY=VALUE",
        help="geometric strategy parameters: b= n= scale= first=",
    )
    p_eval.add_argument(
        "--family", choices=("position", "direction", "kbit"), help="hinted family"
    )
    p_eval.add_argument(
        "--r-params",
        metavar="KEY=VALUE,..",
        help="family parameters, e.g. b=2,delta=1 or r=9,k=2",
    )
    p_eval.add_argument("--horizon", type=int, default=DEFAULT_HORIZON)
    p_eval.set_defaults(func=cmd_eval)

    p_frontier = sub.add_parser(
        "frontier", help="consistency-robustness frontier CSV"
    )
    p_frontier.add_argument(
        "--class",
        dest="hint_class",
        choices=("position", "direction", "onebit", "kbit", "all"),
    )
    p_frontier.add_argument("--r", type=_parse_r_range, metavar="START:STOP:STEP")
    p_frontier.add_argument("--k", type=int, default=2)
    p_frontier.add_argument("--output", help="CSV path (default stdout)")
    p_frontier.set_defaults(func=cmd_frontier)

    p_verify = sub.add_parser("verify", help="inequality and oracle suites")
    p_verify.add_argument(
        "suite", nargs="?", default="all",
        choices=("lemma", "corollary", "oracle", "all"),
    )
    p_verify.add_argument("--count", type=int, default=200)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=cmd_verify)

    p_part = sub.add_parser(
        "partition", help="which hint index is best where on the line"
    )
    p_part.add_argument("--r", type=float)
    p_part.add_argument("--k", type=int)
    p_part.add_argument("--max", type=float)
    p_part.add_argument("--horizon", type=int, default=DEFAULT_HORIZON)
    p_part.add_argument("--json", dest="json_out", help="partition JSON path")
    p_part.add_argument("--csv", dest="csv_out", help="partition CSV path")
    p_part.set_defaults(func=cmd_partition)

    for p in (p_eval, p_frontier, p_verify, p_part):
        p.add_argument(
            "--config",
            help="JSON file of flag defaults (explicit flags win)",
        )
    return parser, sub.choices


def _config_value(action: argparse.Action, key: str, value: object) -> object:
    """A config value read as the flag's text would be: a string (for a
    nargs="+" flag, also a list of them), or for a typed flag also a number,
    put through the flag's type and checked against its choices."""
    flag = action.option_strings[0] if action.option_strings else action.dest
    field = f"config field '{key}' ({flag})"
    many = action.nargs == "+"
    kind = {None: "a string", int: "an integer"}.get(action.type, "a number")
    if many:
        kind += " or a list of strings"
    bad = f"{field} must be {kind}, got {value!r}"
    items = value if many and isinstance(value, list) else [value]
    allowed = str if action.type is None else (str, int, float)
    # float(True) is 1.0: a bool would pass as a number
    if not items or any(isinstance(x, bool) or not isinstance(x, allowed)
                        for x in items):
        raise ValueError(bad)
    if action.type is not None:
        text = str(value)
        if isinstance(value, float):  # 3.0 reads as "3", 1e300 as "1e+300"
            text = text.removesuffix(".0")
        try:
            value = action.type(text)
        except argparse.ArgumentTypeError as exc:
            raise ValueError(f"{field}: {exc}") from None
        except ValueError:
            raise ValueError(bad) from None
    if action.choices is not None and value not in action.choices:
        choices = ", ".join(action.choices)
        raise ValueError(f"{field} must be one of {choices}, got {value!r}")
    return items if many else value


def _apply_config(
    parser: argparse.ArgumentParser,
    subparser: argparse.ArgumentParser,
    args: argparse.Namespace,
    argv: Sequence[str],
) -> argparse.Namespace:
    """Set the subcommand's defaults from the config file, each key read
    through the action of the flag it names (the option without `--`, or a
    positional's dest), then parse ``argv`` again so explicit flags win."""
    config = _load_json("--config", path=args.config)
    if not isinstance(config, dict):
        raise ValueError("config file must hold a JSON object")
    actions = {
        action.option_strings[0][2:] if action.option_strings else action.dest: action
        for action in subparser._actions
        if action.dest not in ("help", "config")
    }
    defaults = {}
    for key, value in config.items():
        if key not in actions:
            raise ValueError(f"config has no matching flag for field '{key}'")
        action = actions[key]
        defaults[action.dest] = _config_value(action, key, value)
    subparser.set_defaults(**defaults)
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser, subparsers = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if getattr(args, "config", None) is not None:
            try:
                args = _apply_config(parser, subparsers[args.command], args, argv)
            except SystemExit as exc:
                return int(exc.code or 0)
        return args.func(args)
    except HorizonTooShort as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
