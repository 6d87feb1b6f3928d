"""Command-line front end: build strategies, evaluate tradeoffs, emit
frontier tables and partition data.

Exit codes: 0 success, 1 verification failure, 2 input error,
3 horizon too short.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional, Sequence

import numpy as np

from .bounds import (
    build_frontiers,
    check_segment_growth_lemma,
    frontier_curve,
    frontier_to_csv,
    growth_lemma_sweep,
    prefix_bound_sweep,
    robust_base_grid,
)
from .hints import family_from_json, partition_to_json, preferred_partition
from .model import (
    DEFAULT_HORIZON,
    HorizonTooShort,
    strategy_from_json,
    strategy_from_lengths,
    make_geometric,
)
from .ratios import (
    competitive_ratio_measured,
    competitive_ratio_terms,
    evaluate_hinted,
    oracle_equivalence_gaps,
    tail_converged,
)

__all__ = ["main"]

_INPUT_ERRORS = (ValueError, KeyError, TypeError, OSError)

_MAX_R_POINTS = 10**6


def _parse_r_range(text: str) -> tuple[float, ...]:
    """Inclusive start:stop:step range; a bare number is a one-point range."""
    parts = text.split(":")
    if len(parts) == 1:
        return (float(parts[0]),)
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"range must be START:STOP:STEP or a single value, got {text!r}"
        )
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not (step > 0 and stop >= start):  # also rejects nan
        raise argparse.ArgumentTypeError(
            f"range needs stop >= start and step > 0, got {text!r}"
        )
    steps = (stop - start) / step + 1e-9
    if not steps < _MAX_R_POINTS:  # also rejects inf
        raise argparse.ArgumentTypeError(
            f"range must hold at most {_MAX_R_POINTS} points, got {text!r}"
        )
    return tuple(start + i * step for i in range(math.floor(steps) + 1))


def _kv_pairs(items: Sequence[str], what: str) -> dict[str, float]:
    out: dict[str, float] = {}
    for item in items:
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ValueError(f"{what} entries must be key=value, got {item!r}")
        try:
            out[key] = float(value)
        except ValueError:
            raise ValueError(f"{what} field '{key}' must be a number, got {value!r}")
    return out


def _write_text(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _print_strategy_report(strategy) -> None:
    terms = competitive_ratio_terms(strategy)
    closed = float(np.max(terms))
    suffix = " (converged)" if tail_converged(terms) else ""
    print(f"cr={closed:.6f}{suffix}")
    print(f"cr_measured={competitive_ratio_measured(strategy):.6f}")


def cmd_eval(args: argparse.Namespace) -> int:
    sources = [
        args.file is not None,
        args.json is not None,
        args.geometric is not None,
        args.family is not None,
    ]
    if sum(sources) != 1:
        raise ValueError(
            "exactly one of --file, --json, --geometric, --family is required"
        )
    if args.file is not None:
        with open(args.file, "r", encoding="utf-8") as fh:
            _print_strategy_report(strategy_from_json(json.load(fh)))
        return 0
    if args.json is not None:
        _print_strategy_report(strategy_from_json(json.loads(args.json)))
        return 0
    if args.geometric is not None:
        params = _kv_pairs(args.geometric, "--geometric")
        unknown = set(params) - {"b", "n", "scale", "first"}
        if unknown:
            raise ValueError(f"--geometric has no field '{sorted(unknown)[0]}'")
        if "b" not in params:
            raise ValueError("--geometric needs field 'b'")
        b, n = params["b"], params.get("n", float(DEFAULT_HORIZON))
        if not (n >= 1 and n.is_integer()):
            raise ValueError(
                f"--geometric field 'n' must be an integer >= 1, got {n:g}"
            )
        first, scale = params.get("first", 0.0), params.get("scale", 1.0)
        if first not in (0.0, 1.0):
            raise ValueError(
                f"--geometric field 'first' must be 0 or 1, got {first:g}"
            )
        try:
            strategy = make_geometric(b, int(n), int(first), scale)
        except ValueError as exc:
            raise ValueError(f"--geometric b={b:g}, n={int(n)}: {exc}") from None
        _print_strategy_report(strategy)
        return 0
    descriptor: dict = {"family": args.family}
    pairs = args.r_params.split(",") if args.r_params else []
    descriptor.update(_kv_pairs(pairs, "--r-params"))
    family = family_from_json(descriptor, args.horizon)
    point = evaluate_hinted(family)
    print(f"consistency={point.consistency:.6f} robustness={point.robustness:.6f}")
    print(f"method={point.method} converged={'true' if point.converged else 'false'}")
    if not point.converged:
        print(
            f"warning: the ratio terms have not settled within horizon "
            f"{family.horizon}; the values hold for this finite prefix only "
            "(raise --horizon)",
            file=sys.stderr,
        )
    return 0


def cmd_frontier(args: argparse.Namespace) -> int:
    if args.hint_class is None:
        raise ValueError("frontier needs --class")
    if args.r is None:
        raise ValueError("frontier needs --r")
    rs = args.r
    if rs[0] < 9.0:
        raise ValueError(f"r range must start at 9 or above, got {rs[0]}")
    if args.hint_class == "all":
        curves = build_frontiers(rs, ks=(args.k,))
    else:
        curves = [frontier_curve(args.hint_class, rs, args.k)]
    _write_text(args.output, frontier_to_csv(curves))
    return 0


_SWEEP_RS = (9.0, 10.0, 13.0, 25.0)
_SWEEP_POINTS = 20


def _verify_sweep(label: str, sweep) -> tuple[bool, str]:
    """Run an inequality sweep over geometric strategies and report its
    worst margin and where it occurs."""
    reports = sweep(_SWEEP_RS, _SWEEP_POINTS)
    cells = [(r, b) for r in _SWEEP_RS for b in robust_base_grid(r, _SWEEP_POINTS)]
    worst = -math.inf
    where = ""
    for (r, b), report in zip(cells, reports):
        i = int(np.argmax(report.margins))
        if report.margins[i] > worst:
            worst, where = report.margins[i], f"r={r:g},b={b:.6g},i={i}"
    ok = all(report.holds for report in reports)
    line = "holds" if ok else "VIOLATED"
    return ok, f"{label}: {line}; worst margin {worst:.6g} at {where}"


def _verify_oracle(count: int, seed: int) -> tuple[bool, str]:
    gaps = oracle_equivalence_gaps(count, seed)
    worst = float(np.max(gaps))
    ok = worst <= 1e-6
    line = "holds" if ok else "VIOLATED"
    return ok, (
        f"oracle: {line}; max |formula-measured| {worst:.3g} "
        f"over {count} strategies (seed {seed})"
    )


def cmd_verify(args: argparse.Namespace) -> int:
    if args.count < 1:
        raise ValueError(f"--count must be >= 1, got {args.count}")
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    checks = []
    if args.suite in ("lemma", "all"):
        ok, detail = _verify_sweep("lemma", growth_lemma_sweep)
        counter = check_segment_growth_lemma(strategy_from_lengths([1.0, 100.0]), 9.0)
        flagged = (not counter.holds) and counter.violation_index == 1
        detail += f"; counterexample (1,100) {'flagged' if flagged else 'NOT flagged'}"
        checks.append((ok and flagged, detail))
    if args.suite in ("corollary", "all"):
        checks.append(_verify_sweep("corollary", prefix_bound_sweep))
    if args.suite in ("oracle", "all"):
        checks.append(_verify_oracle(args.count, args.seed))
    ok = True
    for passed, detail in checks:
        print(detail)
        ok = ok and passed
    print("verify: PASS" if ok else "verify: FAIL")
    return 0 if ok else 1


def cmd_partition(args: argparse.Namespace) -> int:
    for name in ("r", "k", "max"):
        if getattr(args, name) is None:
            raise ValueError(f"partition needs --{name}")
    part = preferred_partition(args.r, args.k, args.max, args.horizon)
    payload = json.dumps(partition_to_json(part), indent=2) + "\n"
    rows = ["branch,lo,hi,label"]
    for branch in (0, 1):
        for iv in part.intervals(branch):
            rows.append(f"{branch},{iv.lo:.9g},{iv.hi:.9g},{iv.label}")
    csv_text = "\n".join(rows) + "\n"
    wrote = False
    if args.json_out is not None:
        _write_text(args.json_out, payload)
        wrote = True
    if args.csv_out is not None:
        _write_text(args.csv_out, csv_text)
        wrote = True
    if not wrote:
        sys.stdout.write(payload)
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
    return parser, {
        "eval": p_eval,
        "frontier": p_frontier,
        "verify": p_verify,
        "partition": p_part,
    }


_CONFIG_ALIASES = {"class": "hint_class", "json": "json_out", "csv": "csv_out"}
_INT_FLAGS = ("k", "horizon", "count", "seed")


def _apply_config(
    parser: argparse.ArgumentParser,
    subparser: argparse.ArgumentParser,
    args: argparse.Namespace,
    argv: Sequence[str],
) -> argparse.Namespace:
    with open(args.config, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError("config file must hold a JSON object")
    known = set(vars(args)) - {"func", "command", "config"}
    defaults = {}
    for key, value in config.items():
        dest = key.replace("-", "_")
        dest = _CONFIG_ALIASES.get(dest, dest)
        if dest not in known:
            raise ValueError(f"config has no matching flag for field '{key}'")
        if dest == "r" and args.command == "frontier":
            try:
                value = _parse_r_range(str(value))
            except argparse.ArgumentTypeError as exc:
                raise ValueError(f"config field 'r' (--r): {exc}") from None
        elif dest == "r":
            value = float(value)
        elif dest in _INT_FLAGS and not isinstance(value, str):
            # argparse parses a string default with the flag's type, and
            # passes any other value as it is
            integral = isinstance(value, int) or (
                isinstance(value, float) and value.is_integer()
            )
            if isinstance(value, bool) or not integral:
                raise ValueError(
                    f"config field '{key}' (--{dest}) must be an integer, "
                    f"got {value!r}"
                )
            value = int(value)
        defaults[dest] = value
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
