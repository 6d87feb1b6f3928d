"""Independent references for the benchmark's output checks.

Everything here is derived from the paper's closed forms and from a plain
walk over segment lengths.  Nothing imports cowpath, so a check never
compares the package against its own output.  Each ``check_*`` function
returns a list of problems; an empty list means the output is correct.  An
output too malformed to parse raises, and the caller counts that as a failed
check.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

# Relative tolerance of the closed-form checks.  Measured ratios sit about
# 1e-8 below the suprema, because probes land 1e-9 past each turn point.
TOL = 1e-6

FRONTIER_HEADER = "hint_class,k,r,c_upper,c_lower,b_star,delta_star"


def close(value: float, expected: float, tol: float = TOL) -> bool:
    return abs(value - expected) <= tol * max(1.0, abs(expected))


def robust_base(r: float) -> float:
    """Larger root b of b**2/(b-1) = (r-1)/2."""
    p = (r - 1.0) / 2.0
    return (p + math.sqrt(max(p * p - 4.0 * p, 0.0))) / 2.0


def position_consistency(r: float) -> float:
    b = robust_base(r)
    return (b + 1.0) / (b - 1.0)


def direction_pair(b: float, delta: float) -> tuple[float, float]:
    """(consistency, robustness) of the direction family in closed form."""
    denom = b * b - 1.0
    c = 1.0 + 2.0 * (b * b + delta * b**3) / denom
    r = 1.0 + 2.0 * (b * b + b**3 / delta) / denom
    return c, r


def direction_edge(r: float) -> float:
    """Optimal direction consistency for r >= 15, where the optimum lies on
    the edge delta = 1/b: c = 5 + 4/(u-1), u the larger root of
    2u**2 + (3-r)u + (r-1) = 0."""
    lin = 3.0 - r
    u = (-lin + math.sqrt(lin * lin - 8.0 * (r - 1.0))) / 4.0
    return 5.0 + 4.0 / (u - 1.0)


def kbit_base(r: float, k: int) -> float:
    p = (r - 1.0) / 2.0
    if p <= (1.0 + 2.0**k) ** 2 / 2.0**k:
        return robust_base(r)
    return 1.0 + 2.0**k


def kbit_upper(r: float, k: int) -> float:
    a = kbit_base(r, k)
    return 1.0 + 2.0 * a ** (1.0 + 1.0 / 2.0**k) / (a - 1.0)


def onebit_lower(r: float) -> float:
    if r <= 9.0:
        return 5.0
    b = robust_base(r)
    return 1.0 + 2.0 * b / (b - 1.0)


def geometric_ratio(b: float, count: int) -> float:
    """Competitive ratio of the prefix b**0 .. b**(count-1): the largest
    1 + 2*(x_0+..+x_i)/x_(i-1), with x_(-1) = 1."""
    best = walked = 0.0
    prev = 1.0
    for i in range(count):
        x = b**i
        walked += x
        best = max(best, 1.0 + 2.0 * walked / prev)
        prev = x
    return best


def kbit_member_cost(a: float, k: int, j: int, d: float, branch: int) -> float:
    """Cost for k-bit member j (lengths a**(i + j/2**k), branch i mod 2) to
    reach distance d on ``branch``."""
    walked = 0.0
    i = 0
    while True:
        x = a ** (i + j / 2.0**k)
        if i % 2 == branch and x >= d:
            return 2.0 * walked + d
        walked += x
        i += 1


def partition_max(r: float, k: int) -> float:
    """Partition range a**(20 + 2**-(k+1)): the cell count, and so the work,
    is the same at every r (at r = 9 this is about 1e6), and the end lies
    midway between two members' turn points, never within rounding of one."""
    return kbit_base(r, k) ** (20.0 + 2.0 ** -(k + 1))


class Pair(NamedTuple):
    consistency: float
    robustness: float


def check_tradeoff(point, consistency: float, robustness: float) -> list[str]:
    problems = []
    if not close(point.consistency, consistency):
        problems.append(f"consistency {point.consistency!r} != {consistency!r}")
    if not close(point.robustness, robustness):
        problems.append(f"robustness {point.robustness!r} != {robustness!r}")
    return problems


def check_position(point, r: float) -> list[str]:
    return check_tradeoff(point, position_consistency(r), r)


def check_direction(point, b: float, delta: float) -> list[str]:
    return check_tradeoff(point, *direction_pair(b, delta))


def check_kbit(point, r: float, k: int) -> list[str]:
    problems = []
    upper = kbit_upper(r, k)
    if point.consistency > upper * (1.0 + TOL):
        problems.append(f"consistency {point.consistency!r} > upper {upper!r}")
    if point.robustness > r * (1.0 + TOL):
        problems.append(f"robustness {point.robustness!r} > r={r!r}")
    return problems


def check_partition(
    cells: dict, r: float, k: int, max_distance: float, rng
) -> list[str]:
    """``cells`` maps branch -> list of (lo, hi, label).  Each cell is probed
    at one point drawn from ``rng`` (a random.Random); its label must name a
    cheapest member there."""
    a = kbit_base(r, k)
    members = range(2**k)
    problems = []
    for branch in (0, 1):
        intervals = cells[branch]
        if not intervals or intervals[0][0] != 1.0:
            problems.append(f"branch {branch}: partition does not start at 1")
        elif not close(intervals[-1][1], max_distance, 1e-12):
            problems.append(f"branch {branch}: partition ends at {intervals[-1][1]}")
        for (lo, hi, label), (next_lo, _, _) in zip(intervals, intervals[1:]):
            if hi != next_lo:
                problems.append(f"branch {branch}: gap between {hi} and {next_lo}")
        for lo, hi, label in intervals:
            d = lo + rng.uniform(0.05, 0.95) * (hi - lo)
            costs = [kbit_member_cost(a, k, j, d, branch) for j in members]
            if not 0 <= label < 2**k or costs[label] > min(costs) * (1.0 + 1e-12):
                problems.append(
                    f"branch {branch}: label {label} is not cheapest at d={d!r}"
                )
    return problems


def partition_cells(partition) -> dict:
    """Cells of a cowpath LinePartition as plain tuples."""
    return {
        branch: [(iv.lo, iv.hi, iv.label) for iv in partition.intervals(branch)]
        for branch in (0, 1)
    }


def check_oracle(gaps, count: int) -> list[str]:
    if len(gaps) != count:
        return [f"{len(gaps)} gaps for {count} strategies"]
    worst = max(gaps)
    return [] if worst <= TOL else [f"closed form and measured differ by {worst!r}"]


# ---- CLI outputs -----------------------------------------------------------


def _fields(stdout: str) -> dict:
    out = {}
    for token in stdout.split():
        key, sep, value = token.partition("=")
        if sep:
            out[key] = value
    return out


def check_cli_geometric(stdout: str, b: float, count: int = 64) -> list[str]:
    fields = _fields(stdout)
    expected = geometric_ratio(b, count)
    problems = []
    for key in ("cr", "cr_measured"):
        if key not in fields:
            problems.append(f"missing {key}=")
        elif abs(float(fields[key]) - expected) > 2e-6:
            problems.append(f"{key}={fields[key]} != {expected:.6f}")
    return problems


def _cli_tradeoff(stdout: str) -> Pair:
    fields = _fields(stdout)
    if fields.get("method") != "measured":
        raise ValueError(f"method={fields.get('method')}")
    return Pair(float(fields["consistency"]), float(fields["robustness"]))


def check_cli_kbit(stdout: str, r: float, k: int) -> list[str]:
    return check_kbit(_cli_tradeoff(stdout), r, k)


def check_cli_direction(stdout: str, b: float, delta: float) -> list[str]:
    point = _cli_tradeoff(stdout)
    c, r = direction_pair(b, delta)
    problems = []
    # Six printed decimals.
    if abs(point.consistency - c) > 2e-6:
        problems.append(f"consistency {point.consistency} != {c:.6f}")
    if abs(point.robustness - r) > 2e-6:
        problems.append(f"robustness {point.robustness} != {r:.6f}")
    return problems


def r_range(start: float, stop: float, step: float) -> list[float]:
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [start + i * step for i in range(count)]


def check_frontier(stdout: str, classes: list, rs: list, k: int) -> tuple:
    """Check a frontier CSV.  Returns (problems, failing direction rows):
    every row of every class must match its closed form, and direction rows
    with r >= 15 must be within TOL of the edge optimum."""
    lines = stdout.splitlines()
    if not lines or lines[0] != FRONTIER_HEADER:
        return [f"bad header {lines[:1]!r}"], []
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != len(classes) * len(rs):
        return [f"{len(rows)} rows, expected {len(classes) * len(rs)}"], []
    problems, direction_bad = [], []
    for n, row in enumerate(rows):
        cls, kk, r = row[0], row[1], float(row[2])
        c_upper, c_lower = float(row[3]), float(row[4])
        want_cls = classes[n // len(rs)]
        want_r = rs[n % len(rs)]
        if cls != want_cls or not close(r, want_r, 1e-8):
            problems.append(f"row {n}: {cls} r={r}, expected {want_cls} r={want_r}")
            continue
        if cls == "direction":
            if c_lower > c_upper * (1.0 + 1e-8):
                problems.append(f"direction r={r}: c_lower > c_upper")
            if r >= 15.0 and not close(c_upper, direction_edge(r)):
                direction_bad.append((r, c_upper, direction_edge(r)))
            continue
        if cls == "position":
            want = (position_consistency(r), position_consistency(r), "")
        elif cls == "onebit":
            want = (kbit_upper(r, 1), onebit_lower(r), "1")
        else:
            want = (kbit_upper(r, k), 3.0, str(k))
        if kk != want[2] or not (
            close(c_upper, want[0], 1e-8) and close(c_lower, want[1], 1e-8)
        ):
            problems.append(f"{cls} r={r}: {row[1:5]} != {want}")
    return problems, direction_bad


def check_cli_partition(
    stdout: str, r: float, k: int, max_distance: float, rng
) -> list[str]:
    payload = json.loads(stdout)
    cells = {
        branch: [(iv["lo"], iv["hi"], iv["label"]) for iv in payload[f"branch{branch}"]]
        for branch in (0, 1)
    }
    return check_partition(cells, r, k, max_distance, rng)


def check_cli_verify(stdout: str) -> list[str]:
    lines = stdout.strip().splitlines()
    if not lines or lines[-1] != "verify: PASS":
        return [f"verify did not pass: {lines[-1:]!r}"]
    return []
