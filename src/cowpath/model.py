"""Core data model: search strategies on two rays, targets, hints, search cost.

The searcher starts at the origin of two half-lines (branches 0 and 1).
Iteration i walks out to distance ``lengths[i]`` on ``branches[i]`` and back.
A target hides at distance d >= 1 on one branch; the cost of finding it is
the total distance walked up to the moment the target is first reached.

All types are immutable and all operations are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence, Union

import numpy as np

__all__ = [
    "DEFAULT_HORIZON",
    "HorizonTooShort",
    "Strategy",
    "Target",
    "PositionHint",
    "DirectionHint",
    "BitStringHint",
    "Hint",
    "complement",
    "strategy_from_lengths",
    "make_geometric",
    "scale_strategy",
    "search_cost",
    "search_costs",
    "cheapest_search_costs",
    "rho",
    "base_for_robustness",
    "robust_base_interval",
    "strategy_to_json",
    "strategy_from_json",
]

DEFAULT_HORIZON = 64

# Relative slack for float comparisons inside structural invariants.
_REL_TOL = 1e-9


class HorizonTooShort(Exception):
    """A required target lies beyond every candidate's finite segment prefix."""


def complement(branch: int) -> int:
    """The other branch: complement(0) == 1, complement(1) == 0."""
    return 1 - _check_branch(branch)


def _check_branch(branch: int) -> int:
    if branch is True or branch is False or branch not in (0, 1):
        raise ValueError(f"branch must be 0 or 1, got {branch!r}")
    return int(branch)


def _check_distance(distance: float) -> float:
    d = float(distance)
    if not math.isfinite(d) or d < 1.0:
        raise ValueError(f"distance must be finite and >= 1, got {distance!r}")
    return d


def _check_length(length: float) -> float:
    value = float(length)
    if not math.isfinite(value) or value <= 0.0:
        raise ValueError(
            f"segment length must be positive and finite, got {length!r}"
        )
    return value


class Strategy:
    """A finite prefix of search iterations, held as two read-only arrays:
    ``lengths`` (float64, finite and > 0) and ``branches`` (int64, 0 or 1),
    validated copies of the constructor's arguments.

    Lengths two steps apart may never shrink (lengths[i+2] >= lengths[i]);
    for alternating strategies this keeps each branch's turn points monotone.
    Branch alternation itself is not required here, only by the constructors.
    """

    def __init__(self, lengths: Sequence[float], branches: Sequence[int]) -> None:
        lengths = np.array(lengths, dtype=float)
        given, branches = branches, np.array(branches)
        if lengths.ndim != 1 or lengths.shape != branches.shape:
            raise ValueError("lengths and branches must be 1-D and of one size")
        if lengths.size == 0:
            raise ValueError("strategy needs at least one segment")
        bad = ~(np.isfinite(lengths) & (lengths > 0.0))
        if bad.any():
            got = float(lengths[np.argmax(bad)])
            raise ValueError(
                f"segment length must be positive and finite, got {got!r}"
            )
        bad = (branches != 0) & (branches != 1)
        if branches.dtype == bool or bad.any():
            got = branches[np.argmax(bad)].item()
            raise ValueError(f"branch must be 0 or 1, got {got!r}")
        if not isinstance(given, np.ndarray):
            # numpy reads a list mixing ints and bools as ints
            for branch in given:
                if isinstance(branch, (bool, np.bool_)):
                    raise ValueError(f"branch must be 0 or 1, got {bool(branch)!r}")
        shrunk = lengths[2:] < lengths[:-2] * (1.0 - _REL_TOL)
        if shrunk.any():
            i = int(np.argmax(shrunk))
            raise ValueError(
                f"lengths[{i + 2}]={float(lengths[i + 2])} < lengths[{i}]="
                f"{float(lengths[i])}: every other segment must not shrink"
            )
        branches = branches.astype(np.int64)
        lengths.flags.writeable = False
        branches.flags.writeable = False
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "branches", branches)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Strategy is immutable; cannot set {name!r}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Strategy):
            return NotImplemented
        return np.array_equal(self.lengths, other.lengths) and np.array_equal(
            self.branches, other.branches
        )

    def __hash__(self) -> int:
        return hash((self.lengths.tobytes(), self.branches.tobytes()))

    def __repr__(self) -> str:
        return (
            f"Strategy(lengths={self.lengths.tolist()}, "
            f"branches={self.branches.tolist()})"
        )

    def __len__(self) -> int:
        return self.lengths.size

    @cached_property
    def prefix_sums(self) -> np.ndarray:
        """prefix_sums[i] = sum of lengths[0:i]; length N+1."""
        out = np.zeros(len(self) + 1)
        np.cumsum(self.lengths, out=out[1:])
        return out

    def turn_points(self, branch: int) -> np.ndarray:
        """Distances of this strategy's turn points on ``branch``, in order."""
        return self.lengths[self.branches == _check_branch(branch)]

    def last_turn_point(self, branch: int) -> float:
        """Last turn point on ``branch``, short of the farthest where its
        lengths dip (0.0 when the branch is never searched)."""
        points = self.turn_points(branch)
        return float(points[-1]) if points.size else 0.0


def strategy_from_lengths(
    lengths: Sequence[float], first_branch: int = 0
) -> Strategy:
    """Alternating-branch strategy with the given excursion lengths."""
    first = _check_branch(first_branch)
    lengths = np.asarray(lengths, dtype=float)
    branches = (first + np.arange(lengths.size)) % 2
    return Strategy(lengths, branches)


def _pow(base: float, exponent: float) -> float:
    """base**exponent, or inf where it leaves the float range."""
    try:
        return base**exponent
    except OverflowError:
        return math.inf


def make_geometric(
    base: float,
    count: int,
    first_branch: int = 0,
    scale: float = 1.0,
) -> Strategy:
    """Geometric strategy: lengths scale * base**i, branches alternating."""
    base = float(base)
    scale = float(scale)
    if not math.isfinite(base) or base <= 1.0:
        raise ValueError(f"base must be > 1, got {base!r}")
    if not math.isfinite(scale) or scale <= 0.0:
        raise ValueError(f"scale must be > 0, got {scale!r}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count!r}")
    if not math.isfinite(scale * _pow(base, count - 1)):
        raise ValueError(
            f"the longest length {scale!r} * {base!r}**{count - 1} overflows "
            "the float range"
        )
    lengths = scale * np.power(base, np.arange(int(count), dtype=float))
    return strategy_from_lengths(lengths, first_branch)


def scale_strategy(strategy: Strategy, factor: float) -> Strategy:
    """Multiply every segment length by ``factor`` (branches unchanged)."""
    factor = float(factor)
    if not math.isfinite(factor) or factor <= 0.0:
        raise ValueError(f"factor must be > 0, got {factor!r}")
    return Strategy(strategy.lengths * factor, strategy.branches)


@dataclass(frozen=True)
class Target:
    """A hiding position: distance >= 1 on one branch."""

    distance: float
    branch: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "distance", _check_distance(self.distance))
        object.__setattr__(self, "branch", _check_branch(self.branch))


@dataclass(frozen=True)
class PositionHint:
    """Claims the target sits exactly at (distance, branch)."""

    distance: float
    branch: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "distance", _check_distance(self.distance))
        object.__setattr__(self, "branch", _check_branch(self.branch))


@dataclass(frozen=True)
class DirectionHint:
    """Claims the target lies on ``branch``."""

    branch: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "branch", _check_branch(self.branch))


@dataclass(frozen=True)
class BitStringHint:
    """A k-bit answer: the index of the recommended member among 2**k."""

    index: int
    k: int

    def __post_init__(self) -> None:
        k = int(self.k)
        index = int(self.index)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {self.k!r}")
        if not 0 <= index < 2**k:
            raise ValueError(f"index must be in [0, 2**{k}), got {self.index!r}")
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "k", k)


Hint = Union[PositionHint, DirectionHint, BitStringHint]


def search_cost(strategy: Strategy, target: Target) -> Optional[float]:
    """Distance walked until the target is first reached, or None if the
    finite prefix never covers it.

    The walk visits turn points in segment order, returning to the origin
    after each excursion, so the cost is 2 * (sum of earlier lengths) + d.
    """
    d = target.distance
    walked = 0.0
    for length, branch in zip(strategy.lengths.tolist(), strategy.branches.tolist()):
        if branch == target.branch and length >= d:
            return 2.0 * walked + d
        walked += length
    return None


def _stack(strategies: Sequence[Strategy]) -> tuple[np.ndarray, ...]:
    """The strategies as the rows of three arrays, right-padded to the
    longest strategy: ``lengths`` (NaN past a row's end), ``branches`` (-1
    past a row's end) and ``sums``, where sums[i, j] is the sum of row i's
    first j lengths (one column more than the others)."""
    sizes = np.array([len(s) for s in strategies])
    inside = np.arange(sizes.max()) < sizes[:, None]
    lengths = np.full(inside.shape, np.nan)
    branches = np.full(inside.shape, -1, dtype=np.int8)
    lengths[inside] = np.concatenate([s.lengths for s in strategies])
    branches[inside] = np.concatenate([s.branches for s in strategies])
    sums = np.zeros((sizes.size, inside.shape[1] + 1))
    np.cumsum(lengths, axis=1, out=sums[:, 1:])
    return lengths, branches, sums


def _shortest_reach(strategies: Sequence[Strategy]) -> float:
    """The smallest farthest turn point over the strategies and both
    branches (0.0 where a strategy never searches a branch)."""
    lengths, branches, _ = _stack(strategies)
    return min(
        float(np.min(np.max(np.where(branches == b, lengths, 0.0), axis=1)))
        for b in (0, 1)
    )


def _check_distances(distances) -> np.ndarray:
    d = np.asarray(distances, dtype=float)
    if d.size and not float(np.min(d)) >= 1.0:  # also rejects NaN
        raise ValueError("target distances must be >= 1")
    return d


def _row_keys(rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Complex keys row + 1j * value: numpy orders complex numbers by real
    part, then imaginary part, so the keys sort by (row, value), exactly."""
    keys = np.empty(np.broadcast_shapes(rows.shape, values.shape), dtype=complex)
    keys.real = rows
    keys.imag = values
    return keys.ravel()


def _first_reaching(
    reach: np.ndarray, before: np.ndarray, d: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The one cost kernel, over rows of segments in prefix-sum order that
    each end in a sentinel of infinite reach.  Per row i and target d[i, j]:
    the first column s where the running maximum of reach[i] is >= d[i, j],
    and the cost d[i, j] + 2 * before[i, s].  Returns (costs, columns) of
    d's shape; one searchsorted over (row, running maximum) keys serves
    every row.  ``reach`` is overwritten."""
    np.maximum.accumulate(reach, axis=1, out=reach)
    rows = np.arange(d.shape[0])[:, None]
    pos = np.searchsorted(_row_keys(rows, reach), _row_keys(rows, d), side="left")
    pos = pos.reshape(d.shape)
    pos -= rows * reach.shape[1]
    costs = before[rows, pos]
    costs *= 2.0
    costs += d
    return costs, pos


def search_costs(
    strategies: Union[Strategy, Sequence[Strategy]],
    distances: np.ndarray,
    branch: int,
) -> np.ndarray:
    """Vectorized search_cost for many distances on one branch.

    Given one strategy, ``distances`` may have any shape and every distance
    is scored on that strategy.  Given a sequence of m strategies, it must
    have shape (m, n): row i is scored on strategy i.  Returns costs of the
    distances' shape, NaN where the prefix never covers the target.
    Distances must all be >= 1.

    Row i of the kernel is strategy i's segments, with reach 0 off the
    branch, so the first segment whose running-maximum reach is >= d is the
    first that reaches d, even where the branch's lengths dip.  Memory is
    O(m * (longest strategy + n)).
    """
    branch = _check_branch(branch)
    d = _check_distances(distances)
    if isinstance(strategies, Strategy):
        return search_costs([strategies], d.reshape(1, -1), branch).reshape(d.shape)
    if d.ndim != 2 or d.shape[0] != len(strategies):
        raise ValueError(
            f"distances must have one row per strategy, got shape {d.shape} "
            f"for {len(strategies)} strategies"
        )
    lengths, branches, before = _stack(strategies)
    # The sentinel column has prefix sum NaN: a target the row never finds
    # costs NaN.
    reach = np.full(before.shape, np.inf)
    reach[:, :-1] = np.where(branches == branch, lengths, 0.0)
    before[:, -1] = np.nan
    return _first_reaching(reach, before, d)[0]


def cheapest_search_costs(
    strategies: Iterable[Strategy], distances: np.ndarray, branch: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per distance on ``branch``: the lowest search cost among ``strategies``
    and the index of the strategy that attains it.  Where no strategy finds
    the target the cost is inf and the index -1.

    The cheapest cost at d is d + 2 * min{sum of the lengths before segment
    s : lengths[s] >= d}.  Ordered by (prefix sum, strategy index), every
    strategy's segments on the branch form one kernel row: its first segment
    whose running-maximum reach is >= d is itself a segment of length >= d,
    of least prefix sum, ties going to the smallest index.  Memory is
    O(segments + len(distances)).
    """
    branch = _check_branch(branch)
    d = _check_distances(distances)
    strategies = list(strategies)
    if not strategies:
        return np.full(d.shape, np.inf), np.full(d.shape, -1, dtype=np.int64)
    lengths, branches, sums = _stack(strategies)
    on = branches == branch
    # The sentinel segment has infinite reach and prefix sum, and index -1:
    # a target no strategy finds costs inf.
    reach = np.append(lengths[on], np.inf)
    before = np.append(sums[:, :-1][on], np.inf)
    member = np.append(np.nonzero(on)[0], -1)
    order = np.lexsort((member, before))
    reach, before, member = reach[order], before[order], member[order]
    costs, pos = _first_reaching(reach[None], before[None], d.reshape(1, -1))
    return costs.reshape(d.shape), member[pos].reshape(d.shape)


def rho(r: float) -> float:
    """Half the allowed overhead, (r - 1) / 2; defined for r >= 9."""
    r = float(r)
    if not math.isfinite(r):
        raise ValueError(f"r must be finite, got {r!r}")
    if r < 9.0:
        raise ValueError(f"r must be >= 9 (no base is r-robust below), got {r!r}")
    return (r - 1.0) / 2.0


def base_for_robustness(r: float) -> float:
    """Largest geometric base whose ratio 1 + 2*b^2/(b-1) still meets r.

    The identity b^2/(b-1) == rho(r) holds for the returned base.
    """
    return robust_base_interval(r)[1]


def robust_base_interval(r: float) -> tuple[float, float]:
    """Both roots of b^2/(b-1) = rho(r): the r-robust base interval."""
    p = rho(r)
    # sqrt(p*p - 4p) in two factors: p*p overflows past p ~ 1.3e154
    s = math.sqrt(p) * math.sqrt(p - 4.0)
    return ((p - s) / 2.0, (p + s) / 2.0)


def strategy_to_json(strategy: Strategy) -> dict:
    """JSON object form: {"segments": [{"length": .., "branch": 0|1}, ..]}."""
    pairs = zip(strategy.lengths.tolist(), strategy.branches.tolist())
    return {"segments": [{"length": x, "branch": b} for x, b in pairs]}


def strategy_from_json(obj: object) -> Strategy:
    """Parse the strategy JSON object form; errors name the offending field."""
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
            lengths.append(_check_length(entry["length"]))
            branches.append(_check_branch(entry["branch"]))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"segments[{i}]: {exc}") from exc
    return Strategy(lengths, branches)
