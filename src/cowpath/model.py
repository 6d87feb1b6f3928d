"""Core data model: search strategies on two rays, targets, hints, search cost.

The searcher starts at the origin of two half-lines (branches 0 and 1).
Iteration i walks out to distance ``lengths[i]`` on ``branches[i]`` and back.
A target hides at distance d >= 1 on one branch; the cost of finding it is
the total distance walked up to the moment the target is first reached.

All types are immutable and all operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from .bounds import _MAX_K, _admit, _integer, _real

__all__ = [
    "Strategy",
    "Target",
    "PositionHint",
    "DirectionHint",
    "BitStringHint",
    "Hint",
    "strategy_from_lengths",
    "make_geometric",
    "scale_strategy",
    "search_cost",
    "Members",
    "search_costs",
    "cheapest_search_costs",
    "strategy_to_json",
    "strategy_from_json",
]

# Relative slack for float comparisons inside structural invariants.
_REL_TOL = 1e-9


def _check_branch(branch: int) -> int:
    if isinstance(branch, (bool, np.bool_)) or branch not in (0, 1):
        raise ValueError(f"branch must be 0 or 1, got {branch!r}")
    return int(branch)


def _check_rows(lengths: np.ndarray, branches: np.ndarray) -> None:
    """The strategy rule, each check run once over all rows: lengths finite
    and > 0, branches 0 or 1, lengths two apart not shrinking, and the walk
    2 * (sum of lengths) finite, as _admit bounds it for built records."""
    bad = ~(np.isfinite(lengths) & (lengths > 0.0))
    if bad.any():
        got = float(lengths.ravel()[np.argmax(bad)])
        raise ValueError(f"segment length must be positive and finite, got {got!r}")
    bad = (branches != 0) & (branches != 1)
    if branches.dtype == bool or bad.any():
        got = branches.ravel()[np.argmax(bad)].item()
        raise ValueError(f"branch must be 0 or 1, got {got!r}")
    shrunk = lengths[:, 2:] < lengths[:, :-2] * (1.0 - _REL_TOL)
    if shrunk.any():
        row, i = np.unravel_index(np.argmax(shrunk), shrunk.shape)
        raise ValueError(
            f"lengths[{i + 2}]={float(lengths[row, i + 2])} < lengths[{i}]="
            f"{float(lengths[row, i])}: every other segment must not shrink"
        )
    with np.errstate(over="ignore"):  # the running sums every kernel builds
        walk = 2.0 * np.cumsum(lengths, axis=1)[:, -1:]
    if not np.isfinite(walk).all():
        raise ValueError("the walk 2 * (sum of lengths) overflows the float range")


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
        _check_rows(lengths[None], branches[None])
        if not isinstance(given, np.ndarray):
            # numpy reads a list mixing ints and bools as ints
            for branch in given:
                if isinstance(branch, (bool, np.bool_)):
                    raise ValueError(f"branch must be 0 or 1, got {bool(branch)!r}")
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


def strategy_from_lengths(
    lengths: Sequence[float], first_branch: int = 0
) -> Strategy:
    """Alternating-branch strategy with the given excursion lengths."""
    first = _check_branch(first_branch)
    lengths = np.asarray(lengths, dtype=float)
    branches = (first + np.arange(lengths.size)) % 2
    return Strategy(lengths, branches)


def _alternating_rows(lengths: np.ndarray, first_branches) -> Callable[[int], Strategy]:
    """Alternating-branch strategies, one per row of ``lengths`` (taken over,
    not copied, unless it is a view), row i starting on first_branches[i],
    checked in one pass.  Returns row(i): strategy i, its arrays read-only
    views of the record, tagged with i so that Members.stack can adopt the
    record."""
    if lengths.base is not None:  # the rows' base must be the record itself
        lengths = lengths.copy()
    patterns = np.arange(2)[:, None] + np.arange(lengths.shape[1])
    patterns %= 2  # pattern b starts on branch b
    _check_rows(lengths, patterns)
    lengths.flags.writeable = False
    patterns.flags.writeable = False

    def row(i: int) -> Strategy:
        strategy = object.__new__(Strategy)  # checked above: no copy, no check
        object.__setattr__(strategy, "lengths", lengths[i])
        object.__setattr__(strategy, "branches", patterns[first_branches[i]])
        object.__setattr__(strategy, "_row", i)
        return strategy

    return row


def make_geometric(
    base: float,
    count: int,
    first_branch: int = 0,
    scale: float = 1.0,
) -> Strategy:
    """Geometric strategy: lengths scale * base**i, branches alternating."""
    base = _real(base, "base", 1.0, open_lo=True)
    scale = _real(scale, "scale", 0.0, open_lo=True)
    params = f"base={base!r}, scale={scale!r}"
    count = _admit(1, count, scale, base, params, "count", "count")
    lengths = scale * np.power(base, np.arange(count, dtype=float))
    return strategy_from_lengths(lengths, first_branch)


def scale_strategy(strategy: Strategy, factor: float) -> Strategy:
    """Multiply every segment length by ``factor`` (branches unchanged)."""
    factor = _real(factor, "factor", 0.0, open_lo=True)
    return Strategy(strategy.lengths * factor, strategy.branches)


@dataclass(frozen=True)
class Target:
    """A hiding position: distance >= 1 on one branch."""

    distance: float
    branch: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "distance", _real(self.distance, "distance", 1.0))
        object.__setattr__(self, "branch", _check_branch(self.branch))


@dataclass(frozen=True)
class PositionHint:
    """Claims the target sits exactly at (distance, branch)."""

    distance: float
    branch: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "distance", _real(self.distance, "distance", 1.0))
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
        k = _integer(self.k, "k", 1, _MAX_K)
        index = _integer(self.index, "index", 0, 2**k - 1)
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


@dataclass(frozen=True, eq=False)
class Members:
    """The one padded layout every batched evaluator reads: strategies as the
    rows of three read-only arrays, right-padded to the longest, ``lengths``
    (NaN past a row's end), ``branches`` (-1 past it) and ``sums``, where
    sums[i, j] is the sum of row i's first j lengths (one column more)."""

    lengths: np.ndarray
    branches: np.ndarray
    sums: np.ndarray

    @classmethod
    def stack(cls, strategies: Union[Strategy, Iterable[Strategy], Members]) -> Members:
        """The record of one strategy or several, in order; a record passes
        through.  All the rows of one _alternating_rows record, in order,
        are of one length: that record is adopted as ``lengths``, not copied."""
        if isinstance(strategies, Members):
            return strategies
        rows = [strategies] if isinstance(strategies, Strategy) else list(strategies)
        record = rows[0].lengths.base if rows else None
        if record is not None and len(record) == len(rows) and all(
            s.lengths.base is record and getattr(s, "_row", None) == i
            for i, s in enumerate(rows)
        ):
            lengths = record
            branches = np.array([s.branches for s in rows], dtype=np.int8)
        else:
            sizes = np.array([len(s) for s in rows], dtype=np.int64)
            inside = np.arange(sizes.max(initial=0)) < sizes[:, None]
            lengths = np.full(inside.shape, np.nan)
            branches = np.full(inside.shape, -1, dtype=np.int8)
            if rows:
                lengths[inside] = np.concatenate([s.lengths for s in rows])
                branches[inside] = np.concatenate([s.branches for s in rows])
        sums = np.zeros((len(rows), lengths.shape[1] + 1))
        np.cumsum(lengths, axis=1, out=sums[:, 1:])
        for a in (lengths, branches, sums):
            a.flags.writeable = False
        return cls(lengths, branches, sums)

    def __len__(self) -> int:
        return len(self.lengths)

    def row(self, i: int) -> Members:
        """Member i alone, as a one-row record of views."""
        return Members(*(a[i : i + 1] for a in vars(self).values()))


def _shortest_reach(members: Members) -> float:
    """The smallest farthest turn point over the members and both branches
    (0.0 where a member never searches a branch)."""
    lengths, branches = members.lengths, members.branches
    return min(
        float(np.min(np.max(np.where(branches == b, lengths, 0.0), axis=1)))
        for b in (0, 1)
    )


def _distinct(values: np.ndarray) -> np.ndarray:
    """np.unique without the numpy.ma import it brings: the values, flattened
    and sorted, each kept once; every NaN is kept (NaNs sort last)."""
    values = np.sort(values, axis=None)
    keep = np.empty(values.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


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
    strategies: Union[Strategy, Sequence[Strategy], Members],
    distances: np.ndarray,
    branch: int,
) -> np.ndarray:
    """Vectorized search_cost for many distances on one branch.

    Given one strategy (or one row), ``distances`` may have any shape and
    every distance is scored on that strategy.  Given m strategies (or m
    rows) it must have shape (m, n): row i is scored on strategy i.
    Returns costs of the distances' shape, NaN where the prefix never
    covers the target.  Distances must all be >= 1.

    Row i of the kernel is strategy i's segments, with reach 0 off the
    branch, so the first segment whose running-maximum reach is >= d is the
    first that reaches d, even where the branch's lengths dip.  Memory is
    O(m * (longest strategy + n)).
    """
    branch = _check_branch(branch)
    d = _check_distances(distances)
    members = Members.stack(strategies)
    rows = d.reshape(1, -1) if len(members) == 1 else d
    if rows.ndim != 2 or rows.shape[0] != len(members):
        raise ValueError(
            f"distances must have one row per strategy, got shape {d.shape} "
            f"for {len(members)} strategies"
        )
    # The sentinel column has prefix sum NaN: a target the row never finds
    # costs NaN.
    reach = np.full(members.sums.shape, np.inf)
    reach[:, :-1] = np.where(members.branches == branch, members.lengths, 0.0)
    before = members.sums.copy()
    before[:, -1] = np.nan
    return _first_reaching(reach, before, rows)[0].reshape(d.shape)


def cheapest_search_costs(
    strategies: Union[Iterable[Strategy], Members], distances: np.ndarray, branch: int
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
    members = Members.stack(strategies)
    on = members.branches == branch
    # The sentinel segment has infinite reach and prefix sum, and index -1:
    # a target no strategy finds costs inf.
    reach = np.append(members.lengths[on], np.inf)
    before = np.append(members.sums[:, :-1][on], np.inf)
    member = np.append(np.nonzero(on)[0], -1)
    order = np.lexsort((member, before))
    reach, before, member = reach[order], before[order], member[order]
    costs, pos = _first_reaching(reach[None], before[None], d.reshape(1, -1))
    return costs.reshape(d.shape), member[pos].reshape(d.shape)


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
            lengths.append(_real(entry["length"], "segment length", 0.0, open_lo=True))
            branches.append(_check_branch(entry["branch"]))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"segments[{i}]: {exc}") from exc
    return Strategy(lengths, branches)
