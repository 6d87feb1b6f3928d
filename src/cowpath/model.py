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

from ._rules import _MAX_K, _MAX_REAL, _admit, _integer, _real

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
]

# Relative slack for float comparisons inside structural invariants.
_REL_TOL = 1e-9


def _each(values, read: Callable, dtype) -> np.ndarray:
    """``values`` read one by one, in order, by the scalar rule ``read``."""
    cells = np.asarray(values, dtype=object)  # an ndarray's items as Python values
    return np.array([read(v) for v in cells.flat], dtype=dtype).reshape(cells.shape)


def _reals(values, name: str, lo: float, open_lo: bool = False) -> np.ndarray:
    """The array twin of _rules._real: ``values``, any shape, as float64.  An
    int or float ndarray is checked by its min and max alone (NaN fails);
    any other input, or one that fails, is read one by one by _real."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iuf" and values.size:
        low = float(values.min())  # as float64: _MAX_REAL overflows a float32
        if (lo < low if open_lo else lo <= low) and float(values.max()) <= _MAX_REAL:
            return values.astype(float, copy=False)
    return _each(values, lambda v: _real(v, name, lo, open_lo=open_lo), float)


def _branches(values) -> np.ndarray:
    """The array twin of _integer(v, "branch", 0, 1), as int64: an integer
    ndarray is checked by its min and max alone, any other input one by one."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu" and values.size:
        if values.min() >= 0 and values.max() <= 1:
            return values.astype(np.int64, copy=False)
    return _each(values, lambda v: _integer(v, "branch", 0, 1), np.int64)


def _rows(lengths: np.ndarray, branches: np.ndarray) -> Members:
    """The one record constructor: rows of lengths _reals has read and branches
    0 or 1, right-padded (NaN, -1) to one size.  The strategy rule is checked
    once over all rows: lengths two apart do not shrink, and the walk 2 * (sum
    of lengths) is finite (a NaN total marks a padded row, already a checked
    Strategy).  Builds the sums, copies any view and freezes all three arrays."""
    shrunk = lengths[:, 2:] < lengths[:, :-2] * (1.0 - _REL_TOL)
    if shrunk.any():
        row, i = np.unravel_index(np.argmax(shrunk), shrunk.shape)
        raise ValueError(
            f"lengths[{i + 2}]={float(lengths[row, i + 2])} < lengths[{i}]="
            f"{float(lengths[row, i])}: every other segment must not shrink"
        )
    sums = np.zeros((len(lengths), lengths.shape[1] + 1))
    with np.errstate(over="ignore"):  # the sums every kernel reads
        np.cumsum(lengths, axis=1, out=sums[:, 1:])
        if np.isinf(2.0 * sums[:, -1]).any():
            raise ValueError("the walk 2 * (sum of lengths) overflows the float range")
    lengths = lengths if lengths.base is None else lengths.copy()
    branches = branches.astype(np.int8, copy=branches.base is not None)
    record = object.__new__(Members)
    for name, a in zip(("lengths", "branches", "sums"), (lengths, branches, sums)):
        a.flags.writeable = False
        object.__setattr__(record, name, a)
    return record


class Strategy:
    """A finite prefix of search iterations: row i of the checked record it
    is built with, held as two read-only views of that row, ``lengths``
    (float64, finite and > 0) and ``branches`` (int8, 0 or 1), read from the
    constructor's arguments by _reals and _branches.

    Lengths two steps apart may never shrink (lengths[i+2] >= lengths[i]);
    for alternating strategies this keeps each branch's turn points monotone.
    Branch alternation itself is not required here, only by the constructors.
    """

    def __init__(self, lengths: Sequence[float], branches: Sequence[int]) -> None:
        lengths = _reals(lengths, "segment length", 0.0, open_lo=True)
        branches = _branches(branches)
        if lengths.ndim != 1 or lengths.shape != branches.shape:
            raise ValueError("lengths and branches must be 1-D and of one size")
        if lengths.size == 0:
            raise ValueError("strategy needs at least one segment")
        _bind(self, _rows(lengths[None], branches[None]), 0)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Strategy is immutable; cannot set {name!r}")

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through the checked constructor
        return (Strategy, (self.lengths, self.branches))

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


def _bind(strategy: Strategy, record: Members, i: int) -> Strategy:
    """Make ``strategy`` row i of a record _rows built: its arrays become
    views of that row, and (record, i) is kept for Members.stack."""
    row = (record.lengths[i], record.branches[i], record, i)
    for name, value in zip(("lengths", "branches", "_record", "_index"), row):
        object.__setattr__(strategy, name, value)  # inline: no __dict__ is built
    return strategy


def strategy_from_lengths(
    lengths: Sequence[float], first_branch: int = 0
) -> Strategy:
    """Alternating-branch strategy with the given excursion lengths."""
    first = _integer(first_branch, "branch", 0, 1)
    return Strategy(lengths, (first + np.arange(np.size(lengths))) % 2)


def _alternating_rows(lengths: np.ndarray, first_branches) -> Callable[[int], Strategy]:
    """Alternating-branch strategies, one per row of ``lengths``, row i
    starting on first_branches[i]: the rows of one record _rows checks.
    Returns row(i), strategy i."""
    lengths = _reals(lengths, "segment length", 0.0, open_lo=True)
    pattern = (np.arange(lengths.shape[1]) % 2).astype(np.int8)  # starts on 0
    record = _rows(lengths, np.asarray(first_branches, np.int8)[:, None] ^ pattern)
    return lambda i: _bind(object.__new__(Strategy), record, i)


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
    count = _admit(1, count, scale, base, params, "count")
    lengths = scale * np.power(base, np.arange(count, dtype=float))
    return strategy_from_lengths(lengths, first_branch)


def scale_strategy(strategy: Strategy, factor: float) -> Strategy:
    """Multiply every segment length by ``factor`` (branches unchanged)."""
    factor = _real(factor, "factor", 0.0, open_lo=True)
    with np.errstate(over="ignore"):  # an inf length is refused by its rule
        lengths = strategy.lengths * factor
    return Strategy(lengths, strategy.branches)


@dataclass(frozen=True)
class Target:
    """A hiding position: distance >= 1 on one branch."""

    distance: float
    branch: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "distance", _real(self.distance, "distance", 1.0))
        object.__setattr__(self, "branch", _integer(self.branch, "branch", 0, 1))


@dataclass(frozen=True)
class PositionHint(Target):
    """Claims the target sits exactly at (distance, branch)."""


@dataclass(frozen=True)
class DirectionHint:
    """Claims the target lies on ``branch``."""

    branch: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "branch", _integer(self.branch, "branch", 0, 1))


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


@dataclass(frozen=True, eq=False, init=False)
class Members:
    """The one strategy layout: a Strategy is a row of one, and every batched
    evaluator reads one.  Three read-only arrays, rows right-padded to the
    longest: ``lengths`` (NaN past a row's end), ``branches`` (int8, -1 past
    it) and ``sums``, where sums[i, j] is the sum of row i's first j lengths
    (one column more).  Every kernel trusts a record: _rows alone builds one."""

    lengths: np.ndarray
    branches: np.ndarray
    sums: np.ndarray

    @classmethod
    def stack(cls, strategies: Union[Strategy, Iterable[Strategy], Members]) -> Members:
        """The record of one strategy or several, in order; a record passes
        through.  All the rows of one record, in order (a single strategy
        counts), give that record itself; any other list is padded."""
        if isinstance(strategies, Members):
            return strategies
        rows = [strategies] if isinstance(strategies, Strategy) else list(strategies)
        if rows and len(rows[0]._record) == len(rows) and all(
            s._record is rows[0]._record and s._index == i for i, s in enumerate(rows)
        ):
            return rows[0]._record
        sizes = np.array([len(s) for s in rows], dtype=np.int64)
        inside = np.arange(sizes.max(initial=0)) < sizes[:, None]
        lengths = np.full(inside.shape, np.nan)
        branches = np.full(inside.shape, -1, dtype=np.int8)
        if rows:
            lengths[inside] = np.concatenate([s.lengths for s in rows])
            branches[inside] = np.concatenate([s.branches for s in rows])
        return _rows(lengths, branches)

    def __len__(self) -> int:
        return len(self.lengths)

    def row(self, i: int) -> Members:
        """Member i alone, as a one-row record: _rows copies and checks it."""
        return _rows(self.lengths[i : i + 1], self.branches[i : i + 1])

    def __reduce__(self):
        """copy, deepcopy and pickle rebuild every row as a Strategy and stack
        them, so a copy is read by the same rules as Strategy(...)."""
        rows = zip(self.lengths, self.branches)
        return (Members.stack, ([Strategy(a[b >= 0], b[b >= 0]) for a, b in rows],))


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


def _row_keys(rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Complex keys row + 1j * value: numpy orders complex numbers by real
    part, then imaginary part, so the keys sort by (row, value), exactly."""
    keys = np.empty(np.broadcast_shapes(rows.shape, values.shape), dtype=complex)
    keys.real = rows
    keys.imag = values
    return keys.ravel()


def _first_reaching(
    reach: np.ndarray, before: np.ndarray, d: np.ndarray, miss: float
) -> tuple[np.ndarray, np.ndarray]:
    """The one cost kernel, over rows of segments in prefix-sum order.  Per
    row i and target d[i, j]: the first column s where the running maximum
    of reach[i] is >= d[i, j], and the cost d[i, j] + 2 * before[i, s].  A
    column of infinite reach and prefix sum ``miss`` ends every row, so a
    target the row never finds costs ``miss`` at the column past its end.
    Returns (costs, columns) of d's shape; one searchsorted over (row,
    running maximum) keys serves every row."""
    rows = np.arange(d.shape[0])[:, None]
    peak = np.full((len(reach), reach.shape[1] + 1), np.inf)
    np.maximum.accumulate(reach, axis=1, out=peak[:, :-1])
    before = np.concatenate((before, np.full((len(before), 1), miss)), axis=1)
    pos = np.searchsorted(_row_keys(rows, peak), _row_keys(rows, d), side="left")
    pos = pos.reshape(d.shape)
    pos -= rows * peak.shape[1]
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
    covers the target.  Each distance is read by _reals: finite and >= 1.

    Row i of the kernel is strategy i's segments, with reach 0 off the
    branch, so the first segment whose running-maximum reach is >= d is the
    first that reaches d, even where the branch's lengths dip.  Memory is
    O(m * (longest strategy + n)).
    """
    branch = _integer(branch, "branch", 0, 1)
    d = _reals(distances, "distance", 1.0)
    members = Members.stack(strategies)
    rows = d.reshape(1, -1) if len(members) == 1 else d
    if rows.ndim != 2 or rows.shape[0] != len(members):
        raise ValueError(
            f"distances must have one row per strategy, got shape {d.shape} "
            f"for {len(members)} strategies"
        )
    reach = np.where(members.branches == branch, members.lengths, 0.0)
    costs, _ = _first_reaching(reach, members.sums[:, :-1], rows, np.nan)
    return costs.reshape(d.shape)


def cheapest_search_costs(
    strategies: Union[Iterable[Strategy], Members], distances: np.ndarray, branch: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per distance on ``branch``: the lowest search cost among ``strategies``
    and the index of the strategy that attains it.  Where no strategy finds
    the target the cost is inf and the index -1 (distances: see search_costs).

    The cheapest cost at d is d + 2 * min{sum of the lengths before segment
    s : lengths[s] >= d}.  Gathered in strategy order and stably sorted by
    prefix sum, every strategy's segments on the branch form one kernel row:
    its first segment whose running-maximum reach is >= d is itself a
    segment of length >= d, of least prefix sum, ties going to the smallest
    index.  Memory is O(segments + len(distances)).
    """
    branch = _integer(branch, "branch", 0, 1)
    d = _reals(distances, "distance", 1.0)
    members = Members.stack(strategies)
    on = members.branches == branch
    before = members.sums[:, :-1][on]
    order = np.argsort(before, kind="stable")
    reach, before = members.lengths[on][order], before[order][None]
    costs, pos = _first_reaching(reach[None], before, d.reshape(1, -1), np.inf)
    member = np.append(np.nonzero(on)[0][order], -1)  # past the end: none
    return costs.reshape(d.shape), member[pos].reshape(d.shape)
