"""Hint-aware strategy families and the trusted-hint rules.

Three families, each mapping a hint to a member strategy:

* position: the hint names the exact target position; the member is a
  geometric strategy shrunk so one turn point lands exactly on it.
* direction: the hint names the target's branch; even iterations search the
  hinted branch with lengths b**i, odd ones the other with delta * b**i.
* k-bit: the hint is the index of the best member among 2**k phase-shifted
  geometric strategies a**(i + j/2**k), all starting on branch 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bounds import (
    DEFAULT_HORIZON,
    _MAX_K,
    HorizonTooShort,
    _admit,
    _direction_params,
    _integer,
    _real,
    base_for_robustness,
    kbit_base,
)
from .model import (
    BitStringHint,
    DirectionHint,
    Hint,
    Members,
    PositionHint,
    Strategy,
    Target,
    _alternating_rows,
    _distinct,
    _shortest_reach,
    cheapest_search_costs,
    search_costs,
)

__all__ = [
    "HintedStrategy",
    "cheapest_trusted_costs",
    "LabeledInterval",
    "LinePartition",
    "position_hint_strategy",
    "position_family",
    "direction_trusted_costs",
    "direction_family",
    "kbit_family",
    "best_hint_index",
    "preferred_partition",
    "partition_to_json",
]


def cheapest_trusted_costs(
    members: Members, hints: tuple[Hint, ...], distances: np.ndarray, branch: int
) -> np.ndarray:
    """Batched trusted cost when every hint is trusted: the cheapest member
    at each distance (inf where none finds the target)."""
    return cheapest_search_costs(members, distances, branch)[0]


@dataclass(frozen=True, eq=False)
class HintedStrategy:
    """A strategy family keyed by hints.

    ``select`` maps a hint to a member strategy; it is the family's one
    member rule.  Each family checks its parameters and builds its members
    once, when it is built, as the rows of one record checked in one pass,
    so ``select`` checks only the hint and looks its member up.
    ``hint_space`` is the finite set of admissible hints (a grid when the
    true space is continuous).  ``trusted_costs(members, hints, distances,
    branch)`` is the family's trusted-hint rule: the cost of the trusted
    member at every distance on one branch (NaN or inf where it misses),
    given the members as one Members record whose row i is
    ``select(hints[i])``; the default trusts the whole hint space, so the
    member that finds the target cheapest counts.  Families compare by
    identity.
    """

    family: str
    horizon: int
    select: Callable[[Hint], Strategy]
    hint_space: tuple[Hint, ...]
    trusted_costs: Callable[
        [Members, tuple[Hint, ...], np.ndarray, int], np.ndarray
    ] = cheapest_trusted_costs


def _position_geometry(
    r: float, horizon: int, rows: int, lower: str = "--horizon"
) -> tuple[np.ndarray, np.ndarray]:
    """Anchors b_r**j (Python powers) and np.power lengths of the unshrunk
    position member, once a record of ``rows`` members is admitted: every
    member's lengths are at most b_r**i.  A rejection says to lower
    ``lower``."""
    base = base_for_robustness(r)
    horizon = _admit(rows, horizon, 1.0, base, f"r={r!r}", lower)
    anchors = np.array([base**j for j in range(horizon)])
    return anchors, np.power(base, np.arange(horizon, dtype=float))


def _position_rows(anchors: np.ndarray, powers: np.ndarray, hints) -> Callable:
    """The members of position hints within the horizon, given the arrays of
    _position_geometry, as one record built in one broadcast: row(i) is
    the member of hints[i]."""
    d = np.array([hint.distance for hint in hints])
    j = np.searchsorted(anchors, d, side="left")
    lengths = powers[None] / (anchors[j] / d)[:, None]  # shrink in [1, b_r)
    lengths[np.arange(j.size), j] = d  # exact: rounding must not undershoot the hint
    # segment j searches the hinted branch
    return _alternating_rows(lengths, (j + [hint.branch for hint in hints]) % 2)


def position_hint_strategy(
    r: float, hint: PositionHint, horizon: int = DEFAULT_HORIZON
) -> Strategy:
    """Geometric base-b_r strategy shrunk so that its anchor turn point j
    lands exactly on the hinted position, with segment j searching the hinted
    branch."""
    anchors, powers = _position_geometry(r, horizon, 1)
    if not isinstance(hint, PositionHint):
        raise ValueError(f"position family needs a PositionHint, got {hint!r}")
    if hint.distance > anchors[-1]:
        raise HorizonTooShort(
            f"hint distance {hint.distance!r} lies past horizon {anchors.size}: "
            f"the farthest anchor is {anchors[-1]:.6g}"
        )
    return _position_rows(anchors, powers, [hint])(0)


def _position_trusted_costs(anchors: np.ndarray, powers: np.ndarray):
    """Batched trusted cost of the position family: the member anchored at
    each target costs 2 * (b**0 + .. + b**(j-1)) / shrink + d, where j is the
    smallest index with b**j >= d and shrink = b**j / d.  NaN where j falls
    past the horizon."""
    sums = np.zeros(anchors.size + 1)
    np.cumsum(powers, out=sums[1:])

    def trusted_costs(members, hints, distances, branch):
        d = np.asarray(distances, dtype=float)
        j = np.searchsorted(anchors, d, side="left")
        inside = j < anchors.size
        j, d_in = j[inside], d[inside]
        out = np.full(d.shape, np.nan)
        out[inside] = 2.0 * sums[j] / (anchors[j] / d_in) + d_in
        return out

    return trusted_costs


_HINTS_PER_DECADE = 128
_MAX_HINT_DISTANCE = 2.0**20


def position_family(
    r: float,
    horizon: int = DEFAULT_HORIZON,
    hints_per_decade: float = _HINTS_PER_DECADE,
) -> HintedStrategy:
    """Position-hint family with a log-spaced hint grid from distance 1 to
    2**20 on each branch standing in for the continuous hint space."""
    hints_per_decade = _real(hints_per_decade, "hints_per_decade", 0.0, open_lo=True)
    decades = math.log10(_MAX_HINT_DISTANCE)
    count = max(2, int(round(decades * hints_per_decade)) + 1)
    # the CLI keeps the default grid: a finer one is what grew
    lower = "hints_per_decade" if hints_per_decade > _HINTS_PER_DECADE else "--horizon"
    anchors, powers = _position_geometry(r, horizon, 2 * count, lower)
    horizon = anchors.size
    distances = np.logspace(0.0, decades, count).tolist()
    hint_space = tuple(PositionHint(d, b) for b in (0, 1) for d in distances)
    # Grid hints past the horizon get no member: select raises for them.
    grid = [hint for hint in hint_space if hint.distance <= anchors[-1]]
    row = _position_rows(anchors, powers, grid)
    index = {hint: i for i, hint in enumerate(grid)}

    def select(hint) -> Strategy:
        i = index.get(hint) if isinstance(hint, PositionHint) else None
        # off the grid, past the horizon or not a position hint: built alone
        return position_hint_strategy(r, hint, horizon) if i is None else row(i)

    return HintedStrategy(
        family="position",
        horizon=horizon,
        select=select,
        hint_space=hint_space,
        trusted_costs=_position_trusted_costs(anchors, powers),
    )


def direction_trusted_costs(
    members: Members, hints: tuple[Hint, ...], distances: np.ndarray, branch: int
) -> np.ndarray:
    """Batched trusted cost of the direction family: the member that
    searches ``branch`` first."""
    row = members.row(hints.index(DirectionHint(branch)))
    return search_costs(row, distances, branch)


def direction_family(
    b: float, delta: float, horizon: int = DEFAULT_HORIZON
) -> HintedStrategy:
    """Direction-hint family: one member per branch."""
    b, delta = _direction_params(b, delta)
    horizon = _admit(2, horizon, 1.0, b, f"b={b!r}", "--horizon")
    lengths = np.power(b, np.arange(horizon, dtype=float))
    lengths[1::2] *= delta
    row = _alternating_rows(np.broadcast_to(lengths, (2, horizon)), (0, 1))

    def select(hint) -> Strategy:
        if not isinstance(hint, DirectionHint):
            raise ValueError(f"direction family needs a DirectionHint, got {hint!r}")
        return row(hint.branch)

    return HintedStrategy(
        family="direction",
        horizon=horizon,
        select=select,
        hint_space=(DirectionHint(0), DirectionHint(1)),
        trusted_costs=direction_trusted_costs,
    )


def kbit_family(r: float, k: int, horizon: int = DEFAULT_HORIZON) -> HintedStrategy:
    """k-bit family: 2**k phase-shifted members; the correct hint is the
    index of the member that finds the target cheapest (the default
    ``trusted_costs`` rule)."""
    k = _integer(k, "k", 1, _MAX_K)
    a = kbit_base(r, k)
    # member j's lengths a**(i + j/2**k) are at most a**(1 - 2**-k) * a**i
    horizon = _admit(
        2**k, horizon, a ** (1.0 - 2.0**-k), a, f"r={r!r}, k={k}", "--k or --horizon"
    )
    lengths = np.arange(horizon, dtype=float) + np.arange(2**k)[:, None] / 2.0**k
    row = _alternating_rows(np.power(a, lengths, out=lengths), [0] * 2**k)

    def select(hint) -> Strategy:
        if not isinstance(hint, BitStringHint):
            raise ValueError(f"k-bit family needs a BitStringHint, got {hint!r}")
        if hint.k != k:
            raise ValueError(f"hint has k={hint.k}, family has k={k}")
        return row(hint.index)

    return HintedStrategy(
        family="kbit",
        horizon=horizon,
        select=select,
        hint_space=tuple(BitStringHint(j, k) for j in range(2**k)),
    )


def _kbit_members(r: float, k: int, horizon: int) -> Members:
    family = kbit_family(r, k, horizon)
    return Members.stack([family.select(hint) for hint in family.hint_space])


def best_hint_index(r: float, k: int, target: Target) -> BitStringHint:
    """Index of the member of kbit_family(r, k) that finds the target
    cheapest (ties go to the smallest index)."""
    _, index = cheapest_search_costs(
        _kbit_members(r, k, DEFAULT_HORIZON), [target.distance], target.branch
    )
    if index[0] < 0:
        raise HorizonTooShort(
            f"no member finds target (d={target.distance}, branch="
            f"{target.branch}) within horizon {DEFAULT_HORIZON}"
        )
    return BitStringHint(int(index[0]), k)


@dataclass(frozen=True)
class LabeledInterval:
    """Half-open interval (lo, hi] labeled with a member index."""

    lo: float
    hi: float
    label: int

    def __post_init__(self) -> None:
        lo = _real(self.lo, "lo", 1.0)  # target distances are >= 1
        hi = _real(self.hi, "hi", 1.0)
        if lo > hi:
            raise ValueError(f"bad interval ({self.lo!r}, {self.hi!r}]")
        label = _integer(self.label, "label", 0)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "label", label)


@dataclass(frozen=True)
class LinePartition:
    """Per branch, contiguous labeled intervals covering (1, max distance]."""

    branch0: tuple[LabeledInterval, ...]
    branch1: tuple[LabeledInterval, ...]

    def __post_init__(self) -> None:
        for name in ("branch0", "branch1"):
            intervals = tuple(getattr(self, name))
            for left, right in zip(intervals, intervals[1:]):
                if left.hi != right.lo:
                    raise ValueError(
                        f"{name} intervals must be contiguous: "
                        f"({left.lo}, {left.hi}] then ({right.lo}, {right.hi}]"
                    )
            object.__setattr__(self, name, intervals)

    def intervals(self, branch: int) -> tuple[LabeledInterval, ...]:
        return self.branch0 if branch == 0 else self.branch1


def preferred_partition(
    r: float, k: int, max_distance: float, horizon: int = DEFAULT_HORIZON
) -> LinePartition:
    """Which member is cheapest where: sweep the members' turn points and
    label each cell with the best member at its midpoint (cell costs are all
    C + d, so the midpoint decides the whole cell); same-label neighbors are
    merged."""
    max_distance = _real(max_distance, "max_distance", 1.0)
    members = _kbit_members(r, k, horizon)
    reach = _shortest_reach(members)
    if max_distance > reach:
        raise HorizonTooShort(
            f"max_distance {max_distance} exceeds the family reach {reach}"
        )
    breakpoints = _distinct(members.lengths)  # the NaN padding fails both tests
    breakpoints = breakpoints[(breakpoints > 1.0) & (breakpoints < max_distance)]
    bounds = np.concatenate(([1.0], breakpoints, [max_distance]))
    mids = np.maximum(1.0, 0.5 * (bounds[:-1] + bounds[1:]))
    sides = []
    for branch in (0, 1):
        # Every member reaches every midpoint (max_distance <= reach); runs
        # of one label merge into one interval.
        _, labels = cheapest_search_costs(members, mids, branch)
        starts = np.flatnonzero(np.diff(labels, prepend=-1))
        ends = np.append(starts[1:], labels.size)
        los, his = bounds[starts].tolist(), bounds[ends].tolist()
        sides.append(tuple(map(LabeledInterval, los, his, labels[starts].tolist())))
    return LinePartition(*sides)


def partition_to_json(partition: LinePartition) -> dict:
    """JSON form: {"branch0": [{"lo": .., "hi": .., "label": ..}, ..], ..}."""
    return {
        f"branch{branch}": [
            {"lo": iv.lo, "hi": iv.hi, "label": iv.label}
            for iv in partition.intervals(branch)
        ]
        for branch in (0, 1)
    }
