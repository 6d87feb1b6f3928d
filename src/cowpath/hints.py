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
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

import numpy as np

from .model import (
    DEFAULT_HORIZON,
    BitStringHint,
    DirectionHint,
    Hint,
    HorizonTooShort,
    PositionHint,
    Strategy,
    Target,
    _pow,
    base_for_robustness,
    cheapest_search_costs,
    complement,
    rho,
    search_costs,
    strategy_from_lengths,
)

__all__ = [
    "HintedStrategy",
    "cheapest_trusted_costs",
    "LabeledInterval",
    "LinePartition",
    "position_hint_strategy",
    "position_true_hint",
    "position_family",
    "direction_hint_strategy",
    "direction_true_hint",
    "direction_trusted_costs",
    "direction_family",
    "kbit_base",
    "kbit_hint_strategy",
    "kbit_family",
    "best_hint_index",
    "preferred_partition",
    "family_from_json",
    "partition_to_json",
]


def cheapest_trusted_costs(
    members: Mapping[Hint, Strategy], distances: np.ndarray, branch: int
) -> np.ndarray:
    """Batched trusted cost when every hint is trusted: the cheapest member
    at each distance (inf where none finds the target)."""
    return cheapest_search_costs(members.values(), distances, branch)[0]


@dataclass(frozen=True)
class HintedStrategy:
    """A strategy family keyed by hints.

    ``select`` maps a hint to a member strategy.  ``hint_space`` is the finite
    set of admissible hints (a grid when the true space is continuous).
    ``true_hint_of`` maps a target to its trusted hint(s); None means the
    correct hint is whichever member finds the target cheapest.  It is the
    per-target reference rule.  ``trusted_costs(members, distances, branch)``
    is the same rule batched: the cost of the trusted member at every
    distance on one branch (NaN or inf where it misses), given the built
    members keyed by hint.
    """

    family: str
    horizon: int
    r: Optional[float] = None
    b: Optional[float] = None
    delta: Optional[float] = None
    k: Optional[int] = None
    select: Callable[[Hint], Strategy] = field(default=None, compare=False)
    hint_space: Optional[tuple[Hint, ...]] = field(default=None, compare=False)
    true_hint_of: Optional[Callable[[Target], object]] = field(
        default=None, compare=False
    )
    trusted_costs: Callable[
        [Mapping[Hint, Strategy], np.ndarray, int], np.ndarray
    ] = field(default=cheapest_trusted_costs, compare=False)


def _check_horizon(horizon: int) -> int:
    horizon = int(horizon)
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon!r}")
    return horizon


def _check_overflow(base: float, exponent: float, params: str) -> None:
    """Reject parameters whose longest member length base**exponent leaves
    the float range, before any array is built."""
    if not math.isfinite(_pow(base, exponent)):
        raise ValueError(
            f"{params} overflows the float range: member lengths reach "
            f"{base:.6g}**{exponent:.10g}"
        )


def _position_base(r: float, horizon: int) -> float:
    """b_r, checked so the members' lengths up to b_r**(horizon - 1) stay
    finite."""
    base = base_for_robustness(r)
    _check_overflow(base, horizon - 1, f"r={r!r} with horizon={horizon}")
    return base


def _position_anchors(base: float, horizon: int) -> np.ndarray:
    """Turn points base**j (Python powers) of the unshrunk position member.
    A hint at distance d anchors at the smallest j with base**j >= d."""
    return np.array([base**j for j in range(horizon)])


def position_hint_strategy(
    r: float, hint: PositionHint, horizon: int = DEFAULT_HORIZON
) -> Strategy:
    """Geometric base-b_r strategy shrunk so that its anchor turn point j
    lands exactly on the hinted position, with segment j searching the hinted
    branch."""
    if not isinstance(hint, PositionHint):
        raise ValueError(f"position family needs a PositionHint, got {hint!r}")
    horizon = _check_horizon(horizon)
    base = _position_base(r, horizon)
    anchors = _position_anchors(base, horizon)
    j = int(np.searchsorted(anchors, hint.distance, side="left"))
    if j == horizon:
        raise HorizonTooShort(
            f"hint distance {hint.distance!r} lies past horizon {horizon}: "
            f"the farthest anchor is {anchors[-1]:.6g}"
        )
    shrink = anchors[j] / hint.distance  # in [1, base)
    lengths = np.power(base, np.arange(horizon, dtype=float)) / shrink
    lengths[j] = hint.distance  # exact: rounding must not undershoot the hint
    first = hint.branch if j % 2 == 0 else complement(hint.branch)
    return strategy_from_lengths(lengths, first)


def position_true_hint(target: Target) -> PositionHint:
    """The correct position hint simply names the target."""
    return PositionHint(target.distance, target.branch)


def _position_trusted_costs(base: float, horizon: int):
    """Batched trusted cost of the position family: the member anchored at
    each target costs 2 * (b**0 + .. + b**(j-1)) / shrink + d, where j is the
    smallest index with b**j >= d and shrink = b**j / d.  NaN where j falls
    past the horizon."""
    anchors = _position_anchors(base, horizon)
    sums = np.zeros(horizon + 1)
    np.cumsum(np.power(base, np.arange(horizon, dtype=float)), out=sums[1:])

    def trusted_costs(members, distances, branch):
        d = np.asarray(distances, dtype=float)
        j = np.searchsorted(anchors, d, side="left")
        inside = j < horizon
        j, d_in = j[inside], d[inside]
        out = np.full(d.shape, np.nan)
        out[inside] = 2.0 * sums[j] / (anchors[j] / d_in) + d_in
        return out

    return trusted_costs


def position_family(
    r: float,
    horizon: int = DEFAULT_HORIZON,
    max_hint_distance: float = 2.0**20,
    hints_per_decade: int = 128,
) -> HintedStrategy:
    """Position-hint family with a log-spaced hint grid standing in for the
    continuous hint space."""
    horizon = _check_horizon(horizon)
    base = _position_base(r, horizon)  # validate r early
    if max_hint_distance < 1.0:
        raise ValueError("max_hint_distance must be >= 1")
    decades = math.log10(max_hint_distance)
    count = max(2, int(round(decades * hints_per_decade)) + 1)
    distances = np.logspace(0.0, decades, count)
    hint_space = tuple(
        PositionHint(float(d), branch) for branch in (0, 1) for d in distances
    )
    return HintedStrategy(
        family="position",
        horizon=horizon,
        r=float(r),
        select=lambda hint: position_hint_strategy(r, hint, horizon),
        hint_space=hint_space,
        true_hint_of=position_true_hint,
        trusted_costs=_position_trusted_costs(base, horizon),
    )


def direction_hint_strategy(
    b: float, delta: float, hint: DirectionHint, horizon: int = DEFAULT_HORIZON
) -> Strategy:
    """Even iterations search the hinted branch to b**i, odd iterations the
    complement to delta * b**i."""
    if not isinstance(hint, DirectionHint):
        raise ValueError(f"direction family needs a DirectionHint, got {hint!r}")
    b = float(b)
    delta = float(delta)
    if not math.isfinite(b) or b <= 1.0:
        raise ValueError(f"b must be > 1, got {b!r}")
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must be in (0, 1], got {delta!r}")
    horizon = _check_horizon(horizon)
    _check_overflow(b, horizon - 1, f"b={b!r} with horizon={horizon}")
    lengths = np.power(b, np.arange(horizon, dtype=float))
    lengths[1::2] *= delta
    return strategy_from_lengths(lengths, hint.branch)


def direction_true_hint(target: Target) -> DirectionHint:
    """The correct direction hint names the target's branch."""
    return DirectionHint(target.branch)


def direction_trusted_costs(
    members: Mapping[Hint, Strategy], distances: np.ndarray, branch: int
) -> np.ndarray:
    """Batched trusted cost of the direction family: the member that
    searches ``branch`` first."""
    return search_costs(members[DirectionHint(branch)], distances, branch)


def direction_family(
    b: float, delta: float, horizon: int = DEFAULT_HORIZON
) -> HintedStrategy:
    """Direction-hint family: one member per branch."""
    return HintedStrategy(
        family="direction",
        horizon=_check_horizon(horizon),
        b=float(b),
        delta=float(delta),
        select=lambda hint: direction_hint_strategy(b, delta, hint, horizon),
        hint_space=(DirectionHint(0), DirectionHint(1)),
        true_hint_of=direction_true_hint,
        trusted_costs=direction_trusted_costs,
    )


_MAX_K = 511  # largest k with (1 + 2**k)**2 a finite float


def kbit_base(r: float, k: int) -> float:
    """Growth base of the k-bit family: b_r while rho(r) stays below
    (1+2**k)**2 / 2**k, then the constant 1 + 2**k."""
    k = int(k)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k!r}")
    if k > _MAX_K:
        raise ValueError(f"k must be <= {_MAX_K}, got {k!r}")
    p = rho(r)
    threshold = (1.0 + 2.0**k) ** 2 / 2.0**k
    if p <= threshold:
        return base_for_robustness(r)
    return 1.0 + 2.0**k


def _kbit_member_base(r: float, k: int, horizon: int) -> float:
    """kbit_base, checked so the members' lengths up to a**(horizon - 2**-k)
    stay finite."""
    a = kbit_base(r, k)
    _check_overflow(a, horizon - 2.0**-k, f"r={r!r}, k={k} with horizon={horizon}")
    return a


def kbit_hint_strategy(
    r: float, k: int, hint: BitStringHint, horizon: int = DEFAULT_HORIZON
) -> Strategy:
    """Member j of the k-bit family: lengths a**(i + j/2**k), first branch 0."""
    if not isinstance(hint, BitStringHint):
        raise ValueError(f"k-bit family needs a BitStringHint, got {hint!r}")
    if hint.k != int(k):
        raise ValueError(f"hint has k={hint.k}, family has k={k}")
    horizon = _check_horizon(horizon)
    a = _kbit_member_base(r, k, horizon)
    exponents = np.arange(horizon, dtype=float) + hint.index / 2.0**k
    return strategy_from_lengths(np.power(a, exponents), 0)


def kbit_family(r: float, k: int, horizon: int = DEFAULT_HORIZON) -> HintedStrategy:
    """k-bit family: 2**k phase-shifted members; the correct hint is the
    index of the member that finds the target cheapest (the default
    ``trusted_costs`` rule)."""
    horizon = _check_horizon(horizon)
    _kbit_member_base(r, k, horizon)  # validate r, k early
    return HintedStrategy(
        family="kbit",
        horizon=horizon,
        r=float(r),
        k=int(k),
        select=lambda hint: kbit_hint_strategy(r, k, hint, horizon),
        hint_space=tuple(BitStringHint(j, int(k)) for j in range(2 ** int(k))),
        true_hint_of=None,
    )


def _kbit_members(r: float, k: int, horizon: int) -> list[Strategy]:
    return [
        kbit_hint_strategy(r, k, BitStringHint(j, int(k)), horizon)
        for j in range(2 ** int(k))
    ]


def best_hint_index(
    r: float, k: int, target: Target, horizon: int = DEFAULT_HORIZON
) -> BitStringHint:
    """Index of the member that finds the target cheapest (ties go to the
    smallest index)."""
    _, index = cheapest_search_costs(
        _kbit_members(r, k, horizon), [target.distance], target.branch
    )
    if index[0] < 0:
        raise HorizonTooShort(
            f"no member finds target (d={target.distance}, branch="
            f"{target.branch}) within horizon {horizon}"
        )
    return BitStringHint(int(index[0]), int(k))


@dataclass(frozen=True)
class LabeledInterval:
    """Half-open interval (lo, hi] labeled with a member index."""

    lo: float
    hi: float
    label: int

    def __post_init__(self) -> None:
        lo = float(self.lo)
        hi = float(self.hi)
        label = int(self.label)
        if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
            raise ValueError(f"bad interval ({self.lo!r}, {self.hi!r}]")
        if label < 0:
            raise ValueError(f"label must be >= 0, got {self.label!r}")
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
    max_distance = float(max_distance)
    if not math.isfinite(max_distance) or max_distance < 1.0:
        raise ValueError(f"max_distance must be >= 1, got {max_distance!r}")
    members = _kbit_members(r, k, horizon)
    reach = min(m.last_turn_point(branch) for m in members for branch in (0, 1))
    if max_distance > reach:
        raise HorizonTooShort(
            f"max_distance {max_distance} exceeds the family reach {reach}"
        )
    breakpoints = np.unique(np.concatenate([m.lengths for m in members]))
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


def family_from_json(obj: object, horizon: int = DEFAULT_HORIZON) -> HintedStrategy:
    """Parse a family descriptor; errors name the offending field."""
    if not isinstance(obj, dict):
        raise ValueError("family JSON must be an object")
    if "family" not in obj:
        raise ValueError("family JSON is missing field 'family'")
    name = obj["family"]

    def need(key: str) -> float:
        if key not in obj or obj[key] is None:
            raise ValueError(f"family '{name}' needs field '{key}'")
        value = obj[key]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError(f"field '{key}' must be a number, got {value!r}")
        return value

    if name == "position":
        return position_family(float(need("r")), horizon)
    if name == "direction":
        return direction_family(float(need("b")), float(need("delta")), horizon)
    if name == "kbit":
        k = need("k")
        if not (isinstance(k, int) or k.is_integer()):
            raise ValueError(f"field 'k' must be an integer, got {k!r}")
        return kbit_family(float(need("r")), int(k), horizon)
    raise ValueError(
        f"field 'family' must be 'position', 'direction' or 'kbit', got {name!r}"
    )


def partition_to_json(partition: LinePartition) -> dict:
    """JSON form: {"branch0": [{"lo": .., "hi": .., "label": ..}, ..], ..}."""
    return {
        f"branch{branch}": [
            {"lo": iv.lo, "hi": iv.hi, "label": iv.label}
            for iv in partition.intervals(branch)
        ]
        for branch in (0, 1)
    }
