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
    _shortest_reach,
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
    "direction_true_hint",
    "direction_trusted_costs",
    "direction_family",
    "kbit_base",
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

    ``select`` maps a hint to a member strategy; it is the family's one
    member rule.  Each family checks its parameters and derives the arrays
    its members share once, when it is built, so ``select`` checks only the
    hint.  ``hint_space`` is the finite set of admissible hints (a grid when
    the true space is continuous).  ``true_hint_of`` maps a target to its
    trusted hint(s); None means the correct hint is whichever member finds
    the target cheapest.  It is the per-target reference rule.
    ``trusted_costs(members, distances, branch)`` is the same rule batched:
    the cost of the trusted member at every distance on one branch (NaN or
    inf where it misses), given the built members keyed by hint.
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


# Bound on members x horizon, the number of segments the batched kernels
# stack (about 220 bytes each at peak, so about 230 MB at the bound), and so
# also on the horizon.  Both are checked before any hint, member or array is
# built.
_MAX_SEGMENTS = 2**20


def _check_horizon(horizon: int) -> int:
    horizon = int(horizon)
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon!r}")
    if horizon > _MAX_SEGMENTS:
        raise ValueError(
            f"horizon must be <= {_MAX_SEGMENTS}, got {horizon!r} (lower --horizon)"
        )
    return horizon


def _check_size(members: int, horizon: int, params: str, flags: str) -> None:
    """Reject a family whose members x horizon segments pass _MAX_SEGMENTS."""
    if members * horizon > _MAX_SEGMENTS:
        raise ValueError(
            f"{params} with horizon={horizon} needs {members} members x "
            f"{horizon} segments, over the limit of {_MAX_SEGMENTS} segments "
            f"(lower {flags})"
        )


def _check_overflow(base: float, exponent: float, params: str) -> None:
    """Reject parameters whose longest member length base**exponent leaves
    the float range, before any array is built."""
    if not math.isfinite(_pow(base, exponent)):
        raise ValueError(
            f"{params} overflows the float range: member lengths reach "
            f"{base:.6g}**{exponent:.10g}"
        )


def _position_geometry(r: float, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """Anchors b_r**j (Python powers) and np.power lengths of the unshrunk
    position member, checked so b_r**(horizon - 1) stays finite."""
    base = base_for_robustness(r)
    _check_overflow(base, horizon - 1, f"r={r!r} with horizon={horizon}")
    anchors = np.array([base**j for j in range(horizon)])
    return anchors, np.power(base, np.arange(horizon, dtype=float))


def _position_member(anchors: np.ndarray, powers: np.ndarray, hint) -> Strategy:
    """position_hint_strategy, given the arrays of _position_geometry."""
    if not isinstance(hint, PositionHint):
        raise ValueError(f"position family needs a PositionHint, got {hint!r}")
    j = int(np.searchsorted(anchors, hint.distance, side="left"))
    if j == anchors.size:
        raise HorizonTooShort(
            f"hint distance {hint.distance!r} lies past horizon {anchors.size}: "
            f"the farthest anchor is {anchors[-1]:.6g}"
        )
    lengths = powers / (anchors[j] / hint.distance)  # shrink in [1, b_r)
    lengths[j] = hint.distance  # exact: rounding must not undershoot the hint
    first = hint.branch if j % 2 == 0 else complement(hint.branch)
    return strategy_from_lengths(lengths, first)


def position_hint_strategy(
    r: float, hint: PositionHint, horizon: int = DEFAULT_HORIZON
) -> Strategy:
    """Geometric base-b_r strategy shrunk so that its anchor turn point j
    lands exactly on the hinted position, with segment j searching the hinted
    branch."""
    horizon = _check_horizon(horizon)
    return _position_member(*_position_geometry(r, horizon), hint)


def position_true_hint(target: Target) -> PositionHint:
    """The correct position hint simply names the target."""
    return PositionHint(target.distance, target.branch)


def _position_trusted_costs(anchors: np.ndarray, powers: np.ndarray):
    """Batched trusted cost of the position family: the member anchored at
    each target costs 2 * (b**0 + .. + b**(j-1)) / shrink + d, where j is the
    smallest index with b**j >= d and shrink = b**j / d.  NaN where j falls
    past the horizon."""
    sums = np.zeros(anchors.size + 1)
    np.cumsum(powers, out=sums[1:])

    def trusted_costs(members, distances, branch):
        d = np.asarray(distances, dtype=float)
        j = np.searchsorted(anchors, d, side="left")
        inside = j < anchors.size
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
    if max_hint_distance < 1.0:
        raise ValueError("max_hint_distance must be >= 1")
    decades = math.log10(max_hint_distance)
    count = max(2, int(round(decades * hints_per_decade)) + 1)
    _check_size(2 * count, horizon, f"r={r!r}", "--horizon")
    anchors, powers = _position_geometry(r, horizon)
    distances = np.logspace(0.0, decades, count).tolist()
    hint_space = tuple(PositionHint(d, b) for b in (0, 1) for d in distances)
    return HintedStrategy(
        family="position",
        horizon=horizon,
        r=float(r),
        select=lambda hint: _position_member(anchors, powers, hint),
        hint_space=hint_space,
        true_hint_of=position_true_hint,
        trusted_costs=_position_trusted_costs(anchors, powers),
    )


def _direction_params(b: float, delta: float, horizon: int = 1) -> tuple[float, float]:
    """Checked floats b > 1 and delta in (0, 1], with b**(horizon - 1) finite."""
    b, delta = float(b), float(delta)
    if not math.isfinite(b) or b <= 1.0:
        raise ValueError(f"b must be > 1, got {b!r}")
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must be in (0, 1], got {delta!r}")
    _check_overflow(b, horizon - 1, f"b={b!r} with horizon={horizon}")
    return b, delta


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
    horizon = _check_horizon(horizon)
    _check_size(2, horizon, f"b={b!r}", "--horizon")
    b, delta = _direction_params(b, delta, horizon)
    lengths = np.power(b, np.arange(horizon, dtype=float))
    lengths[1::2] *= delta

    def select(hint) -> Strategy:
        if not isinstance(hint, DirectionHint):
            raise ValueError(f"direction family needs a DirectionHint, got {hint!r}")
        return strategy_from_lengths(lengths, hint.branch)

    return HintedStrategy(
        family="direction",
        horizon=horizon,
        b=b,
        delta=delta,
        select=select,
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


def kbit_family(r: float, k: int, horizon: int = DEFAULT_HORIZON) -> HintedStrategy:
    """k-bit family: 2**k phase-shifted members; the correct hint is the
    index of the member that finds the target cheapest (the default
    ``trusted_costs`` rule)."""
    horizon = _check_horizon(horizon)
    a = kbit_base(r, k)
    k = int(k)
    _check_overflow(a, horizon - 2.0**-k, f"r={r!r}, k={k} with horizon={horizon}")
    _check_size(2**k, horizon, f"k={k}", "--k or --horizon")
    steps = np.arange(horizon, dtype=float)

    def select(hint) -> Strategy:
        if not isinstance(hint, BitStringHint):
            raise ValueError(f"k-bit family needs a BitStringHint, got {hint!r}")
        if hint.k != k:
            raise ValueError(f"hint has k={hint.k}, family has k={k}")
        return strategy_from_lengths(np.power(a, steps + hint.index / 2.0**k), 0)

    return HintedStrategy(
        family="kbit",
        horizon=horizon,
        r=float(r),
        k=k,
        select=select,
        hint_space=tuple(BitStringHint(j, k) for j in range(2**k)),
        true_hint_of=None,
    )


def _kbit_members(r: float, k: int, horizon: int) -> list[Strategy]:
    family = kbit_family(r, k, horizon)
    return [family.select(hint) for hint in family.hint_space]


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
    reach = _shortest_reach(members)
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
    fields = {"position": ("r",), "direction": ("b", "delta"), "kbit": ("r", "k")}
    if not isinstance(name, str) or name not in fields:
        raise ValueError(
            f"field 'family' must be 'position', 'direction' or 'kbit', got {name!r}"
        )
    unknown = sorted(set(obj) - {"family", *fields[name]}, key=str)
    if unknown:
        raise ValueError(f"family '{name}' has no field '{unknown[0]}'")

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
    k = need("k")
    if not (isinstance(k, int) or k.is_integer()):
        raise ValueError(f"field 'k' must be an integer, got {k!r}")
    return kbit_family(float(need("r")), int(k), horizon)


def partition_to_json(partition: LinePartition) -> dict:
    """JSON form: {"branch0": [{"lo": .., "hi": .., "label": ..}, ..], ..}."""
    return {
        f"branch{branch}": [
            {"lo": iv.lo, "hi": iv.hi, "label": iv.label}
            for iv in partition.intervals(branch)
        ]
        for branch in (0, 1)
    }
