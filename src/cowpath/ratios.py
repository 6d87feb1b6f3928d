"""Competitive-ratio evaluation: closed-form and brute-force (measured).

The closed form scores a strategy by its worst-case ratio terms
1 + 2*(x_0+..+x_i)/x_{i-1} (with x_{-1} = 1); the measured path simulates
search costs over a target grid.  Hinted families are scored by consistency
(ratio when the hint is trusted) and robustness (ratio under the worst hint).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .hints import HintedStrategy
from .model import (
    DEFAULT_HORIZON,
    HorizonTooShort,
    Strategy,
    make_geometric,
    search_costs,
)

__all__ = [
    "TradeoffPoint",
    "TargetGrid",
    "default_grid",
    "family_grid",
    "competitive_ratio_terms",
    "competitive_ratio",
    "competitive_ratio_measured",
    "tail_converged",
    "evaluate_hinted",
    "random_alternating_strategies",
    "oracle_equivalence_gaps",
]

_METHODS = ("closed_form", "measured")


@dataclass(frozen=True)
class TradeoffPoint:
    """A (consistency, robustness) pair with its evaluation method.

    ``converged`` reports whether the last five ratio terms of each parity
    sat within 1e-6 of their maximum (finite prefixes only approach the true
    suprema).
    """

    consistency: float
    robustness: float
    method: str
    converged: bool = True

    def __post_init__(self) -> None:
        c = float(self.consistency)
        r = float(self.robustness)
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}, got {self.method!r}")
        if not math.isfinite(c) or c < 1.0 - 1e-9:
            raise ValueError(f"consistency must be finite and >= 1, got {c!r}")
        if math.isnan(r) or (math.isfinite(r) and r < 1.0 - 1e-9):
            raise ValueError(f"robustness must be >= 1 (or inf), got {r!r}")
        object.__setattr__(self, "consistency", c)
        object.__setattr__(self, "robustness", r)
        object.__setattr__(self, "converged", bool(self.converged))


@dataclass(frozen=True)
class TargetGrid:
    """Sorted target distances, each finite and >= 1."""

    distances: tuple[float, ...]

    def __post_init__(self) -> None:
        d = np.asarray(self.distances, dtype=float)
        if d.ndim != 1 or d.size == 0:
            raise ValueError("target grid must contain at least one distance")
        bad = ~(np.isfinite(d) & (d >= 1.0))
        if bad.any():
            got = float(d[np.argmax(bad)])
            raise ValueError(f"grid distances must be finite and >= 1, got {got!r}")
        if np.any(d[1:] < d[:-1]):
            raise ValueError("grid distances must be sorted ascending")
        object.__setattr__(self, "distances", tuple(d.tolist()))


def _turn_probes(lengths: np.ndarray) -> np.ndarray:
    """One ulp past each turn point, dropping probes below distance 1.

    Between two turn points a target costs C + d, so cost / d falls across
    the cell and its supremum is the right limit at the cell's left end:
    the probe just past a turn point is within one ulp of it.
    """
    probes = np.nextafter(lengths, np.inf)
    return probes[probes >= 1.0]


def default_grid(strategy: Strategy) -> TargetGrid:
    """Distance 1 plus one probe just past each of the strategy's turn
    points: the left end of every cell."""
    return TargetGrid(np.unique(np.append(_turn_probes(strategy.lengths), 1.0)))


def family_grid(members: Iterable[Strategy]) -> TargetGrid:
    """Joint grid for a family: distance 1 plus a probe just past every
    member's turn points, capped at the smallest per-branch reach so each
    target is inside every horizon."""
    members = list(members)
    if not members:
        raise ValueError("family grid needs at least one member strategy")
    cap = min(m.last_turn_point(branch) for m in members for branch in (0, 1))
    if cap < 1.0:
        raise ValueError("family horizon does not reach distance 1 on both branches")
    probes = _turn_probes(np.concatenate([m.lengths for m in members]))
    return TargetGrid(np.unique(np.append(probes[probes <= cap], 1.0)))


def competitive_ratio_terms(strategy: Strategy) -> np.ndarray:
    """Per-index ratio values 1 + 2*(x_0+..+x_i)/x_{i-1}, with x_{-1} = 1.

    The competitive ratio is the maximum of these terms.
    """
    csum = strategy.prefix_sums[1:]
    denom = np.concatenate(([1.0], strategy.lengths[:-1]))
    return 1.0 + 2.0 * csum / denom


def competitive_ratio(strategy: Strategy) -> float:
    """Closed-form competitive ratio of the finite prefix."""
    return float(np.max(competitive_ratio_terms(strategy)))


_TAIL_WINDOW = 5
_TAIL_TOL = 1e-6


def tail_converged(values: np.ndarray) -> bool:
    """True when the last five values sit within 1e-6 of the max."""
    v = np.asarray(values, dtype=float)
    if v.size < _TAIL_WINDOW:
        return False
    return bool(float(np.max(v)) - float(np.min(v[-_TAIL_WINDOW:])) <= _TAIL_TOL)


def competitive_ratio_measured(
    strategy: Strategy, grid: Optional[TargetGrid] = None
) -> float:
    """Brute-force competitive ratio: max of search_cost/d over the grid
    distances and one ulp past each of the strategy's own turn points, on
    both branches, restricted to targets the prefix actually finds."""
    if grid is None:
        grid = default_grid(strategy)
    d = np.unique(np.concatenate([grid.distances, _turn_probes(strategy.lengths)]))
    best = -math.inf
    for branch in (0, 1):
        costs = search_costs(strategy, d, branch)
        found = ~np.isnan(costs)
        if found.any():
            best = max(best, float(np.max(costs[found] / d[found])))
    if not math.isfinite(best):
        raise ValueError("empty effective grid: the prefix finds no grid target")
    return best


def evaluate_hinted(
    family: HintedStrategy, grid: Optional[TargetGrid] = None
) -> TradeoffPoint:
    """Measured consistency and robustness of a hinted family.

    Consistency is the worst ratio over targets when the hint is trusted:
    the family's batched ``trusted_costs`` rule gives, per target, the cost
    of the member its trusted hint selects.  To trust the whole hint space
    (the cheapest member counts), pass
    ``dataclasses.replace(family, trusted_costs=cheapest_trusted_costs)``.
    Robustness is the worst member's measured competitive ratio, each member
    probed at its own turn points (the adversarial targets are
    member-specific).  Targets no trusted member finds raise HorizonTooShort.
    Each hint's member is built once.
    """
    hints = family.hint_space
    if not hints:
        raise ValueError("hint_space must be a non-empty finite collection")
    members = [family.select(h) for h in hints]
    if grid is None:
        grid = family_grid(members)
    distances = np.asarray(grid.distances)

    by_hint = dict(zip(hints, members))
    consistency = 1.0
    for branch in (0, 1):
        costs = family.trusted_costs(by_hint, distances, branch)
        missed = ~np.isfinite(costs)
        if missed.any():
            d_bad = float(distances[missed][0])
            raise HorizonTooShort(
                f"no trusted member finds target (d={d_bad}, branch={branch}) "
                "within the horizon"
            )
        consistency = max(consistency, float(np.max(costs / distances)))

    robustness = max(competitive_ratio_measured(m) for m in members)
    # Per parity: a member whose two branches grow at different rates has
    # terms that alternate between two limits.
    converged = all(
        tail_converged(terms[0::2]) and tail_converged(terms[1::2])
        for terms in map(competitive_ratio_terms, members)
    )
    return TradeoffPoint(consistency, robustness, "measured", converged)


def random_alternating_strategies(
    count: int = 200, seed: int = 0, horizon: int = DEFAULT_HORIZON
) -> list[Strategy]:
    """Seeded random geometric strategies: base in (1.5, 4], log-uniform scale
    in [0.25, 4], random first branch."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(int(count)):
        base = 4.0 - rng.uniform(0.0, 2.5)
        scale = float(np.exp(rng.uniform(math.log(0.25), math.log(4.0))))
        first = int(rng.integers(0, 2))
        out.append(make_geometric(base, horizon, first, scale))
    return out


def oracle_equivalence_gaps(
    count: int = 200, seed: int = 0, horizon: int = DEFAULT_HORIZON
) -> np.ndarray:
    """|closed form - measured| per random strategy; the two evaluators must
    agree because worst-case targets sit just past turn points."""
    gaps = []
    for s in random_alternating_strategies(count, seed, horizon):
        gaps.append(abs(competitive_ratio(s) - competitive_ratio_measured(s)))
    return np.asarray(gaps)
