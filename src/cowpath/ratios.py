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
    "tradeoff_to_json",
    "tradeoff_from_json",
    "default_grid",
    "family_grid",
    "worst_case_cost_at_turn",
    "competitive_ratio_terms",
    "competitive_ratio",
    "competitive_ratio_measured",
    "tail_converged",
    "evaluate_hinted",
    "alternating_profile",
    "random_alternating_strategies",
    "oracle_equivalence_gaps",
]

_METHODS = ("closed_form", "measured")


@dataclass(frozen=True)
class TradeoffPoint:
    """A (consistency, robustness) pair with its evaluation method.

    ``converged`` reports whether the last five ratio terms sat within 1e-6
    of the supremum (finite prefixes only approach the true suprema).
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


def tradeoff_to_json(point: TradeoffPoint) -> dict:
    """JSON form; an infinite robustness serializes as the string "inf"."""
    robustness: object = point.robustness
    if math.isinf(point.robustness):
        robustness = "inf"
    return {
        "consistency": point.consistency,
        "robustness": robustness,
        "method": point.method,
        "converged": point.converged,
    }


def tradeoff_from_json(obj: object) -> TradeoffPoint:
    if not isinstance(obj, dict):
        raise ValueError("tradeoff JSON must be an object")
    for key in ("consistency", "robustness", "method", "converged"):
        if key not in obj:
            raise ValueError(f"tradeoff JSON is missing field '{key}'")
    robustness = obj["robustness"]
    if robustness == "inf":
        robustness = math.inf
    return TradeoffPoint(
        obj["consistency"], robustness, obj["method"], obj["converged"]
    )


@dataclass(frozen=True)
class TargetGrid:
    """Sorted target distances (>= 1) plus the relative offset used to place
    probes just past turn points."""

    distances: tuple[float, ...]
    epsilon: float = 1e-9

    def __post_init__(self) -> None:
        eps = float(self.epsilon)
        if not 0.0 < eps <= 1e-3:
            raise ValueError(f"epsilon must be in (0, 1e-3], got {self.epsilon!r}")
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
        object.__setattr__(self, "epsilon", eps)


def default_grid(
    strategy: Strategy, points: int = 64, epsilon: float = 1e-9
) -> TargetGrid:
    """Turn points (offset by 1+epsilon) plus a log-spaced safety net on
    [1, farthest turn point]."""
    turn = strategy.lengths * (1.0 + epsilon)
    hi = max(float(np.max(strategy.lengths)), 1.0)
    net = np.logspace(0.0, math.log10(hi), max(int(points), 2))
    distances = np.unique(np.concatenate([turn[turn >= 1.0], net, [1.0]]))
    return TargetGrid(distances, epsilon)


def family_grid(
    members: Iterable[Strategy], points: int = 64, epsilon: float = 1e-9
) -> TargetGrid:
    """Joint grid for a family: every member's turn points (offset), capped at
    the smallest per-branch reach so each target is inside every horizon."""
    members = list(members)
    if not members:
        raise ValueError("family grid needs at least one member strategy")
    cap = min(m.last_turn_point(branch) for m in members for branch in (0, 1))
    if cap < 1.0:
        raise ValueError("family horizon does not reach distance 1 on both branches")
    turn = np.concatenate([m.lengths for m in members]) * (1.0 + epsilon)
    net = np.logspace(0.0, math.log10(cap), max(int(points), 2))
    merged = np.concatenate([turn, net, [1.0]])
    merged = merged[(merged >= 1.0) & (merged <= cap)]
    return TargetGrid(np.unique(merged), epsilon)


def worst_case_cost_at_turn(strategy: Strategy, i: int) -> float:
    """Cost of finding a target hidden just past turn point i (in the limit):
    2 * (x_0 + .. + x_i) + x_{i-1}, with x_{-1} = 1."""
    n = len(strategy)
    if not 0 <= i < n:
        raise IndexError(f"turn index {i} out of range for {n} segments")
    prev = float(strategy.lengths[i - 1]) if i > 0 else 1.0
    return float(2.0 * strategy.prefix_sums[i + 1] + prev)


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


def tail_converged(values: np.ndarray, window: int = 5, tol: float = 1e-6) -> bool:
    """True when the last ``window`` values sit within ``tol`` of the max."""
    v = np.asarray(values, dtype=float)
    if v.size < window:
        return False
    return bool(float(np.max(v)) - float(np.min(v[-window:])) <= tol)


def competitive_ratio_measured(
    strategy: Strategy, grid: Optional[TargetGrid] = None
) -> float:
    """Brute-force competitive ratio: max of search_cost/d over the grid
    distances and the strategy's own turn points (offset by 1+epsilon), on
    both branches, restricted to targets the prefix actually finds."""
    if grid is None:
        grid = default_grid(strategy)
    turn = strategy.lengths * (1.0 + grid.epsilon)
    d = np.unique(np.concatenate([np.asarray(grid.distances), turn[turn >= 1.0]]))
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
    converged = all(tail_converged(competitive_ratio_terms(m)) for m in members)
    return TradeoffPoint(consistency, robustness, "measured", converged)


def alternating_profile(strategy: Strategy) -> TradeoffPoint:
    """Closed-form (consistency, robustness) functionals of an alternating
    strategy whose first segment searches the hinted branch.

    consistency terms: 1 + 2*(x_0+..+x_{2k+1})/x_{2k}
    robustness terms:  1 + 2*(x_0+..+x_{2k})/x_{2k-1}, with x_{-1} = 1.
    """
    if len(strategy) < 2:
        raise ValueError("alternating profile needs at least 2 segments")
    branches = strategy.branches
    if np.any(branches[1:] == branches[:-1]):
        raise ValueError("strategy must alternate branches")
    x = strategy.lengths
    csum = strategy.prefix_sums[1:]
    odd_sums = csum[1::2]
    c_terms = 1.0 + 2.0 * odd_sums / x[0::2][: odd_sums.size]
    even_sums = csum[0::2]
    r_denoms = np.concatenate(([1.0], x[1::2]))[: even_sums.size]
    r_terms = 1.0 + 2.0 * even_sums / r_denoms
    return TradeoffPoint(
        float(np.max(c_terms)),
        float(np.max(r_terms)),
        "closed_form",
        tail_converged(c_terms) and tail_converged(r_terms),
    )


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
