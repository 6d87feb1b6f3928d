"""Competitive-ratio evaluation: closed-form and brute-force (measured).

The closed form scores a strategy by the worst ratio of each cell between
two turn points, read per branch (_cells); the measured path probes search
costs just past every turn point.  Hinted families are scored by consistency
(ratio when the hint is trusted) and robustness (ratio under the worst hint).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, Optional, Union

import numpy as np

from ._rules import (
    _MAX_SEGMENTS,
    DEFAULT_HORIZON,
    HorizonTooShort,
    _admit,
    _integer,
)
from .bounds import TradeoffPoint
from .hints import HintedStrategy
from .model import (
    Members,
    Strategy,
    _alternating_rows,
    _distinct,
    _reals,
    _shortest_reach,
    search_costs,
)

__all__ = [
    "TargetGrid",
    "family_grid",
    "competitive_ratio_terms",
    "competitive_ratio",
    "competitive_ratio_measured",
    "evaluate_hinted",
    "random_alternating_strategies",
    "oracle_equivalence_gaps",
]


@dataclass(frozen=True, eq=False)
class TargetGrid:
    """Sorted target distances, each read as search_costs reads it: a
    read-only float64 array, a copy of the constructor's argument."""

    distances: np.ndarray

    def __post_init__(self) -> None:
        d = _reals(self.distances, "distance", 1.0).copy()
        if d.ndim != 1:
            raise ValueError(f"target grid distances must be 1-D, got shape {d.shape}")
        if d.size == 0:
            raise ValueError("target grid must contain at least one distance")
        if np.any(d[1:] < d[:-1]):
            raise ValueError("grid distances must be sorted ascending")
        d.flags.writeable = False
        object.__setattr__(self, "distances", d)

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through the checked constructor
        return (TargetGrid, (self.distances,))


def family_grid(members: Union[Iterable[Strategy], Members]) -> TargetGrid:
    """Joint grid for a family: distance 1 plus a probe one ulp past every
    member's turn points (a cell's supremum is its left-end limit), capped
    at the smallest per-branch reach so each target is inside every
    horizon.  A reach below 1 raises HorizonTooShort."""
    members = Members.stack(members)
    if not len(members):
        raise ValueError("family grid needs at least one member strategy")
    cap = _shortest_reach(members)
    if cap < 1.0:
        raise HorizonTooShort(
            "family horizon does not reach distance 1 on both branches"
        )
    probes = np.nextafter(members.lengths, np.inf)  # NaN padding yields no probe
    inside = probes[(probes >= 1.0) & (probes <= cap)]
    return TargetGrid(_distinct(np.append(inside, 1.0)))


def _cells(members: Members) -> tuple[np.ndarray, np.ndarray]:
    """The closed form, exact on every strategy: the ratio of each cell.

    Between two turn points on one branch a target costs C + d, so a cell's
    supremum is its ratio at the left end.  Segment s opens a cell on its
    branch when x_s >= 1 and x_s > M, the farthest earlier turn point there
    (0 if none): the targets in (max(M, 1), x_s] cost 2 * sums[s] + d, so
    the cell's ratio is 1 + 2 * sums[s] / max(M, 1).  The column after a
    row's last segment is the cell just past the farthest turn point on the
    other branch, the one the next alternating segment would search, with
    the whole walk as its prefix.  For an alternating strategy whose lengths
    are >= 1 and grow two apart, column i + 1 is the paper's term
    1 + 2 * (x_0 + .. + x_i) / x_{i-1}, x_{-1} = 1.

    Returns (cells, settled).  cells[i, s] is the ratio of the cell column s
    of row i opens, NaN where it opens none.  settled[i, b] says whether
    branch b's tail has converged: it has at least five cells and its
    largest is within 1e-6 of the least of its last five.
    """
    lengths, branches, sums = members.lengths, members.branches, members.sums
    rows = np.arange(len(members))
    ends = np.count_nonzero(branches >= 0, axis=1)  # each row's end column
    reach = np.full(sums.shape, np.nan)
    reach[:, :-1] = lengths
    reach[rows, ends] = np.inf  # the end column's cell always opens
    side = np.full(sums.shape, -1, dtype=np.int8)
    side[:, :-1] = branches
    side[rows, ends] = 1 - branches[rows, ends - 1]
    mine = side == np.arange(2, dtype=np.int8)[:, None, None]  # per branch
    far = np.zeros(mine.shape)  # the farthest earlier turn point
    on = np.where(mine[:, :, :-1], reach[:, :-1], 0.0)  # no NaN: fmax is max
    np.fmax.accumulate(on, axis=2, out=far[:, :, 1:])
    far = np.where(side == 1, far[1], far[0])
    opens = (reach >= 1.0) & (reach > far)  # NaN compares false
    cells = 2.0 * sums
    cells /= np.maximum(far, 1.0)
    cells += 1.0
    cells[~opens] = np.nan
    mine &= opens
    rank = np.cumsum(mine, axis=2, dtype=np.int32)
    count = rank[:, :, -1:]
    top = np.max(np.where(mine, cells, -np.inf), axis=2)
    low = np.min(np.where(mine & (rank > count - 5), cells, np.inf), axis=2)
    settled = (count[:, :, 0] >= 5) & (top - low <= 1e-6)
    return cells, settled.T


def competitive_ratio_terms(strategy: Strategy) -> np.ndarray:
    """Per column 1..n, the ratio of the cell it opens (see _cells; NaN
    where none): 1 + 2*(x_0+..+x_i)/x_{i-1}, with x_{-1} = 1, for an
    alternating strategy whose lengths are >= 1 and grow two apart.  The
    competitive ratio is the maximum of these terms."""
    return _cells(Members.stack(strategy))[0][0, 1:]


def competitive_ratio(strategy: Strategy) -> float:
    """Closed-form competitive ratio of the finite prefix: its largest cell."""
    return float(np.fmax.reduce(_cells(Members.stack(strategy))[0][0]))


def _measured_ratios(members: Members) -> np.ndarray:
    """Per member, its brute-force competitive ratio (see
    competitive_ratio_measured): one row-wise search_costs call per branch
    scores every member at distance 1 and one ulp past each of its turn
    points.  A probe below 1 or past the row's end repeats distance 1,
    which leaves the row's maximum ratio as it is."""
    d = np.ones((len(members), 1 + members.lengths.shape[1]))
    probes = np.nextafter(members.lengths, np.inf, out=d[:, 1:])
    probes[~(probes >= 1.0)] = 1.0  # NaN (past the end) compares false
    best = np.full(len(members), np.nan)
    for branch in (0, 1):
        ratios = search_costs(members, d, branch)
        ratios /= d
        best = np.fmax(best, np.fmax.reduce(ratios, axis=1))
    lost = np.isnan(best)  # no segment of the row reaches distance 1
    if lost.any():
        longest = float(np.fmax.reduce(members.lengths[np.argmax(lost)]))
        raise ValueError(f"no segment reaches distance 1: the longest is {longest!r}")
    return best


def competitive_ratio_measured(strategy: Strategy) -> float:
    """Brute-force competitive ratio: max of search_cost/d over distance 1
    and one ulp past each of the strategy's own turn points, on both
    branches, restricted to targets the prefix actually finds."""
    return float(_measured_ratios(Members.stack(strategy))[0])


def evaluate_hinted(
    family: HintedStrategy, grid: Optional[TargetGrid] = None
) -> TradeoffPoint:
    """Measured consistency and robustness of a hinted family.

    Each hint's member is built once and stacked once, into the record every
    step reads.  Consistency is the worst ratio over targets when the hint
    is trusted: the family's batched ``trusted_costs`` rule gives, per
    target, the cost of the member its trusted hint selects.  To trust the
    whole hint space (the cheapest member counts), pass
    ``dataclasses.replace(family, trusted_costs=cheapest_trusted_costs)``.
    Robustness is the worst member's measured competitive ratio, each member
    probed at its own turn points (the adversarial targets are
    member-specific); one row-wise search_costs pass per branch scores every
    member.  Targets no trusted member finds raise HorizonTooShort.
    """
    hints = family.hint_space
    if not hints:
        raise ValueError("hint_space must be a non-empty finite collection")
    members = Members.stack([family.select(h) for h in hints])
    distances = (family_grid(members) if grid is None else grid).distances

    consistency = 1.0
    for branch in (0, 1):
        costs = family.trusted_costs(members, distances, branch)
        missed = ~np.isfinite(costs)
        if missed.any():
            d_bad = float(distances[missed][0])
            raise HorizonTooShort(
                f"no trusted member finds target (d={d_bad}, branch={branch}) "
                "within the horizon"
            )
        consistency = max(consistency, float(np.max(costs / distances)))

    robustness = float(np.max(_measured_ratios(members)))
    # Per branch: a member whose two branches grow at different rates has
    # cells that alternate between two limits.
    converged = bool(_cells(members)[1].all())
    return TradeoffPoint(consistency, robustness, "measured", converged)


def random_alternating_strategies(
    count: int = 200, seed: int = 0, horizon: int = DEFAULT_HORIZON
) -> list[Strategy]:
    """Seeded random geometric strategies: base in (1.5, 4], log-uniform scale
    in [0.25, 4], random first branch, drawn in that order per strategy by
    ``random.Random(seed)``.  Every length is at most 4 * 4**i, the envelope
    the record is admitted by (so horizon <= 511), before any strategy is
    built.  The strategies are the rows of one record, built in one
    broadcast."""
    # random.Random would also hash a float, a string or None into a seed
    seed = _integer(seed, "seed", 0)
    count = _integer(count, "count", 0, _MAX_SEGMENTS)
    horizon = _admit(count, horizon, 4.0, 4.0, f"count={count}")
    rng = random.Random(seed)
    low, high = math.log(0.25), math.log(4.0)
    draws = [
        (4.0 - rng.uniform(0.0, 2.5), math.exp(rng.uniform(low, high)), rng.randrange(2))
        for _ in range(count)
    ]
    bases, scales, firsts = np.array(draws).reshape(-1, 3).T[:, :, None]
    lengths = bases ** np.arange(horizon, dtype=float)
    lengths *= scales
    row = _alternating_rows(lengths, firsts[:, 0].astype(int))
    return [row(i) for i in range(count)]


def oracle_equivalence_gaps(count: int = 200, seed: int = 0) -> np.ndarray:
    """|closed form - measured| per random strategy of DEFAULT_HORIZON
    segments; the two evaluators must agree because worst-case targets sit
    just past turn points."""
    members = Members.stack(random_alternating_strategies(count, seed))
    closed = np.fmax.reduce(_cells(members)[0], axis=1)
    return np.abs(closed - _measured_ratios(members))
