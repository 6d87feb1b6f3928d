"""Closed-form tradeoff bounds, frontier curves, and inequality checks.

Conventions: r is the robustness budget (r >= 9), b_r the larger root of
b**2/(b-1) = (r-1)/2, and every bound formula is an exact closed form,
the direction frontier included.  No numpy is imported here, so `cowpath
frontier` never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, count
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from ._rules import (
    _MAX_K,
    DEFAULT_HORIZON,
    HorizonTooShort,
    _direction_params,
    _integer,
    _real,
)

if TYPE_CHECKING:
    from .model import Strategy

__all__ = [
    "DEFAULT_HORIZON",
    "HorizonTooShort",
    "base_for_robustness",
    "kbit_base",
    "TradeoffPoint",
    "FrontierPoint",
    "FrontierCurve",
    "LowerBound",
    "InequalityReport",
    "position_consistency_bound",
    "direction_tradeoff",
    "direction_frontier",
    "onebit_consistency_upper",
    "kbit_consistency_upper",
    "onebit_lower",
    "kbit_floor",
    "check_segment_growth_lemma",
    "check_prefix_sum_bound",
    "growth_lemma_sweep",
    "prefix_bound_sweep",
    "frontier_curve",
    "build_frontiers",
]


def _rho(r: float) -> float:
    """Half the allowed overhead, (r - 1) / 2; defined for r >= 9."""
    return (_budget(r) - 1.0) / 2.0


def _budget(r: object) -> float:
    """A robustness budget r >= 9, as a float."""
    return _real(r, "r", 9.0, reason=" (no base is r-robust below)")


def base_for_robustness(r: float) -> float:
    """Largest geometric base whose ratio 1 + 2*b^2/(b-1) still meets r.

    The identity b^2/(b-1) == _rho(r) holds for the returned base.
    """
    return _robust_base_interval(r)[1]


def _robust_base_interval(r: float) -> tuple[float, float]:
    """Both roots of b^2/(b-1) = _rho(r): the r-robust base interval."""
    p = _rho(r)
    # sqrt(p*p - 4p) in two factors: p*p overflows past p ~ 1.3e154
    hi = (p + math.sqrt(p) * math.sqrt(p - 4.0)) / 2.0
    # The roots multiply to p; (p - sqrt(p*p - 4p)) / 2 would cancel at large r.
    return (p / hi, hi)



def kbit_base(r: float, k: int) -> float:
    """Growth base of the k-bit family: b_r while _rho(r) stays below
    (1+2**k)**2 / 2**k, then the constant 1 + 2**k."""
    k = _integer(k, "k", 1, _MAX_K)
    p = _rho(r)
    threshold = (1.0 + 2.0**k) ** 2 / 2.0**k
    if p <= threshold:
        return base_for_robustness(r)
    return 1.0 + 2.0**k


_METHODS = ("closed_form", "measured")


@dataclass(frozen=True)
class TradeoffPoint:
    """A (consistency, robustness) pair with its evaluation method.

    ``converged`` reports whether, on each branch, the last five cell ratios
    sat within 1e-6 of that branch's largest (finite prefixes only approach
    the true suprema).
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


class LowerBound(NamedTuple):
    """A lower bound together with the class of strategies it binds."""

    value: float
    scope: str  # "all_strategies" or "asymptotic_strategies"


@dataclass(frozen=True)
class FrontierPoint:
    """One point of a consistency-robustness frontier at budget r."""

    r: float
    c_upper: float
    c_lower: float
    b_star: Optional[float] = None
    delta_star: Optional[float] = None

    def __post_init__(self) -> None:
        if self.c_lower > self.c_upper + 1e-9:
            raise ValueError(
                f"c_lower {self.c_lower} exceeds c_upper {self.c_upper}"
            )


@dataclass(frozen=True)
class FrontierCurve:
    """Consistency bounds as a function of the robustness budget."""

    hint_class: str
    k: Optional[int]
    points: tuple[FrontierPoint, ...]

    def __post_init__(self) -> None:
        rs = [p.r for p in self.points]
        if any(a >= b for a, b in zip(rs, rs[1:])):
            raise ValueError("frontier points must have strictly increasing r")
        uppers = [p.c_upper for p in self.points]
        for a, b in zip(uppers, uppers[1:]):
            if b > a + 1e-9:
                raise ValueError("c_upper must be non-increasing in r")


def position_consistency_bound(r: float) -> float:
    """Best consistency at robustness r for position hints: (b+1)/(b-1)."""
    b = base_for_robustness(r)
    return (b + 1.0) / (b - 1.0)


def direction_tradeoff(b: float, delta: float) -> TradeoffPoint:
    """Closed-form (consistency, robustness) of the direction family.

    c = 1 + 2(b**2 + delta*b**3)/(b**2 - 1) = 1 + 2(1 + delta*b)u,
    r = 1 + 2(b**2 + b**3/delta)/(b**2 - 1) = 1 + 2(1 + b/delta)u,
    with u = b**2/(b**2 - 1) taken as (b/(b - 1))(b/(b + 1)), so that no
    b**3 overflows and no b**2 - 1 cancels near b = 1.
    """
    b, delta = _direction_params(b, delta)
    u = (b / (b - 1.0)) * (b / (b + 1.0))
    c = 1.0 + 2.0 * (1.0 + delta * b) * u
    if c == math.inf:
        raise ValueError(
            f"b={b!r}, delta={delta!r}: the consistency leaves the float range"
        )
    r = 1.0 + 2.0 * (1.0 + b / delta) * u
    return TradeoffPoint(c, r, "closed_form", True)


def _direction_point(r: float) -> FrontierPoint:
    """Exact minimum consistency of the direction family subject to
    robustness <= r and delta in [1/b, 1] (delta >= 1/b keeps every segment
    at length >= 1), with u = b**2 and rho = (r - 1)/2.

    Two candidates, each kept when feasible: the interior, where delta is
    robustness-tight and c = 1 + 2u(u + rho)/((rho - 1)u - rho) is stationary
    at u = rho/s, s = sqrt(rho) - 1, so c = 1 + 2(1 + 1/s)**2, b = sqrt(rho/s)
    and delta = s**-1.5; and the edge delta = 1/b, where c = 5 + 4/(u - 1)
    falls in u up to the larger root of 2u**2 + (3 - r)u + (r - 1) = 0.  The
    base-interval endpoints give c = r and never win.
    """
    p = _rho(r)
    candidates = []
    s = math.sqrt(p) - 1.0
    b, delta = math.sqrt(p / s), s**-1.5
    if 1.0 / b <= delta <= 1.0:
        candidates.append((1.0 + 2.0 * (1.0 + 1.0 / s) ** 2, b, delta))
    # the edge root is real once (r - 3)**2 - 8(r - 1) = (r - 7)**2 - 32 >= 0;
    # its square root is taken in two factors so nothing overflows at huge r
    lo, hi = r - 7.0 - math.sqrt(32.0), r - 7.0 + math.sqrt(32.0)
    if lo >= 0.0:
        u = (r - 3.0) / 4.0 + math.sqrt(lo) * math.sqrt(hi) / 4.0
        b = math.sqrt(u)
        candidates.append((5.0 + 4.0 / (u - 1.0), b, 1.0 / b))
    c, b, delta = min(candidates)
    return FrontierPoint(r, c, c, b, delta)


def direction_frontier(r_values: Sequence[float]) -> FrontierCurve:
    """Best-achievable consistency of the direction family per robustness
    budget, in closed form; upper and lower coincide because the optimum is
    exact, not bounded."""
    points = tuple(_direction_point(_budget(r)) for r in r_values)
    return FrontierCurve("direction", None, points)


def onebit_consistency_upper(r: float) -> float:
    """1-bit consistency upper bound: the k-bit bound at k=1."""
    return kbit_consistency_upper(r, 1)


def kbit_consistency_upper(r: float, k: int) -> float:
    """k-bit consistency upper bound 1 + 2 a**(1 + 1/2**k) / (a - 1) with a
    the family base."""
    a = kbit_base(r, k)
    return 1.0 + 2.0 * a ** (1.0 + 1.0 / 2.0**k) / (a - 1.0)


def onebit_lower(r: float) -> LowerBound:
    """Consistency lower bound with one hint bit at robustness budget r.

    At r = 9 the bound 5 holds for every strategy; for r > 9 the bound
    1 + 2 b_r/(b_r - 1) binds asymptotic strategies only.
    """
    b = base_for_robustness(r)
    if r <= 9.0:
        return LowerBound(5.0, "all_strategies")
    return LowerBound(1.0 + 2.0 * b / (b - 1.0), "asymptotic_strategies")


def kbit_floor() -> LowerBound:
    """No finite hint string beats consistency 3 at any finite robustness."""
    return LowerBound(3.0, "all_strategies")


@dataclass(frozen=True)
class InequalityReport:
    """Per-index margins of an inequality check; holds when every margin is
    within tolerance."""

    label: str
    margins: tuple[float, ...]
    holds: bool
    violation_index: Optional[int]
    tolerance: float
    tail_index: Optional[int] = None


# Every inequality check holds to rounding: a margin above this is a violation.
_TOLERANCE = 1e-9


def check_segment_growth_lemma(strategy: Strategy, r: float) -> InequalityReport:
    """Margins x_i - (b_r + b_r/(i+1)) x_{i-1} (x_{-1} = 1) for a strategy
    whose competitive ratio is at most r; positive margin = violation."""
    b = base_for_robustness(r)
    x = strategy.lengths.tolist()
    # j = i + 1 counts from 1.0, exact as a float
    margins = [
        xi - (b + b / j) * prev for j, xi, prev in zip(count(1.0), x, [1.0, *x[:-1]])
    ]
    return _report("segment_growth", margins)


def check_prefix_sum_bound(strategy: Strategy, r: float) -> InequalityReport:
    """Margins of sum_{j<i} x_j >= x_i/(1 + 1/(i+1)) * ((i+2)/(i+1) - b_r/(b_r-1))
    rearranged so that positive margin = violation; the i = 0 margin is 0 by
    convention (empty sum, trivially holding).  tail_index is the largest i
    whose prefix sum falls short of x_i/(b_r - 1) - 0.01 * x_i, or None if
    none does: past it, the prefix mass has caught up."""
    b = base_for_robustness(r)
    x = strategy.lengths.tolist()
    csum = [0.0, *accumulate(x[:-1])]
    c, slope = b / (b - 1.0), 1.0 / (b - 1.0)
    # j = i + 1, as in check_segment_growth_lemma
    margins = [
        xi / (1.0 + 1.0 / j) * (c - (j + 1.0) / j) - s
        for j, xi, s in zip(count(1.0), x, csum)
    ]
    margins[0] = 0.0
    short = [
        i for i, xi, s in zip(count(), x, csum) if not s >= slope * xi - 1e-2 * xi
    ]
    return _report("prefix_sum", margins, short[-1] if short else None)


def _report(
    label: str, margins: list[float], tail_index: Optional[int] = None
) -> InequalityReport:
    violation = next((i for i, m in enumerate(margins) if m > _TOLERANCE), None)
    return InequalityReport(
        label=label,
        margins=tuple(margins),
        holds=violation is None,
        violation_index=violation,
        tolerance=_TOLERANCE,
        tail_index=tail_index,
    )


# The sweep grid of both inequality sweeps: these budgets, 20 bases at each,
# and geometric strategies of 101 segments.
_SWEEP_RS = (9.0, 10.0, 13.0, 25.0)
_SWEEP_HORIZON = 101


def _sweep_cells() -> list[tuple[float, float]]:
    """The (r, b) of each report of a sweep, in order: at each budget r, 20
    evenly spaced bases spanning the feasible interval, the points of
    numpy.linspace(lo, hi, 20), lo + i * step with the last one exactly hi."""
    cells = []
    for r in _SWEEP_RS:
        lo, hi = _robust_base_interval(r)
        step = (hi - lo) / 19
        cells += [(r, lo + i * step) for i in range(19)] + [(r, hi)]
    return cells


def _geometric_sweep(check) -> list[InequalityReport]:
    from .model import make_geometric  # model imports this module

    return [check(make_geometric(b, _SWEEP_HORIZON), r) for r, b in _sweep_cells()]


def growth_lemma_sweep() -> list[InequalityReport]:
    """Segment-growth margins for geometric strategies across the feasible
    base range of each budget of the sweep grid."""
    return _geometric_sweep(check_segment_growth_lemma)


def prefix_bound_sweep() -> list[InequalityReport]:
    """Prefix-sum margins for geometric strategies across the feasible base
    range of each budget of the sweep grid."""
    return _geometric_sweep(check_prefix_sum_bound)


def frontier_curve(
    hint_class: str, r_values: Sequence[float], k: int = 2
) -> FrontierCurve:
    """Frontier curve of one hint class at the given budgets: position
    (tight), direction (exact optimum), onebit and kbit (upper bound with the
    class floor as lower); k is checked for every class, used by kbit only."""
    rs = [_budget(r) for r in r_values]
    k = _integer(k, "k", 1, _MAX_K)
    if hint_class == "direction":
        return direction_frontier(rs)
    if hint_class == "position":
        k, pairs = None, [(position_consistency_bound(r),) * 2 for r in rs]
    elif hint_class == "onebit":
        k = 1
        pairs = [(onebit_consistency_upper(r), onebit_lower(r).value) for r in rs]
    elif hint_class == "kbit":
        pairs = [(kbit_consistency_upper(r, k), kbit_floor().value) for r in rs]
    else:
        raise ValueError(f"unknown hint_class {hint_class!r}")
    points = tuple(FrontierPoint(r, cu, cl) for r, (cu, cl) in zip(rs, pairs))
    return FrontierCurve(hint_class, k, points)


def build_frontiers(r_values: Sequence[float], k: int = 2) -> list[FrontierCurve]:
    """Frontier curves for every hint class at the given budgets: position,
    direction, onebit, then the kbit curve of k bits."""
    hint_classes = ("position", "direction", "onebit", "kbit")
    return [frontier_curve(c, r_values, k) for c in hint_classes]
