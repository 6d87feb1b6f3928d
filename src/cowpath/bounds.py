"""Closed-form tradeoff bounds, frontier curves, and inequality checks.

Conventions: r is the robustness budget (r >= 9), b_r the larger root of
b**2/(b-1) = (r-1)/2, and every bound formula is an exact closed form,
the direction frontier included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .hints import _direction_params, kbit_base
from .model import (
    Strategy,
    base_for_robustness,
    make_geometric,
    rho,
    robust_base_interval,
)
from .ratios import TradeoffPoint

__all__ = [
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
    "robust_base_grid",
    "growth_lemma_sweep",
    "prefix_bound_sweep",
    "frontier_curve",
    "build_frontiers",
    "frontier_to_csv",
]

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

    c = 1 + 2(b**2 + delta*b**3)/(b**2 - 1),
    r = 1 + 2(b**2 + b**3/delta)/(b**2 - 1).
    """
    b, delta = _direction_params(b, delta)
    denom = b * b - 1.0
    c = 1.0 + 2.0 * (b * b + delta * b**3) / denom
    r = 1.0 + 2.0 * (b * b + b**3 / delta) / denom
    return TradeoffPoint(c, r, "closed_form", True)


def _direction_point(r: float) -> FrontierPoint:
    """Exact minimum consistency of the direction family subject to
    robustness <= r and delta in [1/b, 1] (delta >= 1/b keeps every segment
    at length >= 1), with u = b**2 and rho = (r - 1)/2.

    Two candidates, each kept when feasible: the interior, where delta is
    robustness-tight and c = 1 + 2u(u + rho)/((rho - 1)u - rho) is
    stationary at u = rho/(sqrt(rho) - 1); and the edge delta = 1/b, where
    c = 5 + 4/(u - 1) falls in u up to the larger root of
    2u**2 + (3 - r)u + (r - 1) = 0.  The base-interval endpoints give c = r
    and never win.
    """
    p = rho(r)
    candidates = []
    u = p / (math.sqrt(p) - 1.0)
    denom = (p - 1.0) * u - p
    b = math.sqrt(u)
    delta = b**3 / denom
    if 1.0 / b <= delta <= 1.0:
        candidates.append((1.0 + 2.0 * u * (u + p) / denom, b, delta))
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
    points = tuple(_direction_point(float(r)) for r in r_values)
    return FrontierCurve("direction", None, points)


def onebit_consistency_upper(r: float) -> float:
    """1-bit consistency upper bound: the k-bit bound at k=1."""
    return kbit_consistency_upper(r, 1)


def kbit_consistency_upper(r: float, k: int) -> float:
    """k-bit consistency upper bound 1 + 2 a**(1 + 1/2**k) / (a - 1) with a
    the family base."""
    a = kbit_base(r, k)
    return 1.0 + 2.0 * a ** (1.0 + 1.0 / 2.0 ** int(k)) / (a - 1.0)


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


def check_segment_growth_lemma(
    strategy: Strategy, r: float, tolerance: float = 1e-9
) -> InequalityReport:
    """Margins x_i - (b_r + b_r/(i+1)) x_{i-1} (x_{-1} = 1) for a strategy
    whose competitive ratio is at most r; positive margin = violation."""
    b = base_for_robustness(r)
    x = strategy.lengths
    prev = np.concatenate(([1.0], x[:-1]))
    i = np.arange(len(x), dtype=float)
    margins = x - (b + b / (i + 1.0)) * prev
    return _report("segment_growth", margins, tolerance)


def check_prefix_sum_bound(
    strategy: Strategy, r: float, tolerance: float = 1e-9
) -> InequalityReport:
    """Margins of sum_{j<i} x_j >= x_i/(1 + 1/(i+1)) * ((i+2)/(i+1) - b_r/(b_r-1))
    rearranged so that positive margin = violation; the i = 0 margin is 0 by
    convention (empty sum, trivially holding).  tail_index is the largest i
    where the prefix sum still clears x_i/(b_r - 1) - 1e-2 slack."""
    b = base_for_robustness(r)
    x = strategy.lengths
    csum = np.concatenate(([0.0], np.cumsum(x)[:-1]))
    i = np.arange(len(x), dtype=float)
    scale = x / (1.0 + 1.0 / (i + 1.0))
    margins = scale * (b / (b - 1.0) - (i + 2.0) / (i + 1.0)) - csum
    margins[0] = 0.0
    tail_ok = csum >= (1.0 / (b - 1.0)) * x - 1e-2 * x
    tail_index = int(np.max(np.nonzero(~tail_ok)[0])) if np.any(~tail_ok) else None
    return _report("prefix_sum", margins, tolerance, tail_index)


def _report(
    label: str,
    margins: np.ndarray,
    tolerance: float,
    tail_index: Optional[int] = None,
) -> InequalityReport:
    bad = np.nonzero(margins > tolerance)[0]
    violation = int(bad[0]) if bad.size else None
    return InequalityReport(
        label=label,
        margins=tuple(float(m) for m in margins),
        holds=violation is None,
        violation_index=violation,
        tolerance=float(tolerance),
        tail_index=tail_index,
    )


def robust_base_grid(r: float, points: int = 20) -> np.ndarray:
    """Evenly spaced bases spanning the feasible interval at budget r."""
    lo, hi = robust_base_interval(r)
    return np.linspace(lo, hi, int(points))


def _geometric_sweep(
    check, rs: Sequence[float], points: int, horizon: int
) -> list[InequalityReport]:
    return [
        check(make_geometric(b, horizon), r)
        for r in rs
        for b in robust_base_grid(r, points)
    ]


def growth_lemma_sweep(
    rs: Sequence[float] = (9.0, 10.0, 13.0, 25.0),
    points: int = 20,
    horizon: int = 101,
) -> list[InequalityReport]:
    """Segment-growth margins for geometric strategies across the feasible
    base range of each budget."""
    return _geometric_sweep(check_segment_growth_lemma, rs, points, horizon)


def prefix_bound_sweep(
    rs: Sequence[float] = (9.0, 10.0, 13.0, 25.0),
    points: int = 20,
    horizon: int = 101,
) -> list[InequalityReport]:
    """Prefix-sum margins for geometric strategies across the feasible base
    range of each budget."""
    return _geometric_sweep(check_prefix_sum_bound, rs, points, horizon)


def frontier_curve(
    hint_class: str, r_values: Sequence[float], k: int = 2
) -> FrontierCurve:
    """Frontier curve of one hint class at the given budgets: position
    (tight), direction (exact optimum), onebit and kbit (upper bound with the
    class floor as lower); k is used by kbit only."""
    rs = [float(r) for r in r_values]
    if hint_class == "direction":
        return direction_frontier(rs)
    if hint_class == "position":
        k, pairs = None, [(position_consistency_bound(r),) * 2 for r in rs]
    elif hint_class == "onebit":
        k = 1
        pairs = [(onebit_consistency_upper(r), onebit_lower(r).value) for r in rs]
    elif hint_class == "kbit":
        k = int(k)
        pairs = [(kbit_consistency_upper(r, k), kbit_floor().value) for r in rs]
    else:
        raise ValueError(f"unknown hint_class {hint_class!r}")
    points = tuple(FrontierPoint(r, cu, cl) for r, (cu, cl) in zip(rs, pairs))
    return FrontierCurve(hint_class, k, points)


def build_frontiers(
    r_values: Sequence[float], ks: Sequence[int] = (2,)
) -> list[FrontierCurve]:
    """Frontier curves for every hint class at the given budgets: position,
    direction and onebit, then one kbit curve per k."""
    curves = [frontier_curve(c, r_values) for c in ("position", "direction", "onebit")]
    return curves + [frontier_curve("kbit", r_values, k) for k in ks]


def frontier_to_csv(curves: Sequence[FrontierCurve]) -> str:
    """CSV with header hint_class,k,r,c_upper,c_lower,b_star,delta_star;
    numbers use 9 significant digits, '.' decimal separator, 'inf' for
    infinity, empty for absent fields."""

    def num(value: Optional[float]) -> str:
        if value is None:
            return ""
        if math.isinf(value):
            return "inf"
        return f"{value:.9g}"

    lines = ["hint_class,k,r,c_upper,c_lower,b_star,delta_star"]
    for curve in curves:
        k_str = "" if curve.k is None else str(curve.k)
        for p in curve.points:
            lines.append(
                f"{curve.hint_class},{k_str},{num(p.r)},{num(p.c_upper)},"
                f"{num(p.c_lower)},{num(p.b_star)},{num(p.delta_star)}"
            )
    return "\n".join(lines) + "\n"
