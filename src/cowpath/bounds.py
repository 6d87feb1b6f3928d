"""Closed-form tradeoff bounds, frontier curves, and inequality checks.

Conventions: r is the robustness budget (r >= 9), b_r the larger root of
b**2/(b-1) = (r-1)/2, and every bound formula is an exact closed form,
the direction frontier included.

This module is the package's numpy-free layer: it imports only the
standard library, so `cowpath --help`, usage errors and `cowpath frontier`
never load numpy.  The scalar pieces the other modules share (the robust
base interval, the k-bit base, the parameter checks, the integer and real
rules, the admission rule of member records, TradeoffPoint) live here for
that reason.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from itertools import accumulate, count
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

if TYPE_CHECKING:
    from .model import Strategy

__all__ = [
    "DEFAULT_HORIZON",
    "HorizonTooShort",
    "rho",
    "base_for_robustness",
    "robust_base_interval",
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
    "robust_base_grid",
    "growth_lemma_sweep",
    "prefix_bound_sweep",
    "frontier_curve",
    "build_frontiers",
    "frontier_to_csv",
]

DEFAULT_HORIZON = 64


class HorizonTooShort(Exception):
    """A required target lies beyond every candidate's finite segment prefix."""


def rho(r: float) -> float:
    """Half the allowed overhead, (r - 1) / 2; defined for r >= 9."""
    return (_budget(r) - 1.0) / 2.0


def _budget(r: object) -> float:
    """A robustness budget r >= 9, as a float."""
    return _real(r, "r", 9.0, reason=" (no base is r-robust below)")


def base_for_robustness(r: float) -> float:
    """Largest geometric base whose ratio 1 + 2*b^2/(b-1) still meets r.

    The identity b^2/(b-1) == rho(r) holds for the returned base.
    """
    return robust_base_interval(r)[1]


def robust_base_interval(r: float) -> tuple[float, float]:
    """Both roots of b^2/(b-1) = rho(r): the r-robust base interval."""
    p = rho(r)
    # sqrt(p*p - 4p) in two factors: p*p overflows past p ~ 1.3e154
    hi = (p + math.sqrt(p) * math.sqrt(p - 4.0)) / 2.0
    # The roots multiply to p; (p - sqrt(p*p - 4p)) / 2 would cancel at large r.
    return (p / hi, hi)


def _integer(
    value: object, name: str, lo: int, hi: float = math.inf, advice: str = ""
) -> int:
    """The one rule that reads an integer argument: an int, a numpy integer
    or an integral float in [lo, hi], returned as an int.  A bool, a string,
    None, a fraction, nan or inf is refused.  A value out of range is quoted
    as given; over ``hi``, ``advice`` names the flag(s) to lower."""
    number = value
    if type(value) is not int:  # the fast path: each k-bit hint reads two ints
        try:
            if isinstance(value, bool):
                raise TypeError
            integral = isinstance(value, float) and value.is_integer()  # not nan
            number = int(value) if integral else operator.index(value)  # numpy too
        except TypeError:
            raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if lo <= number <= hi:
        return number
    # a float by its repr less any '.0': int(1e300) would print 301 digits
    got = repr(float(value) if isinstance(value, float) else number)
    got = got.removesuffix(".0")
    if number < lo:
        raise ValueError(f"{name} must be >= {lo}, got {got}")
    lower = f" (lower {advice})" if advice else ""
    raise ValueError(f"{name} must be <= {hi}, got {got}{lower}")


# The default upper bound of _real: the largest float, so that the range
# test alone refuses inf (and nan, which fails every comparison).
_MAX_REAL = sys.float_info.max


def _real(
    value: object,
    name: str,
    lo: float,
    hi: float = _MAX_REAL,
    open_lo: bool = False,
    reason: str = "",
) -> float:
    """The one rule that reads a real argument: an int, a float or a numpy
    real, finite and in [lo, hi] ((lo, hi] when ``open_lo``; ``hi`` is
    finite), returned as a float.  A bool (numpy's too), a string, bytes or
    None is refused before float() could read it as a number.  A value out
    of range is quoted as given, followed by ``reason``."""
    number = value
    if type(value) is not float:  # the fast path: each position hint reads one
        try:
            # numpy's bool is no subclass of bool; both types are named bool
            if type(value).__name__ in ("bool", "bool_") or isinstance(
                value, (str, bytes, bytearray)
            ):
                raise TypeError
            number = float(value)
        except (TypeError, ValueError):
            raise ValueError(f"{name} must be a number, got {value!r}") from None
        except OverflowError:  # an int past the float range
            number = math.inf
    if (lo < number if open_lo else lo <= number) and number <= hi:
        return number
    got = repr(value if type(value) in (int, float) else number)
    if not math.isfinite(number):
        raise ValueError(f"{name} must be finite, got {got}")
    if hi < _MAX_REAL:
        span = f"in {'(' if open_lo else '['}{lo:g}, {hi:g}]"
    else:
        span = f"{'>' if open_lo else '>='} {lo:g}"
    raise ValueError(f"{name} must be {span}{reason}, got {got}")


# Bound on rows x horizon, the segments the batched kernels stack (about 220
# bytes each at peak, so about 230 MB at the bound), and so on the horizon.
_MAX_SEGMENTS = 2**20

# ln of the largest float, less a relative 1e-9 that covers the rounding of
# the lengths and of their running sums: a walk below it stays finite.
_LOG_MAX_WALK = math.log(sys.float_info.max) - 1e-9


def _admit(
    rows: int,
    horizon: int,
    first: float,
    base: float,
    params: str,
    lower: str,
    name: str = "horizon",
) -> int:
    """The one admission rule of a record of ``rows`` members of ``horizon``
    segments, each length at most first * base**i (base > 1), checked in
    order before any array: 1 <= horizon <= _MAX_SEGMENTS; the walk
    2 * (sum of lengths), which bounds every cost and ratio, is finite; rows x
    horizon <= _MAX_SEGMENTS.  Errors quote ``params``, the horizon as
    ``name`` and the flag(s) to ``lower``.  Returns the horizon as an int."""
    horizon = _integer(horizon, name, 1, _MAX_SEGMENTS, lower)
    # ln of 2 * first * base**(horizon - 1) * (1 + 1/base + .. + 1/base**(horizon - 1))
    step = math.log(base)
    tail = math.expm1(-horizon * step) / math.expm1(-step)  # in [1, horizon]
    log_walk = math.log(2.0 * first) + (horizon - 1) * step + math.log(tail)
    if log_walk > _LOG_MAX_WALK:
        raise ValueError(
            f"{params} with {name}={horizon} overflows the float range: the walk "
            f"2 * (sum of lengths) reaches about 10**{log_walk / math.log(10):.1f}"
        )
    if rows * horizon > _MAX_SEGMENTS:
        raise ValueError(
            f"{params} with {name}={horizon} needs {rows} members x {horizon} "
            f"segments, over the limit of {_MAX_SEGMENTS} segments (lower {lower})"
        )
    return horizon


def _direction_params(b: float, delta: float) -> tuple[float, float]:
    """Checked floats b > 1 and delta in (0, 1]."""
    b = _real(b, "b", 1.0, open_lo=True)
    return b, _real(delta, "delta", 0.0, 1.0, open_lo=True)


_MAX_K = 511  # largest k with (1 + 2**k)**2 a finite float


def kbit_base(r: float, k: int) -> float:
    """Growth base of the k-bit family: b_r while rho(r) stays below
    (1+2**k)**2 / 2**k, then the constant 1 + 2**k."""
    k = _integer(k, "k", 1, _MAX_K)
    p = rho(r)
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
    where the prefix sum still clears x_i/(b_r - 1) - 1e-2 slack."""
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


def robust_base_grid(r: float) -> list[float]:
    """20 evenly spaced bases spanning the feasible interval at budget r: the
    points of numpy.linspace(lo, hi, 20), lo + i * step with the last one
    exactly hi."""
    lo, hi = robust_base_interval(r)
    step = (hi - lo) / 19
    return [lo + i * step for i in range(19)] + [hi]


# The sweep grid of both inequality sweeps: these budgets, the bases of
# robust_base_grid at each, and geometric strategies of 101 segments.
_SWEEP_RS = (9.0, 10.0, 13.0, 25.0)
_SWEEP_HORIZON = 101


def _sweep_cells() -> list[tuple[float, float]]:
    """The (r, b) of each report of a sweep, in order."""
    return [(r, b) for r in _SWEEP_RS for b in robust_base_grid(r)]


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
    class floor as lower); k is used by kbit only."""
    rs = [_budget(r) for r in r_values]
    if hint_class == "direction":
        return direction_frontier(rs)
    if hint_class == "position":
        k, pairs = None, [(position_consistency_bound(r),) * 2 for r in rs]
    elif hint_class == "onebit":
        k = 1
        pairs = [(onebit_consistency_upper(r), onebit_lower(r).value) for r in rs]
    elif hint_class == "kbit":
        k = _integer(k, "k", 1, _MAX_K)
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
