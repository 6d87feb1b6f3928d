"""Tradeoff bounds, frontier curves, and inequality margin checks."""

import math

import numpy as np
import pytest

from cowpath.bounds import (
    FrontierCurve,
    FrontierPoint,
    LowerBound,
    _robust_base_interval,
    _sweep_cells,
    base_for_robustness,
    build_frontiers,
    check_prefix_sum_bound,
    check_segment_growth_lemma,
    direction_frontier,
    direction_tradeoff,
    frontier_curve,
    growth_lemma_sweep,
    kbit_consistency_upper,
    kbit_floor,
    onebit_consistency_upper,
    onebit_lower,
    position_consistency_bound,
    prefix_bound_sweep,
)
from cowpath.cli import _frontier_to_csv
from cowpath.model import make_geometric, strategy_from_lengths


class TestPositionBound:
    def test_frozen_values(self):
        assert position_consistency_bound(9.0) == 3.0
        assert position_consistency_bound(10.0) == 2.0

    def test_formula(self):
        for r in (9.5, 11.0, 20.0, 77.0):
            b = base_for_robustness(r)
            assert position_consistency_bound(r) == pytest.approx(
                (b + 1.0) / (b - 1.0), rel=1e-12
            )


class TestDirectionTradeoff:
    @pytest.mark.parametrize(
        "b,delta,c,r",
        [
            (2.0, 1.0, 9.0, 9.0),
            (2.0, 0.5, 19.0 / 3.0, 43.0 / 3.0),
            (3.0, 1.0, 10.0, 10.0),
        ],
    )
    def test_frozen_points(self, b, delta, c, r):
        point = direction_tradeoff(b, delta)
        assert point.consistency == pytest.approx(c, rel=1e-12)
        assert point.robustness == pytest.approx(r, rel=1e-12)
        assert point.method == "closed_form" and point.converged

    def test_validation(self):
        with pytest.raises(ValueError, match="b must be > 1"):
            direction_tradeoff(1.0, 0.5)
        with pytest.raises(ValueError, match="delta"):
            direction_tradeoff(2.0, 1.5)

    @pytest.mark.parametrize("b", [1e308, 9e307])
    def test_consistency_past_the_float_range_names_the_inputs(self, b):
        message = f"b={b!r}, delta=1.0: the consistency leaves the float range"
        with pytest.raises(ValueError) as raised:
            direction_tradeoff(b, 1.0)
        assert str(raised.value) == message
        assert direction_tradeoff(1e154, 1.0).consistency == 2e154

    def test_sum_floor(self):
        # c + r >= 18 everywhere, with equality only at (b, delta) = (2, 1)
        rng = np.random.default_rng(11)
        for _ in range(200):
            b = 1.0 + float(rng.uniform(0.05, 5.0))
            delta = float(rng.uniform(0.05, 1.0))
            p = direction_tradeoff(b, delta)
            assert p.consistency + p.robustness >= 18.0 - 1e-9
        tight = direction_tradeoff(2.0, 1.0)
        assert tight.consistency + tight.robustness == pytest.approx(18.0)


def _oracle_direction_c(r: float) -> float:
    """Independent scan: dense base grid plus the exact kink roots where the
    robustness-tight delta meets the delta >= 1/b floor."""

    def c_at(b: float) -> float:
        denom = (r - 1.0) * (b * b - 1.0) - 2.0 * b * b
        delta = 2.0 * b**3 / denom if denom > 0.0 else math.inf
        delta = max(delta, 1.0 / b)
        if delta > 1.0:
            return math.inf
        return 1.0 + 2.0 * (b * b + delta * b**3) / (b * b - 1.0)

    lo, hi = _robust_base_interval(r)
    lo = max(lo, 1.0 + 1e-6)
    hi = min(hi, 50.0)
    candidates = list(np.linspace(lo, hi, 1_000_001))
    disc = (r - 3.0) ** 2 - 8.0 * (r - 1.0)
    if disc >= 0.0:
        for sign in (1.0, -1.0):
            u = ((r - 3.0) + sign * math.sqrt(disc)) / 4.0
            if u > 1.0 and lo <= math.sqrt(u) <= hi:
                candidates.append(math.sqrt(u))
    return min(c_at(float(b)) for b in candidates)


class TestDirectionFrontier:
    def test_r9_degenerate_point(self):
        point = direction_frontier([9.0]).points[0]
        assert abs(point.c_upper - 9.0) <= 1e-6
        assert abs(point.b_star - 2.0) <= 1e-4
        assert abs(point.delta_star - 1.0) <= 1e-4
        assert point.c_upper == point.c_lower

    @pytest.mark.parametrize(
        "r,c",
        [
            (10.0, 8.157858464006008),
            (13.0, 6.711510153071851),
            (25.0, 5.4559962546824688),
            (88.0, 5.0988861539684775),
            (100.0, 5.0861012195700155),
        ],
    )
    def test_frozen_optima(self, r, c):
        point = direction_frontier([r]).points[0]
        assert point.c_upper == pytest.approx(c, abs=1e-9)
        # the reported optimum must be feasible and achieve its own value
        achieved = direction_tradeoff(point.b_star, point.delta_star)
        assert achieved.consistency == pytest.approx(point.c_upper, abs=1e-6)
        assert achieved.robustness <= r + 1e-6
        assert point.delta_star >= 1.0 / point.b_star - 1e-12

    @pytest.mark.parametrize("r", [10.0, 13.0, 25.0, 88.0, 100.0])
    def test_matches_independent_scan(self, r):
        point = direction_frontier([r]).points[0]
        assert abs(point.c_upper - _oracle_direction_c(r)) <= 1e-6

    def test_large_budgets_exact(self):
        # past r ~ 5003 the optimal base exceeds 50; the optimum stays exact
        curve = direction_frontier([5250.0, 1e4, 1e6])
        for point in curve.points:
            assert point.c_upper == point.c_lower
            achieved = direction_tradeoff(point.b_star, point.delta_star)
            assert achieved.consistency == pytest.approx(point.c_upper, abs=1e-9)
            assert achieved.robustness <= point.r * (1.0 + 1e-12)
            assert point.delta_star >= 1.0 / point.b_star - 1e-12
        assert curve.points[1].c_upper == pytest.approx(5.000800560456409, abs=1e-9)

    def test_crossing_below_5_1(self):
        curve = direction_frontier(range(9, 101))
        crossing = next(p.r for p in curve.points if p.c_upper <= 5.1)
        assert crossing == 88.0

    def test_monotone_curve(self):
        curve = direction_frontier(np.linspace(9.0, 60.0, 18))
        uppers = [p.c_upper for p in curve.points]
        assert all(b <= a + 1e-9 for a, b in zip(uppers, uppers[1:]))


class TestBitBounds:
    def test_onebit_is_kbit_at_one(self):
        for r in (9.0, 9.7, 10.0, 25.0, 100.0):
            assert onebit_consistency_upper(r) == kbit_consistency_upper(r, 1)

    def test_frozen_uppers_r9(self):
        assert onebit_consistency_upper(9.0) == pytest.approx(
            1.0 + 4.0 * math.sqrt(2.0), rel=1e-12
        )
        assert kbit_consistency_upper(9.0, 2) == pytest.approx(
            5.756828460010884, abs=1e-12
        )
        assert kbit_consistency_upper(9.0, 3) == pytest.approx(
            5.362030930661031, abs=1e-12
        )

    def test_capped_regime(self):
        # the base saturates at 1 + 2**k once rho(r) crosses the threshold
        assert onebit_consistency_upper(10.0) == pytest.approx(
            1.0 + 3.0 * math.sqrt(3.0), rel=1e-12
        )
        assert onebit_consistency_upper(40.0) == onebit_consistency_upper(16.0)

    def test_k_monotone(self):
        for r in (9.0, 12.0, 30.0, 100.0):
            uppers = [kbit_consistency_upper(r, k) for k in range(1, 6)]
            assert all(b < a for a, b in zip(uppers, uppers[1:]))

    def test_validation(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            kbit_consistency_upper(9.0, 0)

    def test_lower_bounds(self):
        assert onebit_lower(9.0) == LowerBound(5.0, "all_strategies")
        low13 = onebit_lower(13.0)
        assert low13.value == pytest.approx(3.5358983848622456, abs=1e-12)
        assert low13.scope == "asymptotic_strategies"
        assert kbit_floor() == LowerBound(3.0, "all_strategies")

    def test_lower_below_upper(self):
        for r in np.linspace(9.0, 100.0, 92):
            assert onebit_lower(float(r)).value <= onebit_consistency_upper(
                float(r)
            ) + 1e-9


class TestGrowthLemma:
    def test_doubling_margins(self):
        report = check_segment_growth_lemma(make_geometric(2.0, 16), 9.0)
        assert report.label == "segment_growth"
        assert report.holds and report.violation_index is None
        assert report.margins[0] == -3.0
        for i in range(1, 6):
            assert report.margins[i] == pytest.approx(
                -(2.0**i) / (i + 1.0), rel=1e-12
            )

    def test_counterexample_flagged(self):
        report = check_segment_growth_lemma(
            strategy_from_lengths([1.0, 100.0], 0), 9.0
        )
        assert not report.holds
        assert report.violation_index == 1
        assert report.margins[1] == 97.0

    @pytest.mark.parametrize("r", [9.0, 13.0, 25.0])
    def test_critical_base_holds(self, r):
        b = base_for_robustness(r)
        report = check_segment_growth_lemma(make_geometric(b, 101), r)
        assert report.holds
        assert max(report.margins) <= 1e-9


class TestPrefixBound:
    def test_doubling_margins(self):
        report = check_prefix_sum_bound(make_geometric(2.0, 32), 9.0)
        assert report.label == "prefix_sum"
        assert report.holds
        assert report.margins[0] == 0.0
        # closed form of the margin at base 2: 1 - 2**(i+1)/(i+2)
        for i in (1, 2, 3, 20):
            assert report.margins[i] == pytest.approx(
                1.0 - 2.0 ** (i + 1) / (i + 2.0), rel=1e-12
            )
        assert report.tail_index == 6

    def test_tail_index_shrinks_for_slower_base(self):
        # slower growth piles up prefix mass faster, so the tail clears sooner
        report = check_prefix_sum_bound(make_geometric(1.9, 32), 9.0)
        assert report.holds and report.tail_index == 3

    def test_fast_base_violates(self):
        # base 2.5 is not 9-competitive, and the margins flag it
        report = check_prefix_sum_bound(make_geometric(2.5, 32), 9.0)
        assert not report.holds and report.violation_index is not None


class TestSweeps:
    def test_growth_sweep(self):
        reports = growth_lemma_sweep()
        assert len(reports) == 80
        assert all(rep.holds for rep in reports)
        assert max(max(rep.margins) for rep in reports) <= 1e-9

    def test_prefix_sweep(self):
        reports = prefix_bound_sweep()
        assert len(reports) == 80
        assert all(rep.holds for rep in reports)
        assert max(max(rep.margins) for rep in reports) <= 1e-9

    def test_base_grid_spans_interval(self):
        grid = [b for r, b in _sweep_cells() if r == 10.0]
        assert grid[0] == 1.5 and grid[-1] == 3.0 and len(grid) == 20


class TestBuildFrontiers:
    def test_four_curves_at_r9(self):
        curves = build_frontiers([9.0])
        assert [(c.hint_class, c.k) for c in curves] == [
            ("position", None),
            ("direction", None),
            ("onebit", 1),
            ("kbit", 2),
        ]
        position, direction, onebit, kbit = curves
        assert position.points[0].c_upper == 3.0
        assert position.points[0].c_lower == 3.0
        assert direction.points[0].c_upper == pytest.approx(9.0, abs=1e-6)
        assert onebit.points[0].c_upper == pytest.approx(
            6.656854249492381, abs=1e-12
        )
        assert onebit.points[0].c_lower == 5.0
        assert kbit.points[0].c_upper == pytest.approx(
            5.756828460010884, abs=1e-12
        )
        assert kbit.points[0].c_lower == 3.0

    def test_single_class_curves(self):
        rs = [9.0, 10.0]
        curves = build_frontiers(rs, k=3)
        for curve, k in zip(curves, (2, 2, 2, 3)):
            assert frontier_curve(curve.hint_class, rs, k) == curve
        assert frontier_curve("position", rs, 5).k is None
        with pytest.raises(ValueError, match="hint_class"):
            frontier_curve("exact", rs)

    def test_huge_budgets_finite(self):
        # rho(r)**2 overflows past r ~ 2.7e154; b_r must not turn into nan
        csv = _frontier_to_csv(build_frontiers([1e200, 1e308], k=3))
        assert "nan" not in csv
        rows = {tuple(line.split(",")[:3]): line for line in csv.splitlines()[1:]}
        assert rows["position", "", "1e+200"] == "position,,1e+200,1,1,,"
        assert rows["position", "", "1e+308"] == "position,,1e+308,1,1,,"
        assert rows["onebit", "1", "1e+308"].split(",")[4] == "3"
        assert base_for_robustness(1e308) == _robust_base_interval(1e308)[1] > 1e307


class TestFrontierTypes:
    def test_point_validation(self):
        with pytest.raises(ValueError, match="exceeds"):
            FrontierPoint(9.0, 3.0, 4.0)

    def test_curve_validation(self):
        good = (FrontierPoint(9.0, 5.0, 3.0), FrontierPoint(10.0, 4.0, 3.0))
        FrontierCurve("onebit", 1, good)
        with pytest.raises(ValueError, match="strictly increasing"):
            FrontierCurve("onebit", 1, (good[1], good[0]))
        with pytest.raises(ValueError, match="non-increasing"):
            FrontierCurve(
                "onebit",
                1,
                (FrontierPoint(9.0, 4.0, 3.0), FrontierPoint(10.0, 5.0, 3.0)),
            )

    def test_csv_format(self):
        curves = [
            FrontierCurve(
                "direction",
                None,
                (FrontierPoint(9.0, 9.0, 9.0, 2.0, 1.0),),
            ),
            FrontierCurve("kbit", 3, (FrontierPoint(9.0, math.inf, 3.0),)),
        ]
        text = _frontier_to_csv(curves)
        lines = text.splitlines()
        assert lines[0] == "hint_class,k,r,c_upper,c_lower,b_star,delta_star"
        assert lines[1] == "direction,,9,9,9,2,1"
        assert lines[2] == "kbit,3,9,inf,3,,"
        assert text.endswith("\n")

    def test_csv_nine_significant_digits(self):
        curve = FrontierCurve(
            "position",
            None,
            (FrontierPoint(9.123456789012, 3.141592653589793, 3.0),),
        )
        line = _frontier_to_csv([curve]).splitlines()[1]
        assert line == "position,,9.12345679,3.14159265,3,,"
