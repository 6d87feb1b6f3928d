"""Ratio evaluation: closed form, brute-force measurement, hinted families."""

import collections
import dataclasses
import math

import numpy as np
import pytest

from cowpath.model import (
    HorizonTooShort,
    Strategy,
    make_geometric,
    search_costs,
)
from cowpath.ratios import (
    TargetGrid,
    TradeoffPoint,
    competitive_ratio,
    competitive_ratio_measured,
    competitive_ratio_terms,
    default_grid,
    evaluate_hinted,
    family_grid,
    oracle_equivalence_gaps,
    random_alternating_strategies,
    tail_converged,
)
from cowpath.bounds import direction_tradeoff
from cowpath.hints import cheapest_trusted_costs, direction_family, position_family


class TestClosedForm:
    def test_terms_hand_computed(self):
        # G_2, 4 segments: 1+2*1/1, 1+2*3/1, 1+2*7/2, 1+2*15/4
        terms = competitive_ratio_terms(make_geometric(2.0, 4))
        assert np.allclose(terms, [3.0, 7.0, 8.0, 8.5])
        assert competitive_ratio(make_geometric(2.0, 4)) == 8.5

    def test_doubling_prefix_value(self):
        assert competitive_ratio(make_geometric(2.0, 11)) == 8.99609375

    def test_doubling_limit(self):
        assert competitive_ratio(make_geometric(2.0, 64)) == pytest.approx(
            9.0, abs=1e-6
        )

    def test_geometric_closed_form_identity(self):
        # cr(G_b) tends to 1 + 2 b**2/(b-1) from below
        for b in (1.5, 2.0, 3.0, 4.5):
            limit = 1.0 + 2.0 * b * b / (b - 1.0)
            cr = competitive_ratio(make_geometric(b, 64))
            assert cr <= limit + 1e-12
            assert cr == pytest.approx(limit, abs=1e-6)

    def test_single_segment(self):
        assert competitive_ratio(Strategy([1.0], [0])) == 3.0


class TestMeasured:
    def test_doubling_agrees(self):
        s = make_geometric(2.0, 64)
        assert competitive_ratio_measured(s) == pytest.approx(9.0, abs=1e-6)

    def test_scaled_geometrics_agree_with_closed_form(self):
        for b in (1.6, 2.0, 3.0, 4.0):
            for scale in (0.25, 1.0, 4.0):
                s = make_geometric(b, 64, 0, scale)
                gap = abs(competitive_ratio(s) - competitive_ratio_measured(s))
                assert gap <= 1e-6

    def test_measured_never_exceeds_closed_form(self):
        for s in random_alternating_strategies(40, seed=5):
            assert competitive_ratio_measured(s) <= competitive_ratio(s) + 1e-9

    def test_explicit_grid(self):
        s = make_geometric(2.0, 8)
        grid = TargetGrid((1.0, 3.0, 5.0))
        # own turn points are always merged in, so the result is >= grid-only
        assert competitive_ratio_measured(s, grid) >= 1 + 2 * 3 / 5.0

    def test_empty_effective_grid(self):
        s = Strategy([2.0], [0])
        with pytest.raises(ValueError, match="empty effective grid"):
            competitive_ratio_measured(s, TargetGrid((3.0, 4.0)))


class TestTailConverged:
    def test_short_false(self):
        assert not tail_converged(np.array([1.0, 2.0]))

    def test_converged_series(self):
        assert tail_converged(competitive_ratio_terms(make_geometric(2.0, 64)))

    def test_unconverged_series(self):
        assert not tail_converged(competitive_ratio_terms(make_geometric(2.0, 8)))


class TestTradeoffPoint:
    def test_validation(self):
        with pytest.raises(ValueError, match="method"):
            TradeoffPoint(3.0, 9.0, "guessed")
        with pytest.raises(ValueError, match="consistency"):
            TradeoffPoint(math.nan, 9.0, "measured")
        with pytest.raises(ValueError, match="robustness"):
            TradeoffPoint(3.0, 0.2, "measured")

    def test_consistency_may_exceed_robustness(self):
        # short alternating prefixes legitimately score c > r
        p = TradeoffPoint(5.0, 3.0, "closed_form")
        assert (p.consistency, p.robustness) == (5.0, 3.0)


class TestGrids:
    def test_target_grid_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            TargetGrid(())
        with pytest.raises(ValueError, match="sorted"):
            TargetGrid((3.0, 2.0))
        with pytest.raises(ValueError, match=">= 1"):
            TargetGrid((0.5, 2.0))

    def test_target_grid_holds_a_read_only_copy(self):
        given = np.array([1.0, 2.0, 5.0])
        grid = TargetGrid(given)
        given[0] = 3.0
        assert grid.distances.dtype == np.float64
        assert grid.distances.tolist() == [1.0, 2.0, 5.0]
        with pytest.raises(ValueError):
            grid.distances[0] = 1.5
        with pytest.raises(AttributeError):
            grid.distances = given

    def test_default_grid_contents(self):
        s = make_geometric(2.0, 6)
        grid = default_grid(s)
        d = np.asarray(grid.distances)
        assert d[0] == 1.0
        assert d[-1] == pytest.approx(32.0 * (1 + 1e-9))
        for x in s.lengths:
            assert np.any(np.isclose(d, x * (1 + 1e-9)))
        # exactly distance 1 and one ulp past each turn point, no other probe
        assert d.tolist() == [1.0, *np.nextafter(s.lengths, np.inf).tolist()]

    def test_family_grid_cap(self):
        members = [make_geometric(2.0, 6), make_geometric(2.0, 6, 0, 0.5)]
        grid = family_grid(members)
        cap = min(m.last_turn_point(b) for m in members for b in (0, 1))
        assert max(grid.distances) <= cap
        assert min(grid.distances) == 1.0
        turns = np.unique(np.concatenate([m.lengths for m in members]))
        probes = np.nextafter(turns, np.inf)
        inside = probes[(probes >= 1.0) & (probes <= cap)]
        assert list(grid.distances) == [1.0, *inside.tolist()]

    def test_family_grid_cap_where_a_branch_dips(self):
        # branch 0 searches 4 then 3: every target up to 4 is found, so the
        # cap is the branch's farthest turn point, 4, not its last, 3
        s = Strategy([4.0, 3.0, 5.0, 6.0], [0, 0, 1, 1])
        grid = family_grid([s])
        assert grid.distances.tolist() == [1.0, np.nextafter(3.0, np.inf)]
        assert np.all(~np.isnan(search_costs(s, np.asarray(grid.distances), 0)))

    def test_family_grid_unreachable_branch(self):
        s = Strategy([0.5, 2.0, 0.6, 4.0], [0, 1, 0, 1])
        with pytest.raises(ValueError, match="reach distance 1"):
            family_grid([s])

    def test_family_grid_needs_members(self):
        with pytest.raises(ValueError, match="at least one member"):
            family_grid([])


class TestEvaluateHinted:
    def test_direction_trusted_semantics(self):
        point = evaluate_hinted(direction_family(2.0, 1.0))
        assert point.consistency == pytest.approx(9.0, abs=1e-6)
        assert point.robustness == pytest.approx(9.0, abs=1e-6)
        assert point.method == "measured"
        assert point.converged

    def test_whole_space_trusted_is_weaker(self):
        # trusting whichever member is cheapest scores ~5, not 9: the
        # complement member reaches every distance with ratio near 5
        fam = direction_family(2.0, 1.0)
        whole = dataclasses.replace(fam, trusted_costs=cheapest_trusted_costs)
        point = evaluate_hinted(whole)
        assert point.consistency == pytest.approx(5.0, abs=1e-3)

    def test_consistency_at_most_robustness(self):
        for b, delta in ((2.0, 1.0), (2.0, 0.5), (3.0, 0.3)):
            point = evaluate_hinted(direction_family(b, delta))
            assert point.consistency <= point.robustness + 1e-9

    @pytest.mark.parametrize("b, delta", [(2.0, 0.5), (3.3, 0.4), (3.0, 0.1)])
    def test_alternating_terms_converge_per_parity(self, b, delta):
        # delta < 1: a member's ratio terms alternate between two limits, so
        # the tail of all terms never settles but each parity's tail does
        family = direction_family(b, delta)
        terms = competitive_ratio_terms(family.select(family.hint_space[0]))
        assert not tail_converged(terms)
        assert evaluate_hinted(family).converged
        assert not evaluate_hinted(direction_family(b, delta, horizon=20)).converged

    def test_direction_pairs_exact(self):
        # the acceptance C3 box; at horizon 128 the finite prefix sits within
        # 1e-16 of its limit, so what remains is the probe rule's own error
        for b in (1.5, 2.0, 3.0, 4.0):
            for delta in (0.1, 0.5, 1.0):
                closed = direction_tradeoff(b, delta)
                point = evaluate_hinted(direction_family(b, delta, horizon=128))
                got = (point.consistency, point.robustness)
                want = (closed.consistency, closed.robustness)
                assert got == pytest.approx(want, rel=1e-12)

    def test_horizon_too_short(self):
        fam = direction_family(2.0, 1.0, horizon=4)
        with pytest.raises(HorizonTooShort):
            evaluate_hinted(fam, grid=TargetGrid((1.0, 1000.0)))

    def test_requires_selector_and_space(self):
        fam = direction_family(2.0, 1.0)
        for empty in ((), None):
            with pytest.raises(ValueError, match="hint_space"):
                evaluate_hinted(dataclasses.replace(fam, hint_space=empty))

    def test_trusted_position_builds_each_member_once(self):
        family = position_family(9.0, hints_per_decade=8)
        selected = collections.Counter()

        def counting_select(hint):
            selected[hint] += 1
            return family.select(hint)

        point = evaluate_hinted(dataclasses.replace(family, select=counting_select))
        assert point.consistency == pytest.approx(3.0, abs=1e-6)
        assert set(selected) <= set(family.hint_space)
        assert max(selected.values()) == 1


class TestOracleEquivalence:
    def test_seeded_strategies_deterministic(self):
        a = random_alternating_strategies(5, seed=42)
        b = random_alternating_strategies(5, seed=42)
        assert a == b

    def test_growth_band(self):
        for s in random_alternating_strategies(50, seed=1):
            ratios = s.lengths[1:] / s.lengths[:-1]
            assert np.all(ratios > 1.49) and np.all(ratios <= 4.0)

    def test_gaps_small(self):
        gaps = oracle_equivalence_gaps(60, seed=2)
        assert gaps.shape == (60,)
        assert float(np.max(gaps)) <= 1e-6
        # probes one ulp past each turn point read the right limits exactly
        assert float(np.max(oracle_equivalence_gaps(200, 0))) <= 1e-10
