"""Ratio evaluation: closed form, brute-force measurement, hinted families."""

import collections
import dataclasses
import math
import warnings

import numpy as np
import pytest

from cowpath import bounds, hints
from cowpath.model import (
    BitStringHint,
    DirectionHint,
    Members,
    PositionHint,
    Strategy,
    Target,
    make_geometric,
    search_costs,
)
from cowpath.ratios import (
    TargetGrid,
    _cells,
    competitive_ratio,
    competitive_ratio_measured,
    competitive_ratio_terms,
    evaluate_hinted,
    family_grid,
    oracle_equivalence_gaps,
    random_alternating_strategies,
)
from cowpath.bounds import HorizonTooShort, TradeoffPoint, direction_tradeoff
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

    def test_non_alternating_branches(self):
        # the target just past 2 on branch 0 waits for the segment of length
        # 16, at cost 2 * 15 + 2: the alternating terms would give 8.75
        s = Strategy([1.0, 2.0, 4.0, 8.0, 16.0], [0, 0, 1, 1, 0])
        assert competitive_ratio(s) == 16.0
        assert competitive_ratio_measured(s) == pytest.approx(16.0, rel=1e-12)
        terms = competitive_ratio_terms(s)
        assert terms.tolist() == [3.0, 7.0, 4.5, 16.0, 8.75]

    def test_lengths_below_one(self):
        # no target lies below distance 1: a cell's left end is floored at 1,
        # and the two segments of length 0.01 open no cell
        s = Strategy([0.01, 0.01, 4.0, 8.0], [0, 1, 0, 1])
        assert competitive_ratio(s) == pytest.approx(9.04, rel=1e-15)
        assert competitive_ratio(s) == pytest.approx(
            competitive_ratio_measured(s), rel=1e-12
        )
        assert np.isnan(competitive_ratio_terms(s)[0])

    def test_extreme_lengths_stay_finite(self):
        s = Strategy([1e-300, 1e300], [0, 1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert competitive_ratio(s) == 1.0 + 2.0 * (1e300 + 1e-300)


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

    def test_empty_effective_grid(self):
        # every length below 1: no segment finds distance 1 or a probe
        s = Strategy([0.5, 0.5, 0.75], [0, 1, 0])
        with pytest.raises(ValueError, match="empty effective grid"):
            competitive_ratio_measured(s)


def _settled(strategy):
    """Per branch, whether the strategy's tail of cells has converged."""
    return _cells(Members.stack(strategy))[1][0].tolist()


class TestTailConverged:
    def test_short_false(self):
        # four segments: three cells on branch 0, two on branch 1
        assert _settled(make_geometric(2.0, 4)) == [False, False]

    def test_converged_series(self):
        assert _settled(make_geometric(2.0, 64)) == [True, True]

    def test_unconverged_series(self):
        # ten cells per branch, the last five still 2**-13 or more apart
        assert _settled(make_geometric(2.0, 20)) == [False, False]


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

    def test_family_grid_cap(self):
        members = [make_geometric(2.0, 6), make_geometric(2.0, 6, 0, 0.5)]
        grid = family_grid(members)
        cap = float(np.min([m.lengths[-2:] for m in members]))  # last turn points
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
        with pytest.raises(HorizonTooShort, match="reach distance 1"):
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
        assert np.nanmax(terms) - terms[-5:].min() > 1e-6
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


# A frontier row names the family that attains it: built at the row's
# budget (and k, or the row's b* and delta*), that family's evaluated
# consistency is the row's c_upper, within the budget.  A k-bit family may
# stay below its budget: its base is capped at 1 + 2**k.
FRONTIER_ROWS = (
    [("position", r, None) for r in (9.0, 12.0, 25.0, 100.0)]
    + [("kbit", r, k) for r in (9.0, 12.0, 25.0, 100.0) for k in (1, 2, 4, 8)]
    + [("direction", r, None) for r in (10.0, 14.0, 25.0, 88.0, 1000.0)]
)


@pytest.mark.parametrize(
    "hint_class, r, k",
    FRONTIER_ROWS,
    ids=[f"{c}-r{r:g}" + (f"-k{k}" if k else "") for c, r, k in FRONTIER_ROWS],
)
def test_frontier_row_is_attained_by_its_family(hint_class, r, k):
    (row,) = bounds.frontier_curve(hint_class, [r], k or 2).points
    if hint_class == "position":
        family = position_family(r)
    elif hint_class == "kbit":
        family = hints.kbit_family(r, k)
    else:
        family = direction_family(row.b_star, row.delta_star)
    point = evaluate_hinted(family)
    assert point.consistency == pytest.approx(row.c_upper, rel=1e-12, abs=0)
    assert point.robustness <= r * (1.0 + 1e-12)
    assert point.converged


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda: evaluate_hinted(position_family(9.0, hints_per_decade=8)),
        lambda: evaluate_hinted(direction_family(2.0, 0.5)),
        lambda: evaluate_hinted(hints.kbit_family(9.0, 4)),
        lambda: oracle_equivalence_gaps(20),
        lambda: hints.preferred_partition(9.0, 4, 1e4),
        lambda: hints.best_hint_index(9.0, 4, Target(7.0, 1)),
    ],
    ids=["position", "direction", "kbit", "oracle", "partition", "best-hint"],
)
def test_each_evaluation_stacks_its_members_once(monkeypatch, evaluate):
    built = []
    original = Members.stack.__func__

    def counting_stack(cls, strategies):
        # a record passes through unchanged; anything else is stacked
        if not isinstance(strategies, Members):
            built.append(strategies)
        return original(cls, strategies)

    monkeypatch.setattr(Members, "stack", classmethod(counting_stack))
    evaluate()
    assert len(built) == 1


def test_members_are_not_rebuilt_after_the_family(monkeypatch):
    families = [hints.kbit_family(9.0, 8), position_family(9.0, hints_per_decade=8)]
    built = []
    original = Strategy.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Strategy, "__init__", counting_init)
    for family in families:
        evaluate_hinted(family)
        assert not built
    oracle_equivalence_gaps(200)
    assert not built


@pytest.mark.parametrize(
    "family,wrong,message",
    [
        (lambda: position_family(9.0, hints_per_decade=8), DirectionHint(0),
         "position family needs a PositionHint, got DirectionHint(branch=0)"),
        (lambda: position_family(9.0, hints_per_decade=8), [1.0, 0],
         "position family needs a PositionHint, got [1.0, 0]"),
        (lambda: direction_family(2.0, 0.5), PositionHint(1.0, 0),
         "direction family needs a DirectionHint, got "
         "PositionHint(distance=1.0, branch=0)"),
        (lambda: hints.kbit_family(9.0, 3), DirectionHint(1),
         "k-bit family needs a BitStringHint, got DirectionHint(branch=1)"),
        (lambda: hints.kbit_family(9.0, 3), BitStringHint(1, 2),
         "hint has k=2, family has k=3"),
    ],
    ids=["position", "position-unhashable", "direction", "kbit", "kbit-k"],
)
def test_select_returns_read_only_rows(family, wrong, message):
    family = family()
    for hint in family.hint_space[:3]:
        member, again = family.select(hint), family.select(hint)
        assert member.lengths.base is not None  # a view of the family's record
        assert member.lengths.base is again.lengths.base
        with pytest.raises(ValueError, match="read-only"):
            member.lengths[0] = 2.0
        with pytest.raises(ValueError, match="read-only"):
            member.branches[0] = 1
    with pytest.raises(ValueError) as info:
        family.select(wrong)
    assert str(info.value) == message


class TestOracleEquivalence:
    def test_seeded_strategies_deterministic(self):
        a = random_alternating_strategies(5, seed=42)
        b = random_alternating_strategies(5, seed=42)
        assert a == b

    @pytest.mark.parametrize(
        "seed,message",
        [
            (-1, "seed must be >= 0, got -1"),
            (True, "seed must be an integer, got True"),
            (2.5, "seed must be an integer, got 2.5"),
            (2.0, None),  # an integral float reads as its integer
            ("3", "seed must be an integer, got '3'"),
            (None, "seed must be an integer, got None"),
        ],
        ids=["-1", "True", "2.5", "2.0", "3", "None"],
    )
    def test_seed_must_be_a_non_negative_integer(self, seed, message):
        # random.Random would hash a float or a string into a seed
        if message is None:
            assert random_alternating_strategies(2, seed) == (
                random_alternating_strategies(2, int(seed))
            )
            return
        for draw in (random_alternating_strategies, oracle_equivalence_gaps):
            with pytest.raises(ValueError) as info:
                draw(5, seed)
            assert str(info.value) == message
        assert random_alternating_strategies(2, np.int64(7)) == (
            random_alternating_strategies(2, 7)
        )

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

    def test_count_bounded_before_any_strategy(self, monkeypatch):
        monkeypatch.setattr(bounds, "_MAX_SEGMENTS", 128)
        assert len(random_alternating_strategies(2)) == 2  # 2 x 64 fits
        for draw in (random_alternating_strategies, oracle_equivalence_gaps):
            with pytest.raises(ValueError, match="count=3 with horizon=64") as info:
                draw(3)
            assert "(lower --count)" in str(info.value)

    @pytest.mark.parametrize(
        "horizon,message",
        [
            (0, "horizon must be >= 1, got 0"),
            (512, "count=2 with horizon=512 overflows the float range: the walk "
                  "2 * (sum of lengths) reaches about 10**308.7"),
        ],
        ids=["horizon-0", "horizon-512"],
    )
    def test_faulty_horizons_raise_the_admission_errors(self, horizon, message):
        # the envelope 4 * 4**i of every draw admits horizons up to 511
        with pytest.raises(ValueError) as info:
            random_alternating_strategies(2, 0, horizon)
        assert str(info.value) == message
        with pytest.raises(ValueError, match="horizon must be >= 1, got 0"):
            random_alternating_strategies(0, 0, 0)
        assert len(random_alternating_strategies(2, 0, 511)) == 2
