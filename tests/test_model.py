"""Core model: strategies, targets, search cost, robust bases."""

import math
import re
import warnings

import numpy as np
import pytest

from cowpath import model
from cowpath.bounds import base_for_robustness, rho, robust_base_interval
from cowpath.model import (
    BitStringHint,
    DirectionHint,
    PositionHint,
    Strategy,
    Target,
    cheapest_search_costs,
    make_geometric,
    scale_strategy,
    search_cost,
    search_costs,
    strategy_from_json,
    strategy_from_lengths,
    strategy_to_json,
)


class TestSegment:
    """One segment's length and branch, checked by the constructor and by
    the JSON form."""

    def test_fields_coerced(self):
        s = Strategy([2], [1])
        assert s.lengths.dtype == np.float64 and s.lengths[0] == 2.0
        assert s.branches.dtype == np.int64 and s.branches[0] == 1
        s = strategy_from_json({"segments": [{"length": 2, "branch": 1.0}]})
        assert s == Strategy([2.0], [1])

    @pytest.mark.parametrize("length", [0.0, -1.0, math.inf, math.nan])
    def test_bad_length(self, length):
        with pytest.raises(ValueError, match="positive and finite"):
            Strategy([length], [0])
        with pytest.raises(ValueError, match=r"segments\[0\]: segment length"):
            strategy_from_json({"segments": [{"length": length, "branch": 0}]})

    @pytest.mark.parametrize("branch", [2, -1, True, False, 0.5])
    def test_bad_branch(self, branch):
        text = rf"^branch must be 0 or 1, got {re.escape(repr(branch))}$"
        with pytest.raises(ValueError, match=text):
            Strategy([1.0], [branch])
        # numpy reads a list mixing ints and bools as ints
        with pytest.raises(ValueError, match=text):
            Strategy([1.0, 2.0], [0, branch])
        with pytest.raises(ValueError, match=r"segments\[0\]: branch must be"):
            strategy_from_json({"segments": [{"length": 1.0, "branch": branch}]})

    @pytest.mark.parametrize("branch", [True, np.True_, np.False_, 2], ids=repr)
    @pytest.mark.parametrize(
        "build",
        [
            lambda b: Target(2.0, b),
            lambda b: PositionHint(2.0, b),
            lambda b: DirectionHint(b),
            lambda b: strategy_from_lengths([1.0, 2.0], b),
            lambda b: make_geometric(2.0, 4, b),
            lambda b: search_costs(make_geometric(2.0, 4), [2.0], b),
            lambda b: cheapest_search_costs([make_geometric(2.0, 4)], [2.0], b),
        ],
        ids=["Target", "PositionHint", "DirectionHint", "strategy_from_lengths",
             "make_geometric", "search_costs", "cheapest_search_costs"],
    )
    def test_branch_argument_refuses_a_bool(self, build, branch):
        # numpy's bool is no subclass of bool, and np.True_ == 1
        text = rf"^branch must be 0 or 1, got {re.escape(repr(branch))}$"
        with pytest.raises(ValueError, match=text):
            build(branch)


class TestStrategy:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one segment"):
            Strategy([], [])

    def test_two_apart_shrink_rejected(self):
        with pytest.raises(ValueError, match=r"lengths\[2\]"):
            strategy_from_lengths([4.0, 1.0, 3.9])
        with pytest.raises(ValueError, match=r"lengths\[2\]"):
            strategy_from_lengths([4.0, 1.0, 4.0 * (1.0 - 1e-8)])
        # a relative dip of 1e-12 is rounding, not shrinkage
        assert len(strategy_from_lengths([4.0, 1.0, 4.0 * (1.0 - 1e-12)])) == 3

    def test_record_rows_keep_the_strategy_rule(self):
        # each check runs once over every row, in the order Strategy runs them
        rows = np.array([[1.0, 2.0, 3.0], [4.0, 1.0, 3.9], [1.0, math.inf, 1.0]])
        with pytest.raises(ValueError, match=r"^lengths\[2\]=3.9 < lengths\[0\]=4.0"):
            model._alternating_rows(rows[:2], np.array([0, 1]))
        with pytest.raises(ValueError, match="positive and finite, got inf"):
            model._alternating_rows(rows, np.array([0, 1, 0]))
        row = model._alternating_rows(rows[:1], np.array([1]))
        assert row(0) == Strategy([1.0, 2.0, 3.0], [1, 0, 1])
        assert not row(0).lengths.flags.writeable
        assert not row(0).branches.flags.writeable

    def test_two_apart_equal_allowed(self):
        s = strategy_from_lengths([2.0, 1.0, 2.0, 1.0])
        assert len(s) == 4

    def test_arrays(self):
        s = make_geometric(2.0, 5)
        assert np.array_equal(s.lengths, [1, 2, 4, 8, 16])
        assert np.array_equal(s.branches, [0, 1, 0, 1, 0])

    def test_arrays_read_only(self):
        s = make_geometric(2.0, 4)
        assert s.lengths.dtype == np.float64 and s.branches.dtype == np.int64
        with pytest.raises(ValueError):
            s.lengths[0] = 5.0
        with pytest.raises(ValueError):
            s.branches[0] = 1
        with pytest.raises(AttributeError):
            s.lengths = np.ones(4)

    def test_constructor_copies_input(self):
        lengths = np.array([1.0, 2.0, 4.0])
        s = Strategy(lengths, [0, 1, 0])
        lengths[0] = 9.0
        assert s.lengths[0] == 1.0

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="branch must be 0 or 1, got 2"):
            Strategy([1.0, 2.0], [0, 2])
        with pytest.raises(ValueError, match="branch must be 0 or 1, got True"):
            Strategy([1.0, 2.0], [True, False])
        with pytest.raises(ValueError, match="got inf"):
            Strategy([1.0, math.inf], [0, 1])
        with pytest.raises(ValueError, match="one size"):
            Strategy([1.0, 2.0], [0])


class TestConstructors:
    def test_strategy_from_lengths_first_branch(self):
        assert np.array_equal(strategy_from_lengths([1, 2], 0).branches, [0, 1])
        assert np.array_equal(strategy_from_lengths([1, 2], 1).branches, [1, 0])

    def test_make_geometric_scale(self):
        s = make_geometric(3.0, 4, 1, 0.5)
        assert np.allclose(s.lengths, [0.5, 1.5, 4.5, 13.5])
        assert np.array_equal(s.branches, [1, 0, 1, 0])

    @pytest.mark.parametrize(
        "kwargs",
        [dict(base=1.0, count=4), dict(base=2.0, count=0), dict(base=2.0, count=4, scale=0.0)],
    )
    def test_make_geometric_rejects(self, kwargs):
        with pytest.raises(ValueError):
            make_geometric(
                kwargs["base"], kwargs["count"], scale=kwargs.get("scale", 1.0)
            )

    def test_make_geometric_overflow_checked_first(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                ValueError, match=r"base=2\.0, scale=1\.0 with count=2000 overflows"
            ):
                make_geometric(2.0, 2000)

    def test_scale_strategy(self):
        s = scale_strategy(make_geometric(2.0, 3), 0.25)
        assert np.allclose(s.lengths, [0.25, 0.5, 1.0])
        with pytest.raises(ValueError):
            scale_strategy(s, 0.0)


class TestTargetAndHints:
    def test_target_validation(self):
        assert Target(1.0, 0).distance == 1.0
        with pytest.raises(ValueError):
            Target(0.5, 0)
        with pytest.raises(ValueError):
            Target(2.0, 3)

    def test_bit_string_hint_range(self):
        assert BitStringHint(3, 2).index == 3
        with pytest.raises(ValueError):
            BitStringHint(4, 2)
        with pytest.raises(ValueError):
            BitStringHint(0, 0)

    def test_position_hint_validation(self):
        with pytest.raises(ValueError):
            PositionHint(0.2, 0)
        with pytest.raises(ValueError):
            DirectionHint(7)


class TestSearchCost:
    # G_2 with 5 segments: lengths 1,2,4,8,16 on branches 0,1,0,1,0.
    @pytest.mark.parametrize(
        "d,branch,expected",
        [
            (1.0, 0, 1.0),
            (1.0, 1, 3.0),
            (2.0, 1, 4.0),
            (4.0, 0, 10.0),
            (5.0, 0, 35.0),
            (8.0, 1, 2 * 7 + 8.0),
            (8.5, 1, None),
            (17.0, 0, None),
        ],
    )
    def test_hand_values(self, d, branch, expected):
        s = make_geometric(2.0, 5)
        assert search_cost(s, Target(d, branch)) == expected

    def test_cost_is_walk_plus_distance(self):
        s = make_geometric(2.0, 8)
        cost = search_cost(s, Target(5.0, 0))
        # found at segment 4: full excursions 1,2,4,8 out and back, then 5 out
        assert cost == 2 * (1 + 2 + 4 + 8) + 5

    def test_vectorized_agrees_with_scalar(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            base = 1.0 + rng.uniform(0.2, 3.0)
            scale = rng.uniform(0.3, 3.0)
            s = make_geometric(base, 12, int(rng.integers(2)), scale)
            d = np.unique(
                np.concatenate(
                    [s.lengths[s.lengths >= 1.0], rng.uniform(1.0, 40.0, 30)]
                )
            )
            for branch in (0, 1):
                vec = search_costs(s, d, branch)
                for di, ci in zip(d, vec):
                    scalar = search_cost(s, Target(float(di), branch))
                    if scalar is None:
                        assert math.isnan(ci)
                    else:
                        assert ci == scalar

    def test_non_monotone_branch_fallback(self):
        # branch 0 lengths (5, 2) dip: the running maximum finds segment 0
        s = Strategy([5.0, 2.0, 6.0], [0, 0, 1])
        d = np.array([1.0, 3.0, 5.0, 5.5])
        got = search_costs(s, d, 0)
        assert np.allclose(got[:3], [1.0, 3.0, 5.0])
        assert math.isnan(got[3])
        assert search_cost(s, Target(5.5, 0)) is None
        assert search_costs(s, np.array([6.0]), 1)[0] == 2 * 7 + 6

    def test_distance_floor_enforced(self):
        s = make_geometric(2.0, 4)
        with pytest.raises(ValueError, match=">= 1"):
            search_costs(s, np.array([0.5, 2.0]), 0)

    def test_unsearched_branch_all_nan(self):
        s = Strategy([4.0], [0])
        assert np.all(np.isnan(search_costs(s, np.array([1.0, 2.0]), 1)))


class TestCheapestSearchCosts:
    def test_identical_members_give_the_smaller_index(self):
        s = make_geometric(2.0, 8)
        elsewhere = Strategy([5.0], [1])  # never searches branch 0
        d = np.array([1.0, 1.5, 3.0, 4.0, 33.0])
        costs, index = cheapest_search_costs([s, s], d, 0)
        np.testing.assert_array_equal(costs, search_costs(s, d, 0))
        assert index.tolist() == [0] * 5
        costs, index = cheapest_search_costs([elsewhere, s, s], d, 0)
        np.testing.assert_array_equal(costs, search_costs(s, d, 0))
        assert index.tolist() == [1] * 5

    def test_shared_prefix_sum_goes_to_the_smaller_index(self):
        # both reach branch 0 after walking 3: a's segment 2 (length 4) and
        # c's segment 1 (length 5)
        a = Strategy([1.0, 2.0, 4.0], [0, 1, 0])
        c = Strategy([3.0, 5.0], [1, 0])
        d = np.array([3.5, 4.0, 4.5, 5.0])
        costs, index = cheapest_search_costs([c, a], d, 0)
        assert index.tolist() == [0, 0, 0, 0]
        np.testing.assert_array_equal(costs, 2 * 3.0 + d)
        costs, index = cheapest_search_costs([a, c], d, 0)
        assert index.tolist() == [0, 0, 1, 1]
        np.testing.assert_array_equal(costs, 2 * 3.0 + d)

    def test_no_segment_on_the_branch(self):
        members = [Strategy([4.0], [0]), Strategy([2.0, 8.0], [0, 0])]
        d = np.array([[1.0, 2.0, 3.0], [4.0, 8.0, 9.0]])
        costs, index = cheapest_search_costs(members, d, 1)
        assert costs.shape == index.shape == d.shape
        assert np.all(costs == np.inf) and np.all(index == -1)
        costs, index = cheapest_search_costs(members, d, 0)
        assert index.tolist() == [[0, 0, 0], [0, 1, -1]]
        assert costs.tolist() == [[1.0, 2.0, 3.0], [4.0, 12.0, np.inf]]
        costs, index = cheapest_search_costs([], d, 0)
        assert np.all(costs == np.inf) and np.all(index == -1)


class TestRobustBases:
    def test_rho(self):
        assert rho(9.0) == 4.0
        with pytest.raises(ValueError, match=">= 9"):
            rho(8.999)
        for r in (math.inf, math.nan):
            with pytest.raises(ValueError, match="r must be finite"):
                rho(r)

    def test_known_bases(self):
        assert base_for_robustness(9.0) == 2.0
        assert base_for_robustness(10.0) == 3.0
        assert base_for_robustness(13.0) == pytest.approx(3.0 + math.sqrt(3.0))

    def test_interval(self):
        lo, hi = robust_base_interval(10.0)
        assert (lo, hi) == (1.5, 3.0)
        assert robust_base_interval(9.0) == (2.0, 2.0)

    def test_roots_satisfy_identity(self):
        for r in np.linspace(9.0, 60.0, 25):
            for b in robust_base_interval(r):
                assert b * b / (b - 1.0) == pytest.approx(rho(r), abs=1e-9)

    @pytest.mark.parametrize("r", [1e20, 1e154, 1.79e308])
    def test_lower_root_at_huge_r(self, r):
        # the lower root is just above 1; p - sqrt(p*p - 4p) cancels here
        lo, hi = robust_base_interval(r)
        assert 1.0 <= lo < 1.0 + 1e-9
        assert lo * hi == pytest.approx(rho(r), rel=1e-15)


class TestJson:
    def test_strategy_round_trip(self):
        s = make_geometric(2.0, 6, 1, 0.75)
        assert strategy_from_json(strategy_to_json(s)) == s

    def test_strategy_errors_name_fields(self):
        with pytest.raises(ValueError, match="'segments'"):
            strategy_from_json({})
        with pytest.raises(ValueError, match="must be a list"):
            strategy_from_json({"segments": 3})
        with pytest.raises(ValueError, match=r"segments\[1\] is missing field 'length'"):
            strategy_from_json(
                {"segments": [{"length": 1, "branch": 0}, {"branch": 1}]}
            )
        with pytest.raises(ValueError, match=r"segments\[0\]"):
            strategy_from_json({"segments": [{"length": -1, "branch": 0}]})

