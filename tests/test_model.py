"""Core model: strategies, targets, search cost, robust bases."""

import copy
import math
import pickle
import re
import warnings

import numpy as np
import pytest

from cowpath import model
from cowpath.bounds import _rho, _robust_base_interval, base_for_robustness
from cowpath.cli import _strategy_from_json
from cowpath.hints import LinePartition, direction_family, kbit_family, position_family
from cowpath.model import (
    BitStringHint,
    DirectionHint,
    Members,
    PositionHint,
    Strategy,
    Target,
    cheapest_search_costs,
    make_geometric,
    scale_strategy,
    search_cost,
    search_costs,
    strategy_from_lengths,
)
from cowpath.ratios import TargetGrid, competitive_ratio, random_alternating_strategies


def _bad_branch(value) -> str:
    """The integer rule's message for ``value`` read as a branch: an integer
    out of [0, 1] is quoted with the bound it breaks, anything else is no
    integer."""
    out_of_range = {2: "<= 1, got 2", -1: ">= 0, got -1", 1e300: "<= 1, got 1e+300"}
    rule = out_of_range.get(value, f"an integer, got {value!r}")
    return f"^branch must be {re.escape(rule)}$"


class TestSegment:
    """One segment's length and branch, checked by the constructor and by
    the JSON form."""

    def test_fields_coerced(self):
        s = Strategy([2], [1])
        assert s.lengths.dtype == np.float64 and s.lengths[0] == 2.0
        assert s.branches.dtype == np.int8 and s.branches[0] == 1
        s = _strategy_from_json({"segments": [{"length": 2, "branch": 1.0}]})
        assert s == Strategy([2.0], [1])

    @pytest.mark.parametrize("length", [0.0, -1.0, math.inf, math.nan])
    def test_bad_length(self, length):
        rule = "> 0" if math.isfinite(length) else "finite"
        text = rf"segment length must be {re.escape(rule)}, got {length!r}$"
        with pytest.raises(ValueError, match="^" + text):
            Strategy([length], [0])
        with pytest.raises(ValueError, match=r"^segments\[0\]: " + text):
            _strategy_from_json({"segments": [{"length": length, "branch": 0}]})

    @pytest.mark.parametrize("branch", [2, -1, True, False, 0.5])
    def test_bad_branch(self, branch):
        text = _bad_branch(branch)
        with pytest.raises(ValueError, match=text):
            Strategy([1.0], [branch])
        # numpy reads a list mixing ints and bools as ints
        with pytest.raises(ValueError, match=text):
            Strategy([1.0, 2.0], [0, branch])
        with pytest.raises(ValueError, match=r"^segments\[0\]: " + text[1:]):
            _strategy_from_json({"segments": [{"length": 1.0, "branch": branch}]})

    @pytest.mark.parametrize(
        "branches, got",
        [([0, np.True_], np.True_), (np.array([False, True]), False)],
        ids=["list-np.True_", "bool-array"],
    )
    def test_branches_refuse_a_bool_in_a_list_or_array(self, branches, got):
        # numpy would read either as the ints 0 and 1
        with pytest.raises(ValueError, match=_bad_branch(got)):
            Strategy([1.0, 2.0], branches)

    @pytest.mark.parametrize(
        "branch",
        [True, np.True_, np.False_, 2, -1, "1", 0.5, math.nan, None, math.inf, 1e300],
        ids=repr,
    )
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
            lambda b: LinePartition((), ()).intervals(b),
            # the position rule reads no record: a member's cost is its formula
            lambda b: position_family(9.0, 8, 1).trusted_costs(None, [2.0], b),
        ],
        ids=["Target", "PositionHint", "DirectionHint", "strategy_from_lengths",
             "make_geometric", "search_costs", "cheapest_search_costs",
             "LinePartition.intervals", "position_trusted_costs"],
    )
    def test_branch_argument_refuses_a_bool(self, build, branch):
        # numpy's bool is no subclass of bool, and np.True_ == 1
        with pytest.raises(ValueError, match=_bad_branch(branch)):
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
        text = "^segment length must be finite, got inf$"
        with pytest.raises(ValueError, match=text):
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
        assert s.lengths.dtype == np.float64 and s.branches.dtype == np.int8
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
        with pytest.raises(ValueError, match="branch must be <= 1, got 2"):
            Strategy([1.0, 2.0], [0, 2])
        with pytest.raises(ValueError, match="branch must be an integer, got True"):
            Strategy([1.0, 2.0], [True, False])
        with pytest.raises(ValueError, match="got inf"):
            Strategy([1.0, math.inf], [0, 1])
        with pytest.raises(ValueError, match="one size"):
            Strategy([1.0, 2.0], [0])


def _direction_row():
    return direction_family(2.0, 0.5).select(DirectionHint(1))


# Every way a strategy is built; the family rows and the random draw are rows
# of a record of several members.
_BUILDS = {
    "Strategy": lambda: Strategy(np.array([1.0, 2.0, 4.0]), np.array([0, 1, 0])),
    "strategy_from_lengths": lambda: strategy_from_lengths([1.0, 2.0, 4.0], 1),
    "make_geometric": lambda: make_geometric(2.0, 8),
    "scale_strategy": lambda: scale_strategy(make_geometric(2.0, 8), 0.5),
    "position": lambda: position_family(9.0, 8, 1).select(PositionHint(1.0, 1)),
    "direction": _direction_row,
    "kbit": lambda: kbit_family(9.0, 2).select(BitStringHint(3, 2)),
    "random": lambda: random_alternating_strategies(3, 0, 8)[1],
    "copy": lambda: copy.copy(_direction_row()),
    "deepcopy": lambda: copy.deepcopy(_direction_row()),
    "pickle": lambda: pickle.loads(pickle.dumps(_direction_row())),
}
_ROWS = ("position", "direction", "kbit", "random")


class TestRecordsStayFrozen:
    @pytest.mark.parametrize(
        "duplicate",
        [copy.copy, copy.deepcopy, lambda record: pickle.loads(pickle.dumps(record))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_are_equal_and_read_only(self, duplicate):
        family = kbit_family(9.0, 2)
        rows = [family.select(hint) for hint in family.hint_space]
        padded = Members.stack([make_geometric(2.0, 3), make_geometric(3.0, 5, 1)])
        records = [
            make_geometric(2.0, 8), rows[1], TargetGrid((1.0, 2.0, 4.0)),
            Members.stack(rows), Members.stack(rows).row(1), padded,
        ]
        for record in records:
            copied = duplicate(record)
            assert type(copied) is type(record)
            names = [n for n, a in vars(record).items() if isinstance(a, np.ndarray)]
            assert names
            for name in names:
                a, b = getattr(record, name), getattr(copied, name)
                assert b.dtype == a.dtype and np.array_equal(b, a, equal_nan=True)
                assert not b.flags.writeable, (type(record).__name__, name)
        # a copy's lengths cannot be bent past the strategy rule
        original = make_geometric(2.0, 8)
        strategy = duplicate(original)
        with pytest.raises(ValueError, match="read-only"):
            strategy.lengths[3] = -1e9
        assert competitive_ratio(strategy) == competitive_ratio(original)

    @pytest.mark.parametrize("build", _BUILDS.values(), ids=_BUILDS.keys())
    def test_no_writeable_array_behind_a_strategy(self, build):
        # a view of a writeable array could be bent past the strategy rule
        s = build()
        for a in (s.lengths, s.branches):
            for behind in (a, a.base):
                if behind is None:
                    continue
                assert not behind.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    behind[(0,) * behind.ndim] = 1

    def test_stacking_a_whole_record_returns_that_record(self):
        family = kbit_family(9.0, 2)
        rows = [family.select(hint) for hint in family.hint_space]
        whole = (rows, random_alternating_strategies(3, 0, 8), *(
            build() for name, build in _BUILDS.items() if name not in _ROWS
        ))
        for strategies in whole:
            assert Members.stack(strategies) is Members.stack(strategies)
        # any other list is padded into a new record
        for strategies in (rows[1], rows[::-1], rows[:2], rows + rows):
            assert Members.stack(strategies) is not Members.stack(strategies)

    def test_every_record_is_built_by_rows(self, monkeypatch):
        # padded stacks, rows, copies and pickles are all checked by _rows
        strategies = [make_geometric(2.0, 3), make_geometric(3.0, 5, 1)]
        record = Members.stack(strategies)

        class Built(Exception):
            pass

        def refuse(lengths, branches):
            raise Built

        monkeypatch.setattr(model, "_rows", refuse)
        builds = {
            "padded stack": lambda: Members.stack(strategies),
            "row": lambda: record.row(1),
            "copy": lambda: copy.copy(record),
            "deepcopy": lambda: copy.deepcopy(record),
            "pickle": lambda: pickle.loads(pickle.dumps(record)),
        }
        missed = []
        for name, build in builds.items():
            try:
                build()
            except Built:
                continue
            missed.append(name)
        assert not missed

    def test_a_record_is_built_only_from_strategies(self):
        # the kernels trust a record's arrays, so none is taken unchecked
        with pytest.raises(TypeError):
            Members(
                np.array([[1.0, -2.0, 4.0]]),
                np.array([[0, 1, 7]], dtype=np.int8),
                np.array([[0.0, 100.0, 5.0, 9.0]]),
            )


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

    def test_scale_strategy_overflow_is_refused_by_the_length_rule(self):
        # the overflowing product is the length rule's to refuse, without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                scale_strategy(make_geometric(2.0, 64), 1e308)
        assert str(info.value) == "segment length must be finite, got inf"


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

    def test_position_hint_reads_as_a_target_but_is_none(self):
        # one rule reads both; a hint and a target never compare equal
        assert "__post_init__" not in vars(PositionHint)
        assert PositionHint(2.0, 0) != Target(2.0, 0)
        assert Target(2.0, 0) != PositionHint(2.0, 0)


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

    def test_distances_need_one_row_per_strategy(self):
        strategies = [make_geometric(2.0, 4), make_geometric(3.0, 5)]
        with pytest.raises(ValueError) as info:
            search_costs(strategies, np.ones((1, 1)), 0)
        assert str(info.value) == (
            "distances must have one row per strategy, got shape (1, 1) "
            "for 2 strategies"
        )


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
        assert _rho(9.0) == 4.0
        with pytest.raises(ValueError, match=">= 9"):
            _rho(8.999)
        for r in (math.inf, math.nan):
            with pytest.raises(ValueError, match="r must be finite"):
                _rho(r)

    def test_known_bases(self):
        assert base_for_robustness(9.0) == 2.0
        assert base_for_robustness(10.0) == 3.0
        assert base_for_robustness(13.0) == pytest.approx(3.0 + math.sqrt(3.0))

    def test_interval(self):
        lo, hi = _robust_base_interval(10.0)
        assert (lo, hi) == (1.5, 3.0)
        assert _robust_base_interval(9.0) == (2.0, 2.0)

    def test_roots_satisfy_identity(self):
        for r in np.linspace(9.0, 60.0, 25):
            for b in _robust_base_interval(r):
                assert b * b / (b - 1.0) == pytest.approx(_rho(r), abs=1e-9)

    @pytest.mark.parametrize("r", [1e20, 1e154, 1.79e308])
    def test_lower_root_at_huge_r(self, r):
        # the lower root is just above 1; p - sqrt(p*p - 4p) cancels here
        lo, hi = _robust_base_interval(r)
        assert 1.0 <= lo < 1.0 + 1e-9
        assert lo * hi == pytest.approx(_rho(r), rel=1e-15)


class TestJson:
    def test_strategy_round_trip(self):
        segments = [{"length": 0.75 * 2.0**i, "branch": 1 - i % 2} for i in range(6)]
        assert _strategy_from_json({"segments": segments}) == make_geometric(
            2.0, 6, 1, 0.75
        )

    def test_strategy_errors_name_fields(self):
        with pytest.raises(ValueError, match="'segments'"):
            _strategy_from_json({})
        with pytest.raises(ValueError, match="must be a list"):
            _strategy_from_json({"segments": 3})
        with pytest.raises(ValueError, match=r"segments\[1\] is missing field 'length'"):
            _strategy_from_json(
                {"segments": [{"length": 1, "branch": 0}, {"branch": 1}]}
            )
        with pytest.raises(ValueError, match=r"segments\[0\]"):
            _strategy_from_json({"segments": [{"length": -1, "branch": 0}]})

