"""Hint families: position-anchored, direction-asymmetric, k-bit indexed."""

import bisect
import collections
import dataclasses
import math
import warnings

import numpy as np
import pytest

from cowpath import _rules, hints
from cowpath.cli import _partition_to_json
from cowpath.hints import (
    LabeledInterval,
    LinePartition,
    best_hint_index,
    direction_family,
    kbit_family,
    position_family,
    position_hint_strategy,
    preferred_partition,
)
from cowpath.bounds import HorizonTooShort, base_for_robustness, kbit_base
from cowpath.model import (
    BitStringHint,
    DirectionHint,
    PositionHint,
    Target,
    search_cost,
)
from cowpath.ratios import evaluate_hinted


def _label_at(partition, distance, branch):
    """Label of the cell (lo, hi] that holds ``distance`` (1 is in the first)."""
    intervals = partition.intervals(branch)
    return intervals[bisect.bisect_left([iv.hi for iv in intervals], distance)].label


class TestPositionHintStrategy:
    def test_anchored_member_r9_d5(self):
        s = position_hint_strategy(9.0, PositionHint(5.0, 0))
        assert np.allclose(s.lengths[:5], [0.625, 1.25, 2.5, 5.0, 10.0])
        assert list(s.branches[:4]) == [1, 0, 1, 0]
        cost = search_cost(s, Target(5.0, 0))
        assert cost == 13.75
        assert cost / 5.0 == 2.75

    def test_anchor_lands_exactly_on_hint(self):
        for d in (1.0, 1.3, 2.0, 5.0, 77.7, 2.0**20):
            for branch in (0, 1):
                s = position_hint_strategy(9.0, PositionHint(d, branch))
                j = int(np.argmin(np.abs(s.lengths - d)))
                assert s.lengths[j] == d
                assert s.branches[j] == branch
                cost = search_cost(s, Target(d, branch))
                assert cost is not None and cost / d < 3.0

    def test_anchor_index_edges(self):
        # d exactly a power anchors at that power; just above moves one up
        s = position_hint_strategy(9.0, PositionHint(2.0, 0))
        assert s.lengths[1] == 2.0 and s.branches[1] == 0
        s = position_hint_strategy(9.0, PositionHint(2.0000001, 0))
        assert s.lengths[2] == 2.0000001 and s.branches[2] == 0

    def test_trusted_ratio_approaches_bound(self):
        # gap to (b+1)/(b-1) closes like 2/((b-1) d) as the hint grows
        for r in (9.0, 13.0):
            b = base_for_robustness(r)
            d = b**12
            s = position_hint_strategy(r, PositionHint(d, 0))
            ratio = search_cost(s, Target(d, 0)) / d
            bound = (b + 1.0) / (b - 1.0)
            assert ratio < bound
            assert bound - ratio <= 1e-3

    def test_family_derives_its_geometry_once(self, monkeypatch):
        calls = collections.Counter()
        original = hints.base_for_robustness

        def counting(r):
            calls["base"] += 1
            return original(r)

        monkeypatch.setattr(hints, "base_for_robustness", counting)
        fam = position_family(9.0, horizon=15)  # farthest anchor 2**14
        chosen = [h for h in fam.hint_space[::97] if h.distance <= 2.0**14]
        # an off-grid hint is built by the same rule, not derived again
        chosen.append(PositionHint(5.0, 1))
        assert chosen[-1] not in fam.hint_space
        members = [fam.select(h) for h in chosen]
        # so is the check of a grid hint past the horizon
        with pytest.raises(HorizonTooShort, match="past horizon 15"):
            fam.select(fam.hint_space[-1])
        assert calls["base"] == 1
        # bit-identical to the members built one at a time
        for h, member in zip(chosen, members):
            assert member == position_hint_strategy(9.0, h, 15)

    def test_grid_ends_exactly_at_the_farthest_anchor(self):
        # base 2 at r = 9: the 21st anchor is 2**20, the end of the grid
        for hints_per_decade in (8, 128):
            fam = position_family(9.0, 21, hints_per_decade)
            last = fam.hint_space[-1]
            assert last.distance == 2.0**20
            assert fam.select(last).lengths[20] == 2.0**20
            point = evaluate_hinted(fam)
            assert point.consistency < 3.0 and point.robustness < 9.0

    def test_wrong_hint_type(self):
        with pytest.raises(ValueError, match="PositionHint"):
            position_hint_strategy(9.0, DirectionHint(0))

    def test_a_target_is_no_position_hint(self):
        family = position_family(9.0, hints_per_decade=1)
        with pytest.raises(ValueError, match="position family needs a PositionHint"):
            family.select(Target(2.0, 0))

    def test_horizon_too_short(self):
        with pytest.raises(HorizonTooShort, match=r"distance \S+e\+21 .* horizon 64"):
            position_hint_strategy(9.0, PositionHint(2.0**70, 0), horizon=64)
        # the farthest anchor 2**63 is still reached
        s = position_hint_strategy(9.0, PositionHint(2.0**63, 0), horizon=64)
        assert s.lengths[63] == 2.0**63

    def test_family_descriptor(self):
        fam = position_family(9.0, hints_per_decade=16)
        # a family holds its member rule, its hints and its trusted-hint rule
        fields = [f.name for f in dataclasses.fields(fam)]
        assert fields == ["select", "hint_space", "trusted_costs"]
        # a family compares by identity, never by the parameters it came from
        assert fam == fam and fam != position_family(9.0, hints_per_decade=16)
        hints = fam.hint_space
        assert {h.branch for h in hints} == {0, 1}
        assert min(h.distance for h in hints) == 1.0
        assert max(h.distance for h in hints) == 2.0**20
        assert len(hints) == 2 * 97  # 16 per decade over log10(2**20) decades
        member = fam.select(hints[0])
        assert search_cost(member, Target(hints[0].distance, hints[0].branch))

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"hints_per_decade": math.inf}, "hints_per_decade must be finite"),
            ({"hints_per_decade": 0}, r"hints_per_decade .* > 0, got 0"),
            (
                {"hints_per_decade": 1e308},
                r"^hints_per_decade must give a finite hint count, got 1e\+308$",
            ),
        ],
        ids=["hints-inf", "hints-0", "hints-1e308"],
    )
    def test_family_inputs_name_their_parameter(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            position_family(9.0, **kwargs)

    def test_too_many_hints_is_refused_before_any_member(self, monkeypatch):
        built = []
        monkeypatch.setattr(hints, "_alternating_rows", lambda *a: built.append(a))
        with pytest.raises(ValueError) as info:
            position_family(9.0, hints_per_decade=10**6)
        assert str(info.value) == (
            "r=9.0 with horizon=64 needs 12041202 members x 64 segments, "
            "over the limit of 1048576 segments"
        )
        assert not built
        with pytest.raises(ValueError) as info:
            position_family(9.0, horizon=700)
        assert str(info.value) == (
            "r=9.0 with horizon=700 needs 1544 members x 700 segments, "
            "over the limit of 1048576 segments"
        )
        assert not built


class TestDirectionHintStrategy:
    def test_lengths_and_branches(self):
        s = direction_family(2.0, 0.5, horizon=6).select(DirectionHint(1))
        assert np.allclose(s.lengths, [1.0, 1.0, 4.0, 4.0, 16.0, 16.0])
        assert list(s.branches) == [1, 0, 1, 0, 1, 0]

    def test_validation(self):
        with pytest.raises(ValueError, match="b must be > 1"):
            direction_family(1.0, 0.5).select(DirectionHint(0))
        with pytest.raises(ValueError, match="delta"):
            direction_family(2.0, 0.0).select(DirectionHint(0))
        with pytest.raises(ValueError, match="DirectionHint"):
            direction_family(2.0, 0.5).select(PositionHint(1.0, 0))

    @pytest.mark.parametrize(
        "b,delta,message",
        [
            (0.5, 3.0, "b must be > 1, got 0.5"),
            (2.0, 3.0, "delta must be in (0, 1], got 3.0"),
            (2.0, 0.0, "delta must be in (0, 1], got 0.0"),
            (1e10, 1.0, "b=10000000000.0 with horizon=64 overflows"),
        ],
    )
    def test_family_validates_before_any_member(self, monkeypatch, b, delta, message):
        monkeypatch.setattr(hints, "_alternating_rows", None)  # never called
        with pytest.raises(ValueError) as info:
            direction_family(b, delta)
        assert str(info.value).startswith(message)

    def test_family_derives_its_geometry_once(self, monkeypatch):
        calls = collections.Counter()
        original = hints._direction_params

        def counting(*args):
            calls["params"] += 1
            return original(*args)

        monkeypatch.setattr(hints, "_direction_params", counting)
        fam = direction_family(2.0, 0.5, horizon=6)
        members = [fam.select(h) for h in fam.hint_space * 3]
        assert calls["params"] == 1
        assert [list(m.branches[:2]) for m in members[:2]] == [[0, 1], [1, 0]]
        for member in members:
            assert member.lengths.tolist() == [1.0, 1.0, 4.0, 4.0, 16.0, 16.0]

    def test_family(self):
        fam = direction_family(2.0, 1.0)
        assert fam.hint_space == (DirectionHint(0), DirectionHint(1))


class TestKBit:
    def test_base_regimes(self):
        # below the threshold the base tracks b_r, past it the constant 1+2^k
        assert kbit_base(9.0, 1) == 2.0
        assert kbit_base(9.0, 2) == 2.0
        assert kbit_base(9.0, 3) == 2.0
        assert kbit_base(16.0, 1) == 3.0
        assert kbit_base(10.0, 1) == 3.0  # boundary: both regimes give 3
        assert kbit_base(13.5, 2) == 5.0  # boundary for k=2

    def test_base_validation(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            kbit_base(9.0, 0)
        with pytest.raises(ValueError):
            kbit_base(8.0, 1)
        # (1 + 2**k)**2 leaves the float range past k = 511
        assert kbit_base(9.0, 511) == 2.0
        with pytest.raises(ValueError, match="k must be <= 511, got 512"):
            kbit_base(9.0, 512)

    def test_member_lengths(self):
        s = kbit_family(9.0, 1, horizon=4).select(BitStringHint(1, 1))
        assert np.allclose(s.lengths, 2.0 ** (np.arange(4) + 0.5))
        assert list(s.branches) == [0, 1, 0, 1]

    def test_member_k_mismatch(self):
        with pytest.raises(ValueError, match="k=2"):
            kbit_family(9.0, 1).select(BitStringHint(1, 2))

    def test_family_derives_its_geometry_once(self, monkeypatch):
        calls = collections.Counter()
        original = hints.kbit_base

        def counting(r, k):
            calls["base"] += 1
            return original(r, k)

        monkeypatch.setattr(hints, "kbit_base", counting)
        fam = kbit_family(9.0, 3, horizon=8)
        members = [fam.select(h) for h in fam.hint_space * 2]
        assert calls["base"] == 1
        # member j has lengths 2**(i + j/8)
        for j, member in enumerate(members[:8]):
            assert member == members[8 + j]
            assert np.allclose(np.log2(member.lengths), np.arange(8) + j / 8.0)

    def test_family_space(self):
        fam = kbit_family(9.0, 2)
        assert len(fam.hint_space) == 4
        assert {hint.k for hint in fam.hint_space} == {2}

    @pytest.mark.parametrize("d,expected", [(1.2, 1), (3.0, 0), (1.0, 0)])
    def test_best_hint_index(self, d, expected):
        assert best_hint_index(9.0, 1, Target(d, 0)).index == expected

    def test_best_hint_is_argmin(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            d = float(np.exp(rng.uniform(0.0, 8.0)))
            branch = int(rng.integers(2))
            k = int(rng.integers(1, 4))
            best = best_hint_index(9.0, k, Target(d, branch))
            fam = kbit_family(9.0, k)
            costs = [
                search_cost(fam.select(BitStringHint(j, k)), Target(d, branch))
                for j in range(2**k)
            ]
            assert costs[best.index] == min(c for c in costs if c is not None)

    def test_best_hint_horizon(self):
        with pytest.raises(HorizonTooShort):
            # past the reach of the 64 segments, about 1.3e19
            best_hint_index(9.0, 1, Target(1e20, 0))


class TestOverflowChecks:
    @pytest.mark.parametrize(
        "build,names",
        [
            (lambda: position_family(1e9), "r=1000000000.0 with horizon=64"),
            (
                lambda: position_hint_strategy(1e9, PositionHint(2.0, 0)),
                "r=1000000000.0 with horizon=64",
            ),
            (
                lambda: direction_family(1e10, 1.0).select(DirectionHint(0)),
                "b=10000000000.0 with horizon=64",
            ),
            (lambda: kbit_family(1e9, 20), "r=1000000000.0, k=20 with horizon=64"),
        ],
        ids=["position_family", "position_member", "direction_member", "kbit_family"],
    )
    def test_rejected_before_any_array(self, build, names):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows the float range") as info:
                build()
        assert str(info.value).startswith(names)

    def test_shorter_horizon_fits(self):
        fam = position_family(1e9, horizon=10)
        assert np.isfinite(fam.select(fam.hint_space[-1]).lengths).all()


class TestSizeLimit:
    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda: kbit_family(9.0, 2), "k=2 with horizon=64 needs 4 members"),
            (lambda: preferred_partition(9.0, 2, 10.0), "k=2 with horizon=64"),
            (lambda: best_hint_index(9.0, 2, Target(2.0, 0)), "k=2 with horizon=64"),
            (lambda: position_family(9.0), "r=9.0 with horizon=64 needs 1544"),
            (lambda: direction_family(2.0, 1.0, 65), "b=2.0 with horizon=65"),
            (lambda: direction_family(2.0, 1.0, 129).select(DirectionHint(0)),
             "horizon must be <= 128, got 129"),
        ],
        ids=["kbit", "partition", "best_hint", "position", "direction", "horizon"],
    )
    def test_checked_before_any_member(self, monkeypatch, build, message):
        built = collections.Counter()
        for name in ("_alternating_rows", "PositionHint"):
            original = getattr(hints, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                built[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(hints, name, counting)
        monkeypatch.setattr(_rules, "_MAX_SEGMENTS", 128)
        with pytest.raises(ValueError, match="segments|horizon must be") as info:
            build()
        assert message in str(info.value)
        assert not built

    @pytest.mark.parametrize(
        "build",
        [
            lambda: kbit_family(9.0, 2, horizon=2**21),
            lambda: position_family(9.0, horizon=2**21, hints_per_decade=200),
            lambda: direction_family(2.0, 1.0, 2**21),
        ],
        ids=["kbit", "position", "direction"],
    )
    def test_horizon_over_its_bound_is_quoted_alone(self, build):
        # no other parameter of the family can bring the horizon back in bound
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == "horizon must be <= 1048576, got 2097152"

    def test_at_the_limit_fits(self, monkeypatch):
        monkeypatch.setattr(_rules, "_MAX_SEGMENTS", 128)
        assert len(kbit_family(9.0, 1).hint_space) == 2
        assert preferred_partition(9.0, 1, 10.0).branch0
        assert len(direction_family(2.0, 1.0, 64).select(DirectionHint(0))) == 64


class TestPartition:
    def test_r9_k1_max16_branch0(self):
        part = preferred_partition(9.0, 1, 16.0)
        r2 = math.sqrt(2.0)
        got = [(iv.lo, iv.hi, iv.label) for iv in part.branch0]
        expect = [
            (1.0, r2, 1),
            (r2, 4.0, 0),
            (4.0, 4.0 * r2, 1),
            (4.0 * r2, 16.0, 0),
        ]
        for (lo, hi, lab), (elo, ehi, elab) in zip(got, expect):
            assert lo == pytest.approx(elo) and hi == pytest.approx(ehi)
            assert lab == elab
        assert len(got) == len(expect)

    def test_boundaries_on_half_power_lattice(self):
        part = preferred_partition(9.0, 1, 16.0)
        for branch in (0, 1):
            for iv in part.intervals(branch):
                for edge in (iv.lo, iv.hi):
                    doubled_log = 2.0 * math.log2(edge)
                    assert abs(doubled_log - round(doubled_log)) <= 1e-9

    def test_labels_match_best_hint(self):
        part = preferred_partition(9.0, 2, 64.0)
        rng = np.random.default_rng(3)
        for _ in range(300):
            d = float(np.exp(rng.uniform(0.01, math.log(64.0))))
            branch = int(rng.integers(2))
            assert _label_at(part, d, branch) == best_hint_index(
                9.0, 2, Target(d, branch)
            ).index

    def test_coverage_contiguous(self):
        part = preferred_partition(9.0, 1, 32.0)
        for branch in (0, 1):
            ivs = part.intervals(branch)
            assert ivs[0].lo == 1.0 and ivs[-1].hi == 32.0
            for left, right in zip(ivs, ivs[1:]):
                assert left.hi == right.lo

    def test_max_one_single_interval(self):
        part = preferred_partition(9.0, 1, 1.0)
        assert len(part.branch0) == 1 and len(part.branch1) == 1
        assert _label_at(part, 1.0, 0) == part.branch0[0].label

    def test_reach_guard(self):
        with pytest.raises(HorizonTooShort):
            preferred_partition(9.0, 1, 1e30)

    def test_builds_its_member_record_once(self, monkeypatch):
        records = []
        build = hints._alternating_rows

        def counting_build(lengths, first_branches):
            records.append((lengths, first_branches))
            return build(lengths, first_branches)

        monkeypatch.setattr(hints, "_alternating_rows", counting_build)
        preferred_partition(9.0, 3, 1e4)
        assert len(records) == 1
        lengths, first_branches = records[0]
        # member j of the r = 9, k = 3 family starts at 2**(j/8), on branch 0
        assert np.round(8 * np.log2(lengths[:, 0])).tolist() == list(range(8))
        assert list(first_branches) == [0] * 8

    def test_interval_validation(self):
        with pytest.raises(ValueError, match="bad interval"):
            LabeledInterval(3.0, 2.0, 0)
        with pytest.raises(ValueError, match="label"):
            LabeledInterval(1.0, 2.0, -1)
        with pytest.raises(ValueError, match="contiguous"):
            LinePartition(
                (LabeledInterval(1.0, 2.0, 0), LabeledInterval(3.0, 4.0, 1)),
                (LabeledInterval(1.0, 4.0, 0),),
            )


class TestPartitionJson:
    def test_round_trip(self):
        part = preferred_partition(9.0, 2, 32.0)
        obj = _partition_to_json(part)
        sides = [
            tuple(LabeledInterval(**entry) for entry in obj[f"branch{branch}"])
            for branch in (0, 1)
        ]
        assert LinePartition(*sides) == part
