"""Randomized invariants: closed form vs measurement, scaling, extension,
and every batched fast path against its scalar reference."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cowpath.hints import (
    HintedStrategy,
    best_hint_index,
    direction_family,
    kbit_family,
    position_family,
    position_hint_strategy,
    preferred_partition,
)
from cowpath.model import (
    PositionHint,
    Strategy,
    Target,
    cheapest_search_costs,
    make_geometric,
    robust_base_interval,
    scale_strategy,
    search_cost,
    search_costs,
    strategy_from_lengths,
)
from cowpath.ratios import (
    _tails_converged,
    competitive_ratio,
    competitive_ratio_measured,
    competitive_ratio_terms,
    evaluate_hinted,
    tail_converged,
)

finite = {"allow_nan": False, "allow_infinity": False}


@st.composite
def alternating_strategies(draw):
    """Non-shrinking alternating strategies with unit-or-larger first leg."""
    n = draw(st.integers(min_value=2, max_value=24))
    x0 = draw(st.floats(min_value=1.0, max_value=3.0, **finite))
    factors = draw(
        st.lists(
            st.floats(min_value=1.0, max_value=2.5, **finite),
            min_size=n - 1,
            max_size=n - 1,
        )
    )
    lengths = np.cumprod([x0, *factors])
    first = draw(st.integers(min_value=0, max_value=1))
    return strategy_from_lengths(lengths, first)


@settings(max_examples=50, deadline=None)
@given(
    b=st.floats(min_value=1.1, max_value=4.5, **finite),
    scale=st.floats(min_value=1.0, max_value=4.0, **finite),
    n=st.integers(min_value=4, max_value=48),
)
def test_measured_never_exceeds_closed_form(b, scale, n):
    s = make_geometric(b, n, 0, scale)
    assert competitive_ratio_measured(s) <= competitive_ratio(s) + 1e-9


@settings(max_examples=40, deadline=None)
@given(s=alternating_strategies())
def test_vectorized_costs_match_scalar(s):
    hi = max(s.last_turn_point(0), s.last_turn_point(1)) * 1.3
    ds = np.geomspace(1.0, max(hi, 1.5), 40)
    for branch in (0, 1):
        vec = search_costs(s, ds, branch)
        for d, v in zip(ds, vec):
            scalar = search_cost(s, Target(float(d), branch))
            if scalar is None:
                assert np.isnan(v)
            else:
                assert v == scalar


@settings(max_examples=30, deadline=None)
@given(
    s=alternating_strategies(),
    lam=st.floats(min_value=1.0, max_value=20.0, **finite),
)
def test_shrinking_never_raises_measured_ratio(s, lam):
    shrunk = scale_strategy(s, 1.0 / lam)
    assume(min(shrunk.last_turn_point(0), shrunk.last_turn_point(1)) >= 1.0)
    assert competitive_ratio_measured(shrunk) <= (
        competitive_ratio_measured(s) + 1e-7
    )


@settings(max_examples=40, deadline=None)
@given(
    s=alternating_strategies(),
    f=st.floats(min_value=1.0, max_value=2.0, **finite),
)
def test_extension_preserves_found_costs(s, f):
    lengths = list(s.lengths)
    extended = lengths + [lengths[-1] * f, lengths[-1] * f * f]
    s2 = strategy_from_lengths(extended, int(s.branches[0]))
    hi = max(s.last_turn_point(0), s.last_turn_point(1))
    for branch in (0, 1):
        for d in np.geomspace(1.0, max(hi, 1.0), 12):
            before = search_cost(s, Target(float(d), branch))
            if before is not None:
                assert search_cost(s2, Target(float(d), branch)) == before


@settings(max_examples=50, deadline=None)
@given(
    r=st.floats(min_value=9.0, max_value=200.0, **finite),
    t=st.floats(min_value=0.0, max_value=1.0, **finite),
)
def test_robust_interval_brackets_budget(r, t):
    lo, hi = robust_base_interval(r)
    assert 1.0 < lo <= hi
    for b in (lo, hi):
        assert b * b / (b - 1.0) == pytest.approx((r - 1.0) / 2.0, rel=1e-9)
    b = lo + t * (hi - lo)
    assert competitive_ratio(make_geometric(b, 40)) <= r + 1e-9


@settings(max_examples=50, deadline=None)
@given(
    d=st.floats(min_value=1.0, max_value=2.0**30, **finite),
    branch=st.integers(min_value=0, max_value=1),
)
def test_position_member_trusts_its_hint(d, branch):
    member = position_hint_strategy(9.0, PositionHint(d, branch))
    cost = search_cost(member, Target(d, branch))
    assert cost is not None
    assert cost / d < 3.0


@st.composite
def two_apart_strategies(draw):
    """Strategies with random branches: each parity class of the lengths is
    sorted, so the two-apart rule holds but a branch's lengths may dip."""
    n = draw(st.integers(min_value=1, max_value=16))
    lengths = draw(
        st.lists(
            st.floats(min_value=0.5, max_value=100.0, **finite),
            min_size=n,
            max_size=n,
        )
    )
    lengths[0::2] = sorted(lengths[0::2])
    lengths[1::2] = sorted(lengths[1::2])
    branches = draw(
        st.lists(st.integers(min_value=0, max_value=1), min_size=n, max_size=n)
    )
    return Strategy(lengths, branches)


@settings(max_examples=100, deadline=None)
@given(
    s=two_apart_strategies(),
    extra=st.lists(st.floats(min_value=1.0, max_value=130.0, **finite), max_size=8),
)
def test_search_costs_match_scalar_on_any_branches(s, extra):
    turns = np.concatenate([s.lengths, s.lengths * (1.0 + 1e-9)])
    ds = np.concatenate([turns[turns >= 1.0], extra])
    for branch in (0, 1):
        for d, v in zip(ds, search_costs(s, ds, branch)):
            scalar = search_cost(s, Target(float(d), branch))
            if scalar is None:
                assert np.isnan(v)
            else:
                assert v == scalar


@st.composite
def hinted_families(draw):
    name = draw(st.sampled_from(["position", "direction", "kbit"]))
    if name == "position":
        # The trusted rule does not depend on the hint grid; keep it small.
        r = draw(st.floats(min_value=9.0, max_value=40.0, **finite))
        return position_family(r, hints_per_decade=1)
    if name == "direction":
        b = draw(st.floats(min_value=1.5, max_value=4.0, **finite))
        delta = draw(st.floats(min_value=1.0 / b, max_value=1.0, **finite))
        return direction_family(b, delta)
    r = draw(st.floats(min_value=9.0, max_value=40.0, **finite))
    return kbit_family(r, draw(st.integers(min_value=1, max_value=4)))


@settings(max_examples=60, deadline=None)
@given(
    family=hinted_families(),
    ds=st.lists(
        st.floats(min_value=1.0, max_value=2.0**30, **finite), min_size=1, max_size=8
    ),
)
def test_batched_trusted_cost_matches_scalar_rule(family, ds):
    members = {h: family.select(h) for h in family.hint_space}
    for branch in (0, 1):
        got = family.trusted_costs(members, np.asarray(ds), branch)
        for d, cost in zip(ds, got):
            target = Target(d, branch)
            trusted = family.true_hint_of
            hints = family.hint_space if trusted is None else [trusted(target)]
            want = min(
                c
                for c in (search_cost(family.select(h), target) for h in hints)
                if c is not None
            )
            assert cost == pytest.approx(want, rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    r=st.floats(min_value=9.0, max_value=40.0, **finite),
    k=st.integers(min_value=1, max_value=4),
    probes=st.lists(
        st.tuples(
            # The cells are half-open, (1, max]: d = 1 is a tie at its edge.
            st.floats(min_value=1.0, max_value=1e4, exclude_min=True, **finite),
            st.integers(min_value=0, max_value=1),
        ),
        min_size=1,
        max_size=10,
    ),
)
def test_partition_labels_match_best_hint(r, k, probes):
    partition = preferred_partition(r, k, 1e4)
    for d, branch in probes:
        best = best_hint_index(r, k, Target(d, branch))
        cell = next(iv for iv in partition.intervals(branch) if iv.lo < d <= iv.hi)
        assert cell.label == best.index


# The batched kernels stack members of different lengths; each member below
# may have dipping lengths and non-alternating branches.
member_lists = st.lists(two_apart_strategies(), min_size=1, max_size=6)


def _turns_and_probes(strategies):
    turns = np.concatenate([s.lengths for s in strategies])
    probes = np.concatenate([turns, np.nextafter(turns, np.inf)])
    return probes[probes >= 1.0]


@settings(max_examples=100, deadline=None)
@given(
    members=member_lists,
    extra=st.lists(st.floats(min_value=1.0, max_value=130.0, **finite), max_size=8),
)
def test_cheapest_cost_is_the_scalar_minimum(members, extra):
    ds = np.concatenate([_turns_and_probes(members), extra])
    for branch in (0, 1):
        costs, index = cheapest_search_costs(members, ds, branch)
        for d, cost, j in zip(ds, costs, index):
            scalar = [search_cost(m, Target(float(d), branch)) for m in members]
            found = [c for c in scalar if c is not None]
            if not found:
                assert cost == np.inf and j == -1
            else:
                assert cost == min(found)
                assert scalar[j] == cost


@settings(max_examples=100, deadline=None)
@given(
    members=member_lists,
    extra=st.lists(st.floats(min_value=1.0, max_value=130.0, **finite), max_size=8),
)
def test_rowwise_search_costs_match_one_strategy(members, extra):
    # row i: member i's own probes, repeated to a common width, then extras
    width = 2 * max(len(m) for m in members)
    own = [np.append(_turns_and_probes([m]), 1.0) for m in members]
    rows = np.array([np.concatenate([np.resize(d, width), extra]) for d in own])
    for branch in (0, 1):
        got = search_costs(members, rows, branch)
        assert got.shape == rows.shape
        for m, row, costs in zip(members, rows, got):
            np.testing.assert_array_equal(costs, search_costs(m, row, branch))


def _reaching(s):
    """``s`` followed by one segment of length 100 on each branch."""
    return Strategy([*s.lengths, 100.0, 100.0], [*s.branches, 0, 1])


def _family(members):
    """A hand-built family: hint i selects member i."""
    return HintedStrategy(
        family="custom",
        horizon=max(len(m) for m in members),
        select=members.__getitem__,
        hint_space=tuple(range(len(members))),
    )


def _converged_per_parity(member):
    terms = competitive_ratio_terms(member)
    return tail_converged(terms[0::2]) and tail_converged(terms[1::2])


@settings(max_examples=60, deadline=None)
@given(members=member_lists)
def test_batched_robustness_is_the_worst_member(members):
    members = [_reaching(m) for m in members]
    point = evaluate_hinted(_family(members))
    each = [competitive_ratio_measured(m) for m in members]
    assert point.robustness == max(each)
    for m, ratio in zip(members, each):
        # the scalar oracle at distance 1 and one ulp past each turn point
        probes = np.nextafter(m.lengths, np.inf)
        ds = np.append(probes[probes >= 1.0], 1.0)
        scalar = [
            cost / d
            for d in ds.tolist()
            for branch in (0, 1)
            if (cost := search_cost(m, Target(d, branch))) is not None
        ]
        assert ratio == max(scalar)
    assert point.converged == all(map(_converged_per_parity, members))


@settings(max_examples=40, deadline=None)
@given(
    specs=st.lists(
        st.tuples(
            st.floats(min_value=1.5, max_value=4.0, **finite),
            st.integers(min_value=2, max_value=64),
            st.integers(min_value=0, max_value=1),
        ),
        min_size=1,
        max_size=5,
    )
)
@example(specs=[(2.0, 64, 0), (3.0, 40, 1)])  # both converge
def test_batched_evaluation_of_geometric_members(specs):
    # long geometric prefixes converge, short ones do not: a family mixing
    # lengths checks that each member's tail is read at its own end
    members = [make_geometric(b, n, first) for b, n, first in specs]
    point = evaluate_hinted(_family(members))
    assert point.robustness == max(map(competitive_ratio_measured, members))
    assert point.converged == all(map(_converged_per_parity, members))


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(
        st.lists(
            st.sampled_from([1.0, 1.0 + 8e-7, 1.0 + 3e-6]),
            min_size=1,
            max_size=16,
        ),
        min_size=1,
        max_size=5,
    )
)
# the sixth-last term of parity 0 is outside the tail: converged
@example(rows=[[1.0] + [1.0 + 3e-6] * 11, [1.0 + 3e-6] * 12])
def test_stacked_tail_check_matches_tail_converged(rows):
    terms = np.full((len(rows), max(map(len, rows))), np.nan)
    for i, row in enumerate(rows):
        terms[i, : len(row)] = row
    want = [
        tail_converged(np.array(row[0::2])) and tail_converged(np.array(row[1::2]))
        for row in rows
    ]
    assert _tails_converged(terms).tolist() == want
