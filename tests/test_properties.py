"""Randomized invariants: closed form vs measurement, scaling, extension,
and every batched fast path against its scalar reference."""

import decimal
import math
import pickle
import random
import re
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cowpath import bounds
from cowpath._rules import _integer, _real
from cowpath.bounds import (
    HorizonTooShort,
    _robust_base_interval,
    base_for_robustness,
    check_prefix_sum_bound,
    check_segment_growth_lemma,
    direction_frontier,
    kbit_base,
    kbit_consistency_upper,
    onebit_lower,
    position_consistency_bound,
)
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
    DirectionHint,
    Members,
    PositionHint,
    Strategy,
    Target,
    _branches,
    _distinct,
    _reals,
    cheapest_search_costs,
    make_geometric,
    scale_strategy,
    search_cost,
    search_costs,
    strategy_from_lengths,
)
from cowpath.ratios import (
    _cells,
    _measured_ratios,
    competitive_ratio,
    competitive_ratio_measured,
    evaluate_hinted,
    random_alternating_strategies,
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
    hi = float(s.lengths[-2:].max()) * 1.3  # the farther last turn point
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
    assume(shrunk.lengths[-2:].min() >= 1.0)  # both last turn points
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
    hi = float(s.lengths[-2:].max())
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
    lo, hi = _robust_base_interval(r)
    assert 1.0 < lo <= hi
    for b in (lo, hi):
        assert b * b / (b - 1.0) == pytest.approx((r - 1.0) / 2.0, rel=1e-9)
    b = lo + t * (hi - lo)
    assert competitive_ratio(make_geometric(b, 40)) <= r + 1e-9


def _exact_closed_forms(r):
    """Every closed form frontier prints at budget r, from the float r in
    60-digit decimal arithmetic: name -> value, and the feasible direction
    candidates (c, b, delta) in the unreduced form of _direction_point."""
    D = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        r = D(r)
        p = (r - 1) / 2
        b = (p + (p * p - 4 * p).sqrt()) / 2
        exact = {
            "base_for_robustness": b,
            "position_consistency_bound": (b + 1) / (b - 1),
            "onebit_lower": D(5) if r == 9 else 1 + 2 * b / (b - 1),
        }
        for k in (1, 2, 4, 8):
            a = b if p <= D((1 + 2**k) ** 2) / 2**k else D(1 + 2**k)
            power = a ** (1 + D(1) / 2**k)
            exact[f"kbit_consistency_upper-{k}"] = 1 + 2 * power / (a - 1)
        candidates = []
        u = p / (p.sqrt() - 1)  # the interior, stationary in u = b**2
        denom = (p - 1) * u - p
        b = u.sqrt()
        if 1 / b <= b**3 / denom <= 1:
            candidates.append((1 + 2 * u * (u + p) / denom, b, b**3 / denom))
        if (r - 7) ** 2 >= 32:  # the edge delta = 1/b
            u = (r - 3) / 4 + ((r - 7) ** 2 - 32).sqrt() / 4
            candidates.append((5 + 4 / (u - 1), u.sqrt(), 1 / u.sqrt()))
    return exact, candidates


def _ulps(got, exact):
    """|got - exact| in units of the last place of exact, as a float."""
    return float(abs(decimal.Decimal(got) - exact)) / math.ulp(float(exact))


# Where a closed form changes branch or a square root vanishes: r = 9,
# (r - 7)**2 = 32, r = 2 rho + 1 at each k-bit threshold (1 + 2**k)**2 / 2**k,
# and the direction switch from interior to edge at rho = golden ratio**4.
_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
_SEAMS = [9.0, 7.0 + math.sqrt(32.0), 2.0 * _GOLDEN**4 + 1.0]
_SEAMS += [2.0 * (1 + 2**k) ** 2 / 2**k + 1.0 for k in (1, 2, 4, 8)]


@settings(max_examples=400, deadline=None)
@given(
    r=st.one_of(
        st.floats(math.log(9.0), math.log(1.7e308)).map(math.exp),
        st.floats(min_value=9.0, max_value=14.71),
        st.builds(
            lambda seam, steps: seam + steps * math.ulp(seam),
            st.sampled_from(_SEAMS), st.integers(-64, 64),
        ),
        st.builds(
            lambda seam, rel: seam * (1.0 + rel),
            st.sampled_from(_SEAMS), st.floats(-1e-6, 1e-6),
        ),
    ).map(lambda r: max(r, 9.0)),
)
@example(r=9.217637517072783)  # delta* was 5.2 ulps off as b**3 / ((p - 1)u - p)
@example(r=1.7e308)
def test_printed_closed_forms_are_within_4_ulps(r):
    """Every number frontier prints, and the base they rest on, is within
    4 ulps of its value in 60-digit arithmetic.  A direction row is one
    feasible candidate, and its c the least of theirs."""
    exact, candidates = _exact_closed_forms(r)
    got = {
        "base_for_robustness": base_for_robustness(r),
        "position_consistency_bound": position_consistency_bound(r),
        "onebit_lower": onebit_lower(r).value,
    }
    for k in (1, 2, 4, 8):
        got[f"kbit_consistency_upper-{k}"] = kbit_consistency_upper(r, k)
    ulps = {name: _ulps(value, exact[name]) for name, value in got.items()}
    assert max(ulps.values()) <= 4, ulps
    point = direction_frontier([r]).points[0]
    assert _ulps(point.c_upper, min(c for c, _, _ in candidates)) <= 4
    assert any(
        _ulps(point.b_star, b) <= 4 and _ulps(point.delta_star, delta) <= 4
        for _, b, delta in candidates
    )


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@settings(max_examples=300, deadline=None)
@given(
    b=st.one_of(
        st.floats(min_value=1.0 + 1e-6, max_value=1.01),  # b**2 - 1 cancels
        _log_uniform(1.5, 64.0),
        _log_uniform(1.01, 1e100),
    ),
    delta=_log_uniform(1e-6, 1.0),
)
@example(b=6e102, delta=1.0)  # b**3 overflows
@example(b=1.000001, delta=1e-6)
def test_direction_tradeoff_is_within_4_ulps(b, delta):
    """c = 1 + 2(b**2 + delta*b**3)/(b**2 - 1) and r = 1 + 2(b**2 +
    b**3/delta)/(b**2 - 1), each within 4 ulps of 60-digit arithmetic."""
    point = bounds.direction_tradeoff(b, delta)
    D = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        b, delta = D(b), D(delta)
        c = 1 + 2 * (b * b + delta * b**3) / (b * b - 1)
        r = 1 + 2 * (b * b + b**3 / delta) / (b * b - 1)
    assert _ulps(point.consistency, c) <= 4
    assert _ulps(point.robustness, r) <= 4


def test_direction_tradeoff_floor_is_exact():
    point = bounds.direction_tradeoff(2.0, 1.0)
    assert (point.consistency, point.robustness) == (9.0, 9.0)


@settings(max_examples=200, deadline=None)
@given(
    r=st.floats(min_value=9.0, max_value=1000.0, **finite),
    d=st.floats(min_value=1.0, max_value=2.0**20, **finite),
    branch=st.integers(min_value=0, max_value=1),
)
@example(r=9.0, d=1.0, branch=0)
@example(r=1000.0, d=2.0**20, branch=1)
def test_position_member_ratio_is_shrink_invariant(r, d, branch):
    # every position member is the base-b_r strategy shrunk by a factor in
    # [1, b_r), and shrinking keeps its ratio at r: so the finite hint grid
    # has the robustness of the continuous hint space
    member = position_hint_strategy(r, PositionHint(d, branch))
    assert abs(competitive_ratio(member) - r) <= 8 * math.ulp(r)


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


@settings(max_examples=60, deadline=None)
@given(
    r=st.floats(min_value=9.0, max_value=40.0, **finite),
    k=st.integers(min_value=1, max_value=8),
    b=st.floats(min_value=1.1, max_value=4.0, **finite),
    delta=st.floats(min_value=0.01, max_value=1.0, **finite),
    horizon=st.integers(min_value=1, max_value=80),
    off_grid=st.floats(min_value=1.0, max_value=1e7, **finite),
    branch=st.integers(min_value=0, max_value=1),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_member_records_match_the_per_member_rules(
    r, k, b, delta, horizon, off_grid, branch, seed
):
    """Every row a family or the random draw builds in one broadcast equals
    the member its old one-at-a-time rule built, written out here."""
    steps = np.arange(horizon, dtype=float)

    def check(member, lengths, first):
        assert np.array_equal(member.lengths, lengths)
        assert np.array_equal(member.branches, (first + np.arange(horizon)) % 2)
        assert member.branches.dtype == np.int8

    family = kbit_family(r, k, horizon)
    a = kbit_base(r, k)
    for hint in family.hint_space:
        check(family.select(hint), np.power(a, steps + hint.index / 2.0**k), 0)

    family = direction_family(b, delta, horizon)
    lengths = np.power(b, steps)
    lengths[1::2] *= delta
    for hint in family.hint_space:
        check(family.select(hint), lengths, hint.branch)

    family = position_family(r, horizon, hints_per_decade=4)
    base = base_for_robustness(r)
    anchors = np.array([base**j for j in range(horizon)])
    for hint in (*family.hint_space, PositionHint(off_grid, branch)):
        j = int(np.searchsorted(anchors, hint.distance, side="left"))
        if j == horizon:
            message = (
                f"hint distance {hint.distance!r} lies past horizon {horizon}: "
                f"the farthest anchor is {anchors[-1]:.6g}"
            )
            with pytest.raises(HorizonTooShort, match=f"^{re.escape(message)}$"):
                family.select(hint)
            with pytest.raises(HorizonTooShort, match=f"^{re.escape(message)}$"):
                position_hint_strategy(r, hint, horizon)
            continue
        lengths = np.power(base, steps) / (anchors[j] / hint.distance)
        lengths[j] = hint.distance
        first = hint.branch if j % 2 == 0 else 1 - hint.branch
        check(family.select(hint), lengths, first)
        check(position_hint_strategy(r, hint, horizon), lengths, first)

    rng = random.Random(seed)
    for member in random_alternating_strategies(5, seed, horizon):
        base = 4.0 - rng.uniform(0.0, 2.5)
        scale = math.exp(rng.uniform(math.log(0.25), math.log(4.0)))
        check(member, scale * np.power(base, steps), rng.randrange(2))


@st.composite
def two_apart_strategies(draw, low=0.5):
    """Strategies with random branches: each parity class of the lengths is
    sorted, so the two-apart rule holds but a branch's lengths may dip."""
    n = draw(st.integers(min_value=1, max_value=16))
    lengths = draw(
        st.lists(
            st.floats(min_value=low, max_value=100.0, **finite),
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


def _same(a, b):
    """Bit-identical arrays: same shape, dtype and bytes (NaN included)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(max_examples=100, deadline=None)
@given(
    strategies=st.lists(two_apart_strategies(), min_size=1, max_size=5),
    data=st.data(),
)
def test_record_matches_strategy_list(strategies, data):
    members = Members.stack(strategies)
    assert len(members) == len(strategies)
    assert members.lengths.shape[1] == max(map(len, strategies))
    for i, s in enumerate(strategies):
        n = len(s)
        assert _same(members.lengths[i, :n], s.lengths)
        assert np.isnan(members.lengths[i, n:]).all()
        assert members.branches[i, :n].tolist() == s.branches.tolist()
        assert (members.branches[i, n:] == -1).all()
        assert members.sums[i, 0] == 0.0
        assert _same(members.sums[i, 1 : n + 1], np.cumsum(s.lengths))
    # a pickled record is rebuilt through Strategy and _rows with the same bits
    unpickled = pickle.loads(pickle.dumps(members))
    for name in ("lengths", "branches", "sums"):
        assert _same(getattr(unpickled, name), getattr(members, name))
    ds = data.draw(
        st.lists(
            st.floats(min_value=1.0, max_value=130.0, **finite),
            min_size=len(strategies) * 3,
            max_size=len(strategies) * 3,
        )
    )
    rows = np.reshape(ds, (len(strategies), 3))
    for branch in (0, 1):
        by_row = search_costs(members, rows, branch)
        assert _same(by_row, search_costs(strategies, rows, branch))
        for i, s in enumerate(strategies):
            assert _same(by_row[i], search_costs(s, rows[i], branch))
        for got, want in zip(
            cheapest_search_costs(members, rows, branch),
            cheapest_search_costs(strategies, rows, branch),
        ):
            assert _same(got, want)
    # every strategy must find distance 1 somewhere to have a measured ratio
    assume(all(s.lengths.max() >= 1.0 for s in strategies))
    measured = _measured_ratios(members)
    assert _same(measured, [competitive_ratio_measured(s) for s in strategies])


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


def _trusted_hints(family, target):
    """The per-target reference: the hints a family trusts for a target.
    A position hint names the target, a direction hint its branch; a k-bit
    family trusts its whole hint space (the cheapest member counts)."""
    if isinstance(family.hint_space[0], PositionHint):
        return [PositionHint(target.distance, target.branch)]
    if isinstance(family.hint_space[0], DirectionHint):
        return [DirectionHint(target.branch)]
    return family.hint_space


@settings(max_examples=60, deadline=None)
@given(
    family=hinted_families(),
    ds=st.lists(
        st.floats(min_value=1.0, max_value=2.0**30, **finite), min_size=1, max_size=8
    ),
)
def test_batched_trusted_cost_matches_scalar_rule(family, ds):
    space = family.hint_space
    members = Members.stack([family.select(h) for h in space])
    for branch in (0, 1):
        got = family.trusted_costs(members, np.asarray(ds), branch)
        for d, cost in zip(ds, got):
            target = Target(d, branch)
            hints = _trusted_hints(family, target)
            want = min(
                c
                for c in (search_cost(family.select(h), target) for h in hints)
                if c is not None
            )
            assert cost == pytest.approx(want, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(
        st.sampled_from([0.0, -0.0, 1.0, 2.5, -3.0, 1e300, math.inf])
        | st.floats(allow_nan=False),
        max_size=40,
    ),
    nans=st.integers(min_value=0, max_value=3),
    rows=st.sampled_from([1, 2]),
)
def test_distinct_matches_np_unique(values, nans, rows):
    """np.unique stays the reference: the same values, bit for bit, after
    the NaNs, which _distinct keeps one by one at the end."""
    x = np.array(values + [math.nan] * nans, dtype=float)
    if x.size % rows == 0:
        x = x.reshape(rows, -1)
    got = _distinct(x)
    finite = x[~np.isnan(x)]
    assert _same(got[: got.size - nans], np.unique(finite))
    assert np.isnan(got[got.size - nans :]).all()


# Anything a caller might pass as one distance, length or branch.
_ITEMS = st.one_of(
    st.integers(min_value=-2, max_value=3),
    st.integers(),
    st.floats(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.booleans(),
    st.sampled_from([np.True_, np.False_, None, "2", "nan", math.nan, math.inf]),
)
_ARRAYS = hnp.arrays(
    hnp.integer_dtypes() | hnp.unsigned_integer_dtypes() | hnp.floating_dtypes()
    | hnp.boolean_dtypes(),
    hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=5),
)
# Arrays near the ranges' ends, where a bool, a fraction, a negative or an
# inf would pass a test of the minimum or the maximum alone.
_EDGE_ARRAYS = st.lists(st.sampled_from([0, 1, 2, -1]), max_size=4).flatmap(
    lambda xs: st.sampled_from([np.int8, np.int64, np.bool_]).map(
        lambda t: np.array(xs, dtype=np.int64).astype(t)
    )
) | st.lists(
    st.sampled_from([0.0, 1.0, 0.5, 2.0, -1.0, math.inf, math.nan]), max_size=4
).flatmap(
    lambda xs: st.sampled_from([np.float32, np.float64]).map(
        lambda t: np.array(xs, dtype=t)
    )
)


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(_ITEMS, max_size=6) | _ARRAYS | _EDGE_ARRAYS,
    rule=st.sampled_from(["distance", "length", "branch"]),
)
@example(values=[2.0, True], rule="length")
@example(values=np.array([3.0, 0.5]), rule="distance")
@example(values=np.array([[1, 0], [1, 2]]), rule="branch")
@example(values=np.array([1, -1]), rule="branch")
@example(values=np.array([0.0, 0.5]), rule="branch")
@example(values=np.array([True, False]), rule="branch")
@example(values=np.array([2.0, math.inf]), rule="distance")
@example(values=np.array(["2", "3"]), rule="distance")
def test_array_rules_match_the_scalar_rules(values, rule):
    """_reals and _branches refuse exactly when some element fails the scalar
    rule, with the first such element's message (an ndarray's elements as
    Python values); else they return the scalar rule's values, exactly."""
    twin, scalar = {
        "distance": (
            lambda v: _reals(v, "distance", 1.0), lambda x: _real(x, "distance", 1.0)
        ),
        "length": (
            lambda v: _reals(v, "length", 0.0, open_lo=True),
            lambda x: _real(x, "length", 0.0, open_lo=True),
        ),
        "branch": (_branches, lambda x: _integer(x, "branch", 0, 1)),
    }[rule]
    items = values.ravel().tolist() if isinstance(values, np.ndarray) else values
    shape = np.shape(values) if isinstance(values, np.ndarray) else (len(values),)
    try:
        want = np.array([scalar(x) for x in items]).reshape(shape)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            twin(values)
        assert str(info.value) == str(exc)
    else:
        got = twin(values)
        assert got.dtype == (np.int64 if rule == "branch" else np.float64)
        assert got.shape == shape and np.array_equal(got, want)


@settings(max_examples=60, deadline=None)
@given(family=hinted_families(), seed=st.integers(min_value=0, max_value=99),
       data=st.data())
def test_stack_adopts_a_whole_record_and_copies_any_other_rows(family, seed, data):
    """The rows of one record, all of them in order, are stacked without a
    copy; any other selection is padded and copied.  Both give the record
    the untagged strategies give, bit for bit."""
    for rows in ([family.select(h) for h in family.hint_space],
                 random_alternating_strategies(3, seed, 8)):
        record = rows[0].lengths.base
        picked = data.draw(st.lists(st.sampled_from(rows), min_size=1, max_size=6))
        for chosen in (rows, picked):
            members = Members.stack(chosen)
            if chosen is rows:
                assert members.lengths is record
            elif len(picked) != len(rows) or any(
                a is not b for a, b in zip(picked, rows)
            ):
                assert members.lengths is not record
            fresh = Members.stack([Strategy(s.lengths, s.branches) for s in chosen])
            for got, want in zip(vars(members).values(), vars(fresh).values()):
                assert _same(got, want)


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


@st.composite
def scored_together(draw):
    """Strategies the evaluators score as one record: a family's rows, a
    random draw, or a padded list that mixes alternating rows with rows of
    random branches."""
    kind = draw(st.sampled_from(["family", "random", "mixed"]))
    if kind == "family":
        family = draw(hinted_families())
        return [family.select(hint) for hint in family.hint_space]
    if kind == "random":
        return random_alternating_strategies(
            draw(st.integers(1, 6)), draw(st.integers(0, 99)), draw(st.integers(1, 64))
        )
    geometric = st.builds(
        make_geometric,
        st.floats(min_value=1.5, max_value=4.0, **finite),
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=0, max_value=1),
    )
    rows = st.one_of(two_apart_strategies(low=0.01), geometric)
    return draw(st.lists(rows, min_size=1, max_size=5))


@settings(max_examples=100, deadline=None)
@given(strategies=scored_together())
def test_a_mirrored_record_scores_the_same(strategies):
    """Swapping every row's branches changes no measured ratio and no cell,
    bit for bit, and swaps each row's two settled verdicts."""
    members = Members.stack(strategies)
    mirror = Members.stack([Strategy(s.lengths, 1 - s.branches) for s in strategies])
    cells, settled = _cells(members)
    mirror_cells, mirror_settled = _cells(mirror)
    assert _same(cells, mirror_cells)
    assert _same(settled, mirror_settled[:, ::-1])
    if (np.fmax.reduce(members.lengths, axis=1) >= 1.0).all():
        assert _same(_measured_ratios(members), _measured_ratios(mirror))
    else:  # a row that never reaches distance 1 has no measured ratio
        with pytest.raises(ValueError, match="no segment reaches distance 1"):
            _measured_ratios(mirror)


def _turns_and_probes(strategies):
    turns = np.concatenate([s.lengths for s in strategies])
    probes = np.concatenate([turns, np.nextafter(turns, np.inf)])
    return probes[probes >= 1.0]


@settings(max_examples=100, deadline=None)
@given(
    members=member_lists,
    extra=st.lists(st.floats(min_value=1.0, max_value=130.0, **finite), max_size=8),
)
# ten members share each prefix sum: a sort that is not stable reorders ties
@example(members=[make_geometric(2.0, 8, first) for first in (1, 0)] * 10, extra=[])
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
                assert j == scalar.index(cost)  # ties go to the first member


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
        select=members.__getitem__, hint_space=tuple(range(len(members)))
    )


def _scalar_cells(s):
    """Per branch, the ratio of each cell in walk order, one segment at a
    time: segment s opens a cell when x_s >= 1 and x_s > M, the farthest
    earlier turn point on its branch, with ratio 1 + 2 * (walk before s) /
    max(M, 1); last, the cell past the farthest turn point of the branch the
    last segment did not search, with the whole walk before it."""
    cells, far, walked = ([], []), [0.0, 0.0], 0.0
    for x, branch in zip(s.lengths.tolist(), s.branches.tolist()):
        if x >= 1.0 and x > far[branch]:
            cells[branch].append(1.0 + 2.0 * walked / max(far[branch], 1.0))
        far[branch] = max(far[branch], x)
        walked += x
    other = 1 - int(s.branches[-1])
    cells[other].append(1.0 + 2.0 * walked / max(far[other], 1.0))
    return cells


def _scalar_settled(cells):
    """One branch's tail verdict: five cells or more, the largest within
    1e-6 of the least of the last five."""
    return len(cells) >= 5 and max(cells) - min(cells[-5:]) <= 1e-6


def _converged(member):
    return all(map(_scalar_settled, _scalar_cells(member)))


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
    assert point.converged == all(map(_converged, members))


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
    assert point.converged == all(map(_converged, members))


@settings(max_examples=200, deadline=None)
@given(strategies=st.lists(two_apart_strategies(low=0.01), min_size=1, max_size=4))
@example(strategies=[Strategy([1.0, 2.0, 4.0, 8.0, 16.0], [0, 0, 1, 1, 0])])
@example(strategies=[strategy_from_lengths([0.01, 0.01, 4.0, 8.0])])
@example(strategies=[Strategy([1e-300, 1e300], [0, 1])])
@example(strategies=[strategy_from_lengths([1.0] * 6), make_geometric(2.0, 64)])
@example(strategies=[direction_family(3.0, 0.1).select(DirectionHint(1))])
def test_cells_match_the_scalar_oracle(strategies):
    # one padded record: each row's end column sits right after its segments
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cells, settled = _cells(Members.stack(strategies))
    for i, s in enumerate(strategies):
        n = len(s)
        want = _scalar_cells(s)
        sides = [*s.branches.tolist(), 1 - int(s.branches[-1])]
        for branch in (0, 1):
            got = [c for c, side in zip(cells[i, : n + 1], sides) if side == branch]
            assert [c for c in got if not math.isnan(c)] == want[branch]
            assert settled[i, branch] == _scalar_settled(want[branch])
        assert np.isnan(cells[i, n + 1 :]).all()
        # without the end cell, the cells are the scalar search_cost oracle's
        # suprema: its ratio just past each turn point and at distance 1
        closed = np.fmax.reduce(cells[i, :n])
        if np.isnan(closed):  # no segment reaches distance 1
            with pytest.raises(ValueError, match="no segment reaches distance 1"):
                competitive_ratio_measured(s)
            continue
        assert closed == pytest.approx(competitive_ratio_measured(s), rel=1e-12)
        probes = np.nextafter(s.lengths, np.inf)
        scalar = [
            cost / d
            for d in [1.0, *probes[probes >= 1.0].tolist()]
            for branch in (0, 1)
            if (cost := search_cost(s, Target(d, branch))) is not None
        ]
        assert closed == pytest.approx(max(scalar), rel=1e-12)


def _exact_cells(s):
    """Per column, the end column included, the ratio of the cell it opens
    (None where it opens none), by _cells' rule in 60-digit decimal
    arithmetic on the strategy's float lengths."""
    D = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        far, walked, cells = [D(0), D(0)], D(0), []
        sides = [*s.branches.tolist(), 1 - int(s.branches[-1])]
        for x, side in zip([*map(D, s.lengths.tolist()), D("Infinity")], sides):
            opens = x >= 1 and x > far[side]
            cells.append(1 + 2 * walked / max(far[side], D(1)) if opens else None)
            far[side] = max(far[side], x)
            walked += x
    return cells


@settings(max_examples=300, deadline=None)
@given(
    b=st.floats(math.log(1.5), math.log(64.0)).map(math.exp),
    n=st.integers(2, 64),
    scale=st.floats(math.log(1e-3), math.log(1e3)).map(math.exp),
    first=st.integers(0, 1),
)
@example(b=1.5, n=64, scale=1.0, first=0)
def test_geometric_cells_are_within_4_ulps(b, n, scale, first):
    """Every cell of a geometric row is within 4 ulps of its exact value.

    b in [1.5, 64] covers every base the package builds: b_r is at least 2,
    the k-bit base is at least b_r and the random strategies' bases lie in
    (1.5, 4].  Nearer b = 1 the float prefix sums drift further than that.
    """
    s = make_geometric(b, n, first, scale)
    cells = _cells(Members.stack(s))[0][0]
    exact = _exact_cells(s)
    assert len(cells) == len(exact) == n + 1
    for got, want in zip(cells.tolist(), exact):
        if want is None:
            assert math.isnan(got)
        else:
            assert _ulps(got, want) <= 4, (got, want)


def _numpy_growth_margins(x, b):
    prev = np.concatenate(([1.0], x[:-1]))
    i = np.arange(len(x), dtype=float)
    return x - (b + b / (i + 1.0)) * prev


def _numpy_prefix_margins(x, b):
    csum = np.concatenate(([0.0], np.cumsum(x)[:-1]))
    i = np.arange(len(x), dtype=float)
    scale = x / (1.0 + 1.0 / (i + 1.0))
    margins = scale * (b / (b - 1.0) - (i + 2.0) / (i + 1.0)) - csum
    margins[0] = 0.0
    tail_ok = csum >= (1.0 / (b - 1.0)) * x - 1e-2 * x
    tail_index = int(np.max(np.nonzero(~tail_ok)[0])) if np.any(~tail_ok) else None
    return margins, tail_index


@settings(max_examples=100, deadline=None)
@given(
    s=alternating_strategies(),
    r=st.floats(min_value=9.0, max_value=1e4, **finite),
)
@example(s=make_geometric(2.0, 101), r=9.0)
@example(s=strategy_from_lengths([1.0, 100.0]), r=9.0)
def test_pure_python_checks_match_numpy(s, r):
    # the numpy formulas the checks used, kept here as the oracle; the same
    # IEEE operations in the same order give equal floats
    lo, hi = _robust_base_interval(r)
    with mock.patch.object(bounds, "_SWEEP_RS", (r,)):
        bases = [b for _, b in bounds._sweep_cells()]
    assert bases == np.linspace(lo, hi, 20).tolist()
    b = base_for_robustness(r)
    growth = check_segment_growth_lemma(s, r)
    prefix = check_prefix_sum_bound(s, r)
    tolerance = 1e-9  # the checks' one margin tolerance
    assert growth.tolerance == prefix.tolerance == tolerance
    want, tail_index = _numpy_prefix_margins(s.lengths, b)
    assert prefix.tail_index == tail_index
    for report, margins in ((growth, _numpy_growth_margins(s.lengths, b)),
                            (prefix, want)):
        assert report.margins == tuple(margins.tolist())
        bad = np.nonzero(margins > tolerance)[0]
        assert report.violation_index == (int(bad[0]) if bad.size else None)


def _walk_over_float_max(base, scale, horizon):
    """2 * scale * (base**0 + .. + base**(horizon - 1)) over the largest
    float, in 40-digit decimal arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        b = decimal.Decimal(base)
        walk = 2 * decimal.Decimal(scale) * (b**horizon - 1) / (b - 1)
        return float(walk / decimal.Decimal(sys.float_info.max))


@settings(max_examples=80, deadline=None)
@given(
    base=st.floats(min_value=1.0, max_value=1e6, exclude_min=True, **finite),
    scale=st.floats(min_value=2.0**-20, max_value=2.0**20, **finite),
    horizon=st.integers(min_value=1, max_value=2048),
)
@example(base=77000.0, scale=1.0, horizon=64)  # the walk just fits
@example(base=78000.0, scale=1.0, horizon=64)  # b**63 fits, the walk does not
def test_admitted_records_score_finite(base, scale, horizon):
    # admitted exactly when the walk fits (the admission keeps a relative
    # 1e-9 below the largest float for rounding); whatever is admitted
    # scores finite, without a RuntimeWarning
    over = _walk_over_float_max(base, scale, horizon)
    unit_over = _walk_over_float_max(base, 1.0, horizon)
    assume(abs(over - 1.0) > 1e-8 and abs(unit_over - 1.0) > 1e-8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            s = make_geometric(base, horizon, scale=scale)
        except ValueError as exc:
            assert over > 1.0
            assert str(exc).startswith(
                f"base={base!r}, scale={scale!r} with count={horizon} overflows"
            )
        else:
            assert over < 1.0
            assert math.isfinite(competitive_ratio(s))
            if s.lengths[-1] >= 1.0:  # else the prefix finds no target
                assert math.isfinite(competitive_ratio_measured(s))
        try:
            family = direction_family(base, 1.0, horizon)
        except ValueError as exc:
            assert unit_over > 1.0
            assert str(exc).startswith(f"b={base!r} with horizon={horizon} overflows")
        else:
            assert unit_over < 1.0
            if horizon >= 2:  # one segment reaches only one branch
                point = evaluate_hinted(family)
                assert math.isfinite(point.consistency)
                assert math.isfinite(point.robustness)
