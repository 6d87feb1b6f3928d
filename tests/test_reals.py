"""The real-number rule: every budget, base, skew, scale, distance and
interval end the library takes is read by one check, `_rules._real`.  An
int, a float or a numpy real reads as its float; a bool (numpy's too), a
string, bytes or None is refused as not a number, nan and inf as not
finite, each with a message naming the parameter.  Every batch of
distances or segment lengths is read by its array twin, `model._reals`,
with the same messages."""

import inspect
import math
from unittest import mock

import numpy as np
import pytest

import cowpath
from cowpath import bounds, model
from cowpath.bounds import (
    _rho,
    _robust_base_interval,
    base_for_robustness,
    build_frontiers,
    check_prefix_sum_bound,
    check_segment_growth_lemma,
    direction_frontier,
    direction_tradeoff,
    frontier_curve,
    kbit_base,
    kbit_consistency_upper,
    onebit_consistency_upper,
    onebit_lower,
    position_consistency_bound,
)
from cowpath.cli import _strategy_from_json
from cowpath.hints import (
    LabeledInterval,
    best_hint_index,
    cheapest_trusted_costs,
    direction_family,
    kbit_family,
    position_family,
    position_hint_strategy,
    preferred_partition,
)
from cowpath.model import (
    Members,
    PositionHint,
    Strategy,
    Target,
    cheapest_search_costs,
    make_geometric,
    scale_strategy,
    search_costs,
    strategy_from_lengths,
)
from cowpath.ratios import TargetGrid

GEOMETRIC = make_geometric(2.0, 8)


def _members(family):
    return [family.select(hint) for hint in family.hint_space]


def _sweep_at(r):
    # the cells of a sweep of the one budget r
    with mock.patch.object(bounds, "_SWEEP_RS", (r,)):
        return bounds._sweep_cells()


def _json_length(value):
    return _strategy_from_json({"segments": [{"length": value, "branch": 0}]})


# Every real parameter of the library, as "<callable>-<parameter>": the name
# its errors give, and a reader that passes a value as that parameter and
# returns what was built.  Each reads 9 in range, but delta, which reads 1.
# Some keys name a private rule by a short name: rho is _rho,
# robust_base_interval is _robust_base_interval, robust_base_grid the bases
# of _sweep_cells and strategy_from_json the CLI's _strategy_from_json.
LIBRARY = {
    "rho-r": ("r", _rho),
    "base_for_robustness-r": ("r", base_for_robustness),
    "robust_base_interval-r": ("r", _robust_base_interval),
    "kbit_base-r": ("r", lambda v: kbit_base(v, 2)),
    "position_consistency_bound-r": ("r", position_consistency_bound),
    "onebit_consistency_upper-r": ("r", onebit_consistency_upper),
    "kbit_consistency_upper-r": ("r", lambda v: kbit_consistency_upper(v, 2)),
    "onebit_lower-r": ("r", onebit_lower),
    "robust_base_grid-r": ("r", _sweep_at),
    "check_segment_growth_lemma-r": (
        "r", lambda v: check_segment_growth_lemma(GEOMETRIC, v)
    ),
    "check_prefix_sum_bound-r": ("r", lambda v: check_prefix_sum_bound(GEOMETRIC, v)),
    "frontier_curve-r_values": ("r", lambda v: frontier_curve("position", [v])),
    "direction_frontier-r_values": ("r", lambda v: direction_frontier([v])),
    "build_frontiers-r_values": ("r", lambda v: build_frontiers([v])),
    "direction_tradeoff-b": ("b", lambda v: direction_tradeoff(v, 1.0)),
    "direction_tradeoff-delta": ("delta", lambda v: direction_tradeoff(2.0, v)),
    "make_geometric-base": ("base", lambda v: make_geometric(v, 4)),
    "make_geometric-scale": ("scale", lambda v: make_geometric(2.0, 4, scale=v)),
    "scale_strategy-factor": ("factor", lambda v: scale_strategy(GEOMETRIC, v)),
    "Target-distance": ("distance", lambda v: Target(v, 0)),
    "PositionHint-distance": ("distance", lambda v: PositionHint(v, 0)),
    "strategy_from_json-length": ("segments[0]: segment length", _json_length),
    "position_hint_strategy-r": (
        "r", lambda v: position_hint_strategy(v, PositionHint(2.0, 0))
    ),
    "position_family-r": (
        "r", lambda v: _members(position_family(v, hints_per_decade=1))
    ),
    "position_family-hints_per_decade": (
        "hints_per_decade",
        lambda v: position_family(9.0, hints_per_decade=v).hint_space,
    ),
    "direction_family-b": ("b", lambda v: _members(direction_family(v, 1.0))),
    "direction_family-delta": ("delta", lambda v: _members(direction_family(2.0, v))),
    "kbit_family-r": ("r", lambda v: _members(kbit_family(v, 1))),
    "best_hint_index-r": ("r", lambda v: best_hint_index(v, 1, Target(2.0, 0))),
    "preferred_partition-r": ("r", lambda v: preferred_partition(v, 1, 2.0)),
    "preferred_partition-max_distance": (
        "max_distance", lambda v: preferred_partition(9.0, 1, v)
    ),
    "LabeledInterval-lo": ("lo", lambda v: LabeledInterval(v, 20.0, 0)),
    "LabeledInterval-hi": ("hi", lambda v: LabeledInterval(1.0, v, 0)),
}

NOT_NUMBERS = [True, np.True_, "2", b"2", None]
NOT_FINITE = [math.nan, math.inf, np.float64(math.nan)]


def _in_range(name):
    return 1 if name == "delta" else 9


@pytest.mark.parametrize("value", NOT_NUMBERS, ids=repr)
@pytest.mark.parametrize("parameter", sorted(LIBRARY))
def test_not_a_number_is_refused(parameter, value):
    name, read = LIBRARY[parameter]
    with pytest.raises(ValueError) as info:
        read(value)
    assert str(info.value) == f"{name} must be a number, got {value!r}"


@pytest.mark.parametrize("value", NOT_FINITE, ids=["nan", "inf", "np.nan"])
@pytest.mark.parametrize("parameter", sorted(LIBRARY))
def test_not_finite_is_refused(parameter, value):
    name, read = LIBRARY[parameter]
    with pytest.raises(ValueError) as info:
        read(value)
    assert str(info.value) == f"{name} must be finite, got {float(value)!r}"


@pytest.mark.parametrize("kind", [int, np.float64, np.int64], ids=lambda t: t.__name__)
@pytest.mark.parametrize("parameter", sorted(LIBRARY))
def test_a_real_reads_as_its_float(parameter, kind):
    name, read = LIBRARY[parameter]
    value = _in_range(name)
    assert read(kind(value)) == read(float(value))


@pytest.mark.parametrize("build", [Target, PositionHint])
@pytest.mark.parametrize("value", [3, np.float64(3.0), np.float32(3.0)], ids=repr)
def test_a_hint_holds_a_python_float(build, value):
    assert type(build(value, 0).distance) is float


@pytest.mark.parametrize(
    "read, message",
    [
        (lambda: _rho(5), "r must be >= 9 (no base is r-robust below), got 5"),
        (lambda: make_geometric(1, 4), "base must be > 1, got 1"),
        (lambda: Target(np.float64(0.5), 0), "distance must be >= 1, got 0.5"),
        (lambda: PositionHint(0.5, 1), "distance must be >= 1, got 0.5"),
        (lambda: direction_tradeoff(2.0, 1.5), "delta must be in (0, 1], got 1.5"),
        (
            lambda: preferred_partition(9.0, 1, 0.5),
            "max_distance must be >= 1, got 0.5",
        ),
        (lambda: LabeledInterval(0.5, 2.0, 0), "lo must be >= 1, got 0.5"),
        (lambda: _rho(10**400), "r must be finite, got " + "1" + "0" * 400),
    ],
    ids=[
        "reason", "open", "closed", "position-closed", "interval", "max_distance",
        "lo", "huge-int",
    ],
)
def test_out_of_range_is_quoted_as_given(read, message):
    with pytest.raises(ValueError) as info:
        read()
    assert str(info.value) == message


POSITION = position_family(9.0, hints_per_decade=1)
DIRECTION = direction_family(2.0, 1.0)


def _record(family):
    return Members.stack(_members(family))


def _one_row(batch):
    # a 1 x n record: an ndarray keeps its dtype, a list its Python objects
    return np.array([batch], dtype=getattr(batch, "dtype", object))


# Every batched reader of distances or segment lengths, as in LIBRARY: the
# name its errors give, the value just below its range, and a reader that
# passes a batch as that parameter and returns the array it computed.  The
# direction_trusted_costs row reads the direction family's trusted_costs.
BATCHED = {
    "search_costs-distances": (
        "distance", 0.5, lambda v: search_costs(GEOMETRIC, v, 0)
    ),
    "cheapest_search_costs-distances": (
        "distance", 0.5, lambda v: cheapest_search_costs([GEOMETRIC], v, 0)[0]
    ),
    "cheapest_trusted_costs-distances": (
        "distance", 0.5,
        lambda v: cheapest_trusted_costs(Members.stack(GEOMETRIC), v, 0),
    ),
    "direction_trusted_costs-distances": (
        "distance", 0.5, lambda v: DIRECTION.trusted_costs(_record(DIRECTION), v, 0)
    ),
    "position_family-trusted_costs": (
        "distance", 0.5, lambda v: POSITION.trusted_costs(_record(POSITION), v, 0)
    ),
    "TargetGrid-distances": ("distance", 0.5, lambda v: TargetGrid(v).distances),
    "Strategy-lengths": ("segment length", -1.0, lambda v: Strategy(v, [0, 1]).lengths),
    "strategy_from_lengths-lengths": (
        "segment length", -1.0, lambda v: strategy_from_lengths(v).lengths
    ),
    "_alternating_rows-lengths": (
        "segment length", -1.0,
        lambda v: model._alternating_rows(_one_row(v), [0])(0).lengths,
    ),
}


def _refused(reader, batch):
    with pytest.raises(ValueError) as info:
        BATCHED[reader][2](batch)
    return str(info.value)


@pytest.mark.parametrize("value", NOT_NUMBERS, ids=repr)
@pytest.mark.parametrize("reader", sorted(BATCHED))
def test_batched_not_a_number_is_refused(reader, value):
    # a cast to float would read [2.0, True] as [2.0, 1.0], [2.0, "2"] as [2.0, 2.0]
    name = BATCHED[reader][0]
    message = f"{name} must be a number, got {value!r}"
    assert _refused(reader, [2.0, value]) == message
    # an object array holds the value as it is
    assert _refused(reader, np.array([2.0, value], dtype=object)) == message


@pytest.mark.parametrize("value", NOT_FINITE, ids=["nan", "inf", "np.nan"])
@pytest.mark.parametrize("reader", sorted(BATCHED))
def test_batched_not_finite_is_refused(reader, value):
    name = BATCHED[reader][0]
    message = f"{name} must be finite, got {float(value)!r}"
    assert _refused(reader, [2.0, value]) == message
    assert _refused(reader, np.array([2.0, value])) == message


@pytest.mark.parametrize("reader", sorted(BATCHED))
def test_batched_below_range_is_refused(reader):
    name, low, _ = BATCHED[reader]
    rule = ">= 1" if name == "distance" else "> 0"
    message = f"{name} must be {rule}, got {low!r}"
    assert _refused(reader, [2.0, low]) == message
    assert _refused(reader, np.array([2.0, low])) == message


@pytest.mark.parametrize(
    "batch, got",
    [(np.array([True, True]), "True"), (np.array(["2", "3"]), "'2'")],
    ids=["bool-array", "str-array"],
)
@pytest.mark.parametrize("reader", sorted(BATCHED))
def test_batched_array_of_no_numbers_is_refused(reader, batch, got):
    name = BATCHED[reader][0]
    assert _refused(reader, batch) == f"{name} must be a number, got {got}"


@pytest.mark.parametrize(
    "batch",
    [[2, 3], [np.float64(2.0), np.int64(3)], np.array([2, 3]),
     np.array([2.0, 3.0], dtype=np.float32), np.array([2, 3], dtype=np.uint8)],
    ids=["ints", "numpy-reals", "int-array", "float32-array", "uint8-array"],
)
@pytest.mark.parametrize("reader", sorted(BATCHED))
def test_batched_reals_read_as_their_floats(reader, batch):
    read = BATCHED[reader][2]
    got, want = read(batch), read(np.array([2.0, 3.0]))
    assert got.dtype == want.dtype and np.array_equal(got, want, equal_nan=True)


# Output records check what the library computed, not a caller's argument.
OUTPUT_RECORDS = {"TradeoffPoint", "FrontierPoint", "InequalityReport"}
# The annotations of the parameters that take a batch of reals.
BATCH_ANNOTATIONS = {"np.ndarray", "Sequence[float]"}


def test_every_real_parameter_has_a_row():
    """A parameter of the public API annotated float, or taking a batch of
    reals, that the tables miss would skip the rule unnoticed."""
    found = []
    for name in sorted(set(cowpath.__all__) - OUTPUT_RECORDS):
        obj = getattr(cowpath, name)
        if not callable(obj) or (
            isinstance(obj, type) and issubclass(obj, Exception)
        ):
            continue
        parameters = inspect.signature(obj).parameters.values()
        found += [
            f"{name}-{p.name}"
            for p in parameters
            if p.annotation == "float" or p.annotation in BATCH_ANNOTATIONS
        ]
    # dataclass fields are walked too
    assert {"Target-distance", "TargetGrid-distances"} <= set(found)
    assert sorted(set(found) - set(LIBRARY) - set(BATCHED)) == []
