"""The real-number rule: every budget, base, skew, scale, distance and
interval end the library takes is read by one check, `bounds._real`.  An
int, a float or a numpy real reads as its float; a bool (numpy's too), a
string, bytes or None is refused as not a number, nan and inf as not
finite, each with a message naming the parameter."""

import inspect
import math

import numpy as np
import pytest

import cowpath
from cowpath.bounds import (
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
    rho,
    robust_base_grid,
    robust_base_interval,
)
from cowpath.hints import (
    LabeledInterval,
    best_hint_index,
    direction_family,
    kbit_family,
    position_family,
    position_hint_strategy,
    preferred_partition,
)
from cowpath.model import (
    PositionHint,
    Target,
    make_geometric,
    scale_strategy,
    strategy_from_json,
)

GEOMETRIC = make_geometric(2.0, 8)


def _members(family):
    return [family.select(hint) for hint in family.hint_space]


def _json_length(value):
    return strategy_from_json({"segments": [{"length": value, "branch": 0}]})


# Every real parameter of the library, as "<callable>-<parameter>": the name
# its errors give, and a reader that passes a value as that parameter and
# returns what was built.  Each reads 9 in range, but delta, which reads 1.
LIBRARY = {
    "rho-r": ("r", rho),
    "base_for_robustness-r": ("r", base_for_robustness),
    "robust_base_interval-r": ("r", robust_base_interval),
    "kbit_base-r": ("r", lambda v: kbit_base(v, 2)),
    "position_consistency_bound-r": ("r", position_consistency_bound),
    "onebit_consistency_upper-r": ("r", onebit_consistency_upper),
    "kbit_consistency_upper-r": ("r", lambda v: kbit_consistency_upper(v, 2)),
    "onebit_lower-r": ("r", onebit_lower),
    "robust_base_grid-r": ("r", robust_base_grid),
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
        (lambda: rho(5), "r must be >= 9 (no base is r-robust below), got 5"),
        (lambda: make_geometric(1, 4), "base must be > 1, got 1"),
        (lambda: Target(np.float64(0.5), 0), "distance must be >= 1, got 0.5"),
        (lambda: direction_tradeoff(2.0, 1.5), "delta must be in (0, 1], got 1.5"),
        (
            lambda: preferred_partition(9.0, 1, 0.5),
            "max_distance must be >= 1, got 0.5",
        ),
        (lambda: LabeledInterval(0.5, 2.0, 0), "lo must be >= 1, got 0.5"),
        (lambda: rho(10**400), "r must be finite, got " + "1" + "0" * 400),
    ],
    ids=["reason", "open", "closed", "interval", "max_distance", "lo", "huge-int"],
)
def test_out_of_range_is_quoted_as_given(read, message):
    with pytest.raises(ValueError) as info:
        read()
    assert str(info.value) == message


# Output records check what the library computed, not a caller's argument.
OUTPUT_RECORDS = {"TradeoffPoint", "FrontierPoint", "InequalityReport"}


def test_every_real_parameter_has_a_row():
    """A parameter of the public API annotated float that the table misses
    would skip the rule unnoticed."""
    found = []
    for name in sorted(set(cowpath.__all__) - OUTPUT_RECORDS):
        obj = getattr(cowpath, name)
        if not callable(obj) or (
            isinstance(obj, type) and issubclass(obj, Exception)
        ):
            continue
        parameters = inspect.signature(obj).parameters.values()
        found += [f"{name}-{p.name}" for p in parameters if p.annotation == "float"]
    assert "Target-distance" in found  # dataclass fields are walked too
    assert sorted(set(found) - set(LIBRARY)) == []
