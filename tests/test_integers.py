"""The integer rule: every count, horizon, k, index, branch and seed the
library or the CLI takes is read by one check.  An int, a numpy integer or
an integral float reads as its integer; a bool, a string, None, a fraction,
nan or inf is refused with a message naming the parameter, and a value out
of range is quoted as given.  The branch readers' table is
tests/test_model.py::TestSegment::test_branch_argument_refuses_a_bool."""

import contextlib
import io
import json
import math

import numpy as np
import pytest

from cowpath.bounds import frontier_curve, kbit_base, kbit_consistency_upper
from cowpath.cli import main
from cowpath.hints import (
    LabeledInterval,
    best_hint_index,
    direction_family,
    kbit_family,
    position_family,
    position_hint_strategy,
    preferred_partition,
)
from cowpath.model import BitStringHint, PositionHint, Target, make_geometric
from cowpath.ratios import oracle_equivalence_gaps, random_alternating_strategies


def _member_length(family):
    """The segments of a family's first member: its horizon."""
    return len(family.select(family.hint_space[0]))


# Every integer parameter of the library: the name its errors give, and a
# reader that passes a value as that parameter and returns what was built.
# A parameter with an upper bound is listed in BOUNDED.
LIBRARY = {
    "make_geometric-count": ("count", lambda v: len(make_geometric(2.0, v))),
    "kbit_base-k": ("k", lambda v: kbit_base(100.0, v)),
    "kbit_consistency_upper-k": ("k", lambda v: kbit_consistency_upper(100.0, v)),
    "frontier_curve-k": ("k", lambda v: frontier_curve("kbit", [100.0], v)),
    "kbit_family-k": ("k", lambda v: len(kbit_family(9.0, v).hint_space)),
    "kbit_family-horizon": (
        "horizon", lambda v: _member_length(kbit_family(9.0, 1, v))
    ),
    "position_family-horizon": (
        "horizon", lambda v: _member_length(position_family(9.0, v))
    ),
    "position_hint_strategy-horizon": (
        "horizon", lambda v: len(position_hint_strategy(9.0, PositionHint(2.0, 0), v))
    ),
    "direction_family-horizon": (
        "horizon", lambda v: _member_length(direction_family(2.0, 1.0, v))
    ),
    "best_hint_index-k": ("k", lambda v: best_hint_index(9.0, v, Target(2.0, 0))),
    "preferred_partition-k": ("k", lambda v: preferred_partition(9.0, v, 10.0)),
    "preferred_partition-horizon": (
        "horizon", lambda v: preferred_partition(9.0, 1, 1.5, v)
    ),
    "BitStringHint-index": ("index", lambda v: BitStringHint(v, 2)),
    "BitStringHint-k": ("k", lambda v: BitStringHint(0, v)),
    "LabeledInterval-label": ("label", lambda v: LabeledInterval(1.0, 2.0, v)),
    "random_alternating_strategies-count": (
        "count", lambda v: len(random_alternating_strategies(v))
    ),
    "random_alternating_strategies-seed": (
        "seed", lambda v: random_alternating_strategies(2, v)
    ),
    "random_alternating_strategies-horizon": (
        "horizon", lambda v: len(random_alternating_strategies(2, 0, v)[0])
    ),
    "oracle_equivalence_gaps-count": (
        "count", lambda v: len(oracle_equivalence_gaps(v))
    ),
}
UNBOUNDED = {"LabeledInterval-label", "random_alternating_strategies-seed"}
BOUNDED = sorted(set(LIBRARY) - UNBOUNDED)

NOT_INTEGERS = [2.5, True, "2", None, math.nan, math.inf]
NOT_INTEGER_IDS = ["2.5", "True", "'2'", "None", "nan", "inf"]


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=NOT_INTEGER_IDS)
@pytest.mark.parametrize("parameter", sorted(LIBRARY))
def test_not_an_integer_is_refused(parameter, value):
    name, read = LIBRARY[parameter]
    with pytest.raises(ValueError) as info:
        read(value)
    assert str(info.value) == f"{name} must be an integer, got {value!r}"


@pytest.mark.parametrize("value", [3.0, np.int64(3)], ids=["3.0", "np.int64"])
@pytest.mark.parametrize("parameter", sorted(LIBRARY))
def test_integral_value_reads_as_its_integer(parameter, value):
    _, read = LIBRARY[parameter]
    assert read(value) == read(3)


@pytest.mark.parametrize("parameter", BOUNDED)
def test_out_of_range_is_quoted_as_given(parameter):
    name, read = LIBRARY[parameter]
    with pytest.raises(ValueError) as info:
        read(1e300)  # int(1e300) has 301 digits
    message = str(info.value)
    assert message.startswith(f"{name} must be <= ")
    assert ", got 1e+300" in message and len(message) < 80


def _cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


# The CLI's KEY=VALUE integer fields: the name the integer rule gives, the
# name a field that is not a number gets, and the command that takes a value
# as that field's text.
FIELDS = {
    "geometric-first": (
        "--geometric field 'first'",
        "--geometric field 'first'",
        lambda text: ["eval", "--geometric", "b=2", f"first={text}"],
    ),
    "geometric-n": (
        "--geometric field 'n'",
        "--geometric field 'n'",
        lambda text: ["eval", "--geometric", "b=2", f"n={text}"],
    ),
    "r-params-k": (
        "k",
        "--r-params field 'k'",
        lambda text: ["eval", "--family", "kbit", "--r-params", f"r=9,k={text}"],
    ),
}
# The integer flags a config file sets, each with the rest of a command.
CONFIG = {
    "k": ["frontier", "--class", "kbit", "--r", "9"],
    "horizon": ["partition", "--r", "9", "--k", "1", "--max", "1.5"],
    "count": ["verify", "oracle"],
    "seed": ["verify", "oracle"],
}


def _config_run(tmp_path, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    return _cli(*CONFIG[key], "--config", str(cfg))


@pytest.mark.parametrize("text", ["2.5", "nan", "inf"])
@pytest.mark.parametrize("field", sorted(FIELDS))
def test_cli_field_not_an_integer_exits_2(field, text):
    name, _, argv = FIELDS[field]
    assert _cli(*argv(text)) == (
        2, "", f"error: {name} must be an integer, got {text}\n"
    )


@pytest.mark.parametrize("text", ["True", "None"])
@pytest.mark.parametrize("field", sorted(FIELDS))
def test_cli_field_not_a_number_exits_2(field, text):
    _, name, argv = FIELDS[field]
    assert _cli(*argv(text)) == (
        2, "", f"error: {name} must be a number, got '{text}'\n"
    )


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_cli_field_reads_integral_text(field):
    *_, argv = FIELDS[field]
    assert _cli(*argv("3.0")) == _cli(*argv("3"))


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_cli_field_out_of_range_is_quoted_as_given(field):
    name, _, argv = FIELDS[field]
    code, out, err = _cli(*argv("1e300"))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {name} must be <= ")
    assert err.endswith(", got 1e+300\n")


@pytest.mark.parametrize(
    "value", [2.5, True, None, math.nan, math.inf],
    ids=["2.5", "True", "None", "nan", "inf"],
)
@pytest.mark.parametrize("key", sorted(CONFIG))
def test_config_field_not_an_integer_exits_2(tmp_path, key, value):
    code, out, err = _config_run(tmp_path, key, value)
    assert code == 2 and out == ""
    assert err == (
        f"error: config field '{key}' (--{key}) must be an integer, got {value!r}\n"
    )


@pytest.mark.parametrize("value", [3.0, "3"], ids=["3.0", "'3'"])
@pytest.mark.parametrize("key", sorted(CONFIG))
def test_config_field_reads_integral_values(tmp_path, key, value):
    ran = _config_run(tmp_path, key, value)
    assert ran[0] == 0 and ran == _config_run(tmp_path, key, 3)
