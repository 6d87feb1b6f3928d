"""Command-line interface: output formats, exit codes, config files."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cowpath import _rules, bounds, cli, ratios
from cowpath.cli import main
from cowpath.hints import direction_family, kbit_family, position_family
from cowpath.model import DirectionHint, make_geometric


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# What json says of the document "{", of one that is no UTF-8, and of one
# nested deeper than the recursion limit.
_MALFORMED = (
    "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"
)
_NOT_UTF_8 = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
_DEEP = "maximum recursion depth exceeded while decoding a JSON array"


def _strategy_json(strategy):
    """The strategy JSON object {"segments": [{"length": .., "branch": ..}, ..]}."""
    pairs = zip(strategy.lengths.tolist(), strategy.branches.tolist())
    return {"segments": [{"length": x, "branch": b} for x, b in pairs]}


class TestEval:
    def test_geometric_doubling(self, capsys):
        code, out, _ = run(capsys, "eval", "--geometric", "b=2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "cr=9.000000 (converged)"
        assert lines[1] == "cr_measured=9.000000"

    def test_inline_json_single_segment(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--json", '{"segments": [{"length": 1, "branch": 0}]}'
        )
        assert code == 0
        assert out.splitlines() == ["cr=3.000000", "cr_measured=1.000000"]

    def test_family_direction(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--family", "direction", "--r-params", "b=2,delta=1"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "consistency=9.000000 robustness=9.000000"
        assert lines[1] == "method=measured converged=true"

    def test_family_direction_alternating_converged(self, capsys):
        # delta < 1: the ratio terms alternate, each parity converges
        code, out, _ = run(
            capsys, "eval", "--family", "direction", "--r-params", "b=2,delta=0.5"
        )
        assert code == 0
        assert out.splitlines() == [
            "consistency=6.333333 robustness=14.333333",
            "method=measured converged=true",
        ]

    def test_family_kbit(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--family", "kbit", "--r-params", "r=9,k=2"
        )
        assert code == 0
        consistency = float(out.split("consistency=")[1].split()[0])
        robustness = float(out.split("robustness=")[1].split()[0])
        assert consistency == pytest.approx(5.756828460010884, abs=1e-3)
        assert robustness == pytest.approx(9.0, abs=1e-3)

    def test_file_round_trip_matches_family(self, capsys, tmp_path):
        member = direction_family(2.0, 1.0).select(DirectionHint(0))
        path = tmp_path / "member.json"
        path.write_text(json.dumps(_strategy_json(member)))
        code, out, _ = run(capsys, "eval", "--file", str(path))
        assert code == 0
        cr = float(out.splitlines()[0].split("=")[1].split()[0])
        code, out, _ = run(
            capsys, "eval", "--family", "direction", "--r-params", "b=2,delta=1"
        )
        robustness = float(out.split("robustness=")[1].split()[0])
        assert cr == pytest.approx(robustness, abs=1e-6)

    def test_file_reports_per_parity_convergence(self, capsys, tmp_path):
        # delta < 1: the cells alternate between two limits, and the file
        # report applies the per-branch rule the family eval applies
        member = direction_family(2.0, 0.5).select(DirectionHint(0))
        path = tmp_path / "member.json"
        path.write_text(json.dumps(_strategy_json(member)))
        code, out, _ = run(capsys, "eval", "--file", str(path))
        assert code == 0
        assert out.splitlines() == [
            "cr=14.333333 (converged)",
            "cr_measured=14.333333",
        ]

    @pytest.mark.parametrize(
        "segments, cr",
        [
            ([(1, 0), (2, 0), (4, 1), (8, 1), (16, 0)], "16.000000"),
            ([(0.01, 0), (0.01, 1), (4, 0), (8, 1)], "9.040000"),
        ],
        ids=["non-alternating", "below-1"],
    )
    def test_closed_form_is_exact_on_any_strategy(self, capsys, segments, cr):
        doc = {"segments": [{"length": x, "branch": b} for x, b in segments]}
        code, out, err = run(capsys, "eval", "--json", json.dumps(doc))
        assert code == 0 and err == ""
        assert out.splitlines() == [f"cr={cr}", f"cr_measured={cr}"]

    def test_extreme_lengths_print_a_finite_ratio(self, capsys):
        doc = {"segments": [{"length": 1e-300, "branch": 0},
                            {"length": 1e300, "branch": 1}]}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "eval", "--json", json.dumps(doc))
        assert code == 0 and err == "" and caught == []
        cr, measured = out.splitlines()
        assert math.isfinite(float(cr.removeprefix("cr=")))
        assert measured == "cr_measured=1.000000"

    def test_requires_exactly_one_source(self, capsys):
        code, _, err = run(capsys, "eval")
        assert code == 2 and "exactly one of" in err
        code, _, err = run(
            capsys, "eval", "--geometric", "b=2", "--family", "direction"
        )
        assert code == 2 and "exactly one of" in err

    def test_geometric_field_errors(self, capsys):
        code, _, err = run(capsys, "eval", "--geometric", "n=8")
        assert code == 2 and "needs field 'b'" in err
        code, _, err = run(capsys, "eval", "--geometric", "b=2", "q=1")
        assert code == 2 and "no field 'q'" in err
        code, _, err = run(capsys, "eval", "--geometric", "b")
        assert code == 2 and "key=value" in err

    def test_bad_family_params(self, capsys):
        code, _, err = run(
            capsys, "eval", "--family", "direction", "--r-params", "b=2"
        )
        assert code == 2 and "needs field 'delta'" in err
        code, _, err = run(
            capsys, "eval", "--family", "direction", "--r-params", "b=x,delta=1"
        )
        assert code == 2 and "must be a number" in err
        code, out, err = run(
            capsys, "eval", "--family", "kbit", "--r-params", "r=9,k=two"
        )
        assert code == 2 and out == ""
        assert err == "error: --r-params field 'k' must be a number, got 'two'\n"
        code, out, err = run(capsys, "eval", "--family", "mystery")
        assert code == 2 and out == "" and "invalid choice: 'mystery'" in err

    @pytest.mark.parametrize(
        "family,params,builder",
        [
            ("position", "r=9", lambda: position_family(9.0)),
            ("direction", "b=2,delta=0.5", lambda: direction_family(2.0, 0.5)),
            ("kbit", "r=9,k=2", lambda: kbit_family(9.0, 2)),
            ("kbit", "k=3,r=9.5", lambda: kbit_family(9.5, 3)),
            ("kbit", "r=9,k=2.0", lambda: kbit_family(9.0, 2)),  # an integral k
        ],
        ids=["position", "direction", "kbit", "kbit-any-order", "kbit-k-2.0"],
    )
    def test_family_is_its_builder(self, capsys, family, params, builder):
        point = ratios.evaluate_hinted(builder())
        code, out, err = run(capsys, "eval", "--family", family, "--r-params", params)
        assert code == 0 and err == ""
        assert out.splitlines()[0] == (
            f"consistency={point.consistency:.6f} robustness={point.robustness:.6f}"
        )

    @pytest.mark.parametrize(
        "family,params,field",
        [
            ("direction", "b=2,delta=1,r=9,horizon=5", "horizon"),
            ("kbit", "r=9,k=2,x=3", "x"),
            ("position", "r=9,k=2", "k"),
            ("direction", "b=2,delta=1,r=9", "r"),
            ("kbit", "r=9,k=2,b=2,a=1", "a"),  # the first unknown field by name
            ("position", "r=9,horizon=8", "horizon"),
        ],
    )
    def test_unknown_family_field(self, capsys, family, params, field):
        code, out, err = run(capsys, "eval", "--family", family, "--r-params", params)
        assert code == 2 and out == ""
        assert err == f"error: family '{family}' has no field '{field}'\n"

    @pytest.mark.parametrize("k", ["2.7", "0.5"])
    def test_non_integral_k(self, capsys, k):
        code, out, err = run(
            capsys, "eval", "--family", "kbit", "--r-params", f"r=9,k={k}"
        )
        assert code == 2 and out == ""
        assert err == f"error: k must be an integer, got {k}\n"

    @pytest.mark.parametrize(
        "n,message",
        [("-3", "must be >= 1, got -3"), ("0", "must be >= 1, got 0"),
         ("2.5", "must be an integer, got 2.5")],
        ids=["-3", "0", "2.5"],
    )
    def test_geometric_bad_count_names_n(self, capsys, n, message):
        code, out, err = run(capsys, "eval", "--geometric", "b=2", f"n={n}")
        assert code == 2 and out == ""
        assert err == f"error: --geometric field 'n' {message}\n"

    @pytest.mark.parametrize(
        "n,got", [("1e300", "1e+300"), ("2e6", "2000000"), ("1048577", "1048577")]
    )
    def test_geometric_count_over_the_budget_quotes_the_given_number(
        self, capsys, n, got
    ):
        # checked before int(): int(1e300) has 301 digits
        code, out, err = run(capsys, "eval", "--geometric", "b=2", f"n={n}")
        assert code == 2 and out == ""
        assert err == f"error: --geometric field 'n' must be <= 1048576, got {got}\n"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("--geometric", "b=2", "b=3"), "--geometric repeats field 'b'"),
            (("--geometric", "b=2", "n=8", "n=8"), "--geometric repeats field 'n'"),
            (("--family", "kbit", "--r-params", "r=9,k=2,k=3"),
             "--r-params repeats field 'k'"),
            (("--family", "position", "--r-params", "r=9,r=10"),
             "--r-params repeats field 'r'"),
        ],
        ids=["geometric", "geometric-same-value", "kbit", "position"],
    )
    def test_repeated_field(self, capsys, argv, message):
        code, out, err = run(capsys, "eval", *argv)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("first", ["0.7", "2", "-1"])
    def test_geometric_first_must_be_a_branch(self, capsys, first):
        code, out, err = run(
            capsys, "eval", "--geometric", "b=2", f"first={first}", "n=4"
        )
        assert code == 2 and out == ""
        rule = {"0.7": "an integer", "2": "<= 1", "-1": ">= 0"}[first]
        assert err == f"error: --geometric field 'first' must be {rule}, got {first}\n"

    def test_position_hint_past_horizon(self, capsys):
        code, out, err = run(
            capsys, "eval", "--family", "position", "--r-params", "r=9",
            "--horizon", "3",
        )
        assert code == 3 and out == ""
        assert "hint distance" in err and "past horizon 3" in err

    def test_position_grid_ends_at_the_farthest_anchor(self, capsys):
        # at r = 9 the 21st anchor is exactly 2**20, the end of the hint grid
        code, out, err = run(
            capsys, "eval", "--family", "position", "--r-params", "r=9",
            "--horizon", "21",
        )
        assert code == 0
        assert out.splitlines()[1] == "method=measured converged=false"
        assert err.startswith(
            "warning: the ratio terms have not settled within horizon 21;"
        )

    @pytest.mark.parametrize(
        "family,params", [("kbit", "r=9,k=2"), ("direction", "b=2,delta=1")]
    )
    def test_horizon_short_of_distance_one_exits_3(self, capsys, family, params):
        # too short a horizon exits 3, as for position hints past it
        code, out, err = run(
            capsys, "eval", "--family", family, "--r-params", params,
            "--horizon", "1",
        )
        assert code == 3 and out == ""
        assert err == (
            "error: family horizon does not reach distance 1 on both branches\n"
        )

    @pytest.mark.parametrize(
        "k,got",
        [("1e300", "<= 511, got 1e+300"), ("-1e300", ">= 1, got -1e+300"),
         ("600", "<= 511, got 600"), ("0", ">= 1, got 0")],
        ids=["huge", "huge-negative", "600", "0"],
    )
    def test_kbit_k_out_of_range_quotes_the_given_number(self, capsys, k, got):
        # range-checked before int(): int(1e300) has 301 digits
        code, out, err = run(
            capsys, "eval", "--family", "kbit", "--r-params", f"r=9,k={k}"
        )
        assert code == 2 and out == ""
        assert err == f"error: k must be {got}\n"

    def test_huge_member_count_is_quoted_briefly(self, capsys):
        # 2**511 members: a 154-digit count is quoted as the walk is
        code, out, err = run(
            capsys, "eval", "--family", "kbit", "--r-params", "r=9,k=511"
        )
        assert code == 2 and out == ""
        assert err == (
            "error: r=9.0, k=511 with horizon=64 needs about 10**153.8 members x 64 "
            "segments, over the limit of 1048576 segments\n"
        )

    @pytest.mark.parametrize("length", [True, "3"], ids=["bool", "string"])
    def test_json_length_must_be_a_number(self, capsys, length):
        segments = [{"length": length, "branch": 0}, {"length": 2, "branch": 1}]
        code, out, err = run(
            capsys, "eval", "--json", json.dumps({"segments": segments})
        )
        assert code == 2 and out == ""
        assert err == (
            f"error: segments[0]: segment length must be a number, got {length!r}\n"
        )

    @pytest.mark.parametrize(
        "argv,names",
        [
            (("--geometric", "b=2", "n=2000"), "b=2, n=2000"),
            (
                ("--family", "position", "--r-params", "r=1e9"),
                "r=1000000000.0 with horizon=64",
            ),
            # the longest length fits, the walk 2 * (sum of lengths) does not
            (
                ("--family", "direction", "--r-params", "b=2,delta=1",
                 "--horizon", "1024"),
                "b=2.0 with horizon=1024",
            ),
            (
                ("--family", "kbit", "--r-params", "r=9,k=1", "--horizon", "1024"),
                "r=9.0, k=1 with horizon=1024",
            ),
            (
                ("--family", "direction", "--r-params", "b=78000,delta=1"),
                "b=78000.0 with horizon=64",
            ),
            (("--geometric", "b=78000"), "b=78000, n=64"),
            (("--json", json.dumps({"segments": [
                {"length": 1e308, "branch": i % 2} for i in range(3)
            ]})), "error: the walk 2 * (sum of lengths)"),
        ],
        ids=["geometric", "position", "direction-walk", "kbit-walk",
             "direction-base", "geometric-base", "json-walk"],
    )
    def test_overflow_rejected_without_warning(self, capsys, argv, names):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "eval", *argv)
        assert code == 2 and out == ""
        assert names in err and "overflows the float range" in err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert caught == [] and "Warning" not in err

    def test_walk_just_inside_the_float_range(self, capsys):
        code, out, err = run(capsys, "eval", "--geometric", "b=77000")
        assert code == 0 and err == ""
        assert out == "cr=154003.000026 (converged)\ncr_measured=154003.000026\n"

    def test_geometric_count_bounded_before_any_array(self):
        # 10**9 segments near base 1 keep every length finite; the segment
        # budget rejects them before numpy allocates 8 GB (capped here at 4 GB)
        code = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (4 * 10**9, 4 * 10**9))\n"
            "from cowpath.cli import main\n"
            "sys.exit(main(['eval', '--geometric', 'b=1.0000000000000002', 'n=1e9']))\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert result.returncode == 2 and result.stdout == ""
        assert result.stderr == (
            "error: --geometric field 'n' must be <= 1048576, got 1000000000\n"
        )

    @pytest.mark.parametrize(
        "argv, longest",
        [
            (("--geometric", "b=2", "scale=1e-300"), "9.223372036854776e-282"),
            (("--json", json.dumps({"segments": [
                {"length": 0.5, "branch": 0}, {"length": 0.5, "branch": 1}
            ]})), "0.5"),
        ],
        ids=["geometric", "json"],
    )
    def test_failed_report_prints_nothing(self, capsys, argv, longest):
        # every length is below 1: the prefix finds no target
        code, out, err = run(capsys, "eval", *argv)
        assert code == 2 and out == ""
        assert err == f"error: no segment reaches distance 1: the longest is {longest}\n"

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "eval", "--file", str(tmp_path / "nope.json"))
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize(
        "text, reason",
        [
            ("{", _MALFORMED),
            # argv bytes that are no UTF-8 reach Python as lone surrogates
            (os.fsdecode(b"\xff"), "Expecting value: line 1 column 1 (char 0)"),
            ("[" * 10**5, _DEEP),
            ("1" * 5000, "Exceeds the limit (4300 digits) for integer string"),
        ],
        ids=["malformed", "not-utf-8", "deep", "long-number"],
    )
    def test_inline_json_that_does_not_decode_names_its_flag(
        self, capsys, text, reason
    ):
        code, out, err = run(capsys, "eval", "--json", text)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: --json: not JSON: {reason}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "text, message",
        [("[1]", "strategy JSON must be an object"),
         ('{"segments": [1]}', "segments[0] must be an object")],
        ids=["document", "segment"],
    )
    def test_json_that_holds_no_object_names_what_must_be_one(
        self, capsys, text, message
    ):
        assert run(capsys, "eval", "--json", text) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "document, reason",
        [(b"{", _MALFORMED), (b"\xff", _NOT_UTF_8), (b"[" * 10**5, _DEEP)],
        ids=["malformed", "not-utf-8", "deep"],
    )
    @pytest.mark.parametrize(
        "command", [("eval", "--file"), ("verify", "--config")], ids=["file", "config"]
    )
    def test_json_file_that_does_not_decode_names_flag_and_path(
        self, capsys, tmp_path, command, document, reason
    ):
        path = tmp_path / "bad.json"
        path.write_bytes(document)
        code, out, err = run(capsys, *command, str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {command[1]} {path}: not JSON: {reason}")
        assert err.count("\n") == 1

    def test_unconverged_family_warns_on_stderr(self, capsys):
        code, out, err = run(
            capsys, "eval", "--family", "direction", "--r-params", "b=2,delta=1",
            "--horizon", "3",
        )
        assert code == 0
        assert out == (
            "consistency=7.000000 robustness=7.000000\n"
            "method=measured converged=false\n"
        )
        assert err.count("\n") == 1 and err.startswith("warning: ")
        assert "horizon 3" in err and "--horizon" in err
        code, out, err = run(
            capsys, "eval", "--family", "direction", "--r-params", "b=2,delta=1"
        )
        assert code == 0 and "converged=true" in out and err == ""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (
                ("eval", "--family", "kbit", "--r-params", "r=9,k=3"),
                "r=9.0, k=3 with horizon=64 needs 8 members x 64 segments",
            ),
            (
                ("partition", "--r", "9", "--k", "3", "--max", "10"),
                "r=9.0, k=3 with horizon=64 needs 8 members x 64 segments",
            ),
            (
                ("eval", "--family", "direction", "--r-params", "b=2,delta=1",
                 "--horizon", "65"),
                "b=2.0 with horizon=65 needs 2 members x 65 segments",
            ),
            (
                ("eval", "--family", "direction", "--r-params", "b=2,delta=1",
                 "--horizon", "129"),
                "horizon must be <= 128, got 129",
            ),
            (
                ("eval", "--family", "position", "--r-params", "r=9"),
                "r=9.0 with horizon=64 needs 1544 members x 64 segments",
            ),
        ],
        ids=["eval-kbit", "partition", "direction-members", "horizon", "position"],
    )
    def test_size_limit_exits_2(self, capsys, monkeypatch, argv, message):
        # the limit is checked before any hint or member is built; the error
        # states the parameters, the member count and the horizon, no remedy
        monkeypatch.setattr(_rules, "_MAX_SEGMENTS", 128)
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        if "members" in message:
            message += ", over the limit of 128 segments"
        assert err == f"error: {message}\n"


class TestFrontier:
    def test_position_range(self, capsys):
        code, out, _ = run(
            capsys, "frontier", "--class", "position", "--r", "9:13:0.25"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "hint_class,k,r,c_upper,c_lower,b_star,delta_star"
        assert lines[1] == "position,,9,3,3,,"
        assert len(lines) == 1 + 17

    def test_direction_single(self, capsys):
        code, out, _ = run(capsys, "frontier", "--class", "direction", "--r", "9")
        assert code == 0
        assert out.splitlines()[1] == "direction,,9,9,9,2,1"

    def test_direction_large_budget(self, capsys):
        code, out, _ = run(capsys, "frontier", "--class", "direction", "--r", "10000")
        assert code == 0
        assert out.splitlines()[1] == (
            "direction,,10000,5.00080056,5.00080056,70.6929954,0.0141456731"
        )

    def test_kbit_k_too_large(self, capsys):
        code, out, err = run(
            capsys, "frontier", "--class", "kbit", "--r", "9", "--k", "2000"
        )
        assert code == 2 and out == ""
        assert "k must be <= 511, got 2000" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("k", ["0", "-1"])
    @pytest.mark.parametrize("hint_class", ["position", "direction", "onebit"])
    def test_bad_k_exits_2_for_every_class(self, capsys, hint_class, k):
        # k is read before the class is, though only kbit uses it
        code, out, err = run(
            capsys, "frontier", "--class", hint_class, "--r", "9", "--k", k
        )
        assert code == 2 and out == ""
        assert err == f"error: k must be >= 1, got {k}\n"

    def test_kbit_k3(self, capsys):
        code, out, _ = run(
            capsys, "frontier", "--class", "kbit", "--k", "3", "--r", "9"
        )
        assert code == 0
        assert out.splitlines()[1] == "kbit,3,9,5.36203093,3,,"

    def test_all_classes(self, capsys):
        code, out, _ = run(capsys, "frontier", "--class", "all", "--r", "9:10:1")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 1 + 4 * 2
        assert {line.split(",")[0] for line in lines[1:]} == {
            "position",
            "direction",
            "onebit",
            "kbit",
        }

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "frontier.csv"
        code, out, _ = run(
            capsys,
            "frontier", "--class", "onebit", "--r", "9", "--output", str(path),
        )
        assert code == 0 and out == ""
        lines = path.read_text().splitlines()
        assert lines[0] == "hint_class,k,r,c_upper,c_lower,b_star,delta_star"
        assert lines[1] == "onebit,1,9,6.65685425,5,,"

    def test_r_below_nine(self, capsys):
        code, out, err = run(capsys, "frontier", "--class", "position", "--r", "8")
        assert code == 2 and out == ""
        assert err == "error: r must be >= 9 (no base is r-robust below), got 8.0\n"

    def test_r_not_finite(self, capsys):
        code, out, err = run(capsys, "frontier", "--class", "direction", "--r", "inf")
        assert code == 2 and out == ""
        assert "r must be finite, got inf" in err

    def test_missing_flags(self, capsys):
        code, _, err = run(capsys, "frontier", "--r", "9")
        assert code == 2 and "needs --class" in err
        code, _, err = run(capsys, "frontier", "--class", "position")
        assert code == 2 and "needs --r" in err

    @pytest.mark.parametrize("bad", ["9:8:1", "9:10:0", "9:10", "a:b:c", "x"])
    def test_bad_range_grammar(self, capsys, tmp_path, bad):
        # one message per text, naming --r on the command line and in a config
        if bad in ("9:8:1", "9:10:0"):
            message = f"range needs stop >= start and step > 0, got {bad!r}"
        else:
            message = f"range must be START:STOP:STEP or a single value, got {bad!r}"
        code, out, err = run(capsys, "frontier", "--class", "position", "--r", bad)
        assert code == 2 and out == ""
        assert err.endswith(f"error: argument --r: {message}\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"r": bad}))
        code, out, err = run(
            capsys, "frontier", "--class", "position", "--config", str(cfg)
        )
        assert code == 2 and out == ""
        assert err == f"error: config field 'r' (--r): {message}\n"

    @pytest.mark.parametrize("bad", ["9:10:x", "x:10:1", "9::1", "", "9:10:1:1"])
    def test_every_malformed_range_gives_the_grammar_message(self, capsys, bad):
        code, out, err = run(capsys, "frontier", "--class", "position", "--r", bad)
        assert code == 2 and out == ""
        assert err.endswith(
            "error: argument --r: range must be START:STOP:STEP or a single "
            f"value, got {bad!r}\n"
        )

    def test_range_point_cap(self, capsys, monkeypatch):
        # the count is checked before any point is built
        code, out, err = run(
            capsys, "frontier", "--class", "position", "--r", "9:inf:1"
        )
        assert code == 2 and out == ""
        assert "argument --r: range must hold at most 1000000 points" in err
        monkeypatch.setattr(cli, "_MAX_R_POINTS", 10)
        code, out, _ = run(capsys, "frontier", "--class", "position", "--r", "9:18:1")
        assert code == 0 and len(out.splitlines()) == 11
        code, out, err = run(capsys, "frontier", "--class", "position", "--r", "9:19:1")
        assert code == 2 and out == "" and "at most 10 points" in err

    def test_range_that_repeats_a_budget(self, capsys):
        # the step 1 is below the float spacing 2 at 1e16: a budget repeats
        code, out, err = run(
            capsys, "frontier", "--class", "position",
            "--r", "1e16:1.0000000000000002e16:1",
        )
        assert code == 2 and out == ""
        assert err.endswith(
            "argument --r: range step is below the float spacing and repeats "
            "a budget, got '1e16:1.0000000000000002e16:1'\n"
        )

    def test_range_includes_stop(self, capsys):
        code, out, _ = run(
            capsys, "frontier", "--class", "position", "--r", "9:11:1"
        )
        assert code == 0
        rs = [line.split(",")[2] for line in out.splitlines()[1:]]
        assert rs == ["9", "10", "11"]


class TestVerify:
    def test_all_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--count", "50")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == (
            "lemma: holds; worst margin -1 at r=9,b=2,i=1; "
            "counterexample (1,100) flagged"
        )
        assert lines[1] == "corollary: holds; worst margin 0 at r=9,b=2,i=0"
        assert lines[2].startswith("oracle: holds; max |formula-measured| ")
        assert lines[2].endswith("over 50 strategies (seed 0)")
        assert lines[3] == "verify: PASS"

    def test_single_suites(self, capsys):
        for suite in ("lemma", "corollary"):
            code, out, _ = run(capsys, "verify", suite)
            assert code == 0
            assert out.splitlines()[0].startswith(f"{suite}: holds")
            assert out.splitlines()[-1] == "verify: PASS"

    def test_oracle_seeded(self, capsys):
        code, out, _ = run(
            capsys, "verify", "oracle", "--seed", "7", "--count", "25"
        )
        assert code == 0
        assert "over 25 strategies (seed 7)" in out
        code, out2, _ = run(
            capsys, "verify", "oracle", "--seed", "7", "--count", "25"
        )
        assert out2 == out

    def test_bad_suite_name(self, capsys):
        code, _, _ = run(capsys, "verify", "spectral")
        assert code == 2

    @pytest.mark.parametrize("argv", [["--count", "0"], ["oracle", "--count", "-3"]])
    def test_count_must_be_positive(self, capsys, monkeypatch, argv):
        def no_work(*args, **kwargs):
            raise AssertionError("a suite ran")

        # cli imports the suites from bounds and ratios when it runs
        for module, name in (
            (bounds, "growth_lemma_sweep"), (bounds, "prefix_bound_sweep"),
            (ratios, "oracle_equivalence_gaps"),
        ):
            monkeypatch.setattr(module, name, no_work)
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: --count must be >= 1, got {argv[-1]}\n"

    def test_count_bounded(self, capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("a suite ran")

        # the oracle suite runs first: its strategies' admission rejects the
        # count before any sweep runs or any strategy is built
        for module, name in (
            (bounds, "growth_lemma_sweep"), (bounds, "prefix_bound_sweep"),
            (ratios, "_alternating_rows"),
        ):
            monkeypatch.setattr(module, name, no_work)
        for suite in ("oracle", "all"):
            # 16385 x 64 segments pass the limit of 2**20
            code, out, err = run(capsys, "verify", suite, "--count", "16385")
            assert code == 2 and out == ""
            assert err == (
                "error: count=16385 with horizon=64 needs 16385 members x 64 "
                "segments, over the limit of 1048576 segments\n"
            )

    def test_seed_must_be_non_negative(self, capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("a suite ran")

        monkeypatch.setattr(ratios, "oracle_equivalence_gaps", no_work)
        code, out, err = run(capsys, "verify", "oracle", "--seed", "-1")
        assert code == 2 and out == ""
        assert err == "error: --seed must be >= 0, got -1\n"


class TestPartition:
    def test_stdout_json(self, capsys):
        code, out, _ = run(
            capsys, "partition", "--r", "9", "--k", "1", "--max", "16"
        )
        assert code == 0
        data = json.loads(out)
        assert set(data) == {"branch0", "branch1"}
        first = data["branch0"][0]
        assert first["lo"] == 1.0
        assert first["hi"] == pytest.approx(math.sqrt(2.0))
        assert first["label"] == 1
        assert data["branch0"][-1]["hi"] == 16.0

    def test_file_outputs(self, capsys, tmp_path):
        jpath = tmp_path / "part.json"
        cpath = tmp_path / "part.csv"
        code, out, _ = run(
            capsys,
            "partition", "--r", "9", "--k", "1", "--max", "16",
            "--json", str(jpath), "--csv", str(cpath),
        )
        assert code == 0 and out == ""
        data = json.loads(jpath.read_text())
        assert data["branch0"][0]["label"] == 1
        lines = cpath.read_text().splitlines()
        assert lines[0] == "branch,lo,hi,label"
        assert lines[1] == "0,1,1.41421356,1"
        assert all(line.count(",") == 3 for line in lines[1:])

    def test_missing_flags(self, capsys):
        code, _, err = run(capsys, "partition", "--k", "1", "--max", "4")
        assert code == 2 and "needs --r" in err

    def test_horizon_too_short(self, capsys):
        code, _, err = run(
            capsys, "partition", "--r", "9", "--k", "1", "--max", "1e30"
        )
        assert code == 3 and "error:" in err


_PARTITION = ["--r", "9", "--k", "1", "--max", "16"]

# For each config key of each subcommand: the other arguments the command
# needs, and a value for the key (not its default).
_CONFIG_SAMPLES = {
    "eval": {
        "file": ([], "strategy.json"),
        "json": ([], '{"segments": [{"length": 1, "branch": 0}]}'),
        "geometric": ([], ["b=2.5", "n=16"]),
        "family": (["--r-params", "b=2,delta=1"], "direction"),
        "r-params": (["--family", "kbit"], "r=9,k=2"),
        "horizon": (["--family", "direction", "--r-params", "b=2,delta=0.5"], 16),
    },
    "frontier": {
        "class": (["--r", "9"], "onebit"),
        "r": (["--class", "position"], "9:10:0.5"),
        "k": (["--class", "kbit", "--r", "9"], 3),
        "output": (["--class", "onebit", "--r", "9"], "-"),
    },
    "verify": {
        "suite": ([], "corollary"),
        "count": (["oracle"], 20),
        "seed": (["oracle", "--count", "20"], 5),
    },
    "partition": {
        "r": (["--k", "1", "--max", "16"], 10.5),
        "k": (["--r", "9", "--max", "16"], 2),
        "max": (["--r", "9", "--k", "1"], 64),
        "horizon": (_PARTITION, 32),
        "json": (_PARTITION, "-"),
        "csv": (_PARTITION, "-"),
    },
}


def _config_keys():
    """(command, key, positional) for every argument of every subcommand but
    help and config: a flag's key is its name without `--`, a positional's
    its dest."""
    _, subparsers = cli._build_parser()
    params = []
    for command, subparser in subparsers.items():
        for action in subparser._actions:
            if action.dest not in ("help", "config"):
                flag = action.option_strings
                key = flag[0][2:] if flag else action.dest
                params.append(pytest.param(command, key, not flag, id=f"{command}-{key}"))
    return params


class TestConfig:
    @pytest.mark.parametrize("command,key,positional", _config_keys())
    def test_every_argument_reads_the_same_from_config(
        self, capsys, tmp_path, monkeypatch, command, key, positional
    ):
        monkeypatch.chdir(tmp_path)
        doubling = _strategy_json(make_geometric(2.0, 64))
        (tmp_path / "strategy.json").write_text(json.dumps(doubling))
        rest, value = _CONFIG_SAMPLES[command][key]
        (tmp_path / "cfg.json").write_text(json.dumps({key: value}))
        texts = value if isinstance(value, list) else [str(value)]
        given = texts if positional else [f"--{key}", *texts]
        flag_run = run(capsys, command, *rest, *given)
        config_run = run(capsys, command, *rest, "--config", "cfg.json")
        assert flag_run[0] == 0 and flag_run[1] != ""
        assert config_run[:2] == flag_run[:2]

    @pytest.mark.parametrize(
        "argv,config,message",
        [
            (["verify"], {"suite": ["lemma"]},
             "config field 'suite' (suite) must be a string, got ['lemma']"),
            (["frontier", "--class", "onebit", "--r", "9"], {"output": 2},
             "config field 'output' (--output) must be a string, got 2"),
            (["frontier", "--class", "onebit", "--r", "9"], {"output": True},
             "config field 'output' (--output) must be a string, got True"),
            (["partition", *_PARTITION], {"csv": 1},
             "config field 'csv' (--csv) must be a string, got 1"),
            (["eval", "--family", "position"], {"r-params": ["r=9"]},
             "config field 'r-params' (--r-params) must be a string, got ['r=9']"),
        ],
        ids=["suite-list", "output-fd-2", "output-true", "csv-fd-1", "r-params-list"],
    )
    def test_wrong_type_exits_2_and_writes_nothing(
        self, tmp_path, argv, config, message
    ):
        # a fresh process: a path given as a number would name a descriptor
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        result = subprocess.run(
            [sys.executable, "-m", "cowpath", *argv, "--config", str(cfg)],
            cwd=tmp_path, env=env, capture_output=True, text=True,
        )
        assert result.returncode == 2 and result.stdout == ""
        assert result.stderr == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize(
        "argv,config,message",
        [
            (["eval"], {"geometric": []}, "config field 'geometric' (--geometric) "
             "must be a string or a list of strings, got []"),
            (["eval"], {"geometric": ["b=2", 3]}, "config field 'geometric' "
             "(--geometric) must be a string or a list of strings, got ['b=2', 3]"),
            (["eval"], {"file": 3},
             "config field 'file' (--file) must be a string, got 3"),
            (["frontier", "--r", "9"], {"class": "bogus"},
             "config field 'class' (--class) must be one of position, direction, "
             "onebit, kbit, all, got 'bogus'"),
            (["verify"], {"suite": "bogus"}, "config field 'suite' (suite) must be "
             "one of lemma, corollary, oracle, all, got 'bogus'"),
            (["frontier", "--class", "kbit", "--r", "9"], {"k": "2.7"},
             "config field 'k' (--k) must be an integer, got '2.7'"),
            (["frontier", "--class", "position"], {"r": "x"},
             "config field 'r' (--r): range must be START:STOP:STEP or a single "
             "value, got 'x'"),
            (["eval"], {"family": "direction", "r_params": "b=2,delta=1"},
             "config has no matching flag for field 'r_params'"),
            (["frontier", "--r", "9"], {"hint_class": "onebit"},
             "config has no matching flag for field 'hint_class'"),
            (["partition", *_PARTITION], {"json_out": "-"},
             "config has no matching flag for field 'json_out'"),
            (["eval"], {"help": True}, "config has no matching flag for field 'help'"),
        ],
        ids=["geometric-empty", "geometric-number", "file-number", "class-choice",
             "suite-choice", "int-text", "range-text", "r_params", "hint_class",
             "json_out", "help"],
    )
    def test_value_read_as_its_flag_reads_text(
        self, capsys, tmp_path, argv, config, message
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run(capsys, *argv, "--config", str(cfg))
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_nargs_flag_takes_one_string(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"geometric": "b=2"}))
        code, out, _ = run(capsys, "eval", "--config", str(cfg))
        assert code == 0
        assert out == run(capsys, "eval", "--geometric", "b=2")[1]

    def test_defaults_apply(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"family": "direction", "r-params": "b=2,delta=1"})
        )
        code, out, _ = run(capsys, "eval", "--config", str(cfg))
        assert code == 0
        assert out.splitlines()[0] == "consistency=9.000000 robustness=9.000000"

    def test_flags_win(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"geometric": ["b=2"]}))
        code, out, _ = run(
            capsys, "eval", "--config", str(cfg), "--geometric", "b=3"
        )
        assert code == 0
        assert out.splitlines()[0] == "cr=10.000000 (converged)"

    def test_frontier_aliases_and_range(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"class": "kbit", "r": "9:10:1", "k": 3}))
        code, out, _ = run(capsys, "frontier", "--config", str(cfg))
        assert code == 0
        lines = out.splitlines()
        assert lines[1].startswith("kbit,3,9,")
        assert lines[2].startswith("kbit,3,10,")

    def test_bad_range(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"r": "9:1:1"}))
        code, out, err = run(
            capsys, "frontier", "--class", "position", "--config", str(cfg)
        )
        assert code == 2 and out == ""
        assert err == (
            "error: config field 'r' (--r): range needs stop >= start and "
            "step > 0, got '9:1:1'\n"
        )

    def test_range_that_repeats_a_budget(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"r": "1e16:1.0000000000000002e16:1"}))
        code, out, err = run(
            capsys, "frontier", "--class", "position", "--config", str(cfg)
        )
        assert code == 2 and out == ""
        assert err == (
            "error: config field 'r' (--r): range step is below the float "
            "spacing and repeats a budget, got '1e16:1.0000000000000002e16:1'\n"
        )

    @pytest.mark.parametrize(
        "argv,config,flag",
        [
            (["partition"], {"k": 2.7, "r": 9, "max": 16}, "k"),
            (["partition"], {"k": True, "r": 9, "max": 16}, "k"),
            (["partition", "--r", "9", "--k", "1", "--max", "4"], {"horizon": 8.5},
             "horizon"),
            (["verify", "oracle"], {"count": 2.5}, "count"),
            (["verify", "oracle"], {"seed": 1.5}, "seed"),
            (["frontier", "--class", "kbit", "--r", "9"], {"k": None}, "k"),
            # an integral float with an exponent is read as its text, 1e+300
            (["partition"], {"r": 9, "max": 16, "k": 1e300}, "k"),
            (["partition", *_PARTITION], {"horizon": 1e300}, "horizon"),
            (["verify", "oracle"], {"count": 1e300}, "count"),
            (["verify", "oracle"], {"seed": 1e300}, "seed"),
        ],
    )
    def test_integer_flags_not_truncated(self, capsys, tmp_path, argv, config, flag):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run(capsys, *argv, "--config", str(cfg))
        assert code == 2 and out == ""
        assert err == (
            f"error: config field '{flag}' (--{flag}) must be an integer, "
            f"got {config[flag]!r}\n"
        )

    @pytest.mark.parametrize(
        "argv,config,flag",
        [
            (["partition"], {"max": True, "r": 9, "k": 1}, "max"),
            (["partition"], {"r": True, "k": 1, "max": 16}, "r"),
            (["frontier", "--class", "position"], {"r": False}, "r"),
            (["partition"], {"r": None, "k": 1, "max": 4}, "r"),
            (["partition"], {"r": "abc", "k": 1, "max": 4}, "r"),
            (["partition"], {"r": 9, "k": 1, "max": [4]}, "max"),
            (["partition"], {"r": 9, "k": 1, "max": None}, "max"),
            (["partition"], {"r": 9, "k": 1, "max": "abc"}, "max"),
        ],
    )
    def test_float_flags_reject_bools(self, capsys, tmp_path, argv, config, flag):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run(capsys, *argv, "--config", str(cfg))
        assert code == 2 and out == ""
        assert err == (
            f"error: config field '{flag}' (--{flag}) must be a number, "
            f"got {config[flag]!r}\n"
        )

    def test_numeric_string_r(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"r": "9.5", "k": 1, "max": 4}))
        code, out, _ = run(capsys, "partition", "--config", str(cfg))
        assert code == 0
        flags = ["--r", "9.5", "--k", "1", "--max", "4"]
        assert out == run(capsys, "partition", *flags)[1]

    def test_numeric_string_max(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"r": 9, "k": 4, "max": "1e6"}))
        code, out, _ = run(capsys, "partition", "--config", str(cfg))
        assert code == 0
        flags = ["--r", "9", "--k", "4", "--max", "1e6"]
        assert out == run(capsys, "partition", *flags)[1]

    @pytest.mark.parametrize("k", [3, 3.0, "3"])
    def test_integer_flags_accept_integral_values(self, capsys, tmp_path, k):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": k, "r": 9, "max": 16, "horizon": 64.0}))
        code, out, _ = run(capsys, "partition", "--config", str(cfg), "--csv", "-")
        assert code == 0
        assert out.startswith("branch,lo,hi,label\n0,1,1.09050773,1\n")

    def test_unknown_key(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mystery": 1}))
        code, _, err = run(capsys, "eval", "--config", str(cfg))
        assert code == 2 and "no matching flag" in err

    def test_config_not_object(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        code, _, err = run(capsys, "eval", "--config", str(cfg))
        assert code == 2 and "JSON object" in err


class TestTopLevel:
    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_unknown_command(self, capsys):
        assert run(capsys, "wander")[0] == 2

    def test_no_command(self, capsys):
        assert run(capsys)[0] == 2

    @pytest.mark.parametrize("error", [TypeError, KeyError])
    def test_a_bug_is_no_input_error(self, capsys, monkeypatch, error):
        # the input rules raise only ValueError and OSError: any other
        # exception is a bug, shown by its traceback, not exit 2
        def broken(args):
            raise error("a bug")

        monkeypatch.setattr(cli, "cmd_frontier", broken)
        with pytest.raises(error):
            main(["frontier", "--class", "all", "--r", "9"])
        assert capsys.readouterr() == ("", "")

    def test_public_names_are_the_module_lists(self):
        import cowpath
        from cowpath import bounds, hints, model, ratios

        names = [n for m in (model, ratios, hints, bounds) for n in m.__all__]
        assert len(set(names)) == len(names)
        assert sorted(cowpath.__all__) == sorted(names)
        for m in (model, ratios, hints, bounds):
            for name in m.__all__:
                assert getattr(cowpath, name) is getattr(m, name)

    def test_cold_paths_load_no_numpy(self, tmp_path):
        # each command runs in a fresh interpreter, so sys.modules starts
        # empty; of the package, --help and usage errors load only the front
        # end and its input rules (runpy leaves cowpath.__main__ unlisted),
        # and frontier loads the numpy-free bounds too
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"class": "all", "r": "9:20:1", "k": 3}))

        def run_cli(expected, absent):
            return (
                "import runpy, sys\n"
                "try:\n"
                "    runpy.run_module('cowpath', run_name='__main__')\n"
                "finally:\n"
                f"    for name in {absent!r}:\n"
                "        assert name not in sys.modules, f'{name} was imported'\n"
                "    loaded = {m for m in sys.modules if m.split('.')[0] == 'cowpath'}\n"
                f"    assert loaded == {expected!r}, loaded\n"
            )

        front = {"cowpath", "cowpath.cli", "cowpath._rules"}
        usage = run_cli(front, ("numpy", "numbers", "dataclasses"))
        frontier = run_cli(front | {"cowpath.bounds"}, ("numpy", "numbers"))
        cases = [
            (["-c", "import sys, cowpath\nassert 'numpy' not in sys.modules"], 0),
            (["-c", usage, "--help"], 0),
            (["-c", usage, "eval", "--bogus"], 2),
            (["-c", frontier, "frontier", "--class", "all", "--r", "9:20:1",
              "--k", "3"], 0),
            (["-c", frontier, "frontier", "--config", str(cfg)], 0),
        ]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        for argv, expected in cases:
            result = subprocess.run(
                [sys.executable, *argv], env=env, capture_output=True, text=True
            )
            assert result.returncode == expected, (argv, result.stderr)

    def test_numpy_commands_load_only_numpys_core(self):
        # one fresh interpreter: after each numpy command and library call,
        # neither numpy.random nor numpy.ma may have been imported
        code = (
            "import contextlib, io, sys\n"
            "from cowpath import cli, hints, ratios\n"
            "def check(step):\n"
            "    loaded = {'numpy.random', 'numpy.ma'} & set(sys.modules)\n"
            "    assert not loaded, (step, loaded)\n"
            "commands = [\n"
            "    ['eval', '--geometric', 'b=2.5'],\n"
            "    ['eval', '--family', 'kbit', '--r-params', 'r=12,k=6'],\n"
            "    ['eval', '--family', 'direction', '--r-params', 'b=2,delta=0.6'],\n"
            "    ['eval', '--family', 'position', '--r-params', 'r=9'],\n"
            "    ['partition', '--r', '9', '--k', '4', '--max', '1e6'],\n"
            "    ['verify', '--seed', '3'],\n"
            "]\n"
            "for argv in commands:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(argv) == 0, argv\n"
            "    check(argv)\n"
            "families = [('position', hints.position_family(9.0)),\n"
            "            ('direction', hints.direction_family(2.0, 0.5)),\n"
            "            ('kbit', hints.kbit_family(9.0, 4))]\n"
            "for label, family in families:\n"
            "    ratios.evaluate_hinted(family)\n"
            "    check(label)\n"
            "hints.preferred_partition(9.0, 4, 1e6)\n"
            "check('preferred_partition')\n"
            "ratios.oracle_equivalence_gaps(200, 5)\n"
            "check('oracle_equivalence_gaps')\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr

    def test_first_lookup_binds_every_name(self):
        code = (
            "import cowpath\n"
            "assert 'Strategy' not in vars(cowpath)\n"
            "cowpath.kbit_base\n"
            "bound = vars(cowpath)\n"
            "modules = [bound[m] for m in ('model', 'ratios', 'hints', 'bounds')]\n"
            "assert bound['__all__'] == [n for m in modules for n in m.__all__]\n"
            "assert all(name in bound for name in bound['__all__'])\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr


# Values a user may type; the fuzz test draws every number from this menu.
_MENU = ("nan", "inf", "-1", "0", "1", "2.7", "9", "78000", "1e-300", "1e200", "1e308")
_FAMILY_FIELDS = {"position": ("r",), "direction": ("b", "delta"), "kbit": ("r", "k")}


@st.composite
def _cli_argv(draw):
    value = st.sampled_from(_MENU)
    command = draw(st.sampled_from(
        [*_FAMILY_FIELDS, "geometric", "partition", "frontier", "verify"]
    ))
    if command == "geometric":
        names = draw(st.lists(st.sampled_from(("b", "n", "scale", "first")),
                              unique=True))
        return ["eval", "--geometric", *(f"{name}={draw(value)}" for name in names)]
    if command == "verify":
        suite = draw(st.sampled_from(("lemma", "corollary", "oracle", "all")))
        argv = ["verify", suite]
        for flag in draw(st.lists(st.sampled_from(("--count", "--seed")),
                                  unique=True)):
            argv += [flag, draw(value)]
        return argv
    if command == "frontier":
        hint_class = draw(
            st.sampled_from(("position", "direction", "onebit", "kbit", "all"))
        )
        return ["frontier", "--class", hint_class, "--r", draw(value),
                "--k", draw(value)]
    if command == "partition":
        argv = ["partition"]
        for flag in draw(st.lists(st.sampled_from(("--r", "--k", "--max")),
                                  unique=True)):
            argv += [flag, draw(value)]
    else:
        # each field may be missing; "x" and "horizon" are unknown fields
        names = draw(st.lists(
            st.sampled_from((*_FAMILY_FIELDS[command], "x", "horizon")), unique=True
        ))
        pairs = ",".join(f"{name}={draw(value)}" for name in names)
        argv = ["eval", "--family", command, "--r-params", pairs]
    horizon = draw(
        st.sampled_from((None, "-1", "0", "1", "2", "2.7", "9", "64", "1024"))
    )
    return argv if horizon is None else [*argv, "--horizon", horizon]


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(argv=_cli_argv())
    @example(argv=["frontier", "--class", "position", "--r", "1e308", "--k", "1"])
    @example(argv=["frontier", "--class", "all", "--r", "1e200", "--k", "3"])
    @example(argv=["eval", "--geometric", "b=78000"])  # the walk overflows
    @example(argv=["eval", "--geometric", "b=2.7", "scale=1e-300"])  # no target
    def test_exit_codes_and_messages(self, argv):
        # a small segment limit keeps every record that passes the admission
        # small; a RuntimeWarning fails the test (the suite's warning filter)
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.object(_rules, "_MAX_SEGMENTS", 2**12), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3)
        if code != 0:
            assert err.getvalue().startswith(("error:", "usage:"))
            assert out.getvalue() == ""
        assert "nan" not in out.getvalue().lower()
