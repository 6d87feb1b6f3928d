"""Command-line interface: output formats, exit codes, config files."""

import json
import math
import os
import subprocess
import sys
import warnings

import pytest

from cowpath import cli
from cowpath.cli import main
from cowpath.hints import direction_hint_strategy
from cowpath.model import DirectionHint, strategy_to_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        member = direction_hint_strategy(2.0, 1.0, DirectionHint(0))
        path = tmp_path / "member.json"
        path.write_text(json.dumps(strategy_to_json(member)))
        code, out, _ = run(capsys, "eval", "--file", str(path))
        assert code == 0
        cr = float(out.splitlines()[0].split("=")[1].split()[0])
        code, out, _ = run(
            capsys, "eval", "--family", "direction", "--r-params", "b=2,delta=1"
        )
        robustness = float(out.split("robustness=")[1].split()[0])
        assert cr == pytest.approx(robustness, abs=1e-6)

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

    @pytest.mark.parametrize("k", ["2.7", "0.5"])
    def test_non_integral_k(self, capsys, k):
        code, out, err = run(
            capsys, "eval", "--family", "kbit", "--r-params", f"r=9,k={k}"
        )
        assert code == 2 and out == ""
        assert f"field 'k' must be an integer, got {k}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("n", ["-3", "0", "2.5"])
    def test_geometric_bad_count_names_n(self, capsys, n):
        code, out, err = run(capsys, "eval", "--geometric", "b=2", f"n={n}")
        assert code == 2 and out == ""
        assert f"--geometric field 'n' must be an integer >= 1, got {n}" in err

    @pytest.mark.parametrize("first", ["0.7", "2", "-1"])
    def test_geometric_first_must_be_a_branch(self, capsys, first):
        code, out, err = run(
            capsys, "eval", "--geometric", "b=2", f"first={first}", "n=4"
        )
        assert code == 2 and out == ""
        assert "--geometric field 'first' must be 0 or 1" in err
        assert "Traceback" not in err

    def test_position_hint_past_horizon(self, capsys):
        code, out, err = run(
            capsys, "eval", "--family", "position", "--r-params", "r=9",
            "--horizon", "3",
        )
        assert code == 3 and out == ""
        assert "hint distance" in err and "past horizon 3" in err

    @pytest.mark.parametrize(
        "argv,names",
        [
            (("--geometric", "b=2", "n=2000"), "b=2, n=2000"),
            (
                ("--family", "position", "--r-params", "r=1e9"),
                "r=1000000000.0 with horizon=64",
            ),
        ],
        ids=["geometric", "position"],
    )
    def test_overflow_rejected_without_warning(self, capsys, argv, names):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "eval", *argv)
        assert code == 2 and out == ""
        assert names in err and "overflows the float range" in err
        assert caught == [] and "Warning" not in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "eval", "--file", str(tmp_path / "nope.json"))
        assert code == 2 and "error:" in err


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
        code, _, err = run(capsys, "frontier", "--class", "position", "--r", "8")
        assert code == 2 and "9 or above" in err

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
    def test_bad_range_grammar(self, capsys, bad):
        code, _, _ = run(capsys, "frontier", "--class", "position", "--r", bad)
        assert code == 2

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


class TestConfig:
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

    def test_public_names_are_the_module_lists(self):
        import cowpath
        from cowpath import bounds, hints, model, ratios

        names = [n for m in (model, ratios, hints, bounds) for n in m.__all__]
        assert len(set(names)) == len(names)
        assert sorted(cowpath.__all__) == sorted(names)
        for m in (model, ratios, hints, bounds):
            for name in m.__all__:
                assert getattr(cowpath, name) is getattr(m, name)

    def test_import_loads_no_scipy(self):
        # cowpath needs numpy only; a subprocess sees a fresh sys.modules
        code = (
            "import sys, cowpath\n"
            "loaded = [m for m in sys.modules if m.startswith('scipy')]\n"
            "assert not loaded, loaded\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
