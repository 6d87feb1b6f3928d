"""The CLI's output contract: every command of tests/data/cli_contract.json,
run in process through cli.main, gives its stored exit code, stdout, stderr
and written files exactly.  `python tools/contract.py --write` regenerates
the file; a regeneration changes the contract and is logged as such."""

import json
import pathlib

import pytest

from cowpath.cli import main

CONTRACT = json.loads(
    (pathlib.Path(__file__).parent / "data" / "cli_contract.json").read_text(
        encoding="utf-8"
    )
)


@pytest.mark.parametrize("entry", CONTRACT, ids=lambda e: " ".join(e["argv"]))
def test_command_keeps_its_contract(entry, capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to this width
    code = main([arg.replace("{out}", str(tmp_path)) for arg in entry["argv"]])
    out, err = capsys.readouterr()
    assert code == entry["exit"]
    assert out == "\n".join(entry["stdout"])
    assert err == "\n".join(entry["stderr"])
    written = {p.name: p.read_text(encoding="utf-8") for p in tmp_path.iterdir()}
    assert written == {name: "\n".join(lines) for name, lines in entry["files"].items()}

