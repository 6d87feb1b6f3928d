"""The README's command-line examples run as written."""

import json
import os
import pathlib
import shlex
import subprocess
import sys

from cowpath.model import make_geometric, strategy_to_json

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _readme_commands():
    """(argv, comment) per `cowpath` line of the sh block under "Command
    line"; comment is the text after a trailing `#`, or ''."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.splitlines():
        if line.startswith("cowpath "):
            command, _, comment = line.partition("  #")
            commands.append((shlex.split(command), comment.strip()))
    return commands


def test_command_line_examples_run(tmp_path):
    commands = _readme_commands()
    assert len(commands) >= 10
    # the strategy file `eval --file` reads
    doubling = strategy_to_json(make_geometric(2.0, 64))
    (tmp_path / "strategy.json").write_text(json.dumps(doubling))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    for argv, comment in commands:
        result = subprocess.run(
            [sys.executable, "-m", "cowpath", *argv[1:]],
            cwd=tmp_path, env=env, capture_output=True, text=True,
        )
        assert result.returncode == 0, (argv, result.stderr)
        if "=" in comment:  # a comment of the form key=value is the first line
            assert result.stdout.splitlines()[0] == comment, argv
