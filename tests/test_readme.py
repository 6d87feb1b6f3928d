"""The README's examples run as written: the Quick start Python block and
the command-line lines."""

import ast
import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys

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
    # the strategy file `eval --file` reads, and the config `eval --config` reads
    doubling = {"segments": [{"length": 2.0**i, "branch": i % 2} for i in range(64)]}
    (tmp_path / "strategy.json").write_text(json.dumps(doubling))
    family = {"family": "direction", "r-params": "b=2,delta=1"}
    (tmp_path / "family.json").write_text(json.dumps(family))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    for argv, comment in commands:
        result = subprocess.run(
            [sys.executable, "-m", "cowpath", *argv[1:]],
            cwd=tmp_path, env=env, capture_output=True, text=True,
        )
        assert result.returncode == 0, (argv, result.stderr)
        if "=" in comment:  # a comment of the form key=value is the first line
            assert result.stdout.splitlines()[0] == comment, argv


def _quick_start():
    """The source of the python block under "Quick start"."""
    section = README.read_text(encoding="utf-8").split("## Quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def _expected(comment):
    """The value a `# value` comment states, or None if it states none: a
    Python literal, less a trailing note in parentheses that starts with a
    letter, where a number cut short with `...` becomes the string of the
    digits it shows."""
    text = re.sub(r"\s+\([a-z][^)]*\)$", "", comment)
    text = re.sub(r"(\d+\.\d+)\.\.\.", r"'\1'", text)
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return None


def _matches(value, expected):
    if isinstance(expected, str):  # a truncated number: its digits match
        return isinstance(value, float) and repr(value).startswith(expected)
    if isinstance(expected, (tuple, list)):
        return (
            type(value) is type(expected)
            and len(value) == len(expected)
            and all(map(_matches, value, expected))
        )
    return math.isclose(value, expected, rel_tol=1e-12, abs_tol=0.0)


def test_quick_start_values():
    source = _quick_start()
    lines = source.splitlines()
    namespace = {}
    checked = 0
    for node in ast.parse(source).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            continue
        expression = compile(ast.Expression(node.value), "README.md", "eval")
        value = eval(expression, namespace)
        # the comment on the expression's last line, or alone on the next
        _, _, comment = lines[node.end_lineno - 1].partition("#")
        after = lines[node.end_lineno : node.end_lineno + 1]
        if not comment and after and after[0].startswith("#"):
            comment = after[0][1:]
        expected = _expected(comment.strip())
        if expected is not None:
            assert _matches(value, expected), (ast.unparse(node), value, comment)
            checked += 1
    assert checked == 4
