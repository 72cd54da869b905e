"""The README runs as written: each Python block executes and prints the text
block shown after it, every `solvgeom` command it shows parses with the CLI's
own parser on a space and twist the CLI accepts, and every record the CLI
prints is named in it."""

import ast
import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from solvgeom import cli

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text()
# (info string, body) of every fenced block, in order
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", TEXT, re.M | re.S)
# each Python block with the text block right after it, if there is one
PYTHON = [(code, shown if after == "text" else None)
          for (info, code), (after, shown) in zip(BLOCKS, BLOCKS[1:] + [("", None)])
          if info == "python"]
COMMANDS = [shlex.split(line)[1:] for info, body in BLOCKS if info == ""
            for line in body.splitlines() if line.startswith("solvgeom ")]


def test_the_readme_shows_python_and_commands():
    assert PYTHON and COMMANDS


@pytest.mark.parametrize("code, shown", PYTHON, ids=[f"block{i}" for i in range(len(PYTHON))])
def test_python_block_prints_what_the_readme_shows(code, shown):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    if shown is not None:
        assert out.getvalue() == shown


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_command_parses_on_a_space_and_twist_the_cli_accepts(argv):
    try:
        args = cli.PARSER.parse_args(argv)  # `--space` is checked against its choices
    except ValueError:
        pytest.fail(f"the parser refuses {argv}")
    if getattr(args, "twist", None) is not None:
        cli._resolve_twist(cli._build_space(args), args.twist)


def test_every_record_the_cli_prints_is_named():
    tree = ast.parse(Path(cli.__file__).read_text())
    names = {node.args[0].value for node in ast.walk(tree)
             if isinstance(node, ast.Call) and getattr(node.func, "attr", None) in ("add", "check")
             and node.args and isinstance(node.args[0], ast.Constant)}
    assert len(names) > 30
    assert sorted(n for n in names if f"`{n}`" not in TEXT) == []
