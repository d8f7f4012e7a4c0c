"""The README's library sketch runs, and its CLI examples parse, against the package in src/."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from seizeval import cli

ROOT = Path(__file__).resolve().parents[1]


def test_library_sketch_runs():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", blocks[0]], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr


def test_cli_examples_parse():
    """Every ``seizeval`` command in the README's shell blocks parses, and
    together they show every subcommand."""
    parser = cli.build_parser()
    commands = set()
    for block in re.findall(r"```sh\n(.*?)```", (ROOT / "README.md").read_text(), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("seizeval "):
                try:
                    commands.add(parser.parse_args(shlex.split(line)[1:]).command)
                except SystemExit:
                    pytest.fail(f"README command does not parse: {line}")
    assert commands == {name[len("cmd_"):] for name in dir(cli) if name.startswith("cmd_")}
