"""The README's Python examples run as written, and its command lines parse."""

import re
import shlex
from pathlib import Path

import pytest

from gvflow.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.MULTILINE | re.DOTALL)
COMMANDS = [
    shlex.split(line)[1:]
    for block in re.findall(r"^```sh\n(.*?)^```", TEXT, re.MULTILINE | re.DOTALL)
    for line in block.replace("\\\n", " ").splitlines()
    if line.startswith("gvflow ")
]


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_python_block_runs(code):
    exec(compile(code, str(README), "exec"), {"__name__": "readme"})


def test_readme_has_command_lines():
    assert COMMANDS


@pytest.mark.parametrize("argv", COMMANDS,
                         ids=[f"line{i}-{argv[0]}" for i, argv in enumerate(COMMANDS)])
def test_command_line_parses(argv):
    # parse only: a flag the README names but the command lacks raises
    build_parser().parse_args(argv)
