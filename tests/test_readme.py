"""The README's examples run: every ``twistdiv`` command in its shell
blocks exits 0, its ``python`` blocks run, and its JSON algebra
description loads as the Z4 survivor."""

import json
import re
import shlex
from pathlib import Path

import pytest

from twistdiv.algebra import TwistedAlgebra, tesseranion_algebra
from twistdiv.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_blocks(lang):
    """The bodies of the README's fenced blocks in ``lang``."""
    return re.findall(rf"```{lang}\n(.*?)```", README.read_text(), re.S)


def readme_commands():
    """The ``twistdiv`` lines of the README's ``sh`` blocks, as argv lists
    without the program name; a ``| python -m json.tool`` tail is dropped
    and ``twistdiv accept`` is left to tests/test_acceptance.py."""
    commands = []
    for block in readme_blocks("sh"):
        for line in block.splitlines():
            argv = shlex.split(line.split("|")[0], comments=True)
            if argv[:1] == ["twistdiv"] and argv[1:2] != ["accept"]:
                commands.append(argv[1:])
    return commands


def test_readme_lists_commands():
    assert len(readme_commands()) >= 10


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_exits_zero(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0


def test_readme_python_blocks_run():
    blocks = readme_blocks("python")
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_json_algebra_is_the_z4_survivor():
    (doc,) = readme_blocks("json")
    algebra = TwistedAlgebra.from_json(json.loads(doc))
    assert algebra.to_json() == tesseranion_algebra().to_json()
