"""Every ``twistdiv`` command in the README's shell blocks runs and exits 0."""

import re
import shlex
from pathlib import Path

import pytest

from twistdiv.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands():
    """The ``twistdiv`` lines of the README's ``sh`` blocks, as argv lists
    without the program name; a ``| python -m json.tool`` tail is dropped
    and ``twistdiv accept`` is left to tests/test_acceptance.py."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
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
