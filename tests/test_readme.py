"""Every CLI example in the README is executed as an integration test."""

import pathlib
import re
import shlex

import pytest

from mfl.cli import main

README = pathlib.Path(__file__).parent.parent / "README.md"


def readme_commands():
    commands = []
    for line in README.read_text().splitlines():
        line = line.strip()
        if line.startswith("$ mfl"):
            commands.append(line[2:])
    return commands


def test_readme_has_examples():
    assert len(readme_commands()) >= 10


@pytest.mark.parametrize("command", readme_commands(), ids=lambda c: c[:60])
def test_readme_command_runs(command, capsys):
    argv = shlex.split(command)[1:]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, command
    assert out


def test_readme_classify_transcripts(capsys):
    """The two transcripts shown in the README match the real output."""
    text = README.read_text()
    blocks = re.findall(r"```console\n\$ (mfl classify[^\n]*)\n(.*?)```", text, re.S)
    assert len(blocks) == 2
    for command, expected in blocks:
        main(shlex.split(command)[1:])
        out = capsys.readouterr().out
        assert out == expected


def test_readme_tableaux_transcript(capsys):
    """The tableaux transcript in the README matches the real output byte
    for byte, trailing blank line included."""
    text = README.read_text()
    blocks = re.findall(r"```console\n\$ (mfl tableaux[^\n]*)\n(.*?)```", text, re.S)
    assert len(blocks) == 1
    (command, expected), = blocks
    assert main(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out == expected
