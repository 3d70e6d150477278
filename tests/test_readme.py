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


def check_transcripts(capsys, command, count):
    """Each README console block of ``$ mfl <command> ...`` (there are
    ``count``) shows the real output byte for byte, trailing blank lines
    included."""
    text = README.read_text()
    blocks = re.findall(rf"```console\n\$ (mfl {command}[^\n]*)\n(.*?)```", text, re.S)
    assert len(blocks) == count
    for line, expected in blocks:
        assert main(shlex.split(line)[1:]) == 0, line
        assert capsys.readouterr().out == expected, line


def test_readme_classify_transcripts(capsys):
    check_transcripts(capsys, "classify", 2)


def test_readme_tableaux_transcript(capsys):
    check_transcripts(capsys, "tableaux", 1)


def test_readme_sweep_transcript(capsys):
    check_transcripts(capsys, "sweep", 1)
