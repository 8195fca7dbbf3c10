"""README.md is the user's manual: it names every public name and every
flag, its examples parse, its test commands are those CI runs, and it
states no measured time or size (those belong to the benchmark's BENCH
files, which keep each with its host).
"""

import argparse
import re
import shlex
from pathlib import Path

import pytest

import benford2
from benford2.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def long_flags():
    """(subcommand, flag) for every long option of every subcommand but ``--help``."""
    parser = build_parser()
    (sub,) = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    return sorted(
        (name, flag)
        for name, command in sub.choices.items()
        for action in command._actions
        for flag in action.option_strings
        if flag.startswith("--") and flag != "--help"
    )


@pytest.mark.parametrize("name", sorted(benford2.__all__))
def test_every_public_name_is_documented(name):
    assert re.search(rf"`{re.escape(name)}`", README), name


@pytest.mark.parametrize("command,flag", long_flags())
def test_every_flag_is_documented(command, flag):
    assert re.search(rf"{re.escape(flag)}(?![\w-])", README), (command, flag)


def test_examples_parse():
    lines = [line for line in README.splitlines() if line.startswith("$ benford2 ")]
    assert lines
    for line in lines:
        argv = shlex.split(line.split("#")[0])
        build_parser().parse_args(argv[2:])  # a bad example exits 2 and fails here


def test_no_measured_figure():
    figures = [line for line in README.splitlines() if re.search(r"\d[\d.]*\s?(ms|s|MB)\b", line)]
    assert figures == []


def test_ci_runs_the_documented_test_commands():
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    runs = re.findall(r"^\s*- run: (.*)$", workflow, re.M)
    commands = [run for run in runs if "pip install" not in run]
    assert len(commands) == 2
    assert set(commands) <= set(README.splitlines())
