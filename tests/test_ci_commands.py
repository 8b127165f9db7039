"""Every ``python -m repro.cli ...`` line the CI workflow and the verify
recipe run must at least parse: a step that dies with ``unrecognized
arguments`` and exit 2 checks nothing."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
SOURCES = (".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md")
_SHELL_STOPS = {"|", ">", ">>", "&", "&&", "||", ";", "then"}


def cli_commands(text: str) -> list[list[str]]:
    """The argv of each CLI invocation, shell plumbing cut off."""
    commands = []
    for line in re.sub(r"\\\n\s*", " ", text).splitlines():
        found = re.search(r"python3? -m repro\.cli\s+(.*)", line)
        if not found:
            continue
        argv = []
        for token in shlex.split(found.group(1), comments=True):
            if token in _SHELL_STOPS:
                break
            argv.append(token.rstrip(";"))
            if token.endswith(";"):
                break
        commands.append(argv)
    return commands


COMMANDS = [
    pytest.param(argv, id=f"{source}:{' '.join(argv[:3])}#{index}")
    for source in SOURCES
    for index, argv in enumerate(cli_commands((ROOT / source).read_text("utf-8")))
]


def test_both_sources_run_the_cli():
    for source in SOURCES:
        assert len(cli_commands((ROOT / source).read_text("utf-8"))) >= 8, source


@pytest.mark.parametrize("argv", COMMANDS)
def test_command_line_parses(argv, capsys):
    try:
        build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"{' '.join(argv)}: {capsys.readouterr().err.splitlines()[-1]}")
