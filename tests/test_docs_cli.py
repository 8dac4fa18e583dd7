"""Every documented ``dwarn-sim`` command line parses.

Collects each line starting ``dwarn-sim`` inside a fenced block of
README.md and docs/*.md, after joining lines that end in ``\\`` and
stripping a leading ``$ ``, a trailing ``# comment`` and a trailing ``&``,
and parses it with the real ``build_parser()``. A renamed or removed
option then fails here instead of in a reader's shell.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
FENCE = re.compile(r"^\s*(```|~~~)")


def documented_commands() -> list[tuple[str, list[str]]]:
    """``(file:line, argv after "dwarn-sim")`` for every fenced command."""
    found = []
    for path in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]:
        in_fence = False
        logical, start = "", 0
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if FENCE.match(line):
                in_fence, logical = not in_fence, ""
                continue
            if not in_fence:
                continue
            if not logical:
                start = lineno
            stripped = line.strip()
            if stripped.endswith("\\"):
                logical += stripped[:-1] + " "
                continue
            logical, text = "", (logical + stripped).removeprefix("$ ")
            if not text.startswith("dwarn-sim "):
                continue
            argv = shlex.split(text, comments=True)
            if argv[-1] == "&":
                argv.pop()
            found.append((f"{path.relative_to(ROOT)}:{start}", argv[1:]))
    return found


COMMANDS = documented_commands()


def test_docs_hold_commands():
    assert len(COMMANDS) >= 40, COMMANDS


@pytest.mark.parametrize("argv", [argv for _, argv in COMMANDS],
                         ids=[where for where, _ in COMMANDS])
def test_documented_command_parses(argv, capsys):
    try:
        build_parser().parse_args(argv)
    except SystemExit as exc:
        error = capsys.readouterr().err.strip().splitlines()[-1:]
        pytest.fail(f"dwarn-sim {shlex.join(argv)}: {error} (exit {exc.code})")
