"""The README's examples run as written."""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from instab.cli import build_parser, run

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def fenced_block(after: str, lang: str) -> str:
    """The first ```lang block that follows the line ``after``."""
    match = re.search(rf"^{re.escape(after)}\n+```{lang}\n(.*?)^```", README,
                      re.MULTILINE | re.DOTALL)
    assert match, f"no ```{lang} block after {after!r} in README.md"
    return match.group(1)


EXAMPLES = [line for line in fenced_block("Examples:", "sh").splitlines()
            if line.startswith("instab ")]


def test_examples_block_is_found():
    assert len(EXAMPLES) == 6


@pytest.mark.parametrize("line", EXAMPLES, ids=lambda line: line.split()[1])
def test_readme_example_exits_zero(capsys, line):
    code = run(shlex.split(line)[1:])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out


def test_quick_start_runs(capsys):
    exec(compile(fenced_block("## Quick start (API)", "python"), "README.md", "exec"), {})
    assert "0.22315363431474" in capsys.readouterr().out


# pip's flag, and the abbreviation the README cites as a usage error
NOT_INSTAB_FLAGS = {"--no-build-isolation", "--lambda-c"}


def test_every_readme_flag_exists():
    # a flag that leaves the parser must leave the README too
    parser = build_parser()
    [subparsers] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    declared = {flag for p in (parser, *subparsers.choices.values())
                for flag in p._option_string_actions}
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", README))
    assert NOT_INSTAB_FLAGS <= named
    assert named - NOT_INSTAB_FLAGS - declared == set()
