"""The README's examples run as written."""

import re
import shlex
from pathlib import Path

import pytest

from instab.cli import run

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
