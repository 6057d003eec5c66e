"""Keep the README's examples true.

Each ```python block runs as written; a `print(...)  # text` line must
print a prefix of its comment. Each `pathsum ...` line of the "Command
line" block runs through cli.main from the repo root and exits 0.
"""

from __future__ import annotations

import io
import re
import shlex
import sys
import tokenize
from pathlib import Path

import pytest

from pathsum.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
PYTHON_BLOCKS = re.findall(r"```python\n(.*?)```", README, re.DOTALL)
COMMAND_BLOCK = re.search(r"## Command line\n+```sh\n(.*?)```", README, re.DOTALL).group(1)
COMMANDS = [line for line in COMMAND_BLOCK.splitlines() if line.startswith("pathsum ")]


def _comments(source: str) -> dict[int, str]:
    """The text of each line's trailing comment, by line number."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return {tok.start[0]: tok.string[1:].strip() for tok in tokens if tok.type == tokenize.COMMENT}


def test_readme_has_examples():
    assert len(PYTHON_BLOCKS) >= 2 and len(COMMANDS) >= 10


@pytest.mark.parametrize("index", range(len(PYTHON_BLOCKS)))
def test_python_block_prints_what_its_comments_say(index):
    source = PYTHON_BLOCKS[index]
    printed: dict[int, str] = {}

    def record(*args, sep=" ", end="\n"):
        printed[sys._getframe(1).f_lineno] = sep.join(map(str, args))

    exec(compile(source, f"README.md python block {index}", "exec"), {"print": record})
    lines = source.splitlines()
    checked = 0
    for number, comment in _comments(source).items():
        if lines[number - 1].lstrip().startswith("print("):
            assert number in printed, lines[number - 1]
            assert comment.startswith(printed[number]), (printed[number], comment)
            checked += 1
    assert checked


@pytest.mark.parametrize("command", COMMANDS)
def test_command_line_example_exits_0(command, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    argv = shlex.split(command, comments=True)[1:]
    assert main(argv) == 0, capsys.readouterr().err
