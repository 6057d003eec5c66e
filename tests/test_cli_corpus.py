"""CLI output pinned byte for byte on a fixed corpus of commands.

cli_corpus.txt holds 241 commands over the shipped circuits, each with
its output and exit code: parse (text and JSON), stats, verify
--exhaustive, decision and sign on every circuit; distribution and
compile (JSON and text) at every input; amplitude at every basis pair;
and three seeded `verify random` runs. The value after "max |error| ="
comes from the dense simulator's float rounding and is masked. To
regenerate the corpus after an intended change of output, from the
repository root:

    PYTHONPATH=src python tests/test_cli_corpus.py > tests/cli_corpus.txt
"""

from __future__ import annotations

import io
import os
import re
import shlex
import sys
from contextlib import redirect_stderr, redirect_stdout
from itertools import product
from pathlib import Path

from pathsum import parse_circuit
from pathsum.cli import main

ROOT = Path(__file__).resolve().parent.parent
CORPUS = Path(__file__).resolve().parent / "cli_corpus.txt"
_ERROR_RE = re.compile(r"max \|error\| = \S+")


def _commands() -> list[list[str]]:
    """The corpus commands, with circuit paths relative to the repository root."""
    commands = []
    for name in sorted(p.name for p in (ROOT / "circuits").glob("*.circ")):
        path = f"circuits/{name}"
        n = parse_circuit((ROOT / path).read_text(encoding="utf-8")).num_qubits
        commands += [
            ["parse", path], ["parse", path, "--format", "json"], ["stats", path],
            ["verify", path, "--exhaustive"], ["decision", path], ["sign", path],
        ]
        inputs = ["".join(bits) for bits in product("01", repeat=n)]
        for a in inputs:
            commands += [
                ["distribution", path, "--in", a],
                ["compile", path, "--in", a],
                ["compile", path, "--in", a, "--format", "text"],
            ]
        commands += [["amplitude", path, "--in", a, "--out", b] for a in inputs for b in inputs]
    for mode in ("z2", "mixed"):
        commands.append(["verify", "random", "--mode", mode, "--trials", "5", "--seed", "3"])
    commands.append(["verify", "random", "--mode", "mixed", "--n", "8", "--gates", "200", "--trials", "20", "--seed", "5"])
    return commands


def _transcript(argv: list[str]) -> str:
    """One corpus entry: the command, its stdout, its stderr (if any) and its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    text = f"$ {shlex.join(argv)}\n{out.getvalue()}"
    if err.getvalue():
        text += f"stderr:\n{err.getvalue()}"
    return _ERROR_RE.sub("max |error| = <masked>", text + f"exit {code}\n")


def _entries(text: str) -> list[str]:
    return ["$ " + entry for entry in re.split(r"^\$ ", text, flags=re.M) if entry]


def test_cli_output_matches_the_corpus(monkeypatch):
    monkeypatch.chdir(ROOT)
    expected = _entries(CORPUS.read_text(encoding="utf-8"))
    assert len(expected) == 241
    assert [entry.splitlines()[0] for entry in expected] == [f"$ {shlex.join(c)}" for c in _commands()]
    changed = [
        (entry, actual)
        for entry in expected
        if (actual := _transcript(shlex.split(entry.splitlines()[0][2:]))) != entry
    ]
    assert not changed, f"{len(changed)} command(s) changed output; first:\n{changed[0][0]}\n-- now --\n{changed[0][1]}"


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.stdout.write("".join(_transcript(argv) for argv in _commands()))
