"""The CLI examples in README.md run verbatim and print what it shows.

Each `$ redundarith ...` line of a ```text block (optionally fed by a
`printf '...' |` pipe) runs through `python -m redundarith.cli`; the
lines after it, up to a blank line, are its stdout followed by its
stderr.  Examples whose output is elided with `...` are skipped.
"""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def readme_examples():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    examples = []
    for block in re.findall(r"```text\n(.*?)```", text, flags=re.S):
        for chunk in block.strip("\n").split("\n\n"):
            command, *shown = chunk.split("\n")
            if command.startswith("$ ") and "redundarith" in command and "..." not in shown:
                examples.append(pytest.param(command[2:], shown, id=command[2:]))
    return examples


EXAMPLES = readme_examples()


def test_readme_has_cli_examples():
    assert len(EXAMPLES) >= 6


@pytest.mark.parametrize("command, shown", EXAMPLES)
def test_readme_cli_example(command, shown):
    words = shlex.split(command)
    stdin = None
    if words[0] == "printf":
        if words[2] != "|":
            raise ValueError(f"unsupported README pipe: {command}")
        stdin = words[1].replace("\\n", "\n")
        words = words[3:]
    if words[0] != "redundarith":
        raise ValueError(f"not a redundarith command: {command}")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("REDUNDARITH_SEED", None)
    proc = subprocess.run(
        [sys.executable, "-m", "redundarith.cli", *words[1:]],
        input=stdin, capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.splitlines()
    assert out == shown[: len(out)]
    assert proc.stderr.splitlines() == shown[len(out) :]
