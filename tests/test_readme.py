"""The README agrees with the program.

Each ``tglab ...`` line of the README's "Examples:" block runs, as
``python -m tglab.cli ...`` from the repository root, to a verdict (exit 0
or 1) with a report on stdout and nothing on stderr.  The flags table
lists exactly the command and default of each flag of `tglab.cli.FLAGS`,
and the ranges table exactly the flags that have a range, with it.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from tglab import cli

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def example_lines():
    block = README.split("Examples:\n\n```sh\n", 1)[1].split("```", 1)[0]
    return [line.split() for line in block.splitlines() if line.startswith("tglab ")]


def table_rows(header):
    """The cells of each row of the README table under ``header``."""
    lines = README.split(header + "\n", 1)[1].splitlines()[1:]
    rows = []
    for line in lines:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def test_readme_has_examples():
    assert len(example_lines()) >= 4


@pytest.mark.parametrize("argv", example_lines(), ids=" ".join)
def test_readme_example_runs(argv):
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-m", "tglab.cli", *argv[1:]], cwd=ROOT,
                          capture_output=True, text=True, env=env)
    assert proc.returncode in (0, 1), proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.strip()


def default_text(flag):
    """A default as the README writes it; a flag without a value default
    (--beta) names it in its help, "(default zeros)"."""
    if flag.default is not None:
        return str(flag.default)
    return re.search(r"\(default (\w+)\)", flag.kwargs["help"]).group(1)


def test_flags_table_lists_cli_flags():
    listed = set()
    commands = []
    for command, flags in table_rows("| command | flags |"):
        command = command.strip("`")
        commands.append(command)
        found = re.findall(r"`(--[\w-]+)[^`]*` \(default `?([^`)]+)`?\)", flags)
        assert found or flags == "none", command
        listed |= {(command, name, default) for name, default in found}
    assert sorted(commands) == sorted(cli.COMMANDS)
    expected = {(f.command, name, default_text(f)) for name, f in cli.FLAGS.items()}
    assert listed == expected


def test_ranges_table_lists_cli_ranges():
    rows = table_rows("| flag | range | slowest spec at the maximum |")
    listed = {flag.strip("`"): span for flag, span, _ in rows}
    expected = {name: f"{f.range[0]}..{f.range[1]}" for name, f in cli.FLAGS.items() if f.range}
    assert listed == expected
