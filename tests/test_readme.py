"""The README's command-line examples print exactly what it shows under them."""

import shlex
from pathlib import Path

import pytest

from probdigit.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
CHECKED = ("decode", "eval-g", "integral")  # sample writes a file and selfcheck a table, shown in prose


def examples() -> list[tuple[list[str], list[str]]]:
    """(argv, the `# ` lines right under it) for each `probdigit` line of the
    README's shell blocks whose command is in CHECKED."""
    found, in_shell = [], False
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_shell = line == "```sh"
        elif in_shell and line.startswith("probdigit "):
            found.append((shlex.split(line)[1:], []))
        elif in_shell and found and line.startswith("# "):
            found[-1][1].append(line[2:])
    return [(argv, shown) for argv, shown in found if argv[0] in CHECKED]


EXAMPLES = examples()


def test_readme_shows_each_checked_command():
    assert [argv[0] for argv, _ in EXAMPLES] == list(CHECKED)


@pytest.mark.parametrize("argv, shown", EXAMPLES, ids=[argv[0] for argv, _ in EXAMPLES])
def test_readme_example_prints_what_it_shows(capsys, argv, shown):
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == shown
