"""The README's command-line examples print exactly what it shows under
them, and its library tour gives the values its comments state."""

import ast
import shlex
from fractions import Fraction as F
from pathlib import Path

import pytest

from probdigit import ClosedFormIntegral, DigitSeq, Evaluation
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


# each expression of the library tour, in order, and the check of what its comment states
TOUR_STATES = {
    "decode(half, F(3, 10), 4)": lambda v: v == DigitSeq.of(1, 2, 1, 3),
    "evaluate(half, DigitSeq.of(1, 2))": lambda v: v == Evaluation(F(1, 4), F(1, 8)),
    "cylinder(half, DigitSeq.of(2))": lambda v: (v.lo, v.hi, v.width) == (F(1, 2), F(3, 4), F(1, 4)),
    "remap.apply(0, depth=8)": lambda v: v.value == F(3, 7),
    "remap.apply_inverse(F(3, 7), 8)": lambda v: v.value == 0,
    "remap.residual(DigitSeq.of(1, 2, 1, 3), 2)": lambda v: v == 0,
    "closed_form_integral(remap)": lambda v: v == ClosedFormIntegral(F(11, 25), F(0)),
    "integral_bracket(remap, depth=8)": lambda v: v.lower <= F(11, 25) <= v.upper,
    "derivative_ratio(remap, 2)": lambda v: v == F(4, 3),
    "expected_log_ratio(remap).value": lambda v: str(v).startswith("-0.2529"),
}


def test_readme_library_tour_gives_what_its_comments_state():
    text = README.read_text(encoding="utf-8")
    block = text.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace, values = {}, {}
    for statement in ast.parse(block).body:
        if isinstance(statement, ast.Expr):
            code = compile(ast.Expression(statement.value), "README.md", "eval")
            values[ast.unparse(statement.value)] = eval(code, namespace)
        else:
            exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
    assert list(values) == list(TOUR_STATES)
    for source, holds in TOUR_STATES.items():
        assert holds(values[source]), (source, values[source])
