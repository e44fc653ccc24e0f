"""End-to-end exercises of the command-line surface and its exit codes."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from probdigit.cli import main
from test_configio import descriptors

SWAP = ["--p", "geometric:1/2", "--o", "geometric:2/3", "--phi", "pairswap"]
IDENT = ["--p", "geometric:1/2", "--o", "geometric:1/2", "--phi", "identity"]
# sixty head masses with 91-digit denominators, then a halving tail
HUGE_DENOMINATORS = "mixed:[" + ",".join(f"1/{10**90 + 2 * k + 1}" for k in range(60)) + "]:1/2"


MIXED_SPELLINGS = "mixed:[<head>]:<tail_q> or mixed head=[<head>] tail_q=<tail_q>"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decode_prints_digits_and_cylinder(capsys):
    code, out, _ = run(capsys, ["decode", "--p", "geometric:1/2", "--x", "3/10", "--depth", "4"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "1 2 1 3"
    assert lines[1] == "cylinder=[19/64, 39/128) width=1/128"


def test_decode_accepts_exact_decimals(capsys):
    code, out, _ = run(capsys, ["decode", "--p", "geometric:1/2", "--x", "0.3", "--depth", "4"])
    assert code == 0
    assert out.splitlines()[0] == "1 2 1 3"


def test_decode_zero(capsys):
    code, out, _ = run(capsys, ["decode", "--p", "geometric:1/2", "--x", "0", "--depth", "3"])
    assert code == 0
    assert out.splitlines()[0] == "1 1 1"


def test_decode_domain_error_exits_2(capsys):
    code, _, err = run(capsys, ["decode", "--p", "geometric:1/2", "--x", "1"])
    assert code == 2
    assert "[0, 1)" in err


def test_eval_g_worked_example(capsys):
    code, out, _ = run(capsys, ["eval-g", *SWAP, "--x", "0", "--depth", "8"])
    assert code == 0
    assert out.startswith("y=3/7 err<=")


def test_eval_g_identity(capsys):
    code, out, _ = run(capsys, ["eval-g", *IDENT, "--x", "2/5"])
    assert code == 0
    assert out.strip() == "y=2/5 err<=0"


def test_eval_g_malformed_phi_exits_2(capsys):
    code, _, err = run(capsys, ["eval-g", *SWAP[:4], "--phi", "table:[2,x]", "--x", "0"])
    assert code == 2
    assert "error:" in err


def test_unknown_flag_exits_2(capsys):
    code, _, _ = run(capsys, ["decode", "--nonsense", "1"])
    assert code == 2


def test_retired_terms_flag_is_an_unknown_flag(capsys):
    code, out, err = run(capsys, ["integral", "--terms", "5"])
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --terms 5" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["decode", "--x", "0", "--depth", "0"], "--depth: expected a positive integer, got '0'"),
        (["decode", "--x", "0", "--depth", "x"], "--depth: expected a positive integer, got 'x'"),
        (["integral", "--seed", "x"], "--seed: expected a non-negative integer, got 'x'"),
        (["integral", "--seed", "-1"], "--seed: expected a non-negative integer, got '-1'"),
        (["selfcheck", "--seed", "-1"], "--seed: expected a non-negative integer, got '-1'"),
        (["sample", "--count", "0"], "count must be at least 1"),
        (["integral", "--bracket-depth", "0"], "--bracket-depth: depth must be at least 1"),
        (["decode", "--x", "0", "--p", "geometric q"], "geometric takes geometric:<q> or geometric q=<q>, got 'geometric q'"),
        (
            ["decode", "--x", "0", "--p", "mixed:[1/3]"],
            "mixed takes mixed:[<head>]:<tail_q> or mixed head=[<head>] tail_q=<tail_q>, got 'mixed:[1/3]'",
        ),
        (["decode", "--x", "0", "--phi", "table:[]"], "permutation table must not be empty"),
    ],
    ids=[
        "depth-0",
        "depth-x",
        "seed-x",
        "seed-negative",
        "selfcheck-seed-negative",
        "count-0",
        "bracket-depth-0",
        "geometric-without-q",
        "mixed-without-tail",
        "empty-table",
    ],
)
def test_bad_input_exits_2_with_one_error_line(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


UNREAD_FLAGS = [
    ["decode", "--x", "0", "--out", "F"],
    ["decode", "--x", "0", "--seed", "1"],
    ["eval-g", "--x", "0", "--seed", "1"],
    ["integral", "--depth", "3"],
    ["integral", "--out", "F"],
    ["sample", "--count", "2", "--seed", "1"],
    ["selfcheck", "--depth", "3"],
    ["selfcheck", "--out", "F"],
]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["integral", "--terms", "5"], "unrecognized arguments: --terms 5"),
        (["decode", "--x"], "argument --x: expected one argument"),
        ([], "the following arguments are required: command"),
        (["integral", "--samples", "many"], "argument --samples: invalid int value: 'many'"),
        (["decode", "--x", "1e-10000000", "--depth", "2"], "'1e-10000000' has over 4300 digits"),
        (["decode", "--x", "0", "--p", "mixed:1/2"], f"mixed takes {MIXED_SPELLINGS}, got 'mixed:1/2'"),
        # the cylinder and y of 1/3 have over 4300 digits at these depths: refused before any line prints
        (["decode", "--x", "1/3", "--depth", "8000"], "the cylinder has over 4300 digits to print"),
        (["eval-g", "--x", "1/3", "--depth", "20000"], "y has over 4300 digits to print"),
        # each command takes only the flags it reads
        *((argv, f"unrecognized arguments: {' '.join(argv[-2:])}") for argv in UNREAD_FLAGS),
    ],
)
def test_refusals_print_one_error_line_and_nothing_else(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [["--help"], ["decode", "--help"], ["sample", "--help"]])
def test_help_exits_0(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0
    assert out.startswith("usage: probdigit")
    assert err == ""


def test_a_nonzero_system_exit_is_not_success(capsys, monkeypatch):
    from probdigit import cli

    def bail(args):
        raise SystemExit(1)

    monkeypatch.setitem(cli._HANDLERS, "selfcheck", bail)
    assert main(["selfcheck"]) == 2


def test_decode_refuses_an_astronomical_digit_promptly(run_bounded):
    q = "99999999999999999999/100000000000000000000"
    done = run_bounded(
        "-m", "probdigit.cli", "decode", "--p", f"geometric q={q}", "--x", "1/2", "--depth", "2"
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: digit exceeds ")
    assert done.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "argv", [["integral", "--samples", "100000000000"], ["sample", "--count", "100000000000"]]
)
def test_impossible_size_exits_2_with_one_line(run_bounded, argv):
    done = run_bounded("-m", "probdigit.cli", *argv)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: ")
    assert done.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--bracket-depth", "100000"], "error: --bracket-depth: depth 100000 exceeds 2570: "),
        # no flag to name here: the exact closed form has too many digits to print
        (["--samples", "1000", "--p", HUGE_DENOMINATORS], "error: the closed form has over 4300 digits to print\n"),
    ],
)
def test_oversized_exact_work_exits_2_naming_the_flag(run_bounded, argv, message):
    done = run_bounded("-m", "probdigit.cli", "integral", *argv)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith(message)
    assert done.stderr.count("\n") == 1


def test_one_process_prints_what_fresh_processes_print(run_bounded):
    session = [
        ["decode", "--nonsense", "1"],
        ["decode", "--p", "geometric:1/2", "--x", "3/10", "--depth", "4"],
        ["integral", *SWAP, "--samples", "2000", "--seed", "5", "--bracket-depth", "3"],
    ]
    script = (
        "import contextlib, io, json, sys\n"
        "from probdigit.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        code = main(argv)\n"
        "    print(json.dumps([code, out.getvalue(), err.getvalue()]))\n"
    )
    together = run_bounded("-c", script, json.dumps(session))
    assert together.returncode == 0, together.stderr
    calls = [json.loads(line) for line in together.stdout.splitlines()]
    assert [code for code, _, _ in calls] == [2, 0, 0]
    for argv, call in zip(session, calls):
        fresh = run_bounded("-m", "probdigit.cli", *argv)
        assert call == [fresh.returncode, fresh.stdout, fresh.stderr]


def test_integral_identity_reports_half(capsys):
    code, out, _ = run(capsys, ["integral", *IDENT, "--samples", "20000"])
    assert code == 0
    assert "closed=1/2 tail_bound=0" in out
    assert "bracket=[" in out and "monte_carlo=" in out


def test_integral_worked_example(capsys):
    code, out, _ = run(capsys, ["integral", *SWAP, "--samples", "20000", "--seed", "5"])
    assert code == 0
    assert "closed=11/25 tail_bound=0" in out


def test_integral_self_check_failure_exits_3(capsys, monkeypatch):
    import probdigit.cli as cli
    from probdigit.remap import ClosedFormIntegral
    from fractions import Fraction

    monkeypatch.setattr(
        cli,
        "closed_form_integral",
        lambda remap: ClosedFormIntegral(Fraction(9, 10), Fraction(0)),
    )
    code, _, err = run(capsys, ["integral", *SWAP, "--samples", "1000"])
    assert code == 3
    assert "outside the bracket" in err


def test_integral_rejects_zero_samples(capsys):
    code, out, err = run(capsys, ["integral", *SWAP, "--samples", "0"])
    assert code == 2
    assert out == ""
    assert err == "error: samples must be at least 2\n"


def test_integral_rejects_one_sample(capsys):
    code, out, err = run(capsys, ["integral", *SWAP, "--samples", "1"])
    assert code == 2
    assert "nan" not in out
    assert err == "error: samples must be at least 2\n"


def test_sample_identity_writes_grid(capsys, tmp_path):
    out_path = tmp_path / "grid.csv"
    code, _, _ = run(capsys, ["sample", *IDENT, "--count", "4", "--out", str(out_path)])
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "x,y,dlog"
    assert len(lines) == 5
    for line in lines[1:]:
        x, y, _ = line.split(",")
        assert float(x) == float(y)


def test_sample_is_byte_identical_across_runs(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run(capsys, ["sample", *SWAP, "--count", "100", "--out", str(path)])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_sample_values_stay_in_unit_interval(capsys):
    code, out, _ = run(capsys, ["sample", *SWAP, "--count", "200"])
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 200
    assert all(0.0 <= float(r.split(",")[1]) < 1.0 for r in rows)


def test_sample_io_error_exits_4(capsys, tmp_path):
    code, _, err = run(capsys, ["sample", *SWAP, "--count", "4", "--out", str(tmp_path)])
    assert code == 4
    assert "i/o error" in err


def test_selfcheck_default_config_passes(capsys):
    code, out, _ = run(capsys, ["selfcheck"])
    assert code == 0
    for name in (
        "digit-map-bijectivity",
        "roundtrip",
        "order-isomorphism",
        "non-monotonicity",
        "functional-equation",
        "factored-derivative",
        "integral-bracket",
    ):
        assert f"ok    {name}" in out
    assert "all invariants hold" in out


def test_selfcheck_identity_reports_half(capsys):
    code, out, _ = run(capsys, ["selfcheck", *IDENT])
    assert code == 0
    assert "closed=1/2" in out
    assert "skipped (identity digit map)" in out


def test_selfcheck_summarizes_a_closed_form_too_long_to_print(run_bounded):
    done = run_bounded("-m", "probdigit.cli", "selfcheck", "--p", HUGE_DENOMINATORS)
    assert done.returncode == 0, done.stderr
    rows = done.stdout.splitlines()
    assert len(rows) == 8 and all(row.startswith("ok    ") for row in rows[:7])
    assert rows[6].startswith("ok    integral-bracket         closed≈0.99999999998")
    assert rows[7] == "selfcheck: all invariants hold"
    assert done.stderr == ""


def test_selfcheck_corrupt_table_exits_1(capsys):
    code, out, err = run(capsys, ["selfcheck", "--phi", "table:[2,2,1]"])
    assert code == 1
    assert "FAIL  digit-map-bijectivity" in out
    assert "collision at 2" in out
    assert "failed at digit-map-bijectivity" in err


def test_selfcheck_finds_witnesses_past_the_fourth_digit(capsys):
    code, out, _ = run(capsys, ["selfcheck", "--phi", "table:[4,3,2,1]"])
    assert code == 0
    assert "ok    non-monotonicity" in out


def test_config_file_drives_commands(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p=geometric q=1/2\no=geometric q=2/3\nphi=pairswap\ndepth=6\n")
    code, out, _ = run(capsys, ["eval-g", "--config", str(cfg), "--x", "0"])
    assert code == 0
    assert out.startswith("y=3/7")


def test_config_file_with_a_terms_line_exits_2_naming_it(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p=geometric q=1/2\nterms=40\n")
    code, out, err = run(capsys, ["eval-g", "--config", str(cfg), "--x", "0"])
    assert code == 2
    assert out == ""
    assert err == f"error: {cfg}:2: unknown key 'terms'; accepted keys: p, o, phi, depth, seed, out\n"


junk = st.text(max_size=8)


def flag_values(largest):
    """A numeric flag's value: mostly an integer up to `largest`, 0 and
    negatives included, else junk text."""
    number = st.integers(-3, largest).map(str)
    return st.one_of(number, number, junk)


points = st.one_of(st.sampled_from(("0", "3/10", "0.3", "1", "-1/2", "1/0", "1e-5")), st.fractions(0, 1).map(str), junk)
DESCRIPTOR_FLAGS = {"--p": ("geometric", "mixed"), "--o": ("geometric", "mixed"), "--phi": ("identity", "pairswap", "table")}
COMMAND_FLAGS = {  # the first flag of each command is always given
    "decode": {"--x": points, "--depth": flag_values(64)},
    "eval-g": {"--x": points, "--depth": flag_values(64)},
    "integral": {"--samples": flag_values(2000), "--bracket-depth": flag_values(64), "--seed": flag_values(2**40)},
    "sample": {"--count": flag_values(200), "--depth": flag_values(64)},
}


@st.composite
def command_lines(draw):
    """A decode, eval-g, integral or sample command line, each flag present
    with probability 1/2, descriptors of the flag's kinds drawn like the
    descriptor fuzz test's, or now and then junk."""
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    argv = [command]
    for flag, kinds in DESCRIPTOR_FLAGS.items():
        if draw(st.booleans()):
            argv += [flag, draw(st.one_of(descriptors(kinds), descriptors(kinds), junk))]
    for i, (flag, values) in enumerate(COMMAND_FLAGS[command].items()):
        if i == 0 or draw(st.booleans()):
            argv += [flag, draw(values)]
    return argv


@settings(max_examples=200, deadline=None)
@given(command_lines())
def test_command_fuzz_succeeds_or_exits_2_with_one_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2), (code, err)
    assert "Traceback" not in err and "nan" not in out
    if code == 2:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
