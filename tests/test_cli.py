"""End-to-end exercises of the command-line surface and its exit codes."""

import json

import pytest

from probdigit.cli import main

SWAP = ["--p", "geometric:1/2", "--o", "geometric:2/3", "--phi", "pairswap"]
IDENT = ["--p", "geometric:1/2", "--o", "geometric:1/2", "--phi", "identity"]


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
        (["--terms", "1000000"], "error: --terms: terms 1000000 exceeds 131073: "),
        (["--terms", "3000"], "error: --terms: the closed form has over 4300 digits to print\n"),
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
        lambda remap, terms=None: ClosedFormIntegral(Fraction(9, 10), Fraction(0)),
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
