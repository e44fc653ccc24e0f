"""Command-line front end.

    probdigit decode    --p geometric:1/2 --x 3/10 --depth 4
    probdigit eval-g    --p geometric:1/2 --o geometric:2/3 --phi pairswap --x 0
    probdigit integral  --p geometric:1/2 --o geometric:2/3 --phi pairswap
    probdigit sample    --count 1000 --out grid.csv
    probdigit selfcheck

`integral` prints the exact closed form, so its `tail_bound` is always 0.
Each command takes the flags it reads, and all take `--p`, `--o`, `--phi` and
`--config FILE`, whose keys are `configio.CONFIG_KEYS`; flags override it.

Exit codes: 0 success, 1 invariant failure (selfcheck), 2 usage or domain
error, 3 numerical self-check failure (closed form outside the bracket),
4 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
from fractions import Fraction

from . import configio, numeric
from .bijections import verify_bijection
from .core import DigitSeq, cylinder, decode, evaluate
from .derivative import cylinder_derivative, derivative_ratio, digit_counts
from .errors import DomainError, ProbDigitError
from .remap import (
    DigitRemap,
    closed_form_integral,
    integral_bracket,
    monotonicity_witnesses,
)

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_USAGE = 2
EXIT_SELFCHECK = 3
EXIT_IO = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # `main` prints it as one `error:` line, without the usage synopsis
        raise ValueError(message)


_SETTING_HELP = {  # the flags named like config keys, and --config
    "p": "source distribution descriptor",
    "o": "target distribution descriptor",
    "phi": "digit map descriptor",
    "depth": "expansion depth K",
    "seed": "seed for float-path sampling",
    "out": "output file (default: stdout)",
    "config": "key=value config file; flags override it",
}


@functools.cache  # parse_args leaves the parser as it was, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="probdigit",
        description="Digit expansions driven by probability distributions, and digit-remapped functions of [0,1).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, summary: str, *settings: str) -> argparse.ArgumentParser:
        command = sub.add_parser(name, help=summary)
        for key in ("p", "o", "phi", *settings, "config"):
            command.add_argument(f"--{key}", help=_SETTING_HELP[key])
        return command

    for name, summary in (("decode", "digits of a point of [0,1)"), ("eval-g", "remapped value of a point")):
        p_point = add_command(name, summary, "depth")
        p_point.add_argument("--x", required=True, help="point, as a/b or an exact decimal")

    p_int = add_command("integral", "closed form, rigorous bracket and Monte Carlo", "seed")
    p_int.add_argument("--samples", type=int, default=1_000_000, help="Monte Carlo sample count")
    p_int.add_argument("--bracket-depth", type=int, default=8, help="cylinder partition depth")

    p_sample = add_command("sample", "CSV grid of (x, value, log derivative)", "depth", "out")
    p_sample.add_argument("--count", type=int, required=True, help="number of grid points")

    add_command("selfcheck", "run the invariant suite at small scale", "seed")
    return parser


def _config(args: argparse.Namespace) -> configio.RunConfig:
    overrides = {k: getattr(args, k, None) for k in configio.CONFIG_KEYS}  # each command has some
    return configio.build_run_config(args.config, overrides)


def _remap(cfg: configio.RunConfig) -> DigitRemap:
    return DigitRemap(cfg.source, cfg.target, cfg.digit_map)


def _format(what: str, template: str, *values) -> str:
    """template.format(*values), or DomainError naming `what` when a value
    has more digits than the interpreter converts to a string."""
    try:
        return template.format(*values)
    except ValueError:  # past the interpreter's limit on int-to-str digits
        raise DomainError(f"{what} has over {sys.get_int_max_str_digits()} digits to print") from None


def _cmd_decode(args: argparse.Namespace) -> int:
    cfg = _config(args)
    x = configio.parse_rational(args.x)
    seq = decode(cfg.source, x, cfg.depth)
    cyl = cylinder(cfg.source, seq)
    digits = " ".join(str(d) for d in seq)
    print(_format("the cylinder", "{}\ncylinder=[{}, {}) width={}", digits, cyl.lo, cyl.hi, cyl.width))
    return EXIT_OK


def _cmd_eval_g(args: argparse.Namespace) -> int:
    cfg = _config(args)
    x = configio.parse_rational(args.x)
    result = _remap(cfg).apply(x, cfg.depth)
    print(_format("y", "y={} err<={}", result.value, result.error_bound))
    return EXIT_OK


def _cmd_integral(args: argparse.Namespace) -> int:
    cfg = _config(args)
    remap = _remap(cfg)
    closed = closed_form_integral(remap)
    closed_line = _format("the closed form", "closed={} tail_bound={}", closed.value, closed.tail_bound)
    try:
        bracket = integral_bracket(remap, args.bracket_depth)
    except (DomainError, ValueError) as exc:
        raise DomainError(f"--bracket-depth: {exc}") from None
    mc = numeric.monte_carlo_integral(remap, samples=args.samples, seed=cfg.seed)
    print(closed_line)
    # endpoints are exact rationals internally (and the self-check below
    # compares exactly); print floats because depth-8 denominators are huge
    print(
        f"bracket=[{float(bracket.lower)!r}, {float(bracket.upper)!r}]"
        f" depth={args.bracket_depth} width={float(bracket.width):.3e}"
    )
    print(
        f"monte_carlo={mc.mean!r} sigma={mc.std_error!r}"
        f" samples={mc.samples} seed={mc.seed}"
    )
    if closed.hi < bracket.lower or closed.lo > bracket.upper:
        print("self-check failed: closed form lies outside the bracket", file=sys.stderr)
        return EXIT_SELFCHECK
    return EXIT_OK


def _cmd_sample(args: argparse.Namespace) -> int:
    cfg = _config(args)
    xs, ys, dlog = numeric.sample_rows(_remap(cfg), args.count, depth=cfg.depth)
    lines = ["x,y,dlog"]
    lines.extend(
        f"{float(x)!r},{float(y)!r},{float(d)!r}" for x, y, d in zip(xs, ys, dlog)
    )
    text = "\n".join(lines) + "\n"
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _selfcheck_rows(cfg: configio.RunConfig):
    """(name, callable) pairs; a callable may return a note string."""
    rng = random.Random(cfg.seed)

    def random_seq(max_len=10, max_digit=9, min_len=0) -> DigitSeq:
        return DigitSeq(
            tuple(rng.randint(1, max_digit) for _ in range(rng.randint(min_len, max_len)))
        )

    def check_bijectivity():
        verify_bijection(cfg.digit_map)

    def check_roundtrip():
        for pv in (cfg.source, cfg.target):
            for _ in range(200):
                seq = random_seq()
                if not seq.digits:
                    continue
                value = evaluate(pv, seq).value
                assert decode(pv, value, len(seq)) == seq, f"roundtrip broke at {seq}"

    def check_order():
        for _ in range(200):
            a, b = random_seq(min_len=1), random_seq(min_len=1)
            order = a.compare(b)
            if order == 0:
                continue
            va = evaluate(cfg.source, a).value
            vb = evaluate(cfg.source, b).value
            assert (va < vb) == (order < 0) and va != vb, f"order broke at {a} vs {b}"

    def check_non_monotonic():
        remap = _remap(cfg)
        if cfg.digit_map.is_identity():
            return "skipped (identity digit map)"
        found = monotonicity_witnesses(remap)
        assert found.increasing and found.decreasing, "missing an order witness"

    def check_functional_equation():
        remap = _remap(cfg)
        for _ in range(100):
            seq = random_seq(min_len=1)
            k = rng.randint(1, len(seq))
            res = remap.residual(seq, k)
            assert res == 0, f"residual {res} at {seq}, k={k}"

    def check_factored_derivative():
        remap = _remap(cfg)
        for _ in range(100):
            seq = random_seq(min_len=1)
            deriv = cylinder_derivative(remap, seq)
            product = Fraction(1)
            for digit, count in digit_counts(seq, len(seq)).counts.items():
                product *= derivative_ratio(remap, digit) ** count
            src = cylinder(cfg.source, seq)
            img = cylinder(cfg.target, remap.image_digits(seq))
            assert deriv == product == img.width / src.width, f"derivative broke at {seq}"

    def check_integral_bracket():
        remap = _remap(cfg)
        closed = closed_form_integral(remap)
        bracket = integral_bracket(remap, 8)
        assert bracket.contains(closed.value), "closed form escaped the bracket"
        return (
            f"closed={closed.value}"
            f" bracket=[{float(bracket.lower)!r}, {float(bracket.upper)!r}]"
        )

    return [
        ("digit-map-bijectivity", check_bijectivity),
        ("roundtrip", check_roundtrip),
        ("order-isomorphism", check_order),
        ("non-monotonicity", check_non_monotonic),
        ("functional-equation", check_functional_equation),
        ("factored-derivative", check_factored_derivative),
        ("integral-bracket", check_integral_bracket),
    ]


def _cmd_selfcheck(args: argparse.Namespace) -> int:
    cfg = _config(args)
    first_failure = None
    for name, check in _selfcheck_rows(cfg):
        try:
            note = check()
        except (AssertionError, ProbDigitError) as exc:
            print(f"FAIL  {name:24s} {type(exc).__name__}: {exc}")
            first_failure = first_failure or name
            continue
        print(f"ok    {name:24s} {note or ''}".rstrip())
    if first_failure:
        print(f"selfcheck: failed at {first_failure}", file=sys.stderr)
        return EXIT_INVARIANT
    print("selfcheck: all invariants hold")
    return EXIT_OK


_HANDLERS = {
    "decode": _cmd_decode,
    "eval-g": _cmd_eval_g,
    "integral": _cmd_integral,
    "sample": _cmd_sample,
    "selfcheck": _cmd_selfcheck,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _HANDLERS[args.command](args)
    except SystemExit as exc:  # --help, once printed; `_Parser` raises usage errors as ValueError
        return EXIT_USAGE if exc.code else EXIT_OK
    except (ProbDigitError, ValueError, ZeroDivisionError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        print(f"error: {str(exc) or 'not enough memory'}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
