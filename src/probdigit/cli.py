"""Command-line front end.

    probdigit decode    --p geometric:1/2 --x 3/10 --depth 4
    probdigit eval-g    --p geometric:1/2 --o geometric:2/3 --phi pairswap --x 0
    probdigit integral  --p geometric:1/2 --o geometric:2/3 --phi pairswap
    probdigit sample    --count 1000 --out grid.csv
    probdigit selfcheck

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


@functools.cache  # parse_args leaves the parser as it was, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="probdigit",
        description="Digit expansions driven by probability distributions, and digit-remapped functions of [0,1).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--p", help="source distribution descriptor")
        p.add_argument("--o", help="target distribution descriptor")
        p.add_argument("--phi", help="digit map descriptor")
        p.add_argument("--depth", help="expansion depth K")
        p.add_argument("--terms", help="series truncation length")
        p.add_argument("--seed", help="seed for float-path sampling")
        p.add_argument("--out", help="output file (default: stdout)")
        p.add_argument("--config", help="key=value config file; flags override it")

    p_decode = sub.add_parser("decode", help="digits of a point of [0,1)")
    add_common(p_decode)
    p_decode.add_argument("--x", required=True, help="point, as a/b or an exact decimal")

    p_eval = sub.add_parser("eval-g", help="remapped value of a point")
    add_common(p_eval)
    p_eval.add_argument("--x", required=True, help="point, as a/b or an exact decimal")

    p_int = sub.add_parser("integral", help="closed form, rigorous bracket and Monte Carlo")
    add_common(p_int)
    p_int.add_argument("--samples", type=int, default=1_000_000, help="Monte Carlo sample count")
    p_int.add_argument("--bracket-depth", type=int, default=8, help="cylinder partition depth")

    p_sample = sub.add_parser("sample", help="CSV grid of (x, value, log derivative)")
    add_common(p_sample)
    p_sample.add_argument("--count", type=int, required=True, help="number of grid points")

    p_check = sub.add_parser("selfcheck", help="run the invariant suite at small scale")
    add_common(p_check)
    return parser


def _overrides(args: argparse.Namespace) -> dict[str, str | None]:
    keys = ("p", "o", "phi", "depth", "terms", "seed", "out")
    return {k: getattr(args, k, None) for k in keys}


def _config(args: argparse.Namespace) -> configio.RunConfig:
    return configio.build_run_config(getattr(args, "config", None), _overrides(args))


def _remap(cfg: configio.RunConfig) -> DigitRemap:
    return DigitRemap(cfg.source, cfg.target, cfg.digit_map)


def _cmd_decode(args: argparse.Namespace) -> int:
    cfg = _config(args)
    x = configio.parse_rational(args.x)
    seq = decode(cfg.source, x, cfg.depth)
    cyl = cylinder(cfg.source, seq)
    print(" ".join(str(d) for d in seq))
    print(f"cylinder=[{cyl.lo}, {cyl.hi}) width={cyl.width}")
    return EXIT_OK


def _cmd_eval_g(args: argparse.Namespace) -> int:
    cfg = _config(args)
    x = configio.parse_rational(args.x)
    result = _remap(cfg).apply(x, cfg.depth)
    print(f"y={result.value} err<={result.error_bound}")
    return EXIT_OK


def _cmd_integral(args: argparse.Namespace) -> int:
    cfg = _config(args)
    remap = _remap(cfg)
    flag = "" if cfg.terms is None else "--terms: "
    try:
        closed = closed_form_integral(remap, terms=cfg.terms)
    except DomainError as exc:
        raise DomainError(f"{flag}{exc}") from None
    try:
        closed_line = f"closed={closed.value} tail_bound={closed.tail_bound}"
    except ValueError:  # past the interpreter's limit on int-to-str digits
        digits = sys.get_int_max_str_digits()
        raise DomainError(f"{flag}the closed form has over {digits} digits to print") from None
    try:
        bracket = integral_bracket(remap, args.bracket_depth)
    except DomainError as exc:
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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    handler = _HANDLERS[args.command]
    try:
        return handler(args)
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
