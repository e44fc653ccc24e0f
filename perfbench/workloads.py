"""The four benchmark workloads: seeded inputs, the timed calls into the
library, and the correctness check of every item.

Each workload object offers

    make(i)          -> inputs of item i (pure function of seed and i)
    run(inputs)      -> raw result; the only part that is timed
    check(inputs, r) -> (ok, digest, info)
    warmup()         -> untimed calls that load code paths and caches

`digest` is a short hash of everything the item produced; the traced run
compares it with the untraced run to prove that tracing changes no output.
All library calls go through module attributes (`core.decode`, not a local
alias), so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
import re
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from probdigit import cli, configio, core, derivative, numeric, remap

# Monte Carlo agreement: |mean - closed form| <= K_SIGMA standard errors.
K_SIGMA = 5.0
MC_SAMPLES = 250_000
LOG_PATHS = 100
LOG_DEPTH = 10_000
CLI_SAMPLES = 20_000
CLI_SAMPLE_COUNT = 10_000


class Family(NamedTuple):
    """Head masses p_1..p_m, then a geometric split of the leftover by q."""

    head: tuple[str, ...]
    q: str

    def exact(self) -> core.ProbVector:
        if not self.head:
            return core.Geometric(Fraction(self.q))
        return core.MixedHeadTail(tuple(Fraction(h) for h in self.head), Fraction(self.q))

    def mass(self, j: int) -> float:
        """Float p_j, computed here so that inputs never depend on the library."""
        m = len(self.head)
        if j <= m:
            return float(Fraction(self.head[j - 1]))
        leftover = 1.0 - sum(float(Fraction(h)) for h in self.head)
        q = float(Fraction(self.q))
        return leftover * (1.0 - q) * q ** (j - m - 1)


FAMILIES = (
    Family((), "1/2"),
    Family((), "2/3"),
    Family((), "1/3"),
    Family((), "3/5"),
    Family((), "3/4"),
    Family(("1/3", "1/5"), "1/2"),
    Family(("1/4",), "2/3"),
    Family(("1/2", "1/8", "1/16"), "3/5"),
    Family(("1/5", "1/5", "1/5"), "1/2"),
)
MAPS = ("pairswap", "table:[2,3,1]", "table:[3,1,4,2]", "table:[2,1,4,3,6,5]", "table:[4,3,2,1]")
DIGIT_CAP = 400  # sampling cap; the law puts under 1e-40 of its mass beyond it


def table_of(descriptor: str) -> list[int]:
    return [int(v) for v in descriptor[len("table:[") : -1].split(",")]


def map_fn(descriptor: str):
    """Plain-Python digit map for the benchmark's own reference values."""
    if descriptor == "pairswap":
        return lambda n: n + 1 if n % 2 else n - 1
    table = table_of(descriptor)
    return lambda n: table[n - 1] if n <= len(table) else n


def item_rng(workload: str, seed: int, i: int) -> random.Random:
    # string seeds are hashed with sha512, so streams do not depend on PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}:{i}")


def draw_digit(rng: random.Random, cdf: list[float]) -> int:
    u = rng.random()
    for j, c in enumerate(cdf, start=1):
        if u < c:
            return j
    return len(cdf)


def cumulative(family: Family) -> list[float]:
    total, out = 0.0, []
    for j in range(1, DIGIT_CAP + 1):
        total += family.mass(j)
        out.append(total)
    return out


def random_rational(rng: random.Random, max_den: int) -> str:
    den = rng.randint(2, max_den)
    return str(Fraction(rng.randint(1, den - 1), den))


def random_family_text(rng: random.Random) -> str:
    """A geometric or mixed descriptor with 1..4 head masses, in either syntax."""
    q = random_rational(rng, 9)
    keyed = rng.random() < 0.5
    if rng.random() < 0.4:
        return f"geometric q={q}" if keyed else f"geometric:{q}"
    m = rng.randint(1, 4)
    den = rng.randint(m + 2, 16)
    head = ",".join(str(Fraction(rng.randint(1, (den - 1) // m), den)) for _ in range(m))
    return f"mixed head=[{head}] tail_q={q}" if keyed else f"mixed:[{head}]:{q}"


def random_map_text(rng: random.Random) -> str:
    """identity, pairswap or a table of size 2..8."""
    kind = rng.choices(("identity", "pairswap", "table"), weights=(1, 2, 3))[0]
    if kind != "table":
        return kind
    size = rng.randint(2, 8)
    table = list(range(1, size + 1))
    rng.shuffle(table)
    return "table:[" + ",".join(map(str, table)) + "]"


def monotone_on_first_four(phi_text: str) -> bool:
    """True for a non-identity table that is monotone on digits 1..4.

    `probdigit selfcheck` looks for order witnesses only among two-digit
    prefixes with digits up to 4, so it calls such a map monotone and exits 1
    (`probdigit selfcheck --phi 'table:[4,3,2,1]'`, or `table:[2,4,5,7,3,1,6]`).
    That false alarm is a library defect; cli-session redraws these maps so
    that its items measure the command line rather than one known failure,
    and counts the redraws in `redrawn_maps` of every run record.
    """
    if not phi_text.startswith("table:") or table_of(phi_text) == sorted(table_of(phi_text)):
        return False
    head = [map_fn(phi_text)(n) for n in range(1, 5)]
    return head == sorted(head) or head == sorted(head, reverse=True)


def _canonical(value):
    # hex() because decimal str() of an int over 4300 digits raises, and
    # depth-32 bracket denominators get that large
    if isinstance(value, Fraction):
        return hex(value.numerator), hex(value.denominator)
    if isinstance(value, tuple):
        return tuple(_canonical(v) for v in value)
    return value


def digest(*parts) -> str:
    return hashlib.sha256(repr(_canonical(parts)).encode()).hexdigest()[:16]


class PointRemap:
    """Exact round trips digits -> x -> y = f(x) -> f^-1(y) -> digits."""

    name = "point-remap"
    KERNEL = "python"  # calibration kernel (calibrate.py)
    DEPTHS = (32, 32, 32, 256)  # fixed 3:1 mix

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.families = [(f.exact(), cumulative(f)) for f in FAMILIES]
        self.maps = [configio.parse_digit_map(text) for text in MAPS]

    def make(self, i: int):
        # (source, target) pairs run in a fixed cycle of 81, coprime to the
        # depth cycle of 4, so every run of a few hundred items weighs each
        # pair and depth alike; the seed picks the maps and the digits.
        rng = item_rng(self.name, self.seed, i)
        pair = i % len(self.families) ** 2
        src, cdf = self.families[pair // len(self.families)]
        tgt = self.families[pair % len(self.families)][0]
        phi = rng.choice(self.maps)
        depth = self.DEPTHS[i % len(self.DEPTHS)]
        digits = tuple(draw_digit(rng, cdf) for _ in range(depth))
        return src, tgt, phi, digits

    def run(self, inputs):
        src, tgt, phi, digits = inputs
        depth = len(digits)
        rm = remap.DigitRemap(src, tgt, phi)
        x = core.evaluate(src, core.DigitSeq(digits)).value
        y = rm.apply(x, depth)
        back = rm.apply_inverse(y.value, depth)
        again = core.decode(src, back.value, depth)
        verdict = derivative.classify_point(rm, again, depth)
        return x, y, back, again, verdict

    def check(self, inputs, result):
        x, y, back, again, verdict = result
        ok = again.digits == inputs[3] and back.value == x
        return ok, digest(y, back, again.digits, verdict), {}

    def warmup(self):
        for i in range(len(self.DEPTHS)):
            self.run(self.make(-1 - i))


class IntegralCertify:
    """Descriptor strings -> remap -> closed form, truncated sum, brackets."""

    name = "integral-certify"
    KERNEL = "python"  # calibration kernel (calibrate.py)

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed

    def make(self, i: int):
        rng = item_rng(self.name, self.seed, i)
        return random_family_text(rng), random_family_text(rng), random_map_text(rng)

    def run(self, inputs):
        p_text, o_text, phi_text = inputs
        rm = remap.DigitRemap(
            configio.parse_distribution(p_text),
            configio.parse_distribution(o_text),
            configio.parse_digit_map(phi_text),
        )
        exact = remap.closed_form_integral(rm)
        truncated = remap.closed_form_integral(rm, exact=False)
        b8 = remap.integral_bracket(rm, 8)
        b32 = remap.integral_bracket(rm, 32)
        log_ratio = derivative.expected_log_ratio(rm)
        return exact, truncated, b8, b32, log_ratio

    def check(self, inputs, result):
        exact, truncated, b8, b32, log_ratio = result
        v = exact.value
        ok = (
            exact.tail_bound == 0
            and b8.contains(v)
            and b32.contains(v)
            and truncated.lo <= v <= truncated.hi
            and math.isfinite(log_ratio.value)
        )
        return ok, digest(result), {}

    def warmup(self):
        for i in range(4):
            self.run(self.make(-1 - i))


class FloatMC:
    """Seeded Monte Carlo integral plus sampled log-derivative paths."""

    name = "float-mc"
    KERNEL = "numpy"  # calibration kernel (calibrate.py)
    POOL = 8  # configurations per run, drawn from the seed

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        rng = item_rng(self.name, seed, -1)
        self.pool = []
        for _ in range(self.POOL):
            src, tgt = rng.choice(FAMILIES), rng.choice(FAMILIES)
            phi_text = rng.choice(MAPS)
            rm = remap.DigitRemap(src.exact(), tgt.exact(), configio.parse_digit_map(phi_text))
            closed = float(remap.closed_form_integral(rm).value)
            self.pool.append((rm, closed, log_ratio_law(src, tgt, map_fn(phi_text))))

    def make(self, i: int, samples: int = MC_SAMPLES):
        rng = item_rng(self.name, self.seed, i)
        return rng.randrange(self.POOL), rng.getrandbits(32), samples

    def run(self, inputs):
        k, seed, samples = inputs
        rm = self.pool[k][0]
        mc = numeric.monte_carlo_integral(rm, samples=samples, seed=seed)
        paths = numeric.log_derivative_paths(rm, paths=LOG_PATHS, depth=LOG_DEPTH, seed=seed)
        return mc, paths

    def check(self, inputs, result):
        mc, paths = result
        _, closed, (mu, sd) = self.pool[inputs[0]]
        z = (mc.mean - closed) / mc.std_error
        # no division by sd: a map that only permutes equal masses has sd = 0,
        # and then the paths' mean must equal mu exactly
        path_dev = abs(float(paths.mean()) - mu)
        ok = abs(z) <= K_SIGMA and path_dev <= K_SIGMA * sd / math.sqrt(LOG_PATHS * LOG_DEPTH)
        return ok, digest(mc, paths.tobytes()), {"z": z}

    def warmup(self):
        self.run(self.make(-1, samples=10_000))


def log_ratio_law(src: Family, tgt: Family, phi) -> tuple[float, float]:
    """Mean and standard deviation of ln(p_tgt(phi(d)) / p_src(d)) for d ~ src."""
    mean = second = 0.0
    for j in range(1, DIGIT_CAP + 1):
        p = src.mass(j)
        if p == 0.0:
            break
        lr = math.log(tgt.mass(phi(j))) - math.log(p)
        mean += p * lr
        second += p * lr * lr
    return mean, math.sqrt(max(second - mean * mean, 0.0))


_CYLINDER = re.compile(r"cylinder=\[(\S+), (\S+)\) width=(\S+)")
_EVAL = re.compile(r"y=(\S+) err<=(\S+)")
_INTEGRAL = re.compile(
    r"closed=(\S+) tail_bound=(\S+)\n"
    r"bracket=\[(\S+), (\S+)\] depth=\d+ width=(\S+)\n"
    r"monte_carlo=(\S+) sigma=(\S+) samples=\d+ seed=\d+\n"
)


def finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text!r}")
    return value


class CliSession:
    """In-process `probdigit` command lines over generated configurations.

    One session is nine calls; each call is one item, so the fast commands
    (decode, eval-g) set the median and selfcheck sets the tail.
    """

    name = "cli-session"
    KERNEL = "python"  # calibration kernel (calibrate.py)
    SCRIPT = ("decode", "eval-g", "decode", "eval-g", "integral", "decode", "eval-g", "sample", "selfcheck")
    POINT_STEPS = tuple(k for k, c in enumerate(SCRIPT) if c in ("decode", "eval-g"))

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.out = scratch / f"sample-{seed}.csv"
        self.redrawn_maps = 0  # maps redrawn by monotone_on_first_four, once per session

    def make(self, i: int):
        session, step = divmod(i, len(self.SCRIPT))
        rng = item_rng(self.name, self.seed, session)
        flags = ["--p", random_family_text(rng), "--o", random_family_text(rng)]
        phi_text = random_map_text(rng)
        while monotone_on_first_four(phi_text):
            phi_text = random_map_text(rng)
            self.redrawn_maps += step == 0
        flags += ["--phi", phi_text]
        run_seed = str(rng.getrandbits(31))
        points = [random_rational(rng, 10**6) for _ in range(6)]
        depths = [str(rng.randint(8, 24)) for _ in range(6)]
        command = self.SCRIPT[step]
        if command in ("decode", "eval-g"):
            k = self.POINT_STEPS.index(step)
            return [command, *flags, "--x", points[k], "--depth", depths[k]]
        if command == "integral":
            return [command, *flags, "--samples", str(CLI_SAMPLES), "--seed", run_seed]
        if command == "sample":
            return [command, *flags, "--count", str(CLI_SAMPLE_COUNT), "--out", str(self.out)]
        return [command, *flags, "--seed", run_seed]

    def run(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def check(self, argv, result):
        code, out, err = result
        info = {}
        text = out
        if code != 0 or "nan" in out.lower():
            return False, digest(result), info
        command = argv[0]
        if command == "decode":
            digits_line, cyl_line = out.splitlines()
            [int(d) for d in digits_line.split()]
            [Fraction(v) for v in _CYLINDER.fullmatch(cyl_line).groups()]
        elif command == "eval-g":
            [Fraction(v) for v in _EVAL.fullmatch(out.strip()).groups()]
        elif command == "integral":
            closed, _, *floats = _INTEGRAL.fullmatch(out).groups()
            mean, sigma = finite(floats[3]), finite(floats[4])
            [finite(v) for v in floats]
            info["z"] = (mean - float(Fraction(closed))) / sigma
        elif command == "sample":
            text = self.out.read_text(encoding="utf-8")
            self.out.unlink()
            rows = text.splitlines()
            if rows[0] != "x,y,dlog" or len(rows) != CLI_SAMPLE_COUNT + 1:
                return False, digest(code, text), info
            [finite(v) for row in rows[1:] for v in row.split(",")]
        elif out.splitlines()[-1] != "selfcheck: all invariants hold":
            return False, digest(result), info
        return True, digest(code, text, err), info

    def warmup(self):
        for step in range(len(self.SCRIPT) - 1):  # selfcheck has no size knob
            argv = self.make(-len(self.SCRIPT) + step)
            self.check(argv, self.run(argv))


WORKLOADS = {w.name: w for w in (PointRemap, IntegralCertify, FloatMC, CliSession)}
