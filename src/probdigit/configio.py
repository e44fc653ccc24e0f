"""Plain-text descriptors for distributions, digit maps and run settings.

Grammar (whitespace-tolerant, rationals as "a/b" in lowest terms or exact
decimal strings):

    geometric q=1/2            or the compact form   geometric:1/2
    mixed head=[1/3,1/5] tail_q=1/2                  mixed:[1/3,1/5]:1/2
    identity | pairswap | table:[2,3,1]

Config files are key=value lines (# starts a comment) with the same keys the
command line uses, `CONFIG_KEYS`: p, o, phi, depth, seed, out.  Any other key
is refused, naming its line.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bijections import DigitBijection, Identity, PairSwap, TablePermutation
from .core import Geometric, MixedHeadTail, ProbVector


def parse_rational(text: str) -> Fraction:
    """Exact conversion of "a/b" or a decimal string like "0.3" (-> 3/10)."""
    return Fraction(text.strip())


def _parse_bracket_list(text: str) -> list[Fraction]:
    body = text.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise ValueError(f"expected a [..] list, got {text!r}")
    inner = body[1:-1].strip()
    if not inner:
        return []
    return [parse_rational(part) for part in inner.split(",")]


def _keyed_fields(text: str) -> dict[str, str]:
    fields: dict[str, str] = {}
    for token in text.split():
        if "=" not in token:
            raise ValueError(f"expected key=value, got {token!r}")
        key, value = token.split("=", 1)
        fields[key.strip()] = value.strip()
    return fields


def parse_distribution(text: str) -> ProbVector:
    s = text.strip()
    lowered = s.lower()
    if lowered.startswith("geometric"):
        rest = s[len("geometric") :].strip()
        if rest.startswith(":"):
            return Geometric(parse_rational(rest[1:]))
        fields = _keyed_fields(rest)
        if set(fields) != {"q"}:
            raise ValueError(f"geometric takes exactly q=<rational>, got {text!r}")
        return Geometric(parse_rational(fields["q"]))
    if lowered.startswith("mixed"):
        rest = s[len("mixed") :].strip()
        if rest.startswith(":"):
            body = rest[1:]
            close = body.rindex("]")
            head = _parse_bracket_list(body[: close + 1])
            tail = body[close + 1 :]
            if not tail.startswith(":"):
                raise ValueError(f"compact mixed form is mixed:[..]:q, got {text!r}")
            return MixedHeadTail(tuple(head), parse_rational(tail[1:]))
        fields = _keyed_fields(rest)
        if set(fields) != {"head", "tail_q"}:
            raise ValueError(
                f"mixed takes head=[..] tail_q=<rational>, got {text!r}"
            )
        return MixedHeadTail(
            tuple(_parse_bracket_list(fields["head"])),
            parse_rational(fields["tail_q"]),
        )
    raise ValueError(f"unknown distribution descriptor {text!r}")


def render_distribution(pv: ProbVector) -> str:
    if isinstance(pv, Geometric):
        return f"geometric q={pv.q}"
    if isinstance(pv, MixedHeadTail):
        head = ",".join(str(h) for h in pv.head)
        return f"mixed head=[{head}] tail_q={pv.tail_q}"
    raise TypeError(f"cannot render {type(pv).__name__}")


def parse_digit_map(text: str) -> DigitBijection:
    s = text.strip().lower()
    if s == "identity":
        return Identity()
    if s == "pairswap":
        return PairSwap()
    if s.startswith("table:"):
        entries = _parse_bracket_list(s[len("table:") :])
        table = []
        for f in entries:
            if f.denominator != 1 or f < 1:
                raise ValueError(f"table entries must be positive integers, got {f}")
            table.append(int(f))
        return TablePermutation(tuple(table))
    raise ValueError(f"unknown digit map descriptor {text!r}")


def render_digit_map(phi: DigitBijection) -> str:
    if isinstance(phi, Identity):
        return "identity"
    if isinstance(phi, PairSwap):
        return "pairswap"
    if isinstance(phi, TablePermutation):
        return "table:[" + ",".join(str(v) for v in phi.table) + "]"
    raise TypeError(f"cannot render {type(phi).__name__}")


CONFIG_KEYS = ("p", "o", "phi", "depth", "seed", "out")


def read_config_file(path: str) -> dict[str, str]:
    """key=value lines over `CONFIG_KEYS`; blank lines and # comments ignored."""
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in CONFIG_KEYS:
                accepted = ", ".join(CONFIG_KEYS)
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}; accepted keys: {accepted}")
            out[key] = value
    return out


DEFAULTS: dict[str, str] = {
    "p": "geometric q=1/2",
    "o": "geometric q=2/3",
    "phi": "pairswap",
    "depth": "16",
    "seed": "1729",
}


@dataclass
class RunConfig:
    source: ProbVector
    target: ProbVector
    digit_map: DigitBijection
    depth: int
    seed: int
    out: str | None


def build_run_config(
    config_path: str | None = None, overrides: dict[str, str | None] | None = None
) -> RunConfig:
    """Defaults, then the config file, then explicit overrides, in that order."""
    values = dict(DEFAULTS)
    if config_path:
        values.update(read_config_file(config_path))
    for key, value in (overrides or {}).items():
        if value is not None:
            values[key] = value
    depth = int(values["depth"])
    if depth < 1:
        raise ValueError("depth must be at least 1")
    return RunConfig(
        source=parse_distribution(values["p"]),
        target=parse_distribution(values["o"]),
        digit_map=parse_digit_map(values["phi"]),
        depth=depth,
        seed=int(values["seed"]),
        out=values.get("out"),
    )
