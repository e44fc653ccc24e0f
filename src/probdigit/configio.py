"""Plain-text descriptors for distributions, digit maps and run settings.

A descriptor is a kind word, then the fields of the class it builds
(`_KINDS`), compact or keyed, the kind word in any case; rendering is compact:

    geometric:<q>              geometric q=<q>
    mixed:[<head>]:<tail_q>    mixed head=[<head>] tail_q=<tail_q>
    identity   pairswap        table:[<table>]    table table=[<table>]

Whitespace may surround ':' and '=' and fill [..] lists.  Values are "a/b"
or exact decimal strings; table entries are positive integers.

Config files are key=value lines (# starts a comment) with the same keys the
command line uses, `CONFIG_KEYS`: p, o, phi, depth, seed, out.  Any other key
is refused, naming its line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .bijections import DigitBijection, Identity, PairSwap, TablePermutation
from .core import Geometric, MixedHeadTail, ProbVector, parse_rational


def _table_entry(text: str) -> int:
    value = parse_rational(text)
    if value.denominator != 1 or value.numerator < 1:
        raise ValueError(f"table entries must be positive integers, got {value}")
    return value.numerator


# kind -> the class it builds and that class's fields, in constructor order
_KINDS: dict[str, tuple[type, tuple[str, ...]]] = {
    "geometric": (Geometric, ("q",)),
    "mixed": (MixedHeadTail, ("head", "tail_q")),
    "identity": (Identity, ()),
    "pairswap": (PairSwap, ()),
    "table": (TablePermutation, ("table",)),
}
_LISTS = {"head", "table"}  # fields written as [..] lists
_KEY = re.compile(r"\b(\w+)\s*=\s*")  # \b keeps a failed match linear in a long word


def _field(name: str, text: str):
    if name not in _LISTS:
        return parse_rational(text)
    entry = _table_entry if name == "table" else parse_rational
    inner = text[1:-1]
    return tuple(map(entry, inner.split(","))) if inner.strip() else ()


def _read(text: str, base: type, noun: str):
    """The one reader behind `parse_distribution` and `parse_digit_map`."""
    s = text.strip()
    for kind, (cls, names) in _KINDS.items():
        if s[: len(kind)].lower() == kind and issubclass(cls, base):
            break
    else:
        raise ValueError(f"unknown {noun} descriptor {text!r}")
    rest = s[len(kind) :].strip()
    if rest.startswith(":"):
        values = [v.strip() for v in rest[1:].split(":")]
    else:  # "key=value key=value": split at each key and its '='
        lead, *pairs = _KEY.split(rest)
        fields = dict(zip(pairs[::2], pairs[1::2]))  # a repeated key keeps its last value
        values = None if lead or fields.keys() != set(names) else [fields[n].strip() for n in names]
    # one value per field, in [..] exactly where the field is a list
    if values is None or [v[:1] + v[-1:] == "[]" for v in values] != [n in _LISTS for n in names]:
        shapes = [f"[<{n}>]" if n in _LISTS else f"<{n}>" for n in names]
        compact = kind + "".join(f":{shape}" for shape in shapes)
        keyed = kind + "".join(f" {n}={shape}" for n, shape in zip(names, shapes))
        spellings = f"{compact} or {keyed}" if names else "no fields"
        raise ValueError(f"{kind} takes {spellings}, got {text!r}")
    return cls(*map(_field, names, values))


def _render(obj, base: type) -> str:
    for kind, (cls, names) in _KINDS.items():
        if issubclass(cls, base) and isinstance(obj, cls):
            fields = ((n, getattr(obj, n)) for n in names)
            return kind + "".join(
                f":[{','.join(map(str, v))}]" if n in _LISTS else f":{v}" for n, v in fields
            )
    raise TypeError(f"cannot render {type(obj).__name__}")


def parse_distribution(text: str) -> ProbVector:
    return _read(text, ProbVector, "distribution")


def render_distribution(pv: ProbVector) -> str:
    return _render(pv, ProbVector)


def parse_digit_map(text: str) -> DigitBijection:
    return _read(text, DigitBijection, "digit map")


def render_digit_map(phi: DigitBijection) -> str:
    return _render(phi, DigitBijection)


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


def _at_least(values: dict[str, str], key: str, least: int) -> int:
    """values[key] as an int of at least `least` (0 or 1), or a refusal naming its flag."""
    try:
        value = int(values[key])
    except ValueError:
        pass
    else:
        if value >= least:
            return value
    kind = "positive" if least else "non-negative"
    raise ValueError(f"--{key}: expected a {kind} integer, got {values[key]!r}")


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
    return RunConfig(
        source=parse_distribution(values["p"]),
        target=parse_distribution(values["o"]),
        digit_map=parse_digit_map(values["phi"]),
        depth=_at_least(values, "depth", 1),
        seed=_at_least(values, "seed", 0),
        out=values.get("out"),
    )
