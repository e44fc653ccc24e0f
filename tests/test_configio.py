import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from probdigit import Geometric, Identity, MixedHeadTail, PairSwap, TablePermutation
from probdigit.errors import InvalidDistribution
from probdigit.configio import (
    build_run_config,
    parse_digit_map,
    parse_distribution,
    parse_rational,
    read_config_file,
    render_digit_map,
    render_distribution,
)

F = Fraction


def test_rationals_parse_exactly():
    assert parse_rational("3/10") == F(3, 10)
    assert parse_rational("0.3") == F(3, 10)  # decimal strings convert exactly
    assert parse_rational(" 1 ") == 1


def test_distribution_long_and_compact_forms():
    assert parse_distribution("geometric q=1/2") == Geometric(F(1, 2))
    assert parse_distribution("geometric:1/2") == Geometric(F(1, 2))
    mixed = MixedHeadTail((F(1, 3), F(1, 5)), F(1, 2))
    assert parse_distribution("mixed head=[1/3,1/5] tail_q=1/2") == mixed
    assert parse_distribution("mixed:[1/3,1/5]:1/2") == mixed
    assert parse_distribution("mixed head=[] tail_q=2/3") == Geometric(F(2, 3))


def test_distribution_render_roundtrip():
    for pv in (Geometric(F(2, 3)), MixedHeadTail((F(1, 4),), F(1, 3))):
        assert parse_distribution(render_distribution(pv)) == pv
    assert render_distribution(Geometric(F(2, 4))) == "geometric:1/2"  # lowest terms


def test_distribution_syntax_errors():
    for bad in ("geometric", "geometric p=1/2", "uniform:3", "mixed head=[1/3]"):
        with pytest.raises(ValueError):
            parse_distribution(bad)


def test_digit_map_forms():
    assert parse_digit_map("identity") == Identity()
    assert parse_digit_map("pairswap") == PairSwap()
    assert parse_digit_map("table:[2,3,1]") == TablePermutation((2, 3, 1))
    for phi in (Identity(), PairSwap(), TablePermutation((3, 1, 2))):
        assert parse_digit_map(render_digit_map(phi)) == phi


def test_digit_map_syntax_errors():
    for bad in ("swap", "table:[2,0]", "table:[1/2]", "table:2,3"):
        with pytest.raises(ValueError):
            parse_digit_map(bad)


def test_config_file_layers_under_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# worked example\n"
        "p=geometric q=1/2\n"
        "o=geometric q=2/3   # target side\n"
        "phi=pairswap\n"
        "depth=12\n"
        "seed=99\n"
    )
    cfg = build_run_config(str(path), {"depth": "20", "out": None})
    assert cfg.source == Geometric(F(1, 2))
    assert cfg.target == Geometric(F(2, 3))
    assert cfg.digit_map == PairSwap()
    assert cfg.depth == 20  # flag wins over file
    assert cfg.seed == 99
    assert cfg.out is None


def test_config_file_rejects_garbage(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("p geometric\n")
    with pytest.raises(ValueError):
        read_config_file(str(path))


def test_defaults_are_complete():
    cfg = build_run_config(None, {})
    assert cfg.depth >= 1


@pytest.mark.parametrize(
    "text",
    ["mixed head=[1/3, 1/5] tail_q=1/2", "mixed : [1/3,1/5] : 1/2", "MIXED tail_q = 1/2 head = [ 1/3 , 1/5 ]"],
)
def test_whitespace_around_separators_and_inside_lists(text):
    assert parse_distribution(text) == MixedHeadTail((F(1, 3), F(1, 5)), F(1, 2))


def test_every_kind_takes_both_spellings():
    for keyed, compact, expected in [
        ("geometric q = 1/2", "geometric : 1/2", Geometric(F(1, 2))),
        ("table table=[2,3,1]", "Table : [2, 3, 1]", TablePermutation((2, 3, 1))),
        ("identity", "IDENTITY", Identity()),
    ]:
        parse = parse_distribution if isinstance(expected, Geometric) else parse_digit_map
        assert parse(keyed) == parse(compact) == expected
    assert render_digit_map(parse_digit_map("table table=[2,3,1]")) == "table:[2,3,1]"


GEOMETRIC_USAGE = "geometric takes geometric:<q> or geometric q=<q>"
MIXED_USAGE = "mixed takes mixed:[<head>]:<tail_q> or mixed head=[<head>] tail_q=<tail_q>"


@pytest.mark.parametrize(
    "parse, text, usage",
    [
        (parse_distribution, "geometric q", GEOMETRIC_USAGE),
        (parse_distribution, "geometric:[1/2]", GEOMETRIC_USAGE),
        (parse_distribution, "geometric q=1/2 tail_q=1/2", GEOMETRIC_USAGE),
        (parse_distribution, "mixed:1/2", MIXED_USAGE),  # once Python's "substring not found"
        (parse_distribution, "mixed head=[1/3]", MIXED_USAGE),
        (parse_distribution, "mixed:[1/3]:1/2:1/2", MIXED_USAGE),
        (parse_digit_map, "table:2,3", "table takes table:[<table>] or table table=[<table>]"),
        (parse_digit_map, "identity:", "identity takes no fields"),
    ],
)
def test_malformed_descriptor_names_its_kind_and_both_spellings(parse, text, usage):
    with pytest.raises(ValueError) as caught:
        parse(text)
    assert str(caught.value) == f"{usage}, got {text!r}"


def test_huge_decimal_exponents_are_refused_promptly():
    # Fraction("1e-10000000") builds 10**10000000, which takes about 10 s
    for text in ("1e-10000000", "1E+4301", "2.5e1_000_000"):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="has over 4300 digits"):
            parse_rational(text)
        assert time.perf_counter() - start < 0.5
    with pytest.raises(ValueError, match="has over 4300 digits"):
        parse_distribution("geometric:1e-10000000")
    assert parse_rational("1e-300") == F(1, 10**300)
    assert parse_rational("1e4300") == 10**4300


@pytest.mark.parametrize(
    "text",
    ["geometric " + "a" * 20_000, "geometric a" + " " * 20_000 + "b", "geometric " + "a=" * 10_000, "mixed:" + "[" * 20_000],
    ids=["long-word", "long-space", "many-keys", "many-brackets"],
)
def test_long_malformed_descriptors_are_refused_promptly(text):
    start = time.perf_counter()
    with pytest.raises(ValueError):
        parse_distribution(text)
    assert time.perf_counter() - start < 0.5


def test_rationals_parse_where_the_digit_limit_is_unknown(monkeypatch):
    # sys.get_int_max_str_digits arrived in Python 3.10.7; without it there is no limit to apply
    monkeypatch.delattr("sys.get_int_max_str_digits")
    assert parse_rational("0.3") == F(3, 10)
    assert parse_rational("-2.5e-3") == F(-1, 400)
    assert parse_distribution("geometric:0.25") == Geometric(F(1, 4))


def test_every_value_goes_through_parse_rational(monkeypatch):
    # a wrapper over the module attribute sees each value, list entries included
    from probdigit import configio

    seen = []
    original = configio.parse_rational
    monkeypatch.setattr(configio, "parse_rational", lambda text: seen.append(text) or original(text))
    parse_distribution("mixed:[1/3, 1/5]:1/2")
    assert seen == ["1/3", " 1/5", "1/2"]


def test_zero_denominators_are_value_errors():
    with pytest.raises(ValueError, match="zero denominator"):
        parse_rational("1/0")


FIELDS = {
    "geometric": ("q",), "mixed": ("head", "tail_q"), "identity": (), "pairswap": (),
    "table": ("table",),
}
# mostly values the field accepts, then a few it refuses
VALUES = {
    "q": ("1/2", "2/3", "0.25", "1e-2", "99/100", "1", "0", "1/0", "1e4301", "1e-9999999"),
    "head": ("1/5", "1/3", "0.25", "1e-2", "2/9", "2", "-1/5", "1/0", "1e-9999999"),
    "table": ("1", "2", "3", "4", "12", "2.0", "0", "1/2", "1e4301"),
}
VALUES["tail_q"] = VALUES["q"]
JUNK = (":", "=", ",", "[", "]", " ", "q", "head", "x", "uniform", "1/2")
spaces = st.sampled_from(("", " ", "  ", "\t"))


@st.composite
def descriptors(draw, kinds=tuple(sorted(FIELDS))):
    """A descriptor of a random kind, compact or keyed, with random whitespace
    and list lengths, then with probability about 1/2 a splice of junk."""
    kind = draw(st.sampled_from(kinds))
    keyed = draw(st.booleans())
    text = draw(st.sampled_from((kind, kind.upper(), kind.title())))
    for name in FIELDS[kind]:
        if name in ("head", "table"):
            entries = draw(st.lists(st.tuples(spaces, st.sampled_from(VALUES[name]), spaces), max_size=4))
            value = "[" + ",".join(map("".join, entries)) + "]"
        else:
            value = draw(st.sampled_from(VALUES[name]))
        separator = f" {name}{draw(spaces)}=" if keyed else ":"
        text += draw(spaces) + separator + draw(spaces) + value
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 2))
        junk = draw(st.one_of(st.sampled_from(JUNK), st.text(max_size=3)))
        text = text[:at] + junk + text[at + cut :]
    return text


@settings(max_examples=400, deadline=None)
@given(descriptors())
def test_descriptor_fuzz_parses_or_raises_value_error(text):
    """Any string parses, or raises ValueError or InvalidDistribution and
    nothing else; whatever parses renders to a descriptor of an equal object."""
    for parse, render in ((parse_distribution, render_distribution), (parse_digit_map, render_digit_map)):
        try:
            obj = parse(text)
        except (ValueError, InvalidDistribution):
            continue
        assert parse(render(obj)) == obj
