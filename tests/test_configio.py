from fractions import Fraction

import pytest

from probdigit import Geometric, Identity, MixedHeadTail, PairSwap, TablePermutation
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
    assert render_distribution(Geometric(F(2, 4))) == "geometric q=1/2"  # lowest terms


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
    assert cfg.terms is None
