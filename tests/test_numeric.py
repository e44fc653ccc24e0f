import hashlib
import math
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from probdigit import (
    DigitRemap,
    Geometric,
    Identity,
    MixedHeadTail,
    PairSwap,
    closed_form_integral,
    expected_log_ratio,
)
from probdigit import numeric
from probdigit.numeric import (
    log_derivative_paths,
    monte_carlo_integral,
    remap_values,
    sample_rows,
)

F = Fraction


def test_float_path_tracks_exact_values(swap_remap, table_remap):
    for remap in (swap_remap, table_remap):
        xs = [F(n, 257) for n in range(0, 257, 13)]
        got = remap_values(remap, np.array([float(x) for x in xs]), depth=48)
        for x, y in zip(xs, got):
            exact = remap.apply(x, 40)
            assert abs(y - float(exact.value)) < float(exact.error_bound) + 1e-9


def test_monte_carlo_is_reproducible_and_close(identity_remap):
    a = monte_carlo_integral(identity_remap, samples=50_000, seed=11)
    b = monte_carlo_integral(identity_remap, samples=50_000, seed=11)
    assert a == b
    assert abs(a.mean - 0.5) < 5 * a.std_error


def test_monte_carlo_agrees_with_closed_form(swap_remap, table_remap):
    for remap in (swap_remap, table_remap):
        target = float(closed_form_integral(remap).value)
        mc = monte_carlo_integral(remap, samples=100_000, seed=23)
        assert abs(mc.mean - target) < 5 * mc.std_error


def test_log_ratio_stays_finite_when_source_masses_underflow():
    # source masses from digit 4 on underflow to 0.0 as floats
    source = MixedHeadTail((F(1, 2),), F(1, 10**320))
    remap = DigitRemap(source, Geometric(F(2, 3)), PairSwap())
    _, ys, dlog = sample_rows(remap, 8)
    assert np.all(np.isfinite(ys)) and np.all(np.isfinite(dlog))
    assert all(math.isfinite(v) for v in expected_log_ratio(remap))


def test_log_derivative_paths_concentrate(swap_remap):
    mean, sd = expected_log_ratio(swap_remap)
    paths = log_derivative_paths(swap_remap, paths=50, depth=4_000, seed=3)
    assert paths.shape == (50,)
    band = 4 * sd / math.sqrt(4_000)
    assert np.all(np.abs(paths - mean) < band)
    again = log_derivative_paths(swap_remap, paths=50, depth=4_000, seed=3)
    assert np.array_equal(paths, again)


def test_sample_rows_grid_and_range(swap_remap):
    xs, ys, dlog = sample_rows(swap_remap, 64, depth=32)
    assert np.array_equal(xs, np.arange(64) / 64)
    assert np.all((ys >= 0) & (ys < 1))
    assert dlog.shape == (64,)


def test_identity_sample_rows_reproduce_the_grid(identity_remap):
    xs, ys, dlog = sample_rows(identity_remap, 16, depth=48)
    assert np.allclose(ys, xs, atol=1e-12)
    assert np.allclose(dlog, 0.0)


def searched_index(prefix, x):
    """Reference digit lookup: binary search, clamped at the digit cap."""
    return np.minimum(np.searchsorted(prefix, x, side="right"), numeric.DIGIT_CAP) - 1


def fixed_depth_values(remap, xs, depth=48):
    """Reference: every point reads all `depth` digits (no early stop)."""
    t = numeric._tables(remap)
    x = np.clip(xs, 0.0, numeric._BELOW_ONE)
    y = np.zeros_like(x)
    prod = np.ones_like(x)
    for _ in range(depth):
        idx = searched_index(t.prefix, x)
        y += t.image_prefix[idx] * prod
        prod *= t.image_mass[idx]
        x = np.clip((x - t.prefix[idx]) / t.mass[idx], 0.0, numeric._BELOW_ONE)
    return y + prod * t.tail_const


def test_early_stop_stays_within_float_resolution(swap_remap, table_remap, identity_remap):
    xs = np.concatenate(
        [np.random.default_rng(5).random(20_000), np.arange(257) / 257, [0.0, numeric._BELOW_ONE]]
    )
    for remap in (swap_remap, table_remap, identity_remap):
        for depth in (8, 48):
            got = remap_values(remap, xs, depth)
            assert np.max(np.abs(got - fixed_depth_values(remap, xs, depth))) <= 2.0**-52
    grid = xs[:12].reshape(3, 4)
    flat = remap_values(swap_remap, xs[:12])
    assert np.array_equal(remap_values(swap_remap, grid), flat.reshape(3, 4))


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_chunked_monte_carlo_matches_one_shot(swap_remap, table_remap, offset):
    samples = numeric._CHUNK + offset
    for remap in (swap_remap, table_remap):
        rng = np.random.Generator(np.random.PCG64(19))
        ys = remap_values(remap, rng.random(samples))
        expected = (float(ys.mean()), float(ys.std(ddof=1) / math.sqrt(samples)), samples, 19)
        assert tuple(monte_carlo_integral(remap, samples=samples, seed=19)) == expected


def test_float_tables_are_built_once_per_remap(swap_remap, monkeypatch):
    builds = []
    build = numeric._build_tables
    monkeypatch.setattr(numeric, "_build_tables", lambda remap: builds.append(remap) or build(remap))
    monkeypatch.setattr(numeric, "_CHUNK", 1000)
    fresh = DigitRemap(swap_remap.source, swap_remap.target, swap_remap.digit_map)
    first = monte_carlo_integral(fresh, samples=5500, seed=3)
    assert builds == [fresh]
    assert monte_carlo_integral(fresh, samples=5500, seed=3) == first and len(builds) == 1
    cold = DigitRemap(swap_remap.source, swap_remap.target, swap_remap.digit_map)
    assert monte_carlo_integral(cold, samples=5500, seed=3) == first and len(builds) == 2


def test_monte_carlo_reproduces_the_readme_line(swap_remap):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    line = re.search(r"# (monte_carlo=\S+ sigma=\S+ samples=1000000 seed=1729)\n", readme)
    mc = monte_carlo_integral(swap_remap, samples=1_000_000, seed=1729)
    assert line.group(1) == (
        f"monte_carlo={mc.mean!r} sigma={mc.std_error!r} samples={mc.samples} seed={mc.seed}"
    )


def test_sample_rows_digest_is_pinned(swap_remap):
    xs, ys, dlog = sample_rows(swap_remap, 1000)
    digest = hashlib.sha256(xs.tobytes() + ys.tobytes() + dlog.tobytes()).hexdigest()
    assert digest == "32215117e073697188373393bbe622b5f2b966976a74b53ffaf9db3e42dab39f"


def traced_peak_mb(call) -> float:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_float_path_memory_stays_bounded(swap_remap):
    # one full-size draw with its work arrays peaks near 56 MB and 24 MB
    assert traced_peak_mb(lambda: monte_carlo_integral(swap_remap, samples=1_000_000)) < 24
    assert traced_peak_mb(lambda: log_derivative_paths(swap_remap, 100, 10_000)) < 8


# crowded buckets: ratios within 1e-6 of 1 put every digit boundary in the
# bottom bucket, smaller ratios crowd the top ones, and head masses below
# 2**-12 put several boundaries in one bucket
lookup_ratios = st.one_of(
    st.fractions(min_value=F(1, 10**6), max_value=F(8, 9), max_denominator=10**6),
    st.integers(1, 10**6).map(lambda k: 1 - F(k, 10**12)),
)
lookup_heads = st.lists(
    st.one_of(
        st.fractions(min_value=F(1, 2**20), max_value=F(1, 2**12), max_denominator=2**21),
        st.fractions(min_value=F(1, 20), max_value=F(1, 5), max_denominator=20),
    ),
    min_size=1,
    max_size=4,
)
lookup_families = st.one_of(
    lookup_ratios.map(Geometric),
    st.builds(MixedHeadTail, lookup_heads.map(tuple), lookup_ratios),
)


@given(lookup_families, st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=60)
def test_bucket_lookup_matches_binary_search(source, seed):
    t = numeric._tables(DigitRemap(source, Geometric(F(1, 2)), Identity()))
    edges = np.arange(numeric._BUCKETS) / numeric._BUCKETS
    x = np.concatenate(
        [
            [0.0, numeric._BELOW_ONE],
            t.prefix,
            np.nextafter(t.prefix, 0.0),
            np.nextafter(t.prefix, 1.0),
            edges,
            np.nextafter(edges, 0.0),
            np.random.default_rng(seed).random(1000),
        ]
    )
    x = np.clip(x, 0.0, numeric._BELOW_ONE)
    assert np.array_equal(numeric._digit_index(t, x), searched_index(t.prefix, x))


def test_remap_values_refuses_nan_and_clamps_infinities(swap_remap):
    with pytest.raises(ValueError, match="NaN"):
        remap_values(swap_remap, np.array([0.25, np.nan]))
    ends = np.array([0.0, numeric._BELOW_ONE])
    infinities = np.array([-np.inf, np.inf])
    assert np.array_equal(remap_values(swap_remap, infinities), remap_values(swap_remap, ends))


def test_a_mass_that_underflows_keeps_points_in_range():
    # digit 64 has float mass 0.0 but starts below 1, so x = prefix(64) shifts to 0/0
    source = MixedHeadTail((F(1, 128),) * 63 + (F(1, 10**400),), F(1, 2))
    remap = DigitRemap(source, source, PairSwap())  # digit 64 reads on: its image mass is 1/128
    xs = np.array([numeric._tables(remap).prefix[63], 0.7])
    got = remap_values(remap, xs)
    with np.errstate(divide="ignore", invalid="ignore"):
        want = fixed_depth_values(remap, xs)
    assert np.max(np.abs(got - want)) <= 2.0**-52


def test_an_image_that_rounds_up_to_one_stays_below_one():
    # the exact image of the point just below 1 is below 1, but its float sum rounds to 1.0
    remap = DigitRemap(Geometric(F(2, 3)), Geometric(F(1, 2)), PairSwap())
    got = remap_values(remap, np.array([numeric._BELOW_ONE, np.inf]))
    assert np.array_equal(got, [numeric._BELOW_ONE] * 2)


@pytest.mark.parametrize("paths, depth", [(0, 10), (10, 0), (-1, 10)])
def test_log_derivative_paths_refuse_empty_sizes(swap_remap, paths, depth):
    with pytest.raises(ValueError, match="at least 1"):
        log_derivative_paths(swap_remap, paths=paths, depth=depth)
