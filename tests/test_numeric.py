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
    DigitSeq,
    Geometric,
    Identity,
    MixedHeadTail,
    PairSwap,
    TablePermutation,
    closed_form_integral,
    cylinder,
    expected_log_ratio,
)
from probdigit import numeric
from probdigit.core import log_rational
from probdigit.numeric import (
    log_derivative_paths,
    monte_carlo_integral,
    remap_values,
    sample_rows,
)

F = Fraction


def test_float_path_tracks_exact_values(swap_remap, table_remap):
    # slow tails read most digits past 64; the 70-digit head puts digits 65..71
    # just above k/256, and its tables reach digit 70, where its closed form starts
    slow_swap = DigitRemap(Geometric(F(99, 100)), Geometric(F(199, 200)), PairSwap())
    head70 = DigitRemap(MixedHeadTail((F(1, 256),) * 70, F(99, 100)), Geometric(F(199, 200)), PairSwap())
    for remap in (swap_remap, table_remap, slow_swap, head70):
        xs = [F(n, 257) for n in range(0, 257, 13)] + [F(k, 256) + F(1, 1000) for k in range(64, 71)]
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


def test_a_grid_point_within_rounding_of_a_digit_boundary_reads_one_side():
    # 500 = 4 * 125, so the grid holds 0.064, which rounds to 1.3e-18 above the
    # boundary 8/125 = (1, 1, 2, 1, 1, ...) of Geometric(3/5).  f jumps there:
    # f(8/125) = 65/96 from the right, and the digits (1, 1, 1, n), n unbounded,
    # approach it from the left, with images filling the target cylinder of
    # (2, 2, 2) up to its top, 43/64.  The float shift rounds x / p_1 below
    # the boundary 2/5 and reads the left-hand path, so its y is that one-sided
    # value; either side is a right answer to the input's rounding.
    remap = DigitRemap(Geometric(F(3, 5)), Geometric(F(1, 2)), TablePermutation((2, 3, 1)))
    xs, ys, _ = sample_rows(remap, 500)
    assert xs[32] == 0.064 and 0 < F(xs[32]) - F(8, 125) < F(1, 2**59)
    right = remap.apply(F(8, 125)).value
    left = cylinder(remap.target, remap.image_digits(DigitSeq.of(1, 1, 1))).hi
    assert (left, right) == (F(43, 64), F(65, 96))
    assert min(abs(ys[32] - float(side)) for side in (left, right)) <= 1e-12


def searched_index(prefix, x):
    """Reference digit lookup: binary search, clamped at the last table digit."""
    return np.minimum(np.searchsorted(prefix, x, side="right"), prefix.size - 1) - 1


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


def clamped_remap_values(remap, xs, depth=48, with_log_derivative=False):
    """Reference: the loop that compacted its arrays at every step where a
    point stopped and clamped every digit past the tables to the last table
    digit.  Returns its values (and log derivatives), and the mask of points
    that read a digit past the tables at some step, where it is wrong."""
    t = numeric._tables(remap)
    x = np.clip(np.asarray(xs, dtype=float), 0.0, numeric._BELOW_ONE)
    out = y = np.zeros_like(x)
    prod = np.ones_like(x)
    dlog = np.zeros_like(x)
    live = np.arange(x.size)
    past = np.zeros(x.size, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(depth):
            past[live] |= x >= t.prefix[-1]
            idx = searched_index(t.prefix, x)
            y += t.image_prefix[idx] * prod
            prod *= t.image_mass[idx]
            x -= t.prefix[idx]
            x /= t.mass[idx]
            np.fmin(x, numeric._BELOW_ONE, out=x)
            if with_log_derivative:
                dlog += t.log_ratio[idx]
                continue
            done = prod < numeric._RESOLUTION
            if done.any():
                out[live[done]] = y[done] + prod[done] * t.tail_const
                keep = ~done
                live, x, y, prod = live[keep], x[keep], y[keep], prod[keep]
    y += prod * t.tail_const
    out[live] = y
    np.fmin(out, numeric._BELOW_ONE, out=out)
    return (out, dlog, past) if with_log_derivative else (out, past)


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
    # measured peaks: 16.9 MB for the 1M-sample run (its 8 MB result array plus
    # one chunk's work arrays) and 2.0 MB for the log paths; the bounds leave
    # about 10% and 25% above them
    assert traced_peak_mb(lambda: monte_carlo_integral(swap_remap, samples=1_000_000)) < 18.5
    assert traced_peak_mb(lambda: log_derivative_paths(swap_remap, 100, 10_000)) < 2.5


# flagged buckets: ratios within 1e-6 of 1 put every digit boundary in the
# bottom bucket, smaller ratios crowd the top ones, and head masses around
# 1 / _BUCKETS put one or several boundaries in one bucket
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
    # an unflagged bucket lies inside one digit's float cylinder
    b = np.flatnonzero(t.bucket_index >= 0)
    i = t.bucket_index[b]
    assert np.all(t.prefix[i] <= b / numeric._BUCKETS)
    assert np.all(np.nextafter((b + 1) / numeric._BUCKETS, 0.0) < t.prefix[i + 1])
    # whatever a cast makes of NaN and infinities, clipping lands on bucket 0 or the sentinel
    assert t.bucket_index.size == numeric._BUCKETS + 1
    assert t.bucket_index[0] == t.bucket_index[-1] == -1
    edges = np.arange(numeric._BUCKETS) / numeric._BUCKETS
    x = np.concatenate(
        [
            [0.0, -0.0, numeric._BELOW_ONE, 1.0, np.nextafter(1.0, 2.0), 5.0, 1e300],
            [np.inf, -np.inf, np.nan],
            t.prefix,
            np.nextafter(t.prefix, 0.0),
            np.nextafter(t.prefix, 1.0),
            edges,
            np.nextafter(edges, 0.0),
            np.random.default_rng(seed).random(1000),
        ]
    )
    want = np.fmin(x, numeric._BELOW_ONE)
    with np.errstate(invalid="ignore"):  # as in remap_values, whose steps make NaN and inf
        idx, past = numeric._digit_index(t, x)
    assert np.array_equal(x, want)  # clamped in place
    assert np.array_equal(idx, searched_index(t.prefix, want))
    assert np.array_equal(past, np.flatnonzero(want >= t.prefix[-1]))


# digit 2's mass underflows to 0.0, yet its float interval is one ulp wide:
# prefix(2) sits just below a rounding midpoint and prefix(3) just above, so
# x = 1/4 reads digit 2 and shifts to 0/0
underflowing = MixedHeadTail((F(1, 4) + F(1, 2**55) - F(1, 10**401), F(1, 10**400)), F(1, 2))
# a head past digit 64 makes the tables longer, and its last digit's float interval is empty
long_head = MixedHeadTail((F(1, 128),) * 63 + (F(1, 10**400),), F(1, 2))
oracle_maps = st.sampled_from(
    [Identity(), PairSwap(), TablePermutation((2, 1)), TablePermutation((3, 1, 2)), TablePermutation((2, 4, 1, 3))]
)


@given(
    st.one_of(lookup_families, st.sampled_from([underflowing, long_head])),
    lookup_families,
    oracle_maps,
    st.sampled_from([8, 48]),
    st.booleans(),
    st.integers(2000, 6000),
    st.integers(0, 2**32 - 1),
)
@settings(deadline=None, max_examples=40)
def test_values_equal_the_clamped_loop_off_the_past_cap_points(
    source, target, phi, depth, with_log_derivative, size, seed
):
    # thousands of points finishing step by step freeze a quarter of the
    # arrays, and so compact them, several times over
    remap = DigitRemap(source, target, phi)
    prefix = numeric._tables(remap).prefix
    xs = np.concatenate(
        [
            [0.0, numeric._BELOW_ONE],
            prefix,
            np.nextafter(prefix, 0.0),
            np.nextafter(prefix, 1.0),
            np.random.default_rng(seed).random(size),
        ]
    )
    got = remap_values(remap, xs, depth, with_log_derivative)
    *want, past = clamped_remap_values(remap, xs, depth, with_log_derivative)
    for a, b in zip(got if with_log_derivative else [got], want):
        assert np.array_equal(a[~past], b[~past])


def assert_tables_are_the_rounded_fractions(remap):
    """Oracle: the source prefix and mass, the target prefix and mass at phi
    and the log ratio, each rounded from its exact `Fraction`, for the digits
    the remap's float tables hold, and the image of the all-ones tail; the
    tables read them off integer triples."""
    src, tgt, phi = remap.source, remap.target, remap.digit_map
    t = numeric._tables(remap)
    image = [phi.apply(n) for n in range(1, t.mass.size + 1)]
    exact = [src.p(n) for n in range(1, t.mass.size + 1)], [tgt.p(m) for m in image]
    mass, image_mass = (np.array([float(v) for v in values]) for values in exact)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = np.log(image_mass) - np.log(mass)
    for i in np.flatnonzero(~np.isfinite(log_ratio)):
        log_ratio[i] = log_rational(exact[1][i] / exact[0][i])
    assert np.array_equal(t.prefix, [float(src.prefix(n)) for n in range(1, t.mass.size + 2)])
    assert np.array_equal(t.mass, mass) and np.array_equal(t.image_mass, image_mass)
    assert np.array_equal(t.image_prefix, [float(tgt.prefix(m)) for m in image])
    assert np.array_equal(t.log_ratio, log_ratio)
    m = phi.apply(1)  # the all-ones tail's image: the constant tail phi(1)'s geometric series
    assert t.tail_const == float(tgt.prefix(m) / (1 - tgt.p(m)))


# 65 to 80 head digits: the tables run past DIGIT_CAP to the closed form's start
longer_heads = st.integers(65, 80).map(lambda m: MixedHeadTail((F(1, 2 * m),) * m, F(2, 3)))


@given(
    st.one_of(lookup_families, longer_heads, st.sampled_from([underflowing, long_head])),
    st.one_of(lookup_families, longer_heads),
    oracle_maps,
)
@settings(deadline=None, max_examples=40)
def test_float_tables_equal_the_rounded_fractions(source, target, phi):
    assert_tables_are_the_rounded_fractions(DigitRemap(source, target, phi))


def test_fixture_float_tables_equal_the_rounded_fractions(swap_remap, table_remap, identity_remap):
    for remap in (swap_remap, table_remap, identity_remap):
        assert_tables_are_the_rounded_fractions(remap)


def test_remap_values_refuses_nan_and_clamps_infinities(swap_remap):
    with pytest.raises(ValueError, match="NaN"):
        remap_values(swap_remap, np.array([0.25, np.nan]))
    ends = np.array([0.0, numeric._BELOW_ONE])
    infinities = np.array([-np.inf, np.inf])
    assert np.array_equal(remap_values(swap_remap, infinities), remap_values(swap_remap, ends))


def test_a_mass_that_underflows_keeps_points_in_range():
    remap = DigitRemap(underflowing, underflowing, PairSwap())  # digit 2 reads on: its image mass is about 1/4
    t = numeric._tables(remap)
    assert t.mass[1] == 0.0 and t.prefix[1] < t.prefix[2]
    xs = np.array([t.prefix[1], 0.7])
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


# a tail whose mass past digit 64 is most of the mass: 0.999**64 = 0.94, 0.99**64 = 0.53
slow = Geometric(F(999, 1000))


def test_slow_tail_identity_integrates_to_one_half():
    mc = monte_carlo_integral(DigitRemap(slow, slow, Identity()), samples=20_000, seed=7)
    assert abs(mc.mean - 0.5) < 5 * mc.std_error


def test_slow_tail_identity_samples_the_diagonal():
    xs, ys, dlog = sample_rows(DigitRemap(slow, slow, Identity()), 1000)
    assert np.max(np.abs(ys - xs)) < 1e-12
    assert np.array_equal(dlog, np.zeros(1000))


def test_slow_tail_pair_swap_agrees_with_closed_form():
    remap = DigitRemap(Geometric(F(99, 100)), Geometric(F(199, 200)), PairSwap())
    mc = monte_carlo_integral(remap, samples=50_000, seed=7)
    assert abs(mc.mean - float(closed_form_integral(remap).value)) < 5 * mc.std_error


def test_slow_tail_log_paths_concentrate_on_the_exact_law():
    remap = DigitRemap(Geometric(F(99, 100)), Geometric(F(199, 200)), PairSwap())
    mean, sd = expected_log_ratio(remap)
    paths = log_derivative_paths(remap, paths=20, depth=4_000, seed=3)
    assert np.all(np.abs(paths - mean) < 4 * sd / math.sqrt(4_000))


# sha256 of a Monte Carlo estimate whose last chunk is partial, log-derivative
# paths and a depth-64 grid, pinned before the digit lookup became one flagged
# table: a faster float kernel must keep every bit
@pytest.mark.parametrize(
    "remap, digest",
    [
        ("table", "ce89eb5a617ee24b5843806351c114f191b8db5b8854e6bac38a8e68336596fc"),
        ("slow", "603a6d4dab4a201d84fab1497969b12e4c72683698c8f39f4884683a26f2b364"),
        ("underflowing", "816ca2c4c55811ee5eb95bb331a362fdee3baf617813b562d84eb92d7a068cf9"),
        ("long_head", "f562f41647cb8e6bbd05f7800f87895856e8881e4f5852a06299f2531b816dcd"),
    ],
)
def test_float_outputs_are_pinned(remap, digest, table_remap):
    remap = {
        "table": table_remap,
        "slow": DigitRemap(slow, slow, Identity()),
        "underflowing": DigitRemap(underflowing, underflowing, PairSwap()),
        "long_head": DigitRemap(long_head, Geometric(F(2, 3)), PairSwap()),
    }[remap]
    mc = monte_carlo_integral(remap, samples=200_003)
    paths = log_derivative_paths(remap, paths=20, depth=5000)
    xs, ys, dlog = sample_rows(remap, 4000, depth=64)
    got = hashlib.sha256(repr(mc).encode() + b"".join(a.tobytes() for a in (paths, xs, ys, dlog)))
    assert got.hexdigest() == digest
