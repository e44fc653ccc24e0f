import math
from fractions import Fraction

import numpy as np

from probdigit import (
    DigitRemap,
    Geometric,
    MixedHeadTail,
    PairSwap,
    closed_form_integral,
    expected_log_ratio,
)
from probdigit.numeric import (
    log_derivative_paths,
    log_ratio_moments,
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


def test_log_ratio_moments_match_diagnostic(swap_remap):
    mean, sd = log_ratio_moments(swap_remap)
    assert abs(mean - expected_log_ratio(swap_remap, 64).value) < 1e-12
    assert sd > 0


def test_log_ratio_stays_finite_when_source_masses_underflow():
    # source masses from digit 4 on underflow to 0.0 as floats
    source = MixedHeadTail((F(1, 2),), F(1, 10**320))
    remap = DigitRemap(source, Geometric(F(2, 3)), PairSwap())
    _, ys, dlog = sample_rows(remap, 8)
    assert np.all(np.isfinite(ys)) and np.all(np.isfinite(dlog))
    assert all(math.isfinite(v) for v in log_ratio_moments(remap))


def test_log_derivative_paths_concentrate(swap_remap):
    mean, sd = log_ratio_moments(swap_remap)
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
