"""The exact series, the brackets and the log-ratio law over randomly drawn
configurations: geometric and mixed source and target families, with the
identity, the pair swap or a random permutation table as the digit map.

The library sums every series per residue class in closed form; the oracles
here sum one digit, or one bracket level, at a time."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from probdigit import (
    DigitRemap,
    Geometric,
    Identity,
    MixedHeadTail,
    PairSwap,
    TablePermutation,
    closed_form_integral,
    expected_log_ratio,
    integral_bracket,
)
from probdigit.core import DIGIT_CAP, log_rational
from probdigit.remap import _digit_sums, _eventual_classes, _terms_for_tolerance

F = Fraction


@st.composite
def ratios(draw):
    """A fraction strictly inside (0, 1) with denominator at most 10."""
    den = draw(st.integers(2, 10))
    return F(draw(st.integers(1, den - 1)), den)


@st.composite
def families(draw):
    q = draw(ratios())
    if draw(st.booleans()):
        return Geometric(q)
    head, left = [], F(1)
    for _ in range(draw(st.integers(0, 4))):
        mass = left * draw(ratios())
        head.append(mass)
        left -= mass
    return MixedHeadTail(tuple(head), q)


def digit_maps(largest_table):
    return st.one_of(
        st.just(Identity()),
        st.just(PairSwap()),
        st.integers(2, largest_table).flatmap(
            lambda size: st.permutations(range(1, size + 1)).map(lambda t: TablePermutation(tuple(t)))
        ),
    )


remaps = st.builds(DigitRemap, families(), families(), digit_maps(12))
wide_remaps = st.builds(DigitRemap, families(), families(), digit_maps(30))


def partial_sums(remap, count):
    """[(sum prefix_target(phi(j)) p_j, sum p_target(phi(j)) p_j) over
    j = 1..n for n = 0..count], adding one digit at a time."""
    src, tgt, phi = remap.source, remap.target, remap.digit_map
    sums = [(F(0), F(0))]
    for j in range(1, count + 1):
        m = phi.apply(j)
        s_pref, s_mass = sums[-1]
        sums.append((s_pref + tgt.prefix(m) * src.p(j), s_mass + tgt.p(m) * src.p(j)))
    return sums


def assert_partial_sums_equal_the_digit_by_digit_sums(remap):
    start, period, _, _ = _eventual_classes(remap)
    sums = partial_sums(remap, 257)
    for n in [*range(start + 2 * period + 2), 64, 257]:
        assert _digit_sums(remap, n) == sums[n]


@given(wide_remaps)
@settings(deadline=None, max_examples=60)
def test_partial_sums_equal_the_digit_by_digit_sums(remap):
    assert_partial_sums_equal_the_digit_by_digit_sums(remap)


# a tiny ratio and two within float precision of 1, whose exact powers grow
# by about 100 bits per digit
@pytest.mark.parametrize("q", [F(1, 10**30), 1 - F(1, 10**20), 1 - F(1, 10**30)])
def test_partial_sums_under_extreme_ratios(q):
    mixed = MixedHeadTail((F(1, 3), F(1, 5)), F(7, 10))
    assert_partial_sums_equal_the_digit_by_digit_sums(DigitRemap(Geometric(q), mixed, PairSwap()))
    reversal = TablePermutation(tuple(range(30, 0, -1)))
    assert_partial_sums_equal_the_digit_by_digit_sums(DigitRemap(mixed, Geometric(q), reversal))


@given(wide_remaps)
@settings(deadline=None, max_examples=30)
def test_bracket_equals_the_per_level_recursion(remap):
    pref_sum, mass_sum = partial_sums(remap, DIGIT_CAP)[-1]
    band = remap.source.tail_mass(DIGIT_CAP + 1)
    lower, upper = F(0), F(1)
    for depth in range(1, 41):
        lower = pref_sum + mass_sum * lower
        upper = pref_sum + mass_sum * upper + band
        assert integral_bracket(remap, depth) == (lower, upper)


@given(remaps)
@settings(deadline=None, max_examples=60)
def test_exact_series_lie_between_partial_sums_and_their_tail(remap):
    exact = _digit_sums(remap)
    sums = partial_sums(remap, 40)
    for n in (1, 4, 16, 40):
        partial = sums[n]
        tail = remap.source.tail_mass(n + 1)
        for lo, value in zip(partial, exact):
            assert lo <= value <= lo + tail


@given(remaps)
@settings(deadline=None, max_examples=60)
def test_closed_form_lies_in_every_bracket(remap):
    closed = closed_form_integral(remap).value
    for depth in range(1, 7):
        assert integral_bracket(remap, depth).contains(closed)


@given(remaps)
@settings(deadline=None, max_examples=40)
def test_log_ratio_law_matches_a_direct_sum(remap):
    src, tgt, phi = remap.source, remap.target, remap.digit_map
    n = _terms_for_tolerance(src, F(1, 10**30))  # the digits past n carry under 1e-30
    weights, logs = [], []
    for j in range(1, n + 1):
        mass = src.p(j)
        weights.append(float(mass))
        logs.append(log_rational(tgt.p(phi.apply(j)) / mass))
    mean = math.fsum(w * x for w, x in zip(weights, logs))
    var = math.fsum(w * (x - mean) ** 2 for w, x in zip(weights, logs))
    # float error scales with sum p_j |ln ratio_j| (and its square), not with the mean
    scale = math.fsum(w * abs(x) for w, x in zip(weights, logs))
    square = math.fsum(w * x * x for w, x in zip(weights, logs))
    got = expected_log_ratio(remap)
    assert abs(got.value - mean) <= 1e-12 * scale + 1e-25
    assert abs(got.std**2 - var) <= 1e-12 * square + 1e-25
