"""The exact series, the brackets, the log-ratio law, the order witnesses
and the point classifier over randomly drawn configurations: geometric and
mixed source and target families, with the identity, the pair swap or a
random permutation table as the digit map.

The library sums every series per residue class in closed form; the oracles
here sum one digit, or one bracket level, at a time, and the log-ratio law
also from the raw class moments sum_k k**i q**k.  It reads the order
witnesses off the digit map and classifies a point from one sign per digit;
the oracles evaluate and compare every one-digit point and keep three
counters per position."""

import itertools
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
    DigitSeq,
    closed_form_integral,
    decode,
    evaluate,
    expected_log_ratio,
    integral_bracket,
    monotonicity_witnesses,
)
from probdigit.core import DIGIT_CAP, ONE, ZERO, log_rational
from probdigit.derivative import PointClassification, Verdict, classify_point, derivative_ratio
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
# every family, or one with the slow tail ratio 8/9, whose digits run long
slow_or_any = st.one_of(
    families(), st.just(Geometric(F(8, 9))), st.just(MixedHeadTail((F(1, 3), F(1, 4)), F(8, 9)))
)
slow_remaps = st.builds(DigitRemap, slow_or_any, slow_or_any, digit_maps(12))


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


def moment_log_ratio_law(remap):
    """Mean and std of the log ratio from the exact class moments
    p_j0 sum_k k**i q**k (i = 0, 1, 2), the logs and moments scaled by powers
    of two so that the squared terms fit a float, then scaled back."""
    src = remap.source
    start, period, q, t = _eventual_classes(remap)
    step = t / q
    classes = [(src.p(j), ZERO, ZERO, derivative_ratio(remap, j)) for j in range(1, start)]
    for j0 in range(start, start + period):
        m0 = src.p(j0) / (ONE - q)
        m1 = m0 * q / (ONE - q) if step != ONE else ZERO
        classes.append((m0, m1, m1 * (ONE + q) / (ONE - q), derivative_ratio(remap, j0)))
    slope = log_rational(step)
    bits = max(m2.numerator.bit_length() - m2.denominator.bit_length() for *_, m2, _ in classes)
    shift = max(0, bits // 2)
    moments = [
        (
            float(m0),
            m1.numerator / (m1.denominator << shift),
            m2.numerator / (m2.denominator << 2 * shift),
            math.ldexp(log_rational(r), -shift),
        )
        for m0, m1, m2, r in classes
    ]
    mean = math.fsum(m0 * level + m1 * slope for m0, m1, _, level in moments)
    var = math.fsum(
        m0 * (level - mean) ** 2 + 2 * m1 * (level - mean) * slope + m2 * slope**2
        for m0, m1, m2, level in moments
    )
    return math.ldexp(mean, shift), math.ldexp(math.sqrt(var), shift)


@given(slow_remaps)
@settings(deadline=None, max_examples=150)
def test_log_ratio_law_matches_the_class_moments(remap):
    got = expected_log_ratio(remap)
    mean, std = moment_log_ratio_law(remap)
    assert math.isclose(got.value, mean, rel_tol=1e-14)
    assert math.isclose(got.std, std, rel_tol=1e-14)


def all_pairs_witnesses(remap):
    """Evaluate every point named by one digit 1..start+period, then take the
    first rising and the first falling pair of images over all pairs."""
    ev = remap.digit_map.eventual_structure()
    points = []
    for digit in range(1, ev.start + ev.period + 1):
        seq = DigitSeq((digit,))
        points.append((evaluate(remap.source, seq).value, remap.point_value(seq)))
    increasing = decreasing = None
    for a, b in itertools.combinations(points, 2):
        if a[1] < b[1]:
            increasing = increasing or (a, b)
        elif a[1] > b[1]:
            decreasing = decreasing or (a, b)
    return increasing, decreasing


def three_counter_classification(remap, seq, horizon):
    """Compare image and source mass at every position, counting >=, <= and
    != over the whole horizon and over the window (horizon/2, horizon]."""
    window_start = horizon // 2 + 1
    total, window = [0, 0, 0], [0, 0, 0]
    for k in range(1, horizon + 1):
        n = seq[k - 1]
        image_mass = remap.target.p(remap.digit_map.apply(n))
        source_mass = remap.source.p(n)
        marks = (image_mass >= source_mass, image_mass <= source_mass, image_mass != source_mass)
        for i, mark in enumerate(marks):
            total[i] += mark
            if k >= window_start:
                window[i] += mark
    if window[0] == 0:
        verdict = Verdict.SINGULAR_INDICATED
    elif window[1] == 0:
        verdict = Verdict.INFINITE_DERIVATIVE_INDICATED
    elif window[2] == 0:
        verdict = Verdict.FINITE_DERIVATIVE_INDICATED
    else:
        verdict = Verdict.INCONCLUSIVE
    return PointClassification(verdict, horizon, window_start, *window, *total)


@given(slow_remaps)
@settings(deadline=None, max_examples=150)
def test_order_witnesses_equal_the_all_pairs_search(remap):
    found = monotonicity_witnesses(remap)
    assert (found.increasing, found.decreasing) == all_pairs_witnesses(remap)
    assert found.increasing is not None
    assert (found.decreasing is None) == remap.digit_map.is_identity()


# small digits repeat, so most positions share a sign with another; large ones
# reach past the memoized head
digit_strings = st.lists(st.one_of(st.integers(1, 6), st.integers(1, 200)), min_size=1, max_size=80)
points = st.fractions(0, 1, max_denominator=10**6).filter(lambda x: x < 1)


@given(slow_remaps, st.data())
@settings(deadline=None, max_examples=200)
def test_classification_equals_the_three_counter_classifier(remap, data):
    if data.draw(st.booleans()):
        seq = DigitSeq(tuple(data.draw(digit_strings)))
    else:  # source-typical digits: the expansion of a drawn point
        seq = decode(remap.source, data.draw(points), data.draw(st.integers(1, 64)))
    horizon = data.draw(st.integers(1, len(seq)))
    assert classify_point(remap, seq, horizon) == three_counter_classification(remap, seq, horizon)
