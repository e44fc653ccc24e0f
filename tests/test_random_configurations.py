"""The exact series, the brackets, the log-ratio law, the order witnesses
and the point classifier over randomly drawn configurations: geometric and
mixed source and target families, with the identity, the pair swap or a
random permutation table as the digit map.

The library sums every series per residue class in closed form; the oracles
here sum one digit, or one bracket level, at a time, and the log-ratio law
also from the raw class moments sum_k k**i q**k.  The bracket over every
digit must also lie inside the older bracket over digits up to 64 plus a
band.  It reads the order witnesses off the digit map and classifies a point
from one sign per digit; the oracles evaluate and compare every one-digit
point and keep three counters per position.  The class table every series
reads is checked against the class head computed apart from it and against
the per-digit masses.  The one-step residual, which the library forms from
integer triples, is checked against the `Fraction` masses, and `apply_inverse`
against `apply` at drawn depths.  Family equality and hashing are checked
against the masses, across the spellings of one law."""

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
from probdigit.derivative import (
    PointClassification,
    Verdict,
    classify_point,
    cylinder_derivative,
    derivative_ratio,
)
from probdigit.remap import _digit_sums, _terms_for_tolerance

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


def eventual_classes(remap):
    """(start, period, q, t), computed apart from the class table: from digit
    `start` on, the source masses, the digit map and the target forms at
    phi(j) are all in closed form, so along each residue class of the map's
    eventual period they scale by q (source) or t (target), the family
    ratios to the power period."""
    sv = remap.source.prefix_form()
    tv = remap.target.prefix_form()
    start, period, offsets = remap.digit_map.eventual_structure()
    start = max(sv.start, start, tv.start + max(abs(c) for c in offsets))
    return start, period, sv.ratio**period, tv.ratio**period


@given(wide_remaps)
@settings(deadline=None, max_examples=60)
def test_class_table_holds_each_representative_digit(remap):
    src, tgt, phi = remap.source, remap.target, remap.digit_map
    start, period, q, t, rows = remap._classes
    assert (start, period, q, t) == eventual_classes(remap)
    # each row is p_j and tail_source(j) over e, then o_phi(j) and tail_target(phi(j)) over E
    assert tuple((F(c, e), F(s, e), F(C, E), F(S, E)) for c, s, e, C, S, E in rows) == tuple(
        (src.p(j), 1 - src.prefix(j), tgt.p(phi.apply(j)), 1 - tgt.prefix(phi.apply(j)))
        for j in range(1, start + period)
    )


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
    start, period, _, _ = eventual_classes(remap)
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
    # the whole-series sums, read back from the closed form A / (1 - B)
    pref_sum, mass_sum = _digit_sums(remap)
    assert closed_form_integral(remap).value == pref_sum / (1 - mass_sum)
    lower, upper = F(0), F(1)
    for depth in range(1, 41):
        lower = pref_sum + mass_sum * lower
        upper = pref_sum + mass_sum * upper
        assert integral_bracket(remap, depth) == (lower, upper)


def head_and_band_bracket(remap, depth):
    """The bracket over the cylinders whose digits stay at or below 64: the
    recursion on the 64-digit head sums, plus the source mass past digit 64
    as a band at every level."""
    pref_sum, mass_sum = partial_sums(remap, 64)[-1]
    band = 1 - remap.source.prefix(65)
    lower, upper = F(0), F(1)
    for _ in range(depth):
        lower = pref_sum + mass_sum * lower
        upper = pref_sum + mass_sum * upper + band
    return lower, upper


@given(slow_remaps, st.sampled_from([1, 2, 8]))
@settings(deadline=None, max_examples=60)
def test_bracket_lies_inside_the_head_and_band_bracket(remap, depth):
    closed = closed_form_integral(remap).value
    bracket = integral_bracket(remap, depth)
    lower, upper = head_and_band_bracket(remap, depth)
    assert lower <= bracket.lower <= closed <= bracket.upper <= upper


@given(remaps)
@settings(deadline=None, max_examples=60)
def test_exact_series_lie_between_partial_sums_and_their_tail(remap):
    exact = _digit_sums(remap)
    sums = partial_sums(remap, 40)
    for n in (1, 4, 16, 40):
        partial = sums[n]
        tail = 1 - remap.source.prefix(n + 1)
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


# digits in the families' memoized head and past it, whose masses are read fresh
head_and_far_digits = st.one_of(st.integers(1, 12), st.integers(DIGIT_CAP, DIGIT_CAP + 40))


@given(remaps, st.lists(head_and_far_digits, min_size=1, max_size=8))
@settings(deadline=None, max_examples=100)
def test_derivative_ratios_equal_the_mass_quotients(remap, digits):
    src, tgt, phi = remap.source, remap.target, remap.digit_map
    quotients = [tgt.p(phi.apply(d)) / src.p(d) for d in digits]
    assert [derivative_ratio(remap, d) for d in digits] == quotients
    assert cylinder_derivative(remap, DigitSeq(tuple(digits))) == math.prod(quotients)


@given(remaps, st.sampled_from([0, -1, True, 1.0, "2"]))
@settings(deadline=None, max_examples=30)
def test_derivative_ratio_refuses_a_non_digit(remap, digit):
    with pytest.raises(ValueError) as refused:
        derivative_ratio(remap, digit)
    assert str(refused.value) == f"digits are positive integers, got {digit!r}"


def moment_log_ratio_law(remap):
    """Mean and std of the log ratio from the exact class moments
    p_j0 sum_k k**i q**k (i = 0, 1, 2), the logs and moments scaled by powers
    of two so that the squared terms fit a float, then scaled back."""
    src = remap.source
    start, period, q, t = eventual_classes(remap)
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


@given(slow_remaps, st.lists(head_and_far_digits, min_size=1, max_size=12), st.integers(1, 4))
@settings(deadline=None, max_examples=100)
def test_residual_is_zero_against_the_fraction_oracle(remap, digits, tail):
    tgt, phi = remap.target, remap.digit_map
    seq = DigitSeq(tuple(digits), tail)
    for k in range(1, len(seq) + 1):
        m = phi.apply(seq[k - 1])
        lhs = remap.point_value(seq.drop(k - 1))
        # the residual is |lhs - rhs|, so 0 means its right side is this oracle
        assert lhs == tgt.prefix(m) + tgt.p(m) * remap.point_value(seq.drop(k))
        assert remap.residual(seq, k) == 0


@given(slow_remaps, points, st.integers(1, 64))
@settings(deadline=None, max_examples=100)
def test_apply_inverse_gives_back_the_digits_apply_read(remap, x, depth):
    back = remap.apply_inverse(remap.apply(x, depth).value, depth).value
    assert decode(remap.source, back, depth) == decode(remap.source, x, depth)


@given(families(), families(), st.integers(0, 3), st.data())
@settings(deadline=None, max_examples=200)
def test_equal_families_hash_alike_across_spellings(a, b, extra, data):
    # a's law spelled with `extra` more head masses, read off that law: a Geometric
    # family's head then continues the geometric law
    start, _, q = a.prefix_form()
    longer = MixedHeadTail(tuple(a.p(j) for j in range(1, start + extra)), q)
    assert longer == a and hash(longer) == hash(a)
    if longer.head:  # one head mass moved off the law
        j = data.draw(st.integers(1, len(longer.head)))
        head = list(longer.head)
        head[j - 1] *= data.draw(ratios())
        perturbed = MixedHeadTail(tuple(head), q)
        assert perturbed != a and perturbed != longer
    # == is equality of every mass: the same ratio, and the same masses up to the
    # later tail start, past which both are geometric from equal masses
    (sa, _, qa), (sb, _, qb) = a.prefix_form(), b.prefix_form()
    same_law = qa == qb and all(a.p(j) == b.p(j) for j in range(1, max(sa, sb) + 1))
    for x in (a, longer):
        assert (x == b) == same_law
        assert x != b or hash(x) == hash(b)
