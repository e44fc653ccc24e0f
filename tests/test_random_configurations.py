"""The exact series, the brackets and the log-ratio law over randomly drawn
configurations: geometric and mixed source and target families, with the
identity, the pair swap or a random permutation table as the digit map."""

import math
from fractions import Fraction

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
from probdigit.core import log_rational
from probdigit.remap import _digit_sums, _series_sums_exact, _terms_for_tolerance

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


digit_maps = st.one_of(
    st.just(Identity()),
    st.just(PairSwap()),
    st.integers(2, 12).flatmap(
        lambda size: st.permutations(range(1, size + 1)).map(lambda t: TablePermutation(tuple(t)))
    ),
)

remaps = st.builds(DigitRemap, families(), families(), digit_maps)


@given(remaps)
@settings(deadline=None, max_examples=60)
def test_exact_series_lie_between_partial_sums_and_their_tail(remap):
    exact = _series_sums_exact(remap)
    for n in (1, 4, 16, 40):
        partial = _digit_sums(remap, n)
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
