import itertools
import math
from fractions import Fraction

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
    Verdict,
    classify_point,
    cylinder,
    cylinder_derivative,
    derivative_ratio,
    digit_counts,
    expected_log_ratio,
)
from probdigit.core import log_rational

F = Fraction

digit_lists = st.lists(st.integers(1, 9), min_size=1, max_size=12)


class TestDerivativeRatio:
    def test_pairswap_families(self, swap_remap):
        # odd digits 2t-1 stretch by 2**(4t-2)/3**(2t), even digits 2t by
        # 2**(4t-2)/3**(2t-1); the even family exceeds 1 for every t, the odd
        # family dips below 1 at t = 1 and t = 2
        for t in range(1, 11):
            assert derivative_ratio(swap_remap, 2 * t - 1) == F(2 ** (4 * t - 2), 3 ** (2 * t))
            assert derivative_ratio(swap_remap, 2 * t) == F(2 ** (4 * t - 2), 3 ** (2 * t - 1))
        assert derivative_ratio(swap_remap, 1) == F(4, 9) < 1
        assert derivative_ratio(swap_remap, 3) == F(64, 81) < 1
        assert derivative_ratio(swap_remap, 2) == F(4, 3) > 1

    def test_identity_is_flat(self, identity_remap):
        for j in (1, 2, 17):
            assert derivative_ratio(identity_remap, j) == 1


class TestCylinderDerivative:
    def test_identity(self, identity_remap):
        assert cylinder_derivative(identity_remap, DigitSeq.of(3, 1, 4)) == 1

    def test_frozen_products(self, swap_remap):
        assert cylinder_derivative(swap_remap, DigitSeq.of(1, 1)) == F(16, 81)
        assert cylinder_derivative(swap_remap, DigitSeq.of(2, 2, 2)) == F(64, 27)

    @settings(deadline=None)
    @given(digits=digit_lists)
    def test_equals_width_quotient(self, digits, swap_remap, table_remap):
        seq = DigitSeq(tuple(digits))
        for remap in (swap_remap, table_remap):
            image = remap.image_digits(seq)
            quotient = (
                cylinder(remap.target, image).width / cylinder(remap.source, seq).width
            )
            assert cylinder_derivative(remap, seq) == quotient

    @given(digits=digit_lists)
    def test_equals_factored_form(self, digits, swap_remap):
        seq = DigitSeq(tuple(digits))
        product = F(1)
        for digit, count in digit_counts(seq, len(seq)).counts.items():
            product *= derivative_ratio(swap_remap, digit) ** count
        assert cylinder_derivative(swap_remap, seq) == product

    def test_empty_prefix_rejected(self, swap_remap):
        with pytest.raises(ValueError):
            cylinder_derivative(swap_remap, DigitSeq())


class TestDigitCounts:
    def test_frozen(self):
        assert digit_counts(DigitSeq.of(1, 2, 1, 3), 4).counts == {1: 2, 2: 1, 3: 1}
        assert digit_counts(DigitSeq.of(1, 1, 1), 2).counts == {1: 2}

    @given(digit_lists, st.data())
    def test_counts_sum_to_horizon(self, digits, data):
        horizon = data.draw(st.integers(0, len(digits)))
        stats = digit_counts(DigitSeq(tuple(digits)), horizon)
        assert sum(stats.counts.values()) == horizon
        assert all(c > 0 for c in stats.counts.values())

    def test_horizon_bounds(self):
        with pytest.raises(ValueError):
            digit_counts(DigitSeq.of(1, 2), 3)


class TestClassifyPoint:
    def test_identity_indicates_finite_derivative(self, identity_remap):
        seq = DigitSeq.of(*(3, 1, 4, 1, 5, 9, 2, 6))
        result = classify_point(identity_remap, seq, 8)
        assert result.verdict is Verdict.FINITE_DERIVATIVE_INDICATED
        assert result.window_ne == 0

    def test_all_twos_indicates_blowup(self, swap_remap):
        seq = DigitSeq.of(*([2] * 40))
        assert (
            classify_point(swap_remap, seq, 40).verdict
            is Verdict.INFINITE_DERIVATIVE_INDICATED
        )

    def test_alternating_is_inconclusive(self, swap_remap):
        seq = DigitSeq.of(*([1, 2] * 20))
        assert classify_point(swap_remap, seq, 40).verdict is Verdict.INCONCLUSIVE

    def test_only_the_late_window_decides(self, swap_remap):
        # early blow-up digits, flat tail: the window sees only the tail
        seq = DigitSeq.of(*([2] * 5 + [1] * 5))
        result = classify_point(swap_remap, seq, 10)
        assert result.verdict is Verdict.SINGULAR_INDICATED
        assert result.window_start == 6
        assert result.window_ge == 0 and result.total_ge == 5

    def test_report_mentions_window_and_counts(self, swap_remap):
        text = classify_point(swap_remap, DigitSeq.of(*([1, 2] * 5)), 10).report()
        assert "inconclusive" in text
        assert "window: 6..10" in text
        assert ">= at" in text


ratios = st.fractions(min_value=F(1, 10), max_value=F(8, 9), max_denominator=20)
head_masses = st.fractions(min_value=F(1, 20), max_value=F(1, 5), max_denominator=20)
families = st.one_of(
    ratios.map(Geometric),
    st.builds(MixedHeadTail, st.lists(head_masses, min_size=1, max_size=4).map(tuple), ratios),
    st.just(MixedHeadTail((F(3, 16), F(3, 16), F(1, 8), F(1, 8)), F(8, 9))),
)
digit_maps = st.one_of(
    st.just(Identity()),
    st.just(PairSwap()),
    st.integers(1, 6).flatmap(lambda n: st.permutations(range(1, n + 1))).map(TablePermutation),
)


def direct_log_ratio_law(remap):
    """Mean and standard deviation of the log ratio, summed digit by digit
    until the source tail mass falls below 1e-18."""
    src = remap.source
    weights, logs = [], []
    j = 1
    while src.tail_mass(j) >= F(1, 10**18):
        weights.append(float(src.p(j)))
        logs.append(log_rational(derivative_ratio(remap, j)))
        j += 1
    mean = math.fsum(w * lr for w, lr in zip(weights, logs))
    return mean, math.sqrt(math.fsum(w * (lr - mean) ** 2 for w, lr in zip(weights, logs)))


class TestExpectedLogRatio:
    def test_identity_is_exactly_zero(self, identity_remap):
        result = expected_log_ratio(identity_remap)
        assert result.value == 0.0
        # also for q near 1 (at 1 - 10**-400, q / (1 - q) is past float range) and below floats
        for q in (1 - F(1, 10**20), 1 - F(1, 10**200), 1 - F(1, 10**400), F(1, 10**320)):
            family = Geometric(q)
            assert expected_log_ratio(DigitRemap(family, family, Identity())) == (0.0, 0.0)

    def test_pairswap_matches_independent_closed_form(self, swap_remap):
        # summing the two digit families in closed form gives (10 ln2 - 7 ln3)/3
        expected = (10 * math.log(2) - 7 * math.log(3)) / 3
        result = expected_log_ratio(swap_remap)
        assert result.value < 0
        assert abs(result.value - expected) < 1e-12

    def test_extreme_families(self):
        # ratios within 1e-20 and 1e-200 of 1 (digits around 1e20 and 1e200,
        # whose squared spread exceeds a float) and one far below float range,
        # each as source and as target
        near_one, nearer_one = Geometric(1 - F(1, 10**20)), Geometric(1 - F(1, 10**200))
        tiny, half = Geometric(F(1, 10**320)), Geometric(F(1, 2))
        for source, target in itertools.product((half, near_one, nearer_one, tiny), repeat=2):
            result = expected_log_ratio(DigitRemap(source, target, PairSwap()))
            assert math.isfinite(result.value) and math.isfinite(result.std)
        # a family onto itself under the pair swap has a tail slope of exactly
        # 0; its log ratios are +-ln q, about 1e-400, and its std about 1e-400
        nearest_one = Geometric(1 - F(1, 10**400))
        assert expected_log_ratio(DigitRemap(nearest_one, nearest_one, PairSwap())) == (0.0, 0.0)
        # digits j have mean and spread about 1/eps, and the log ratio is about -j ln 2
        for source, scale in ((near_one, 1e20), (nearer_one, 1e200)):
            result = expected_log_ratio(DigitRemap(source, half, PairSwap()))
            assert math.isclose(result.value, -scale * math.log(2), rel_tol=1e-12)
            assert math.isclose(result.std, scale * math.log(2), rel_tol=1e-12)

    @given(families, families, digit_maps)
    @settings(deadline=None)
    def test_matches_direct_sum_and_is_never_positive(self, source, target, digit_map):
        remap = DigitRemap(source, target, digit_map)
        result = expected_log_ratio(remap)
        mean, std = direct_log_ratio_law(remap)
        assert math.isclose(result.value, mean, rel_tol=1e-12)
        assert math.isclose(result.std, std, rel_tol=1e-12)
        assert result.value <= 1e-12  # Gibbs' inequality
