"""Exact-arithmetic contracts of the expansion core.

Every derived expectation here was computed by hand from the partial-sum
formula or by iterating the one-digit shift, then frozen.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from probdigit import (
    Cylinder,
    DigitSeq,
    DomainError,
    Geometric,
    InvalidDistribution,
    MixedHeadTail,
    as_fraction,
    constant_point,
    cylinder,
    decode,
    evaluate,
    shift_value,
)

F = Fraction

digit_lists = st.lists(st.integers(1, 12), max_size=10)
ratios = st.fractions(min_value=F(1, 20), max_value=F(19, 20), max_denominator=30)


def vectors():
    return st.one_of(
        ratios.map(Geometric),
        st.tuples(
            st.lists(
                st.fractions(min_value=F(1, 40), max_value=F(1, 4), max_denominator=40),
                max_size=3,
            ),
            ratios,
        ).map(lambda t: MixedHeadTail(tuple(t[0]), t[1])),
    )


class TestProbVector:
    def test_geometric_half_masses(self, half):
        assert half.p(1) == F(1, 2)
        assert half.p(2) == F(1, 4)
        assert half.prefix(3) == F(3, 4)

    def test_geometric_twothirds_matches_power_form(self, twothirds):
        for j in range(1, 12):
            assert twothirds.p(j) == F(2 ** (j - 1), 3**j)

    def test_degenerate_ratios_rejected(self):
        for bad in (0, 1, F(5, 4), F(-1, 3)):
            with pytest.raises(InvalidDistribution):
                Geometric(F(bad))

    def test_mixed_head_validation(self):
        with pytest.raises(InvalidDistribution):
            MixedHeadTail((F(1, 2), F(1, 2)), F(1, 2))  # head mass hits 1
        with pytest.raises(InvalidDistribution):
            MixedHeadTail((F(3, 2),), F(1, 2))
        with pytest.raises(InvalidDistribution):
            MixedHeadTail((F(1, 4),), F(1))

    def test_mixed_piecewise_against_direct_summation(self, mixed):
        acc = F(0)
        for n in range(1, 15):
            assert mixed.prefix(n) == acc
            acc += mixed.p(n)

    @given(vectors(), st.integers(1, 40))
    def test_prefix_plus_tail_is_one(self, pv, n):
        assert pv.prefix(1) == 0
        assert pv.prefix(n) + pv.tail_mass(n) == 1
        assert pv.prefix(n) < 1

    @given(vectors(), st.integers(1, 40))
    def test_prefix_step_is_mass(self, pv, n):
        assert pv.prefix(n + 1) - pv.prefix(n) == pv.p(n)
        assert 0 < pv.p(n) < 1

    @given(vectors(), st.integers(1, 60))
    def test_closed_forms_match_termwise_definition(self, pv, n):
        start, coeff, ratio = pv.value_form()
        if n >= start:
            assert pv.p(n) == coeff * ratio**n
        start, coeff, ratio = pv.prefix_form()
        if n >= start:
            assert pv.prefix(n) == 1 - coeff * ratio**n

    def test_semantic_equality_across_families(self, half):
        also_half = MixedHeadTail((F(1, 2),), F(1, 2))
        assert half == also_half
        assert hash(half) == hash(also_half)
        assert half != Geometric(F(1, 3))

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            as_fraction(0.3)
        with pytest.raises(TypeError):
            Geometric(0.5)


class TestDigitSeq:
    def test_validation(self):
        with pytest.raises(ValueError):
            DigitSeq((0, 1))
        with pytest.raises(ValueError):
            DigitSeq((1,), tail=0)

    def test_canonical_strips_tail_digits(self):
        assert DigitSeq.of(2, 1, 1).canonical() == DigitSeq.of(2)
        assert DigitSeq.of(2, 2, tail=2).canonical() == DigitSeq(tail=2)

    def test_compare_sees_through_tails(self):
        assert DigitSeq.of(2).compare(DigitSeq.of(2, 1)) == 0
        assert DigitSeq.of(1, 3).compare(DigitSeq.of(2)) == -1
        assert DigitSeq.of(1, tail=2).compare(DigitSeq.of(1, 2)) == 1


class TestEvaluate:
    def test_all_ones_is_zero(self, half):
        assert evaluate(half, DigitSeq.of(1, 1, 1, 1)).value == 0
        assert evaluate(half, DigitSeq()).value == 0

    def test_single_digit(self, half):
        assert evaluate(half, DigitSeq.of(2)) == (F(1, 2), F(1, 4))

    def test_two_digits(self, half):
        # prefix(1) + prefix(2) * p(1) = 0 + (1/2)(1/2)
        assert evaluate(half, DigitSeq.of(1, 2)).value == F(1, 4)

    def test_constant_tail_sums_geometric_series(self, twothirds):
        assert constant_point(twothirds, 2) == F(1, 3) / (1 - F(2, 9))
        assert evaluate(twothirds, DigitSeq(tail=2)).value == F(3, 7)

    @given(vectors(), digit_lists)
    def test_shift_identity(self, pv, digits):
        seq = DigitSeq(tuple(digits))
        if not digits:
            return
        whole = evaluate(pv, seq).value
        rest = evaluate(pv, seq.drop(1)).value
        assert whole == pv.prefix(digits[0]) + pv.p(digits[0]) * rest


class TestDecode:
    def test_zero_decodes_to_ones(self, half):
        assert decode(half, 0, 5) == DigitSeq.of(1, 1, 1, 1, 1)

    def test_hand_iterated_shift_orbit(self, half):
        # 3/10 -> 3/5 -> 2/5 -> 4/5 picks digits 1, 2, 1, 3
        assert decode(half, F(3, 10), 4) == DigitSeq.of(1, 2, 1, 3)

    def test_left_endpoint_stays_with_its_digit(self, half):
        assert decode(half, F(1, 2), 3) == DigitSeq.of(2, 1, 1)

    def test_domain_checked(self, half):
        with pytest.raises(DomainError):
            decode(half, 1, 3)
        with pytest.raises(DomainError):
            decode(half, F(-1, 10), 3)
        with pytest.raises(ValueError):
            decode(half, F(1, 3), 0)

    def test_ratio_within_float_precision_of_one(self):
        # log(ratio) rounds to 0.0 here, so the float hint must step aside
        q = 1 - F(1, 10**20)
        seq = DigitSeq.of(2, 3, 1, 2)
        for pv in (Geometric(q), MixedHeadTail((F(1, 2),), q)):
            assert pv.digit_of(pv.prefix(3)) == 3
            assert decode(pv, evaluate(pv, seq).value, 4) == seq

    def test_decoded_cylinder_contains_the_point(self, half, twothirds):
        for pv in (half, twothirds):
            for num in range(0, 97, 7):
                x = F(num, 97)
                seq = decode(pv, x, 6)
                assert cylinder(pv, seq).contains(x)

    @given(vectors(), digit_lists)
    @settings(deadline=None)
    def test_roundtrip_is_exact(self, pv, digits):
        if not digits:
            return
        seq = DigitSeq(tuple(digits))
        value = evaluate(pv, seq).value
        assert decode(pv, value, len(digits)) == seq

    @given(vectors(), digit_lists, digit_lists)
    @settings(deadline=None)
    def test_lexicographic_order_is_value_order(self, pv, a, b):
        sa, sb = DigitSeq(tuple(a)), DigitSeq(tuple(b))
        order = sa.compare(sb)
        va, vb = evaluate(pv, sa).value, evaluate(pv, sb).value
        if order == 0:
            assert va == vb
        else:
            assert (va < vb) == (order < 0)


class TestShift:
    def test_fixed_point_at_zero(self, half):
        assert shift_value(half, 0) == 0

    def test_hand_values(self, half):
        assert shift_value(half, F(3, 10)) == F(3, 5)
        assert shift_value(half, F(3, 5)) == F(2, 5)

    def test_domain(self, half):
        with pytest.raises(DomainError):
            shift_value(half, F(7, 5))

    def test_digit_shift_drops_prefix(self):
        seq = DigitSeq.of(1, 2, 1, 3)
        assert seq.drop(1) == DigitSeq.of(2, 1, 3)
        assert seq.drop(0) == seq
        assert DigitSeq.of(2).drop(1) == DigitSeq()

    def test_value_and_digit_shifts_agree(self, half):
        seq = DigitSeq.of(1, 2, 1, 3)
        x = evaluate(half, seq).value
        for k in range(1, 4):
            x = shift_value(half, x)
            assert x == evaluate(half, seq.drop(k)).value


class TestCylinder:
    def test_frozen_examples(self, half, twothirds):
        c = cylinder(half, DigitSeq.of(2))
        assert (c.lo, c.hi, c.width) == (F(1, 2), F(3, 4), F(1, 4))
        c = cylinder(half, DigitSeq.of(1, 1))
        assert (c.lo, c.hi, c.width) == (F(0), F(1, 4), F(1, 4))
        c = cylinder(twothirds, DigitSeq.of(1))
        assert (c.lo, c.hi, c.width) == (F(0), F(1, 3), F(1, 3))

    def test_empty_prefix_rejected(self, half):
        with pytest.raises(ValueError):
            cylinder(half, DigitSeq())

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Cylinder(DigitSeq.of(1), F(0), F(1, 2), F(1, 3))

    @given(vectors(), digit_lists, st.integers(1, 6))
    @settings(deadline=None)
    def test_nesting(self, pv, digits, child):
        if not digits:
            return
        parent = cylinder(pv, DigitSeq(tuple(digits)))
        nested = cylinder(pv, DigitSeq(tuple(digits) + (child,)))
        assert parent.lo <= nested.lo and nested.hi <= parent.hi
        assert nested.width == parent.width * pv.p(child)

    def test_siblings_tile_without_gaps(self, half, mixed):
        for pv in (half, mixed):
            base = (1, 2)
            cells = [cylinder(pv, DigitSeq(base + (n,))) for n in range(1, 9)]
            for left, right in zip(cells, cells[1:]):
                assert left.hi == right.lo
            total = sum(c.width for c in cells)
            assert total == cells[-1].hi - cells[0].lo

    def test_extensions_stay_inside_and_widths_shrink(self, twothirds):
        seq = DigitSeq.of(3, 1, 2)
        cyl = cylinder(twothirds, seq)
        prev = F(1)
        for extra in ((2,), (2, 5), (2, 5, 1)):
            ext = evaluate(twothirds, DigitSeq(seq.digits + extra))
            assert cyl.contains(ext.value)
            assert ext.error_bound < prev
            prev = ext.error_bound
