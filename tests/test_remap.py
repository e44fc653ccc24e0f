"""Contracts of the digit remap: values, inverses, the one-step functional
identity, and both integral routes.

Derived expectations are frozen from independent oracles: geometric-series
sums for constant tails, partial sums of the expansion formula at depth 50,
400-term series sums for the integral, and a literal cylinder enumeration for
the bracket recursion.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from probdigit import remap as remap_module
from probdigit import (
    DigitRemap,
    DigitSeq,
    DomainError,
    Geometric,
    NotBijective,
    PairSwap,
    TablePermutation,
    closed_form_integral,
    cylinder,
    decode,
    integral_bracket,
    monotonicity_witnesses,
)

F = Fraction

digit_lists = st.lists(st.integers(1, 9), min_size=1, max_size=10)


def partial_sum(pv, digits):
    """Expansion partial sum computed straight from the formula, bypassing
    `evaluate`; the oracle for truncated values."""
    total = pv.prefix(digits[0])
    prod = F(1)
    for j in range(1, len(digits)):
        prod *= pv.p(digits[j - 1])
        total += pv.prefix(digits[j]) * prod
    return total, prod * pv.p(digits[-1])


class TestImageDigits:
    def test_pairswap_rewrites_and_marks_tail(self, swap_remap):
        image = swap_remap.image_digits(DigitSeq.of(1, 2, 3))
        assert image.digits == (2, 1, 4)
        assert image.tail == 2

    def test_identity_keeps_digits(self, identity_remap):
        image = identity_remap.image_digits(DigitSeq.of(5, 1, 5))
        assert image.digits == (5, 1, 5)
        assert image.tail == 1

    def test_table_lookup(self, half, twothirds):
        remap = DigitRemap(half, twothirds, TablePermutation((2, 3, 1)))
        image = remap.image_digits(DigitSeq.of(3, 3))
        assert image.digits == (1, 1)
        assert image.tail == 2

    def test_corrupt_table_rejected_at_construction(self, half, twothirds):
        with pytest.raises(NotBijective):
            DigitRemap(half, twothirds, TablePermutation((2, 2, 1)))


class TestApply:
    def test_zero_maps_to_constant_image_tail(self, swap_remap):
        # all-ones source tail -> all-twos image tail, a geometric series
        expected = F(1, 3) / (1 - F(2, 9))
        assert expected == F(3, 7)
        for depth in (1, 4, 9):
            assert swap_remap.apply(0, depth).value == expected

    def test_identity_map_is_exact_at_any_depth(self, identity_remap):
        for depth in (1, 2, 8):
            assert identity_remap.apply(F(2, 5), depth) == (F(2, 5), 0)

    def test_terminating_point_is_exact_and_matches_deep_partial_sums(self, swap_remap):
        got = swap_remap.apply(F(1, 2), 6)
        image_digits = [1] + [2] * 49
        approx, width = partial_sum(swap_remap.target, image_digits)
        assert abs(got.value - approx) < width
        assert got.value == F(1, 3) * F(3, 7)  # one target-1 step into the constant tail

    def test_error_bound_is_image_cylinder_width(self, swap_remap):
        x = F(3, 10)
        result = swap_remap.apply(x, 5)
        image = swap_remap.image_digits(decode(swap_remap.source, x, 5))
        assert result.error_bound == cylinder(swap_remap.target, image).width

    def test_deeper_reads_stay_within_the_bound(self, swap_remap, table_remap):
        for remap in (swap_remap, table_remap):
            for num in (1, 13, 57, 92):
                x = F(num, 101)
                coarse = remap.apply(x, 4)
                fine = remap.apply(x, 24)
                assert abs(fine.value - coarse.value) < coarse.error_bound

    def test_domain_checked(self, swap_remap):
        with pytest.raises(DomainError):
            swap_remap.apply(F(3, 2), 4)


class TestApplyInverse:
    def test_identity(self, identity_remap):
        assert identity_remap.apply_inverse(F(1, 3), 5) == (F(1, 3), 0)

    def test_constant_image_point_pulls_back_to_zero(self, swap_remap):
        for depth in (1, 3, 9):
            assert swap_remap.apply_inverse(F(3, 7), depth).value == 0

    def test_round_trip_reproduces_image_digits(self, swap_remap, table_remap):
        import random

        rng = random.Random(20240817)
        depth = 7
        for remap in (swap_remap, table_remap):
            for _ in range(100):
                y = F(rng.randint(0, 10**6 - 1), 10**6)
                x = remap.apply_inverse(y, depth).value
                forward = remap.apply(x, depth)
                assert decode(remap.target, forward.value, depth) == decode(
                    remap.target, y, depth
                )

    def test_forward_then_back_recovers_source_digits(self, swap_remap):
        depth = 7
        for num in range(1, 60, 7):
            x = F(num, 64)
            y = swap_remap.apply(x, depth).value
            back = swap_remap.apply_inverse(y, depth).value
            assert decode(swap_remap.source, back, depth) == decode(
                swap_remap.source, x, depth
            )

    def test_inverted_swaps_sides(self, swap_remap):
        inv = swap_remap.inverted()
        assert inv.source == swap_remap.target
        assert inv.target == swap_remap.source
        # 1/3 terminates on the target side ((2,1,1,...)), so the inverted
        # remap lands exactly; its preimage under pairswap is (1,2,2,...),
        # which evaluates back to 1/3 under the halving weights
        assert inv.apply(F(1, 3), 6).value == F(1, 3)
        # at a non-terminating point the constant-tail reading stays within
        # the cylinder bound of the true preimage, here 0
        near_zero = inv.apply(F(3, 7), 6)
        assert abs(near_zero.value) < near_zero.error_bound


class TestResidual:
    def test_fixed_point_identity_at_zero(self, swap_remap):
        seq = DigitSeq.of(1, 1, 1, 1)
        assert swap_remap.residual(seq, 1) == 0
        assert F(3, 7) == F(1, 3) + F(2, 9) * F(3, 7)

    def test_identity_remap_everywhere(self, identity_remap):
        seq = DigitSeq.of(4, 1, 2, 2)
        for k in range(1, 5):
            assert identity_remap.residual(seq, k) == 0

    @settings(deadline=None)
    @given(digits=digit_lists, data=st.data())
    def test_zero_for_random_positions(self, digits, data, swap_remap, table_remap):
        seq = DigitSeq(tuple(digits))
        k = data.draw(st.integers(1, len(seq)))
        assert swap_remap.residual(seq, k) == 0
        assert table_remap.residual(seq, k) == 0

    def test_position_bounds(self, swap_remap):
        with pytest.raises(ValueError):
            swap_remap.residual(DigitSeq.of(1, 2), 3)


class TestClosedFormIntegral:
    def test_identity_over_halves(self, identity_remap):
        from probdigit.remap import _digit_sums

        result = closed_form_integral(identity_remap)
        assert result == (F(1, 2), 0)
        # numerator 1/3 over denominator 1 - 1/3 = 2/3
        assert _digit_sums(identity_remap) == (F(1, 3), F(1, 3))

    def test_pairswap_worked_example(self, swap_remap):
        from probdigit.remap import _digit_sums

        result = closed_form_integral(swap_remap)
        assert result.value == F(11, 25)
        assert result.tail_bound == 0
        assert _digit_sums(swap_remap) == (F(11, 32), F(7, 32))

    def test_series_sums_against_brute_force(self, swap_remap, table_remap):
        for remap in (swap_remap, table_remap):
            exact = closed_form_integral(remap).value
            s_pref = s_mass = F(0)
            for j in range(1, 401):
                m = remap.digit_map.apply(j)
                s_pref += remap.target.prefix(m) * remap.source.p(j)
                s_mass += remap.target.p(m) * remap.source.p(j)
            slack = remap.source.tail_mass(401)
            assert s_pref / (1 - s_mass) <= exact <= (s_pref + slack) / (1 - s_mass - slack)

    def test_truncated_mode_brackets_the_exact_value(self, swap_remap, table_remap):
        for remap in (swap_remap, table_remap):
            exact = closed_form_integral(remap).value
            for terms in (1, 5, 30):
                trunc = closed_form_integral(remap, terms=terms)
                assert trunc.lo <= exact <= trunc.hi

    def test_tolerance_driven_truncation(self, swap_remap):
        result = closed_form_integral(swap_remap, exact=False)
        assert result.tail_bound > 0
        assert result.lo <= F(11, 25) <= result.hi
        assert result.tail_bound < F(1, 10**10)

    def test_truncation_length_is_the_fewest_terms_within_tolerance(self, half, mixed):
        from probdigit.remap import _terms_for_tolerance

        for pv in (half, mixed, Geometric(F(7, 9))):
            masses = [pv.tail_mass(k) for k in range(2, 60)]
            for tol in [*masses, *(m + F(1, 10**40) for m in masses), *(m * F(9, 10) for m in masses)]:
                fewest = next(n for n in itertools.count(1) if pv.tail_mass(n + 1) <= tol)
                assert _terms_for_tolerance(pv, tol) == fewest
            assert _terms_for_tolerance(pv, F(1)) == _terms_for_tolerance(pv, F(3)) == 1
        # a float tolerance is compared exactly, as a Fraction would be
        assert _terms_for_tolerance(half, 1e-300) == 997

    def test_terms_past_the_bit_budget_are_refused(self, swap_remap):
        # period 2, q = (1/2)^2 and q t = 1/9: 4 bits per class term, and
        # 2^18 // 4 = 65536 terms per class
        with pytest.raises(DomainError, match="terms 131074 exceeds 131073"):
            closed_form_integral(swap_remap, terms=131074)

    def test_numerator_and_denominator_signs(self, swap_remap, table_remap, identity_remap):
        from probdigit.remap import _digit_sums

        for remap in (swap_remap, table_remap, identity_remap):
            s_pref, s_mass = _digit_sums(remap)
            assert s_pref >= 0
            assert 0 < 1 - s_mass <= 1


class TestIntegralBracket:
    def test_identity_brackets_shrink_around_half(self, identity_remap):
        prev = None
        for depth in range(1, 7):
            bracket = integral_bracket(identity_remap, depth)
            assert bracket.contains(F(1, 2))
            if prev is not None:
                assert bracket.width < prev
            prev = bracket.width

    def test_pairswap_depth8_contains_closed_form(self, swap_remap):
        bracket = integral_bracket(swap_remap, 8)
        assert bracket.contains(F(11, 25))

    def test_recursion_equals_explicit_cylinder_enumeration(
        self, swap_remap, table_remap, monkeypatch
    ):
        def enumerate_bracket(remap, depth, cap):
            src, tgt, phi = remap.source, remap.target, remap.digit_map
            lo_total = hi_total = F(0)

            def image_bounds(digits):
                if not digits:
                    return F(0), F(1)
                c = cylinder(tgt, DigitSeq(tuple(phi.apply(d) for d in digits)))
                return c.lo, c.hi

            def walk(digits, width, remaining):
                nonlocal lo_total, hi_total
                img_lo, img_hi = image_bounds(digits)
                if remaining == 0:
                    lo_total += width * img_lo
                    hi_total += width * img_hi
                    return
                band = width * src.tail_mass(cap + 1)
                lo_total += band * img_lo
                hi_total += band * img_hi
                for n in range(1, cap + 1):
                    walk(digits + (n,), width * src.p(n), remaining - 1)

            walk((), F(1), depth)
            return lo_total, hi_total

        for remap in (swap_remap, table_remap):
            for depth, cap in ((1, 5), (2, 4), (3, 3)):
                # a small digit cap keeps the enumeration short; a fresh remap
                # sums its bracket head under the patched cap
                monkeypatch.setattr(remap_module, "DIGIT_CAP", cap)
                fresh = DigitRemap(remap.source, remap.target, remap.digit_map)
                bracket = integral_bracket(fresh, depth)
                assert (bracket.lower, bracket.upper) == enumerate_bracket(remap, depth, cap)

    def test_depth_past_the_bit_budget_is_refused(self, swap_remap):
        # the 64-digit head sum B of the worked example has a 102-bit
        # denominator, and 2570 * 102 <= MAX_PREFIX_BITS < 2571 * 102
        assert integral_bracket(swap_remap, 2570).contains(F(11, 25))
        with pytest.raises(DomainError, match="depth 2571 exceeds 2570"):
            integral_bracket(swap_remap, 2571)

    def test_closed_form_always_inside(self, swap_remap, table_remap, identity_remap, mixed):
        remaps = [
            swap_remap,
            table_remap,
            identity_remap,
            DigitRemap(mixed, Geometric(F(2, 3)), PairSwap()),
        ]
        for remap in remaps:
            value = closed_form_integral(remap).value
            assert integral_bracket(remap, 7).contains(value)


class TestContinuityModulus:
    @settings(deadline=None)
    @given(
        shared=st.lists(st.integers(1, 6), min_size=1, max_size=6),
        ext_a=st.lists(st.integers(1, 6), max_size=5),
        ext_b=st.lists(st.integers(1, 6), max_size=5),
    )
    def test_shared_prefix_pins_the_image_gap(self, shared, ext_a, ext_b, swap_remap, table_remap):
        for remap in (swap_remap, table_remap):
            a = remap.point_value(DigitSeq(tuple(shared + ext_a)))
            b = remap.point_value(DigitSeq(tuple(shared + ext_b)))
            modulus = F(1)
            for d in shared:
                modulus *= remap.target.p(remap.digit_map.apply(d))
            assert abs(a - b) < modulus


class TestMonotonicityWitnesses:
    def test_pairswap_rises_and_falls_within_two_digit_prefixes(self, swap_remap):
        found = monotonicity_witnesses(swap_remap)
        assert found.increasing is not None
        assert found.decreasing is not None
        (x1, y1), (x2, y2) = found.increasing
        assert x1 < x2 and y1 < y2
        (x1, y1), (x2, y2) = found.decreasing
        assert x1 < x2 and y1 > y2

    def test_identity_never_falls(self, identity_remap):
        found = monotonicity_witnesses(identity_remap)
        assert found.increasing is not None
        assert found.decreasing is None

    def test_table_map_also_non_monotone(self, table_remap):
        found = monotonicity_witnesses(table_remap)
        assert found.increasing and found.decreasing

    def test_every_non_identity_permutation_up_to_five_rises_and_falls(self, half, mixed):
        for size in range(2, 6):
            for table in itertools.permutations(range(1, size + 1)):
                phi = TablePermutation(table)
                if phi.is_identity():
                    continue
                found = monotonicity_witnesses(DigitRemap(half, mixed, phi))
                assert found.increasing and found.decreasing, table

    def test_large_table_inverted_only_at_its_end(self, half, mixed):
        # the only inversion sits at digits 127 and 128 of a 128-entry table
        phi = TablePermutation(tuple(range(1, 127)) + (128, 127))
        found = monotonicity_witnesses(DigitRemap(half, mixed, phi))
        (x1, y1), (x2, y2) = found.decreasing
        assert x1 == half.prefix(127) and x2 == half.prefix(128) and y1 > y2
        assert found.increasing is not None
