"""Contracts of the digit remap: values, inverses, the one-step functional
identity, and both integral routes.

Derived expectations are frozen from independent oracles: geometric-series
sums for constant tails, partial sums of the expansion formula at depth 50,
400-term series sums for the integral, and a literal cylinder enumeration for
the bracket recursion.
"""

import itertools
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from probdigit import (
    DigitRemap,
    DigitSeq,
    DomainError,
    Geometric,
    Identity,
    MixedHeadTail,
    NotBijective,
    PairSwap,
    TablePermutation,
    closed_form_integral,
    cylinder,
    decode,
    evaluate,
    expected_log_ratio,
    integral_bracket,
    monotonicity_witnesses,
)
from probdigit.remap import _digit_sums

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
        # the pair swap is its own inverse, so the inverse remap swaps only the sides
        inv = DigitRemap(swap_remap.target, swap_remap.source, PairSwap())
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
        result = closed_form_integral(identity_remap)
        assert result == (F(1, 2), 0)
        # numerator 1/3 over denominator 1 - 1/3 = 2/3
        assert _digit_sums(identity_remap) == (F(1, 3), F(1, 3))

    def test_pairswap_worked_example(self, swap_remap):
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
            slack = 1 - remap.source.prefix(401)
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
            masses = [1 - pv.prefix(k) for k in range(2, 60)]
            for tol in [*masses, *(m + F(1, 10**40) for m in masses), *(m * F(9, 10) for m in masses)]:
                fewest = next(n for n in itertools.count(1) if 1 - pv.prefix(n + 1) <= tol)
                assert _terms_for_tolerance(pv, tol) == fewest
            assert _terms_for_tolerance(pv, F(1)) == _terms_for_tolerance(pv, F(3)) == 1
        # a float tolerance is compared exactly, as a Fraction would be
        assert _terms_for_tolerance(half, 1e-300) == 997

    def test_truncated_sum_computes_each_deep_prefix_once(self):
        # n = 263 lies past the memoized head, so every entry there is a fresh
        # power; the digit search reads digit 263's integer triple, the slack
        # is 1 - prefix(n + 1), and prefix(n) == 1 - tol is read off the
        # search's shifted point
        prefixes, triples = [], []

        class CountingGeometric(Geometric):
            def prefix(self, n):
                prefixes.append(n)
                return super().prefix(n)

            def _triple(self, n):
                triples.append(n)
                return super()._triple(n)

        remap = DigitRemap(CountingGeometric(F(9, 10)), Geometric(F(1, 2)), PairSwap())
        for _ in ("cold", "warm"):
            prefixes.clear()
            triples.clear()
            result = closed_form_integral(remap, exact=False)
            assert triples.count(263) == 1 and prefixes.count(264) == 1
            assert prefixes.count(263) == 0 and triples.count(264) <= 1
            assert result.tail_bound > 0

    def test_terms_past_the_bit_budget_are_refused(self, swap_remap):
        # period 2, q = (1/2)^2 and q t = 1/9: 4 bits per class term, and
        # 2^18 // 4 = 65536 terms per class
        with pytest.raises(DomainError, match="terms 131074 exceeds 131073"):
            closed_form_integral(swap_remap, terms=131074)

    def test_numerator_and_denominator_signs(self, swap_remap, table_remap, identity_remap):
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

    def test_recursion_equals_explicit_cylinder_enumeration(self, swap_remap, table_remap, half, mixed):
        def enumerate_brackets(remap, depth, cap):
            """[(lower, upper) at depth 0..depth], each summing source mass times
            image-cylinder end over every digit string of that length: digits
            1..cap one by one at each node, and the subtrees whose next digit
            exceeds cap in exact form, from the series past cap and the
            enumerated bracket one level shallower."""
            src, tgt, phi = remap.source, remap.target, remap.digit_map
            (a, b), (a_head, b_head) = _digit_sums(remap), _digit_sums(remap, cap)
            rest_mass = 1 - src.prefix(cap + 1)
            brackets = [(F(0), F(1))]

            def walk(digits, width, remaining, end):  # end 0 sums lower ends, 1 upper ends
                img_lo, img_width = F(0), F(1)
                if digits:
                    c = cylinder(tgt, DigitSeq(tuple(map(phi.apply, digits))))
                    img_lo, img_width = c.lo, c.width
                if remaining == 0:
                    return width * (img_lo + end * img_width)
                inner = brackets[remaining - 1][end]
                total = width * (rest_mass * img_lo + img_width * (a - a_head + (b - b_head) * inner))
                for n in range(1, cap + 1):
                    total += walk(digits + (n,), width * src.p(n), remaining - 1, end)
                return total

            for level in range(1, depth + 1):
                brackets.append((walk((), F(1), level, 0), walk((), F(1), level, 1)))
            return brackets

        remaps = (
            swap_remap,
            table_remap,
            DigitRemap(mixed, half, TablePermutation((3, 1, 2))),
            DigitRemap(Geometric(F(99, 100)), Geometric(F(199, 200)), PairSwap()),
        )
        for remap in remaps:
            for depth, cap in ((1, 5), (2, 4), (3, 3)):
                for level, expected in enumerate(enumerate_brackets(remap, depth, cap)[1:], 1):
                    assert integral_bracket(remap, level) == expected

    def test_slow_tails_are_covered_past_digit_64(self):
        # most of each source's mass lies past digit 64: 0.94 and 0.53 of it
        slow = Geometric(F(999, 1000))
        bracket = integral_bracket(DigitRemap(slow, slow, Identity()), 8)
        assert bracket.contains(F(1, 2)) and bracket.width < F(1, 10**26)
        swap = DigitRemap(Geometric(F(99, 100)), Geometric(F(199, 200)), PairSwap())
        bracket = integral_bracket(swap, 8)
        assert bracket.contains(closed_form_integral(swap).value) and bracket.width < F(1, 10**19)

    def test_depth_past_the_bit_budget_is_refused(self, swap_remap):
        # the worked example's whole-series mass sum B = 7/32 has a 6-bit
        # denominator, and 43690 * 6 <= MAX_PREFIX_BITS < 43691 * 6
        assert swap_remap._sums[1] == F(7, 32)
        assert integral_bracket(swap_remap, 43690).contains(F(11, 25))
        with pytest.raises(DomainError, match="depth 43691 exceeds 43690"):
            integral_bracket(swap_remap, 43691)

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


class CountingTable(TablePermutation):
    """A table map that counts its `apply` calls."""

    calls = 0

    def apply(self, n: int) -> int:
        type(self).calls += 1
        return super().apply(n)


def test_the_series_map_each_class_representative_once(mixed):
    # start = max(mixed head 3, table head 5) = 5 and period 1: four digits
    # before the start, each a class of one, and one geometric class
    remap = DigitRemap(mixed, Geometric(F(2, 3)), CountingTable((3, 1, 4, 2)))
    CountingTable.calls = 0  # construction checks the bijection
    closed_form_integral(remap)
    closed_form_integral(remap, exact=False)
    integral_bracket(remap, 8)
    integral_bracket(remap, 32)
    expected_log_ratio(remap)
    start, period, *_ = remap._classes
    assert (start, period) == (5, 1)
    assert CountingTable.calls == start + period - 1


class RecordingTable(TablePermutation):
    """A table map that records each digit its `apply` and `inverse` are called with."""

    calls = []

    def apply(self, n: int) -> int:
        RecordingTable.calls.append(("apply", n))
        return super().apply(n)

    def inverse(self, m: int) -> int:
        RecordingTable.calls.append(("inverse", m))
        return super().inverse(m)


@pytest.mark.parametrize("k", [1, 5, 40])
def test_image_digits_maps_each_distinct_digit_once(mixed, digits_with_distinct, k):
    table = TablePermutation((3, 1, 4, 2))
    remap = DigitRemap(mixed, Geometric(F(2, 3)), RecordingTable(table.table))
    digits = digits_with_distinct(k)
    for tail in (digits[0], 200):  # a tail among the digits, and one outside them
        RecordingTable.calls.clear()
        image = remap.image_digits(DigitSeq(digits, tail))
        assert image == DigitSeq(tuple(map(table.apply, digits)), table.apply(tail))
        assert Counter(RecordingTable.calls) == Counter(("apply", n) for n in {*digits, tail})


@pytest.mark.parametrize("k", [1, 5, 40])
def test_apply_inverse_maps_each_distinct_decoded_digit_once(mixed, digits_with_distinct, k):
    table, target = TablePermutation((3, 1, 4, 2)), Geometric(F(2, 3))
    remap = DigitRemap(mixed, target, RecordingTable(table.table))
    digits = digits_with_distinct(k)
    y = evaluate(target, DigitSeq(digits)).value
    assert not remap.is_identity  # cached: deciding it applies the map to the table's head
    RecordingTable.calls.clear()
    back = remap.apply_inverse(y, len(digits))
    assert back == evaluate(mixed, DigitSeq(tuple(map(table.inverse, digits))))
    assert Counter(RecordingTable.calls) == Counter(("inverse", m) for m in set(digits))


def test_the_class_table_and_the_closed_form_read_only_integer_triples(monkeypatch):
    calls = []
    for cls in (Geometric, MixedHeadTail):
        for name in ("p", "prefix"):
            method = cls.__dict__[name]
            monkeypatch.setattr(cls, name, lambda self, n, method=method: calls.append(n) or method(self, n))
    remap = DigitRemap(
        MixedHeadTail((F(1, 3), F(1, 5)), F(1, 2)), Geometric(F(2, 3)), TablePermutation((3, 1, 4, 2))
    )
    remap._classes
    closed_form_integral(remap)
    assert calls == []
    closed_form_integral(remap, exact=False)  # the truncated series reads its summed mass prefix(n + 1)
    assert calls


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
