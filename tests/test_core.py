"""Exact-arithmetic contracts of the expansion core.

Every derived expectation here was computed by hand from the partial-sum
formula or by iterating the one-digit shift, then frozen.
"""

import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import event, given, settings, strategies as st

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
from probdigit.core import DIGIT_CAP, _into_cylinder, log_rational

F = Fraction

digit_lists = st.lists(st.integers(1, 12), max_size=10)
ratios = st.fractions(min_value=F(1, 20), max_value=F(19, 20), max_denominator=30)


heads = st.lists(
    st.fractions(min_value=F(1, 40), max_value=F(1, 4), max_denominator=40), max_size=3
)


def vectors():
    return st.one_of(
        ratios.map(Geometric),
        st.tuples(heads, ratios).map(lambda t: MixedHeadTail(tuple(t[0]), t[1])),
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
        # the mass of digits >= n: the head masses up to the tail's start, then the tail's sum
        start, _, ratio = pv.prefix_form()
        k = max(n, start)
        assert pv.prefix(n) + sum(pv.p(j) for j in range(n, k)) + pv.p(k) / (1 - ratio) == 1
        assert pv.prefix(n) < 1

    @given(vectors(), st.integers(1, 40))
    def test_prefix_step_is_mass(self, pv, n):
        assert pv.prefix(n + 1) - pv.prefix(n) == pv.p(n)
        assert 0 < pv.p(n) < 1

    @given(vectors(), st.integers(1, 60))
    def test_closed_forms_match_termwise_definition(self, pv, n):
        start, coeff, ratio = pv.prefix_form()
        if n >= start:
            assert pv.prefix(n) == 1 - coeff * ratio**n
            # the law is the prefix form's step, prefix(n + 1) - prefix(n)
            assert pv.p(n) == coeff * (1 - ratio) * ratio**n

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


class TestHeadMemo:
    """Each family keeps one table, the integer entries of digits up to
    DIGIT_CAP + 1; p and prefix are computed per call, and agree whether
    the table is cold or warm."""

    @staticmethod
    def families():
        return (
            Geometric(F(2, 3)),
            Geometric(F(999, 1000)),
            MixedHeadTail((F(1, 3), F(1, 5)), F(1, 2)),
            MixedHeadTail((F(1, 5), F(1, 5), F(1, 5)), F(3, 5)),
        )

    def test_non_digits_rejected_cold_and_warm(self):
        for pv in self.families():
            for _ in ("cold", "warm"):
                for bad in (0, -1, True, 1.0):
                    for method in (pv.p, pv.prefix):
                        with pytest.raises(ValueError):
                            method(bad)
                pv.p(1), pv.prefix(1), pv._int_entry(1)

    def test_memoized_values_equal_fresh_ones(self):
        for pv in self.families():
            digits = [*range(1, DIGIT_CAP + 2), 200]
            for _ in ("cold", "warm"):
                for n in digits:
                    fresh = dataclasses.replace(pv)
                    assert pv.p(n) == fresh.p(n)
                    assert pv.prefix(n) == fresh.prefix(n)
                    assert pv._int_entry(n) == fresh._int_entry(n)

    def test_digits_past_the_cap_are_not_kept(self):
        for pv in self.families():
            first = DIGIT_CAP + 9
            assert decode(pv, evaluate(pv, DigitSeq.of(first, 2)).value, 2) == DigitSeq.of(first, 2)
            # decode reads only the integer table, which keeps no digit past the cap
            assert pv._int_head and max(pv._int_head) <= DIGIT_CAP + 1

    def test_equality_and_hash_ignore_the_memo(self):
        for pv in self.families():
            before = hash(pv)
            decode(pv, F(5, 17), 40)
            cold = dataclasses.replace(pv)
            assert pv == cold and hash(pv) == before == hash(cold)
        assert Geometric(F(1, 2)) == MixedHeadTail((), F(1, 2))
        assert Geometric(F(1, 2)) != Geometric(F(2, 3))


class TestDigitSeq:
    def test_validation(self):
        with pytest.raises(ValueError):
            DigitSeq((0, 1))
        with pytest.raises(ValueError):
            DigitSeq((1,), tail=0)

    def test_compare_sees_through_tails(self, half, twothirds):
        # the value order is the order of the infinite strings, tails included
        for pv in (half, twothirds):
            def value(seq):
                return evaluate(pv, seq).value

            assert value(DigitSeq.of(2)) == value(DigitSeq.of(2, 1))
            assert value(DigitSeq.of(1, 3)) < value(DigitSeq.of(2))
            assert value(DigitSeq.of(1, tail=2)) > value(DigitSeq.of(1, 2))


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

    def test_digit_past_the_float_range_decodes(self, half):
        # 1 - x underflows a float, x rounds to 1, so no block is guessed and
        # the exact search gallops from digit 1 up to the digit
        assert decode(half, 1 - F(1, 2**3000), 2) == DigitSeq.of(3001, 1)

    def test_a_right_guess_reads_at_most_two_entries(self):
        # the digit search reads prefix(n) and p(n) as integer entries; any
        # galloping or bisection would read more of them
        probes = []

        class CountingGeometric(Geometric):
            def _int_entry(self, n):
                probes.append(n)
                return super()._int_entry(n)

        pv = CountingGeometric(F(999, 1000))
        x = (pv.prefix(26000) + pv.prefix(26001)) / 2
        probes.clear()
        assert pv.digit_of(x) == 26000
        assert 0 < len(probes) <= 2

    def test_an_unsure_guess_bounds_the_search_near_the_max_digit(self):
        # at either end of the max digit's cylinder, and at the next digit's
        # left end, the guess is unsure of the digit but hands the search
        # g - slop, so it reads three of the ~2**18-bit entries, and the
        # shift the digit's own again, not the ~30 of a search from digit 1.
        # A point that rounds to 1 has no guess: the search from digit 1
        # reads at most 2 bitlen(n) + 1 entries, and the shift one more
        probes = []

        class CountingGeometric(Geometric):
            def _int_entry(self, n):
                probes.append(n)
                return super()._int_entry(n)

        pv = CountingGeometric(F(999, 1000))
        last = pv._digit_search[2]
        for x in (pv.prefix(last), pv.prefix(last + 1) - pv.p(last) / 10**9):
            probes.clear()
            assert pv.digit_of(x) == last
            assert len(probes) <= 4
        probes.clear()
        with pytest.raises(DomainError):
            pv.digit_of(pv.prefix(last + 1))
        assert len(probes) <= 3
        pv = CountingGeometric(F(99, 100))
        last = pv._digit_search[2]
        assert 1 - float(pv.prefix(last)) == 0.0
        probes.clear()
        assert pv.digit_of(pv.prefix(last)) == last
        assert len(probes) <= 2 * last.bit_length() + 2

    def test_digit_past_the_bit_budget_is_refused_promptly(self, run_bounded):
        # digit_of, and decode and DigitRemap.apply, which search without it
        script = (
            "from fractions import Fraction as F\n"
            "from probdigit import DigitRemap, DomainError, Geometric, PairSwap, decode\n"
            "for q in (1 - F(1, 10**20), 1 - F(1, 10**400)):\n"
            "    pv = Geometric(q)\n"
            "    assert pv.digit_of(F(0)) == 1\n"
            "    remap = DigitRemap(pv, pv, PairSwap())\n"
            "    for call in (pv.digit_of, lambda x: decode(pv, x, 2), lambda x: remap.apply(x, 2)):\n"
            "        try:\n"
            "            call(F(1, 2))\n"
            "        except DomainError as exc:\n"
            "            print(exc)\n"
        )
        done = run_bounded("-c", script)
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert len(lines) == 6 and all(line.startswith("digit exceeds ") for line in lines)

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
        # both tail 1: the infinite strings compare as tuples padded with ones
        width = max(len(a), len(b))
        da, db = (tuple(s) + (1,) * (width - len(s)) for s in (a, b))
        va, vb = evaluate(pv, sa).value, evaluate(pv, sb).value
        if da == db:
            assert va == vb
        else:
            assert (va < vb) == (da < db)


def reference_evaluate(pv, seq):
    """Oracle: the evaluation loop on Fractions, one operation at a time,
    closed by the constant tail's geometric series prefix(t) / (1 - p(t))."""
    digits = seq.digits
    tail = pv.prefix(seq.tail) / (1 - pv.p(seq.tail))
    if not digits:
        return tail, F(1)
    acc = pv.prefix(digits[0])
    prod = F(1)
    for j in range(1, len(digits)):
        prod *= pv.p(digits[j - 1])
        acc += pv.prefix(digits[j]) * prod
    prod *= pv.p(digits[-1])
    return acc + prod * tail, prod


def reference_digit(pv, x):
    """Oracle: galloping and bisection on Fraction prefixes, no float guess."""
    lo, hi = 1, 1  # prefix(lo) <= x < prefix(hi + 1)
    while pv.prefix(hi + 1) <= x:
        lo, hi = hi + 1, 2 * hi
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if pv.prefix(mid) <= x:
            lo = mid
        else:
            hi = mid - 1
    return lo


def reference_decode(pv, x, depth):
    digits = []
    for _ in range(depth):
        n = reference_digit(pv, x)
        digits.append(n)
        x = (x - pv.prefix(n)) / pv.p(n)
    return DigitSeq(tuple(digits))


near_one = st.integers(0, 10**6).map(lambda k: 1 - F(1, 10**20 + k))
edge_vectors = st.one_of(
    near_one.map(Geometric),
    st.tuples(heads, near_one).map(lambda t: MixedHeadTail(tuple(t[0]), t[1])),
)
# digit strings, some led by a digit past the memoized head, with a tail digit
digit_strings = st.tuples(st.booleans(), digit_lists, st.integers(1, 3)).map(
    lambda t: DigitSeq(((DIGIT_CAP + 9,) if t[0] else ()) + tuple(t[1]), t[2])
)


class TestAgainstFractionReference:
    """decode, evaluate and shift_value carry integer pairs; each equals the
    Fraction loop it replaced, over ordinary families and over tail ratios
    within 1e-20 of 1 (where the float guess has no resolution)."""

    @given(st.one_of(vectors(), edge_vectors), digit_strings)
    @settings(deadline=None)
    def test_evaluate_and_decode_of_digit_strings(self, pv, seq):
        value, width = evaluate(pv, seq)
        assert (value, width) == reference_evaluate(pv, seq)
        depth = len(seq) + 2  # reads into the tail
        assert decode(pv, value, depth) == reference_decode(pv, value, depth)

    @given(
        vectors(),
        st.one_of(
            st.fractions(min_value=0, max_value=F(999, 1000), max_denominator=10**9),
            st.just(1 - F(1, 2**3000)),  # 1 - x below float range
        ),
    )
    @settings(deadline=None, max_examples=50)
    def test_decode_and_shift_of_arbitrary_points(self, pv, x):
        assert decode(pv, x, 3) == reference_decode(pv, x, 3)
        n = reference_digit(pv, x)
        shifted = (x - pv.prefix(n)) / pv.p(n)
        assert shift_value(pv, x) == shifted
        # the integer step already leaves its pair in lowest terms
        assert pv._shift(x.numerator, x.denominator) == ([n], shifted.numerator, shifted.denominator)

    @given(ratios, st.lists(st.integers(1, 12), min_size=1, max_size=6))
    def test_fresh_family_fills_only_the_digits_it_reads(self, q, digits):
        # tail 2 keeps every shifted point inside its cylinder.  Where each
        # lies at least 2**-30 inside, in that step's coordinates, the float
        # guess is sure of every digit and fills only their entries.  Nearer
        # an end (a slow digit string can leave x within 1e-13 of one, below
        # the float error) the guess stops and its step tests the digit that
        # begins at that end, a digit or one above it; where that fails the
        # digit n is searched for, reading only entries of digits <= 2n + 1.
        seq, plain = DigitSeq(tuple(digits), tail=2), Geometric(q)
        points = [evaluate(plain, seq.drop(j)).value for j in range(len(digits))]
        searches, reads = [], []

        class CountingGeometric(Geometric):
            def _int_entry(self, n):
                reads.append(n)
                return super()._int_entry(n)

            def _search(self, num, den, low=1):
                reads.clear()
                n = super()._search(num, den, low)
                searches.append((n, set(reads)))
                return n

        pv = CountingGeometric(q)
        assert decode(pv, points[0], len(digits)).digits == seq.digits
        margin = F(1, 2**30)
        if all(plain.prefix(n) + margin <= y <= plain.prefix(n + 1) - margin for n, y in zip(digits, points)):
            event("every shifted point clear of its cylinder's ends")
            assert set(pv._int_head) == set(digits) and not searches
        else:
            assert all(m <= 2 * n + 1 for n, read in searches for m in read)
            near = {d + k for d in digits for k in (0, 1)}
            assert set(pv._int_head) <= near.union(*(read for _, read in searches))
        pv = Geometric(q)
        evaluate(pv, seq)  # also reads the tail digit's entry
        assert set(pv._int_head) == set(digits) | {2}


def stepwise_decode(pv, x, depth):
    """Oracle: one exact `_search` per digit and its exact shift, no float
    guess: the loop `decode` ran before it read digits in blocks."""
    num, den = x.numerator, x.denominator
    digits = []
    for _ in range(depth):
        n = pv._search(num, den)
        a, c, e, _, _ = pv._int_entry(n)
        num, den = _into_cylinder(num, den, a, c, e)
        digits.append(n)
    return DigitSeq(tuple(digits))


# heads of DIGIT_CAP + 1 .. DIGIT_CAP + 16 masses 1/4k, 2/4k, 3/4k, ... summing near 1/2,
# so the float guess walks a head past the memoized digits
long_heads = st.tuples(st.integers(DIGIT_CAP + 1, DIGIT_CAP + 16), ratios).map(
    lambda t: MixedHeadTail(tuple(F(1 + j % 3, 4 * t[0]) for j in range(t[0])), t[1])
)
# a point: a digit string's value (its left endpoint for tail 1, else a
# constant tail), that value less 2**-k (just below a boundary, closer than
# floats resolve), or a fraction
points = st.one_of(
    digit_strings.map(lambda seq: (seq, None)),
    st.tuples(digit_strings, st.integers(54, 200)),
    st.fractions(min_value=0, max_value=1, max_denominator=10**12).filter(lambda x: x < 1),
    st.just(1 - F(1, 2**3000)),  # 1 - x below float range: a first digit past the cap
)


class TestBlockDecode:
    """decode guesses runs of digits in floats and confirms each run with one
    exact cylinder test; what it returns is what one exact step per digit
    returns, at boundaries, below float resolution and past the head too."""

    @staticmethod
    def assert_matches_stepwise(pv, point, choice):
        length = 0
        if isinstance(point, tuple):
            seq, k = point
            x, length = evaluate(pv, seq).value, len(seq)
            if k is not None:
                x = max(x - F(1, 2**k), F(0))
        else:
            x = point
        depth = {"one": 1, "past": length + 2, "deep": 256}[choice]
        fresh = dataclasses.replace(pv)  # the blocks fill the memo themselves
        assert decode(fresh, x, depth) == stepwise_decode(pv, x, depth)

    @given(st.one_of(vectors(), long_heads), points, st.sampled_from(("one", "past", "deep")))
    @settings(deadline=None, max_examples=150)
    def test_equals_one_exact_step_per_digit(self, pv, point, choice):
        self.assert_matches_stepwise(pv, point, choice)

    @given(edge_vectors, digit_strings, st.sampled_from(("one", "past", "deep")))
    @settings(deadline=None, max_examples=50)
    def test_equals_one_exact_step_per_digit_near_ratio_one(self, pv, seq, choice):
        # a random point would have a first digit near 10**20, refused after
        # a search through 2**18-bit prefixes, so these read digit strings only
        self.assert_matches_stepwise(pv, (seq, None), choice)

    def test_a_deep_decode_takes_few_exact_steps(self):
        # the one-digit step, searched for or offered by the guess, is the
        # fallback, not the rule
        steps = []

        class CountingGeometric(Geometric):
            def _shift(self, num, den, most=1):
                block, num, den = super()._shift(num, den, most)
                steps.append(len(block))
                return block, num, den

        x = F(355, 1133)
        assert decode(CountingGeometric(F(2, 3)), x, 256) == stepwise_decode(Geometric(F(2, 3)), x, 256)
        assert steps.count(1) < 32

    def test_an_exact_left_end_is_not_searched_for(self):
        # the guess stops at a point on a cylinder end, and the step first
        # tests the digit that begins there, which such a point has, if the
        # integer table holds it
        class NoSearch:
            def _search(self, num, den, low=1):
                raise AssertionError("searched")

        class G(NoSearch, Geometric):
            pass

        class M(NoSearch, MixedHeadTail):
            pass

        for pv in (G(F(1, 2)), G(F(2, 3)), G(F(1, 20)), G(F(19, 20)), G(F(999, 1000)), M((F(1, 3), F(1, 5)), F(8, 9))):
            for n in range(2, DIGIT_CAP + 2):
                x = pv.prefix(n)
                if x <= 1 - F(1, 2**40):  # 1 - x far above the float error
                    assert decode(pv, x, 1) == DigitSeq.of(n)

    def test_a_search_reads_only_digits_up_to_twice_its_own(self):
        # a ratio within 1e-20 of 1 leaves the float guess no resolution, so
        # every digit is searched for; galloping up from digit 1 and bisecting
        # reads only entries of digits <= 2n + 1, a few per search, never the
        # 10**5-bit triples of digits near the max digit (about 3900 here)
        searches, reads = [], []

        class CountingMixed(MixedHeadTail):
            def _int_entry(self, n):
                reads.append(n)
                return super()._int_entry(n)

            def _search(self, num, den, low=1):
                reads.clear()
                n = super()._search(num, den, low)
                searches.append((n, list(reads)))
                return n

        q = 1 - F(1, 10**20)
        x = evaluate(MixedHeadTail((F(1, 40),), q), DigitSeq.of(2, 2, 5, 10, tail=2)).value
        assert decode(CountingMixed((F(1, 40),), q), x, 256) == DigitSeq((2, 2, 5, 10) + (2,) * 252)
        assert [n for n, _ in searches] == [2, 2, 5, 10] + [2] * 252
        assert all(m <= 2 * n + 1 for n, read in searches for m in read)
        assert all(len(read) <= 2 * n.bit_length() + 1 for n, read in searches)


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

    def test_hi_is_lo_plus_width(self):
        # hi is derived, so bounds that disagree with the width cannot be built
        c = Cylinder(DigitSeq.of(1), F(1, 5), F(1, 3))
        assert c.hi == c.lo + c.width == F(8, 15)

    @given(vectors(), digit_lists, st.integers(1, 6))
    @settings(deadline=None)
    def test_nesting(self, pv, digits, child):
        if not digits:
            return
        parent = cylinder(pv, DigitSeq(tuple(digits)))
        nested = cylinder(pv, DigitSeq(tuple(digits) + (child,)))
        assert parent.lo <= nested.lo and nested.hi <= parent.hi
        assert nested.width == parent.width * pv.p(child)

    @given(st.one_of(vectors(), edge_vectors), digit_strings)
    @settings(deadline=None)
    def test_upper_end_is_the_bumped_prefix(self, pv, seq):
        # oracle: the upper end is the value of the prefix with its last digit bumped
        if not seq.digits:
            return
        bumped = DigitSeq(seq.digits[:-1] + (seq.digits[-1] + 1,))
        assert cylinder(pv, seq).hi == evaluate(pv, bumped).value

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


class TestLogRational:
    def test_error_is_relative_to_the_result(self):
        # ln(1/4) plus 1e-20: the integer logs of numerator and denominator,
        # about 46 each, would leave an error near 1e-15
        assert log_rational(F(1, 4) / (1 - F(1, 10**20))) == -1.3862943611198906
        # near 1, and outside float range: 400 ln 10 and 500 ln 10 to 20 digits
        assert log_rational(1 - F(1, 10**20)) == -1e-20
        assert math.isclose(log_rational(F(1, 10**400)), -921.03403719761827361, rel_tol=4e-16)
        assert math.isclose(log_rational(F(10**500)), 1151.2925464970228420, rel_tol=4e-16)


def lcm_triple(pv, n):
    """Oracle: prefix(n) and p(n) over the lcm of their lowest-term denominators."""
    prefix, mass = pv.prefix(n), pv.p(n)
    e = math.lcm(prefix.denominator, mass.denominator)
    return prefix.numerator * (e // prefix.denominator), mass.numerator * (e // mass.denominator), e


class TestIntegerTriples:
    """Each family reads digit n's triple (a, c, e) straight off its integer
    closed form; it is the lcm triple of the Fractions prefix(n) and p(n),
    past DIGIT_CAP + 1 and past a long head too, and its two floats are
    those Fractions rounded."""

    @given(st.one_of(vectors(), edge_vectors, long_heads), st.integers(1, 300))
    @settings(deadline=None)
    def test_triple_is_the_lcm_triple_of_prefix_and_mass(self, pv, n):
        a, c, e, lo, mass = pv._int_entry(n)
        assert (a, c, e) == lcm_triple(pv, n)
        assert (lo, mass) == (float(pv.prefix(n)), float(pv.p(n)))

    def test_a_tail_triple_cancels_its_common_factor(self):
        # leftover 5/16, ratio 3/5: tail digit 5 = 3 + 2 reads (325, 30, 400)
        # over d v**k = 16 * 5**2, with the spare factor gcd(l, e) = 5
        pv = MixedHeadTail((F(1, 2), F(1, 8), F(1, 16)), F(3, 5))
        assert pv._int_entry(5)[:3] == lcm_triple(pv, 5) == (65, 6, 80)
