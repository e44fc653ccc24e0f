import itertools
import math
import random

import pytest
from hypothesis import given, strategies as st

from probdigit import (
    DigitBijection,
    Identity,
    NotBijective,
    PairSwap,
    TablePermutation,
    verify_bijection,
)
from probdigit.bijections import EventualShift

ALL_KINDS = [Identity(), PairSwap(), TablePermutation((2, 3, 1)), TablePermutation((4, 2, 3, 1))]


def test_identity_apply_inverse():
    phi = Identity()
    assert phi.apply(7) == 7
    assert phi.inverse(9) == 9
    assert phi.is_identity()


def test_pairswap_swaps_neighbours():
    phi = PairSwap()
    assert phi.apply(3) == 4
    assert phi.apply(4) == 3
    assert phi.inverse(1) == 2
    assert not phi.is_identity()


def test_pairswap_is_an_involution():
    phi = PairSwap()
    for n in range(1, 200):
        assert phi.apply(phi.apply(n)) == n


def test_table_lookup_and_identity_tail():
    phi = TablePermutation((2, 3, 1))
    assert phi.apply(3) == 1
    assert phi.apply(5) == 5
    assert phi.inverse(1) == 3
    assert phi.inverse(7) == 7


def test_table_inverse_table():
    phi = TablePermutation((2, 3, 1))
    inverse = TablePermutation(tuple(phi.inverse(m) for m in range(1, 4)))
    assert inverse == TablePermutation((3, 1, 2))
    assert TablePermutation((1, 2, 3)).is_identity()


@pytest.mark.parametrize("phi", ALL_KINDS, ids=lambda p: type(p).__name__)
@given(n=st.integers(1, 10_000))
def test_apply_inverse_are_mutually_inverse(phi, n):
    assert phi.inverse(phi.apply(n)) == n
    assert phi.apply(phi.inverse(n)) == n


@pytest.mark.parametrize("phi", ALL_KINDS, ids=lambda p: type(p).__name__)
def test_eventual_structure_describes_the_map(phi):
    start, period, offsets = phi.eventual_structure()
    for j in range(start, start + 60):
        assert phi.apply(j) == j + offsets[j % period]


def test_verify_accepts_valid_maps():
    verify_bijection(PairSwap())
    verify_bijection(TablePermutation((2, 3, 1)))
    verify_bijection(Identity())


def test_verify_reports_first_collision():
    with pytest.raises(NotBijective, match="collision at 2"):
        verify_bijection(TablePermutation((2, 2, 1)))


def test_verify_rejects_out_of_range_table():
    with pytest.raises(NotBijective):
        verify_bijection(TablePermutation((2, 5, 1)))


def test_non_integer_table_entries_rejected():
    with pytest.raises(ValueError):
        TablePermutation((2, 0, 1))


class HeadThenOffsets(DigitBijection):
    """n -> head[n-1] on the head, then n -> n + offsets[n % period]."""

    def __init__(self, head, offsets):
        self.head, self.offsets = tuple(head), tuple(offsets)

    def apply(self, n):
        if n <= len(self.head):
            return self.head[n - 1]
        return n + self.offsets[n % len(self.offsets)]

    def eventual_structure(self):
        return EventualShift(len(self.head) + 1, len(self.offsets), self.offsets)

    def __repr__(self):
        return f"HeadThenOffsets({self.head}, {self.offsets})"


def is_bijective_by_scan(phi):
    """Reference: injective on 1..3w and onto 1..w, where w passes every head
    image, and the start plus a period, by twice the largest offset, so that
    every collision and every missed value shows inside the scan."""
    start, period, offsets = phi.eventual_structure()
    reach = max(abs(c) for c in offsets)
    heads = [phi.apply(n) for n in range(1, start)]
    window = max([start, *heads]) + period + 2 * reach + 1
    images = [phi.apply(n) for n in range(1, 3 * window + 1)]
    return len(set(images)) == len(images) and set(range(1, window + 1)) <= set(images)


def decided_bijective(phi):
    try:
        verify_bijection(phi)
    except NotBijective:
        return False
    return True


def all_small_tables():
    for size in range(1, 6):
        yield from map(TablePermutation, itertools.product(range(1, size + 3), repeat=size))


def seeded_head_offset_maps(count, seed=4242):
    """Head-and-offset maps, a few of them bijective by construction: their
    head lists the values the periodic part misses (found by scanning its
    images), shuffled, sometimes with one entry changed."""
    rng = random.Random(seed)
    while count:
        period, start = rng.randint(1, 4), rng.randint(1, 7)
        if rng.random() < 0.8:
            targets = rng.sample(range(period), period)
        else:
            targets = [rng.randrange(period) for _ in range(period)]
        offsets = [t - r + period * rng.randint(-1, 1) for r, t in enumerate(targets)]
        tail = HeadThenOffsets([1] * (start - 1), offsets)
        # a digit map sends positive integers to positive integers
        if any(tail.apply(n) < 1 for n in range(start, start + period)):
            continue
        hit = {tail.apply(n) for n in range(start, start + 40)}
        head = [v for v in range(1, 20) if v not in hit]
        rng.shuffle(head)
        if len(head) != start - 1 or rng.random() < 0.3:
            head = [rng.randint(1, 9) for _ in range(start - 1)]
        elif head and rng.random() < 0.3:
            head[rng.randrange(len(head))] += 1
        count -= 1
        yield HeadThenOffsets(head, offsets)


def test_three_block_rotation_is_a_bijection():
    rotate = HeadThenOffsets((), (-2, 1, 1))  # 1->2->3->1, 4->5->6->4, ...
    assert [rotate.apply(n) for n in range(1, 7)] == [2, 3, 1, 5, 6, 4]
    verify_bijection(rotate)


def test_successor_map_is_not_onto():
    with pytest.raises(NotBijective, match=r"below 1 map onto \[\], not onto \[1\]"):
        verify_bijection(HeadThenOffsets((), (1,)))


def test_offsets_colliding_mod_the_period_are_rejected():
    # even n stays put, odd n moves to the even n + 1: both land on evens
    with pytest.raises(NotBijective, match="two residues mod 2"):
        verify_bijection(HeadThenOffsets((), (0, 1)))


def test_head_value_also_reached_by_the_periodic_part():
    # 1 -> 3, then n -> n from 2 on: 3 is hit twice and 1 never
    with pytest.raises(NotBijective, match=r"below 2 map onto \[3\], not onto \[1\]"):
        verify_bijection(HeadThenOffsets((3,), (0,)))


def test_decision_matches_a_scan_on_every_small_table():
    maps = list(all_small_tables())
    verdicts = [decided_bijective(phi) for phi in maps]
    assert verdicts == [is_bijective_by_scan(phi) for phi in maps]
    assert sum(verdicts) == sum(math.factorial(size) for size in range(1, 6))


def test_decision_matches_a_scan_on_seeded_head_and_offset_maps():
    maps = list(seeded_head_offset_maps(3000))
    for phi in maps:
        assert decided_bijective(phi) == is_bijective_by_scan(phi), phi
    assert any(decided_bijective(phi) for phi in maps)
