"""Bijections of the positive integers used to rewrite expansion digits.

Only declaratively serializable kinds are supported: the identity, the
odd/even pair swap (1<->2, 3<->4, ...), and a finite permutation table that
acts as the identity beyond its length.  Each is a finite head followed by
periodic offsets, so `verify_bijection` decides bijectivity exactly, and
configs can be stored as plain text.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .core import _check_digit
from .errors import NotBijective


class EventualShift(NamedTuple):
    """From `start` on, the map acts as n -> n + offsets[n % period]."""

    start: int
    period: int
    offsets: tuple[int, ...]


class DigitBijection:
    def apply(self, n: int) -> int:
        raise NotImplementedError

    def inverse(self, m: int) -> int:
        raise NotImplementedError

    def eventual_structure(self) -> EventualShift:
        raise NotImplementedError

    def is_identity(self) -> bool:
        """No eventual offset moves a digit, and the head fixes every digit."""
        start, _, offsets = self.eventual_structure()
        return not any(offsets) and all(self.apply(n) == n for n in range(1, start))


@dataclass(frozen=True)
class Identity(DigitBijection):
    def apply(self, n: int) -> int:
        return _check_digit(n)

    def inverse(self, m: int) -> int:
        return _check_digit(m)

    def eventual_structure(self) -> EventualShift:
        return EventualShift(1, 1, (0,))


@dataclass(frozen=True)
class PairSwap(DigitBijection):
    """Swap each odd digit with its even successor: 1<->2, 3<->4, ...

    Its own inverse, and the smallest digit map that makes the rebased
    function genuinely non-monotonic.
    """

    def apply(self, n: int) -> int:
        _check_digit(n)
        return n + 1 if n % 2 == 1 else n - 1

    def inverse(self, m: int) -> int:
        return self.apply(m)

    def eventual_structure(self) -> EventualShift:
        return EventualShift(1, 2, (-1, 1))


@dataclass(frozen=True)
class TablePermutation(DigitBijection):
    """Explicit values for digits 1..M, identity beyond.

    Construction only checks syntax (positive integers); whether the table is
    actually a permutation of 1..M is the job of `verify_bijection`, which is
    run when the table is wired into a remap.
    """

    table: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "table", tuple(self.table))
        if not self.table:
            raise ValueError("permutation table must not be empty")
        for v in self.table:
            _check_digit(v)

    def apply(self, n: int) -> int:
        _check_digit(n)
        return self.table[n - 1] if n <= len(self.table) else n

    @cached_property
    def _inverse_table(self) -> dict[int, int]:
        return {v: i + 1 for i, v in enumerate(self.table)}

    def inverse(self, m: int) -> int:
        _check_digit(m)
        if m in self._inverse_table:
            return self._inverse_table[m]
        if m <= len(self.table):
            raise NotBijective(f"value {m} is never produced by table {list(self.table)}")
        return m

    def eventual_structure(self) -> EventualShift:
        return EventualShift(len(self.table) + 1, 1, (0,))


def verify_bijection(phi: DigitBijection) -> None:
    """Decide exactly whether the digit map is a bijection of 1, 2, 3, ...

    Raises NotBijective if it is not.  With c_r = offsets[r], class r mod
    period moves by c_r into class s(r) = (r + c_r) % period from `start` on.
    The map is a bijection exactly when (1) s permutes the residues, (2) the
    head images phi(1..start-1) are distinct, and (3) they form the set N of
    v >= 1 with no eventual preimage: v - c_r < start, r = s^-1(v % period).

    Proof: if s(r) == s(r'), every large j = r and j + c_r - c_r' = r' (mod
    period) collide, so (1) is needed, as is (2).  Given (1), the eventual
    part is injective and v's only eventual candidate is v - c_r.  So the map
    is onto iff N holds no value outside the head image, and one-to-one
    (given 2) iff no head image lies outside N.  Every v in N is below
    start + max(offsets), so N is listed directly.
    """
    start, period, offsets = phi.eventual_structure()
    head = [phi.apply(n) for n in range(1, start)]
    source_of = {(r + c) % period: r for r, c in enumerate(offsets)}
    if len(source_of) < period:
        raise NotBijective(
            f"offsets {list(offsets)} send two residues mod {period} to one class"
        )
    first: dict[int, int] = {}
    for n, v in enumerate(head, start=1):
        if v in first:
            raise NotBijective(f"collision at {v}: inputs {first[v]} and {n} both map to it")
        first[v] = n
    missed = {
        v for v in range(1, start + max(offsets)) if v - offsets[source_of[v % period]] < start
    }
    if first.keys() != missed:
        raise NotBijective(
            f"digits below {start} map onto {sorted(first)}, not onto {sorted(missed)},"
            " the values the periodic part misses"
        )
