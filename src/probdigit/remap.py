"""Rebasing one digit expansion into another through a digit bijection.

A `DigitRemap` couples a source weight family, a target family and a digit
bijection.  It sends the point with source digits (n_1, n_2, ...) to the
target-expansion value of the rewritten digits (phi(n_1), phi(n_2), ...).
The map is bijective on [0,1), generally wildly non-monotonic, and satisfies
the one-step identity

    f(x) = target.prefix(phi(n_1)) + target.p(phi(n_1)) * f(shifted x)

which this module exposes as an exactly-checkable residual.  Its Lebesgue
integral over [0,1) has the closed form

    sum_j prefix_target(phi(j)) p_j   /   (1 - sum_j p_target(phi(j)) p_j)

Under Lebesgue measure the source digits are i.i.d. with law p, so each
series, whole or truncated, is a finite head plus `period` geometric residue
classes, and one helper, `_digit_sums`, sums every such series per class in
closed form.  The integral is computed here exactly, as a truncated sum with
its tail bound, and as rigorous finite brackets, whose per-level recursion
is itself summed in closed form.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cache, cached_property
from fractions import Fraction
from typing import NamedTuple

from .bijections import DigitBijection, verify_bijection
from .core import (
    DIGIT_CAP,
    MAX_PREFIX_BITS,
    ONE,
    ZERO,
    DigitSeq,
    Evaluation,
    ProbVector,
    Rational,
    _as_point,
    decode,
    evaluate,
)
from .errors import DomainError


@dataclass(frozen=True)
class DigitRemap:
    """source digits -> digit_map -> target digits, evaluated exactly."""

    source: ProbVector
    target: ProbVector
    digit_map: DigitBijection

    def __post_init__(self) -> None:
        verify_bijection(self.digit_map)

    @cached_property
    def _head_sums(self) -> tuple[Fraction, Fraction]:
        """`_digit_sums` over digits 1..DIGIT_CAP, shared by every bracket depth."""
        return _digit_sums(self, DIGIT_CAP)

    @cached_property
    def is_identity(self) -> bool:
        return self.digit_map.is_identity() and self.source == self.target

    def image_digits(self, seq: DigitSeq) -> DigitSeq:
        """Rewrite every digit, tail included; an all-ones tail becomes the
        constant phi(1) tail on the image side."""
        return seq.mapped(self.digit_map.apply)

    def point_value(self, seq: DigitSeq) -> Fraction:
        """Exact image of the exact point named by `seq` (digits plus tail)."""
        return evaluate(self.target, self.image_digits(seq)).value

    def apply(self, x: Rational, depth: int = 32) -> Evaluation:
        """Image of x, reading `depth` source digits.

        The constant tail beyond the read digits is summed in closed form, so
        the result is exact whenever x's expansion is all ones past `depth`.
        The error bound is the width of the image cylinder, which contains
        both this value and the true image.  When the remap is the identity
        function the value is returned exactly at any depth.
        """
        x = _as_point(x)
        if self.is_identity:
            return Evaluation(x, ZERO)
        image = self.image_digits(decode(self.source, x, depth))
        return evaluate(self.target, image)

    def apply_inverse(self, y: Rational, depth: int = 32) -> Evaluation:
        """Preimage of y, reading `depth` target digits.

        Returns the left endpoint of the preimage cylinder (the rewritten
        digits with the canonical all-ones continuation); the true preimage
        lies within error_bound above it.  Applying the remap to the result
        reproduces y's first `depth` digits exactly.
        """
        y = _as_point(y, "y")
        if self.is_identity:
            return Evaluation(y, ZERO)
        image = decode(self.target, y, depth)
        preimage = DigitSeq(tuple(self.digit_map.inverse(m) for m in image))
        return evaluate(self.source, preimage)

    def inverted(self) -> "DigitRemap":
        return DigitRemap(self.target, self.source, self.digit_map.inverted())

    def residual(self, seq: DigitSeq, k: int) -> Fraction:
        """Defect of the one-step self-similarity at digit position k.

        For the exact point named by `seq`, compares the image of the
        (k-1)-shifted point against prefix + mass * image of the k-shifted
        point, both on the target side.  Exact arithmetic makes this 0 for a
        correct implementation, at every k.
        """
        if not 1 <= k <= len(seq):
            raise ValueError(f"k must lie in 1..{len(seq)}, got {k}")
        m = self.digit_map.apply(seq[k - 1])
        lhs = self.point_value(seq.drop(k - 1))
        rhs = self.target.prefix(m) + self.target.p(m) * self.point_value(seq.drop(k))
        return abs(lhs - rhs)


class ClosedFormIntegral(NamedTuple):
    """Value plus a one-sided slack: the true integral lies in
    [value, value + tail_bound].  Exact summation reports tail_bound == 0."""

    value: Fraction
    tail_bound: Fraction

    @property
    def lo(self) -> Fraction:
        return self.value

    @property
    def hi(self) -> Fraction:
        return self.value + self.tail_bound


class IntegralBracket(NamedTuple):
    """Rigorous two-sided enclosure of the integral."""

    lower: Fraction
    upper: Fraction

    @property
    def width(self) -> Fraction:
        return self.upper - self.lower

    def contains(self, x: Fraction) -> bool:
        return self.lower <= x <= self.upper


def _eventual_classes(remap: DigitRemap) -> tuple[int, int, Fraction, Fraction]:
    """(start, period, q, t): from digit `start` on, the source masses, the
    digit map and the target forms at phi(j) are all in closed form, so along
    each residue class j, j + period, j + 2 * period, ... of the map's
    eventual period, p_j and the target mass and tail mass at phi(j) each
    scale by q (source) or t (target), the family ratios to the power period.
    """
    sv = remap.source.value_form()
    tv = remap.target.value_form()
    start, period, offsets = remap.digit_map.eventual_structure()
    start = max(sv.start, start, tv.start + max(abs(c) for c in offsets))
    return start, period, sv.ratio**period, tv.ratio**period


def _digit_sums(remap: DigitRemap, count: int | None = None) -> tuple[Fraction, Fraction]:
    """(sum prefix_target(phi(j)) p_j, sum p_target(phi(j)) p_j) over the
    digits j = 1..count, or over every digit when count is None.

    With o_m the target mass and tail_target(m) = 1 - prefix_target(m), the
    prefix sum is the source mass of the digits summed, prefix(count + 1) or
    1, minus sum tail_target(phi(j)) p_j.  From the `_eventual_classes` start
    on, p_j o_phi(j) and p_j tail_target(phi(j)) both scale by qt along a
    residue class, so the K digits j0, j0 + period, ... up to count of one
    class add p_j0 o_m (1 - (qt)^K) / (1 - qt) and
    p_j0 tail_target(m) (1 - (qt)^K) / (1 - qt), with m = phi(j0); count None
    is K infinite, where the power vanishes.  Each digit before the start is
    a class of its own, K = 1.
    """
    src, tgt, phi = remap.source, remap.target, remap.digit_map
    start, period, q, t = _eventual_classes(remap)
    qt = q * t
    end = start + period if count is None else min(count + 1, start + period)
    s_tail = s_mass = ZERO
    for j in range(1, end):
        pj = src.p(j)
        if j >= start:  # times the K terms 1, qt, ..., (qt)^(K-1) of the class of j
            pj *= (ONE if count is None else ONE - qt ** ((count - j) // period + 1)) / (ONE - qt)
        m = phi.apply(j)
        s_mass += pj * tgt.p(m)
        s_tail += pj * tgt.tail_mass(m)
    summed = ONE if count is None else src.prefix(count + 1)
    return summed - s_tail, s_mass


_TOLERANCE = Fraction(1, 10**12)  # source tail mass a truncated closed form may leave out


def _terms_for_tolerance(src: ProbVector, tol: Fraction) -> int:
    """Fewest terms n >= 1 with tail_mass(n + 1) <= tol, i.e. with
    prefix(n + 1) >= 1 - tol: the digit of 1 - tol, or one less when that
    digit's own prefix already equals 1 - tol."""
    if tol >= 1:
        return 1
    x = ONE - Fraction(tol)
    n = src.digit_of(x)
    return n - 1 if n > 1 and src.prefix(n) == x else n


def closed_form_integral(
    remap: DigitRemap,
    terms: int | None = None,
    exact: bool = True,
) -> ClosedFormIntegral:
    """Integral of the remapped function over [0,1) from the series formula.

    With `terms` unset and `exact` left on, both series are summed in closed
    form and the result is the exact rational value.  Otherwise the series
    are truncated after `terms` entries (or enough entries to push the source
    tail mass below 10**-12) and the leftover mass bounds the result from
    above: both omitted tails are sums of target quantities below 1 weighted
    by the remaining source mass.  The upper bound's denominator stays
    positive because every target mass is below 1, so the truncated mass sum
    is below the source mass 1 - slack it weights.  The powers of the source
    and target ratios behind `terms` entries grow by a fixed number of bits
    per entry, so `terms` whose powers would need more than MAX_PREFIX_BITS
    bits raise DomainError before anything is summed.  The truncated mode
    stays only because the benchmark's integral-certify workload times it,
    and goes once the benchmark stops calling it.
    """
    if terms is None and exact:
        s_pref, s_mass = _digit_sums(remap)
        return ClosedFormIntegral(s_pref / (ONE - s_mass), ZERO)
    n = terms if terms is not None else _terms_for_tolerance(remap.source, _TOLERANCE)
    if n < 1:
        raise ValueError("terms must be at least 1")
    if terms is not None:
        start, period, q, t = _eventual_classes(remap)
        bits = max(q.denominator.bit_length(), (q * t).denominator.bit_length())
        most = start - 1 + MAX_PREFIX_BITS // bits * period
        if n > most:
            raise DomainError(f"terms {n} exceeds {most}: its sums need over {MAX_PREFIX_BITS} bits")
    s_pref, s_mass = _digit_sums(remap, n)
    slack = remap.source.tail_mass(n + 1)
    denom_hi = ONE - s_mass
    lo = s_pref / denom_hi
    hi = (s_pref + slack) / (denom_hi - slack)
    return ClosedFormIntegral(lo, hi - lo)


def integral_bracket(remap: DigitRemap, depth: int) -> IntegralBracket:
    """Rigorous lower/upper bounds from the depth-`depth` cylinder partition.

    [0,1) splits into all cylinders of the given depth whose digits stay at
    or below `DIGIT_CAP`, plus a remainder band at each node for the larger
    digits.  On a covered cylinder the function is pinned inside its image
    cylinder; on a band it is pinned inside the surrounding node's image
    cylinder.  Self-similarity collapses the sum over that tree into the
    affine per-level recursion lower -> A + B lower, upper -> A + B upper +
    band from (0, 1), with (A, B) the head sums over digits 1..DIGIT_CAP and
    band the source mass past it; its closed form after `depth` levels is

        lower = A (1 - B^depth) / (1 - B)
        upper = B^depth + (A + band) (1 - B^depth) / (1 - B)

    so the cost is one power instead of a loop over the levels, and tests
    replay both the recursion and the explicit enumeration to confirm
    equality.  Both endpoints are exact rationals, the true integral always
    lies between them, and the bracket tightens strictly as depth grows.
    B^depth grows by B's bits per level, so a depth at which it would need
    more than MAX_PREFIX_BITS bits raises DomainError.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    pref_sum, mass_sum = remap._head_sums
    most = MAX_PREFIX_BITS // mass_sum.denominator.bit_length()
    if depth > most:
        raise DomainError(f"depth {depth} exceeds {most}: the bracket needs over {MAX_PREFIX_BITS} bits")
    band = remap.source.tail_mass(DIGIT_CAP + 1)
    power = mass_sum**depth
    levels = (ONE - power) / (ONE - mass_sum)  # 1 + B + ... + B^(depth - 1)
    return IntegralBracket(pref_sum * levels, power + (pref_sum + band) * levels)


@dataclass(frozen=True)
class OrderWitnesses:
    """One order-preserving and one order-reversing pair of (x, image) points,
    if the bounded search found them."""

    increasing: tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]] | None
    decreasing: tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]] | None


def monotonicity_witnesses(remap: DigitRemap) -> OrderWitnesses:
    """Search one-digit prefix points for evidence that the remap is not monotone.

    The points named by a single digit 1..start+period, with `start` and
    `period` from the digit map's eventual structure, rise and fall exactly
    as the digit map does: the image of digit d lies in the target cylinder
    of phi(d), and those cylinders are ordered by phi(d).  So the first
    rising and the first falling pair, in `itertools.combinations` order,
    are read off the integers phi(d), and only their points are evaluated.
    That finds both for any non-identity map: digits `start` and
    `start + period` share an offset and so rise, and a non-identity map has
    an inversion among its first `start + period` digits (a table permutes
    its head 1..start-1, the pair swap inverts 1 and 2).
    """
    ev = remap.digit_map.eventual_structure()
    images = [(digit, remap.digit_map.apply(digit)) for digit in range(1, ev.start + ev.period + 1)]

    @cache  # a digit may sit in both pairs
    def point(digit: int) -> tuple[Fraction, Fraction]:
        seq = DigitSeq((digit,))
        return evaluate(remap.source, seq).value, remap.point_value(seq)

    def first_pair(order):
        for (a, phi_a), (b, phi_b) in itertools.combinations(images, 2):
            if order(phi_a, phi_b):
                return point(a), point(b)
        return None

    return OrderWitnesses(first_pair(operator.lt), first_pair(operator.gt))
