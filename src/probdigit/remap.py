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
classes, listed once by `DigitRemap._classes`, and one helper, `_digit_sums`,
sums every such series per class in closed form.  Both carry integers: the
class table keeps each representative digit's masses and tail masses as the
families' integer triples give them, and the sums group the rows by their
class weight, add each group's numerators over one integer denominator and
build a `Fraction` only for the results.  The integral is computed here
exactly, as a truncated sum with its tail bound, and as rigorous finite
brackets, whose per-level recursion reads the same two whole series and is
itself summed in closed form.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cache, cached_property
from fractions import Fraction
from typing import NamedTuple

from .bijections import DigitBijection, verify_bijection
from .core import (
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
    def _classes(self) -> tuple[int, int, Fraction, Fraction, tuple[tuple[int, ...], ...]]:
        """(start, period, q, t, rows): the residue classes every series of the
        remap sums over.  From digit `start` on, along a class j, j + period,
        j + 2 * period, ... of the digit map's eventual period, the source
        mass and tail mass at j scale by q and the target mass and tail mass at
        phi(j) by t, the family ratios to the power period.  Row j - 1 holds,
        for j = 1 .. start + period - 1, six integers read off the families'
        integer triples: (c, e - a, e) from source digit j's (a, c, e), that
        is p_j and tail_source(j) over e, then (C, E - A, E) from the
        target's at phi(j), o_phi(j) and tail_target(phi(j)) over E.  A digit
        before `start` is a class of one; each later row stands for its class
        and scales by q and t."""
        sv, tv = self.source.prefix_form(), self.target.prefix_form()
        start, period, offsets = self.digit_map.eventual_structure()
        start = max(sv.start, start, tv.start + max(abs(c) for c in offsets))
        source, target, apply = self.source._int_entry, self.target._int_entry, self.digit_map.apply
        rows = []
        for j in range(1, start + period):
            a, c, e, _, _ = source(j)
            A, C, E, _, _ = target(apply(j))
            rows.append((c, e - a, e, C, E - A, E))
        return start, period, sv.ratio**period, tv.ratio**period, tuple(rows)

    @cached_property
    def _sums(self) -> tuple[Fraction, Fraction]:
        """`_digit_sums` over every digit, shared by the closed form and every bracket depth."""
        return _digit_sums(self)

    @cached_property
    def is_identity(self) -> bool:
        return self.digit_map.is_identity() and self.source == self.target

    def image_digits(self, seq: DigitSeq) -> DigitSeq:
        """Rewrite every digit, tail included; an all-ones tail becomes the
        constant phi(1) tail on the image side."""
        apply = self.digit_map.apply  # checks and maps each distinct digit once
        image = {n: apply(n) for n in {*seq.digits, seq.tail}}
        return DigitSeq._unchecked(tuple(map(image.__getitem__, seq.digits)), image[seq.tail])

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
        digits = decode(self.target, y, depth).digits
        inverse = self.digit_map.inverse  # checks and maps each distinct digit once
        preimage = {m: inverse(m) for m in set(digits)}
        return evaluate(self.source, DigitSeq._unchecked(tuple(map(preimage.__getitem__, digits)), 1))

    def residual(self, seq: DigitSeq, k: int) -> Fraction:
        """Defect of the one-step self-similarity at digit position k.

        For the exact point named by `seq`, compares the image of the
        (k-1)-shifted point against prefix + mass * image of the k-shifted
        point, both on the target side.  Exact arithmetic makes this 0 for a
        correct implementation, at every k.
        """
        if not 1 <= k <= len(seq):
            raise ValueError(f"k must lie in 1..{len(seq)}, got {k}")
        a, c, e, _, _ = self.target._int_entry(self.digit_map.apply(seq[k - 1]))
        lhs = self.point_value(seq.drop(k - 1))
        rest = self.point_value(seq.drop(k))  # prefix + mass * rest = (a + c * rest) / e
        rhs = Fraction(a * rest.denominator + c * rest.numerator, e * rest.denominator)
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


def _digit_sums(
    remap: DigitRemap, count: int | None = None, summed: Fraction | None = None
) -> tuple[Fraction, Fraction]:
    """(sum prefix_target(phi(j)) p_j, sum p_target(phi(j)) p_j) over the
    digits j = 1..count, or over every digit when count is None.

    The prefix sum is the source mass of the digits summed, `summed` when
    the caller has it, else prefix(count + 1) or 1, minus
    sum tail_target(phi(j)) p_j.  Both summands scale by qt along
    a class of `DigitRemap._classes`, so a class's K digits up to count add
    its row's terms times (1 - (qt)^K) / (1 - qt): K is infinite for count
    None, where the power vanishes, and 1 for a row before the start.  The
    rows that share a K, at most three groups (K = 1 and, along the classes,
    two counts a period apart), are summed in integers over the lcm of their
    denominators and weighted once; the groups meet over the lcm of theirs,
    and each sum becomes a `Fraction` only at the end.
    """
    start, period, q, t, rows = remap._classes
    qt = q * t
    n, d = qt.numerator, qt.denominator
    groups: dict[int | None, list[tuple[int, ...]]] = {}
    for j, row in enumerate(rows[:count], 1):
        terms = 1 if j < start else None if count is None else (count - j) // period + 1
        groups.setdefault(terms, []).append(row)
    parts = []  # per group: the weighted mass and tail sums over one denominator
    for terms, group in groups.items():
        mass, tail, den = _over_lcm([(c * C, c * S, e * E) for c, _, e, C, S, E in group])
        # (1 - (n/d)^K) / (1 - n/d) = (d^K - n^K) / (d^(K-1) (d - n)), and d / (d - n) for K infinite
        wn, wd = (d, d - n) if terms is None else (d**terms - n**terms, d ** (terms - 1) * (d - n))
        parts.append((mass * wn, tail * wn, den * wd))
    mass, tail, den = _over_lcm(parts)
    if summed is None:
        summed = ONE if count is None else remap.source.prefix(count + 1)
    pref = Fraction(summed.numerator * den - summed.denominator * tail, summed.denominator * den)
    return pref, Fraction(mass, den)


def _over_lcm(parts: list[tuple[int, int, int]]) -> tuple[int, int, int]:
    """The sums of x/g and of y/g over the (x, y, g) in parts, as two
    numerators over the lcm of the g."""
    den = math.lcm(*[g for _, _, g in parts])
    xs = ys = 0
    for x, y, g in parts:
        scale = den // g
        xs += x * scale
        ys += y * scale
    return xs, ys, den


_TOLERANCE = Fraction(1, 10**12)  # source tail mass a truncated closed form may leave out


def _terms_for_tolerance(src: ProbVector, tol: Fraction) -> int:
    """Fewest terms n >= 1 whose source tail leaves at most tol, i.e. with
    prefix(n + 1) >= 1 - tol: the digit of 1 - tol, or one less when that
    digit's own prefix already equals 1 - tol, which is when the point
    shifted by the digit is 0."""
    if tol >= 1:
        return 1
    x = _as_point(ONE - Fraction(tol))
    n, shifted, _ = src._shift(x.numerator, x.denominator)
    return n - 1 if n > 1 and shifted == 0 else n


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
        s_pref, s_mass = remap._sums
        return ClosedFormIntegral(s_pref / (ONE - s_mass), ZERO)
    n = terms if terms is not None else _terms_for_tolerance(remap.source, _TOLERANCE)
    if n < 1:
        raise ValueError("terms must be at least 1")
    if terms is not None:
        start, period, q, t, _ = remap._classes
        bits = max(q.denominator.bit_length(), (q * t).denominator.bit_length())
        most = start - 1 + MAX_PREFIX_BITS // bits * period
        if n > most:
            raise DomainError(f"terms {n} exceeds {most}: its sums need over {MAX_PREFIX_BITS} bits")
    summed = remap.source.prefix(n + 1)
    s_pref, s_mass = _digit_sums(remap, n, summed)
    slack = ONE - summed
    denom_hi = ONE - s_mass
    lo = s_pref / denom_hi
    hi = (s_pref + slack) / (denom_hi - slack)
    return ClosedFormIntegral(lo, hi - lo)


def integral_bracket(remap: DigitRemap, depth: int) -> IntegralBracket:
    """Rigorous lower/upper bounds from the depth-`depth` cylinder partition.

    [0,1) splits into the source cylinders of every digit string of length
    `depth`, and on each the function is pinned inside its image cylinder,
    so the integral lies between the sums of source mass times image lower
    and upper end.  A string n, rest has image prefix_target(phi(n)) +
    p_target(phi(n)) * (image of rest), so summing over the first digit
    collapses the tree into the affine per-level recursion
    lower -> A + B lower, upper -> A + B upper from (0, 1), with (A, B) the
    whole-series sums of `closed_form_integral`.  After `depth` levels

        lower = A (1 - B^depth) / (1 - B)
        upper = lower + B^depth

    so the cost is one power instead of a loop over the levels, and the width
    B^depth is the source-weighted total width of the image cylinders.  Both
    endpoints are exact rationals, the true integral always lies between
    them, and the bracket tightens strictly as depth grows.  Since the
    bracket shares (A, B) with the closed form, it proves that A / (1 - B)
    is the recursion's fixed point, not that the series are summed right;
    the tests' explicit cylinder enumeration is that independent check.
    B^depth grows by B's bits per level, so a depth at which it would need
    more than MAX_PREFIX_BITS bits raises DomainError.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    pref_sum, mass_sum = remap._sums
    most = MAX_PREFIX_BITS // mass_sum.denominator.bit_length()
    if depth > most:
        raise DomainError(f"depth {depth} exceeds {most}: the bracket needs over {MAX_PREFIX_BITS} bits")
    power = mass_sum**depth
    lower = pref_sum * (ONE - power) / (ONE - mass_sum)
    return IntegralBracket(lower, lower + power)


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
