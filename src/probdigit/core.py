"""Exact digit expansions of [0,1) driven by a probability distribution on 1, 2, 3, ...

A weight family (p_1, p_2, ...) with every p_j strictly inside (0,1) and total
mass 1 turns a sequence of positive-integer digits (n_1, n_2, ...) into a
point of [0,1): the first digit selects the interval
[prefix(n_1), prefix(n_1 + 1)), the next digit subdivides that interval in the
same proportions, and so on.  The value of a digit string is

    prefix(n_1) + sum over j of prefix(n_{j+1}) * p_{n_1} * ... * p_{n_j}

and a finite string stands for itself followed by its constant tail digit
(1 by default, which contributes nothing because prefix(1) == 0).

Every value here is exact: inputs and results are `fractions.Fraction`s, and
floats are rejected at the boundary so that round-trips, orderings and widths
are identities rather than approximations; the float fast path lives in
`probdigit.numeric` and is never consulted by the exact operations.  Inside,
`decode` and `evaluate` carry their state as plain integer numerator and
denominator pairs and build a `Fraction` only at the end; since `Fraction`
normalizes, the results are the same values step-by-step `Fraction`
arithmetic gives, without a gcd on every operation.

Nearly every digit read is small (digits are i.i.d. with the weight law), so
each family computes its exact p(n) and prefix(n) for n <= DIGIT_CAP + 1 once
and keeps them, along with their integer form for `decode` and `evaluate`,
each filled the first time that digit is used.  Larger digits are computed on
every call and never stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, wraps
from fractions import Fraction
from typing import Iterator, NamedTuple

from .errors import DomainError, InvalidDistribution

Rational = int | str | Fraction

ZERO = Fraction(0)
ONE = Fraction(1)
MAX_PREFIX_BITS = 1 << 18  # bit budget of one exact prefix; see ProbVector.digit_of
# Digits 1..DIGIT_CAP + 1 are the head: memoized exactly per family, and the
# float path and integral_bracket enumerate them one by one
DIGIT_CAP = 64


def as_fraction(value: Rational) -> Fraction:
    """Convert to Fraction, rejecting floats.

    Binary floats smuggle rounding error into the exact path; callers that
    really mean a decimal should pass the decimal as a string, which converts
    exactly ("0.3" -> 3/10).
    """
    if isinstance(value, float):
        raise TypeError(
            "floats are not accepted on the exact path; pass a Fraction, int or string"
        )
    return Fraction(value)


def log_rational(x: Fraction) -> float:
    """ln x, finite where float(x) under- or overflows, and accurate near 1."""
    if ONE < 2 * x < 4:
        return math.log1p(float(x - ONE))
    return math.log(x.numerator) - math.log(x.denominator)


def _check_digit(j: int) -> int:
    if not isinstance(j, int) or isinstance(j, bool) or j < 1:
        raise ValueError(f"digits are positive integers, got {j!r}")
    return j


def _head_memoized(compute):
    """Wrap a family's p or prefix: check the digit first (True and 1.0 hash
    like 1, so a lookup would accept them), then serve digits up to
    DIGIT_CAP + 1 from the family's memo, computing each one once."""
    name = compute.__name__

    @wraps(compute)
    def method(self, n):
        _check_digit(n)
        memo = self._head_memo[name]
        value = memo.get(n)
        if value is None:
            value = compute(self, n)
            if n <= DIGIT_CAP + 1:
                memo[n] = value
        return value

    return method


class GeometricForm(NamedTuple):
    """Closed form valid from `start` on: value form p_j = coeff * ratio**j,
    prefix form prefix(n) = 1 - coeff * ratio**n."""

    start: int
    coeff: Fraction
    ratio: Fraction


class ProbVector:
    """Base class for closed-form weight families on the positive integers.

    Subclasses provide only validation, the exact per-digit mass ``p(j)``,
    the prefix sum ``prefix(n)`` (mass strictly below digit ``n``, so
    ``prefix(1) == 0``), both wrapped in ``_head_memoized``, and the
    eventually geometric ``value_form``.
    Everything else follows here: the complementary ``tail_mass``, the
    ``prefix_form`` that powers exact series summation, and the float hint
    for the digit search.  Instances are immutable and compare equal when
    they assign the same mass to every digit, regardless of how they were
    described.
    """

    def p(self, j: int) -> Fraction:
        raise NotImplementedError

    def prefix(self, n: int) -> Fraction:
        raise NotImplementedError

    def value_form(self) -> GeometricForm:
        raise NotImplementedError

    @cached_property
    def _head_memo(self) -> dict[str, dict[int, Fraction]]:
        # exact p(n) and prefix(n) for n <= DIGIT_CAP + 1, filled on first use
        return {"p": {}, "prefix": {}}

    def tail_mass(self, n: int) -> Fraction:
        """Mass carried by digits >= n."""
        return ONE - self.prefix(n)

    def prefix_form(self) -> GeometricForm:
        """Summing the value form's geometric tail: from `start` on,
        prefix(n) = 1 - sum over j >= n of coeff * ratio**j."""
        start, coeff, ratio = self.value_form()
        return GeometricForm(start, coeff / (ONE - ratio), ratio)

    @cached_property
    def _int_head(self) -> dict[int, tuple[int, int, int]]:
        # the integer table: digit n <= DIGIT_CAP + 1 -> _int_entry(n), filled on first use
        return {}

    def _int_entry(self, n: int) -> tuple[int, int, int]:
        """prefix(n) = a/e and p(n) = c/e over one common denominator, as the
        integers (a, c, e); digits up to DIGIT_CAP + 1 are kept in `_int_head`."""
        entry = self._int_head.get(n)
        if entry is None:
            prefix, mass = self.prefix(n), self.p(n)
            e = math.lcm(prefix.denominator, mass.denominator)
            entry = (
                prefix.numerator * (e // prefix.denominator),
                mass.numerator * (e // mass.denominator),
                e,
            )
            if n <= DIGIT_CAP + 1:
                self._int_head[n] = entry
        return entry

    @cached_property
    def _digit_search(self) -> tuple[float, float, int]:
        # ln coeff and ln ratio of the prefix form (the log of a ratio within
        # float precision of 1 is kept negative), and max digit: past
        # `start`, each digit adds the bits of the ratio's denominator
        start, coeff, ratio = self.prefix_form()
        max_digit = start + MAX_PREFIX_BITS // ratio.denominator.bit_length()
        return log_rational(coeff), min(log_rational(ratio), -math.ulp(0.0)), max_digit

    def digit_of(self, x: Fraction) -> int:
        """The unique digit n with prefix(n) <= x < prefix(n+1).

        The bits of the exact prefix(n) grow linearly in n, so a huge digit
        would be searched for without end; one whose prefix needs more than
        MAX_PREFIX_BITS bits raises DomainError.  At that budget a whole
        search stays under a second (2-vCPU host).
        """
        if not (ZERO <= x < ONE):
            raise DomainError(f"x must lie in [0, 1), got {x}")
        return self._shift(x.numerator, x.denominator)[0]

    def _shift(self, num: int, den: int) -> tuple[int, int, int]:
        """The digit n of x = num/den, for 0 <= x < 1 in lowest terms, and the
        shifted point (x - prefix(n)) / p(n) as a pair (num', den').

        The guess inverts the prefix form 1 - x = coeff * ratio**n in floats
        (big-integer logs of 1 - x only when it underflows), clamped to
        1..max digit.  It is taken when the shifted point lands in [0, 1),
        which is prefix(n) <= x < prefix(n+1) checked exactly; otherwise
        galloping up from the guess and bisection find the digit, comparing
        prefix(m) <= x by cross-multiplication.

        With prefix(n) = a/e and p(n) = c/e the shifted point is
        (num*e - a*den) / (den*c).  A prime that divides den cannot divide num,
        so the part of den shared with the new numerator is gcd(den, e); what
        is left to cancel divides c.  Two gcds against e and c, short beside
        den, thus leave the pair in lowest terms as one gcd of the pair would.
        """
        log_coeff, log_ratio, max_digit = self._digit_search
        rem = (den - num) / den
        log_rem = math.log(rem) if rem > 0.0 else math.log(den - num) - math.log(den)
        n = math.floor(min(max((log_rem - log_coeff) / log_ratio, 1.0), max_digit))
        a, c, e = self._int_entry(n)
        rest, scale = num * e - a * den, den * c
        if not 0 <= rest < scale:
            # invariant: prefix(lo) <= x < prefix(hi + 1)
            lo, hi = 1, n
            while self._prefix_at_most(hi + 1, num, den):
                if hi >= max_digit:
                    raise DomainError(f"digit exceeds {max_digit}: its prefix needs over {MAX_PREFIX_BITS} bits")
                lo, hi = hi + 1, min(2 * hi, max_digit)
            while lo < hi:
                mid = (lo + hi + 1) // 2
                if self._prefix_at_most(mid, num, den):
                    lo = mid
                else:
                    hi = mid - 1
            n = lo
            a, c, e = self._int_entry(n)
            rest, scale = num * e - a * den, den * c
        g = math.gcd(den, e)
        rest, den = rest // g, den // g
        h = math.gcd(rest, c)
        return n, rest // h, den * (c // h)

    def _prefix_at_most(self, m: int, num: int, den: int) -> bool:
        a, _, e = self._int_entry(m)
        return a * den <= num * e

    def _canonical_key(self):
        start, coeff, ratio = self.value_form()
        head = [self.p(j) for j in range(1, start)]
        while head and head[-1] == coeff * ratio ** len(head):
            head.pop()
        return (tuple(head), coeff, ratio)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProbVector):
            return NotImplemented
        return self._canonical_key() == other._canonical_key()

    def __hash__(self) -> int:
        return hash(self._canonical_key())


@dataclass(frozen=True, eq=False)
class Geometric(ProbVector):
    """Weights p_j = (1 - q) * q**(j-1); one ratio controls the whole family.

    prefix(n) = 1 - q**(n-1) in closed form, so arbitrarily deep expansions
    stay exact.
    """

    q: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", as_fraction(self.q))
        if not (ZERO < self.q < ONE):
            raise InvalidDistribution(
                f"geometric ratio must lie strictly inside (0, 1), got {self.q}"
            )

    @_head_memoized
    def p(self, j: int) -> Fraction:
        return (ONE - self.q) * self.q ** (j - 1)

    @_head_memoized
    def prefix(self, n: int) -> Fraction:
        return ONE - self.q ** (n - 1)

    def value_form(self) -> GeometricForm:
        return GeometricForm(1, (ONE - self.q) / self.q, self.q)


@dataclass(frozen=True, eq=False)
class MixedHeadTail(ProbVector):
    """Explicit masses for the first digits, geometric split of the leftover.

    `head` lists p_1 .. p_m directly; the remaining mass 1 - sum(head) is
    spread over digits m+1, m+2, ... in proportions (1-tail_q), (1-tail_q)*tail_q, ...
    This is the escape hatch for user-specified tables while keeping every
    prefix sum an exact rational.
    """

    head: tuple[Fraction, ...]
    tail_q: Fraction

    def __post_init__(self) -> None:
        head = tuple(as_fraction(h) for h in self.head)
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "tail_q", as_fraction(self.tail_q))
        for h in head:
            if not (ZERO < h < ONE):
                raise InvalidDistribution(
                    f"head masses must lie strictly inside (0, 1), got {h}"
                )
        if sum(head, ZERO) >= ONE:
            raise InvalidDistribution(
                f"head masses must sum below 1, got {sum(head, ZERO)}"
            )
        if not (ZERO < self.tail_q < ONE):
            raise InvalidDistribution(
                f"tail ratio must lie strictly inside (0, 1), got {self.tail_q}"
            )
        cum = [ZERO]
        for h in head:
            cum.append(cum[-1] + h)
        object.__setattr__(self, "_cum", tuple(cum))
        object.__setattr__(self, "_leftover", ONE - cum[-1])

    @_head_memoized
    def p(self, j: int) -> Fraction:
        m = len(self.head)
        if j <= m:
            return self.head[j - 1]
        return self._leftover * (ONE - self.tail_q) * self.tail_q ** (j - m - 1)

    @_head_memoized
    def prefix(self, n: int) -> Fraction:
        m = len(self.head)
        if n <= m + 1:
            return self._cum[n - 1]
        return ONE - self._leftover * self.tail_q ** (n - m - 1)

    def value_form(self) -> GeometricForm:
        m = len(self.head)
        coeff = self._leftover * (ONE - self.tail_q) / self.tail_q ** (m + 1)
        return GeometricForm(m + 1, coeff, self.tail_q)


@dataclass(frozen=True)
class DigitSeq:
    """A digit string (n_1, ..., n_K) plus the constant digit repeated ever after.

    tail=1 is the canonical truncation: the all-ones continuation adds nothing
    to the value because prefix(1) == 0, so the empty sequence denotes 0.  A
    non-one tail shows up when a digit map sends 1 elsewhere; it pins the
    sequence to an exact point of the target expansion.
    """

    digits: tuple[int, ...] = ()
    tail: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "digits", tuple(self.digits))
        for d in self.digits:
            _check_digit(d)
        _check_digit(self.tail)

    @classmethod
    def of(cls, *digits: int, tail: int = 1) -> "DigitSeq":
        return cls(tuple(digits), tail)

    def __len__(self) -> int:
        return len(self.digits)

    def __iter__(self) -> Iterator[int]:
        return iter(self.digits)

    def __getitem__(self, i: int) -> int:
        return self.digits[i]

    def digit_at(self, i: int) -> int:
        """Digit at 0-based position i of the full infinite string."""
        return self.digits[i] if i < len(self.digits) else self.tail

    def drop(self, count: int) -> "DigitSeq":
        """Remove the first `count` digits; past the end, only the tail is left."""
        if count < 0:
            raise ValueError("count must be non-negative")
        return DigitSeq(self.digits[count:], self.tail)

    def mapped(self, fn) -> "DigitSeq":
        """Apply fn to every digit, including the constant tail digit."""
        return DigitSeq(tuple(fn(d) for d in self.digits), fn(self.tail))

    def bump_last(self) -> "DigitSeq":
        if not self.digits:
            raise ValueError("cannot bump the last digit of an empty sequence")
        return DigitSeq(self.digits[:-1] + (self.digits[-1] + 1,), self.tail)

    def canonical(self) -> "DigitSeq":
        """Strip trailing digits equal to the tail; same infinite string."""
        digits = list(self.digits)
        while digits and digits[-1] == self.tail:
            digits.pop()
        return DigitSeq(tuple(digits), self.tail)

    def compare(self, other: "DigitSeq") -> int:
        """Lexicographic order of the two infinite strings: -1, 0 or 1."""
        for i in range(max(len(self), len(other)) + 1):
            a, b = self.digit_at(i), other.digit_at(i)
            if a != b:
                return -1 if a < b else 1
        return 0


class Evaluation(NamedTuple):
    """An exact value together with the width of its prefix cylinder.

    `value` is the exact point named by the digits plus constant tail; every
    other continuation of the same prefix lands inside
    [cylinder lo, cylinder lo + error_bound), so error_bound caps the effect
    of digits beyond the prefix.
    """

    value: Fraction
    error_bound: Fraction


@dataclass(frozen=True)
class Cylinder:
    """Half-open interval of all points whose expansion starts with `prefix`."""

    prefix: DigitSeq
    lo: Fraction
    hi: Fraction
    width: Fraction

    def __post_init__(self) -> None:
        if self.hi - self.lo != self.width:
            raise ValueError("cylinder bounds disagree with the digit-mass product")

    def contains(self, x: Fraction) -> bool:
        return self.lo <= x < self.hi


def constant_point(pv: ProbVector, digit: int) -> Fraction:
    """Exact value of the sequence repeating one digit forever.

    Summing the geometric series gives prefix(d) / (1 - p_d); digit 1 yields 0.
    """
    return pv.prefix(digit) / (ONE - pv.p(digit))


def evaluate(pv: ProbVector, seq: DigitSeq) -> Evaluation:
    """Exact value of a digit sequence, plus the width of its prefix cylinder."""
    digits = seq.digits
    if not digits:
        return Evaluation(constant_point(pv, seq.tail), ONE)
    entry = pv._int_entry
    # value so far num/den, cylinder width so far mass/den
    num, mass, den = entry(digits[0])
    for n in digits[1:]:
        a, c, e = entry(n)
        num = num * e + a * mass
        mass *= c
        den *= e
    width = Fraction(mass, den)
    tail = constant_point(pv, seq.tail)
    if not tail:
        return Evaluation(Fraction(num, den), width)
    value = Fraction(num * tail.denominator + mass * tail.numerator, den * tail.denominator)
    return Evaluation(value, width)


def decode(pv: ProbVector, x: Rational, depth: int) -> DigitSeq:
    """First `depth` digits of x's expansion.

    Each step picks the unique digit whose prefix interval contains the
    current point (ties at the left endpoint stay with that digit, matching
    the half-open cylinders) and rescales.  Exact: decode(evaluate(d)) == d.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    x = as_fraction(x)
    if not (ZERO <= x < ONE):
        raise DomainError(f"x must lie in [0, 1), got {x}")
    num, den = x.numerator, x.denominator
    digits = []
    for _ in range(depth):
        n, num, den = pv._shift(num, den)
        digits.append(n)
    return DigitSeq(tuple(digits))


def shift_value(pv: ProbVector, x: Rational) -> Fraction:
    """Drop the leading digit of x's expansion: (x - prefix(n_1)) / p_{n_1}."""
    x = as_fraction(x)
    if not (ZERO <= x < ONE):
        raise DomainError(f"x must lie in [0, 1), got {x}")
    _, num, den = pv._shift(x.numerator, x.denominator)
    return Fraction(num, den)


def cylinder(pv: ProbVector, prefix: DigitSeq) -> Cylinder:
    """The half-open interval spanned by all continuations of `prefix`.

    The upper endpoint is the value of the prefix with its last digit bumped
    by one; the width is the product of the prefix digit masses (the
    evaluation's error bound), and the two agree exactly.
    """
    if not prefix.digits:
        raise ValueError("cylinder needs a nonempty digit prefix")
    base = DigitSeq(prefix.digits)
    lo, width = evaluate(pv, base)
    hi = evaluate(pv, base.bump_last()).value
    return Cylinder(base, lo, hi, width)
