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
`decode` and `evaluate` carry integer numerator and denominator pairs, read
each digit, the constant tail's too, as one integer triple, and build a
`Fraction` only at the end; since `Fraction` normalizes, the results are the
values step-by-step `Fraction` arithmetic gives, without a gcd on every step.
`decode` reads digits in blocks: it guesses a run of digits in floats, then
confirms the whole run with one exact test that the point lies in the
cylinder the run spans.  The cylinders of one depth partition [0, 1), so a
confirmed run is what one exact step per digit reads; every digit no block
confirms takes that exact step.

Each family records its shape once, as a head of masses p_1 .. p_m, the
mass left after it and the ratio of the geometric tail that spreads that
mass; its integer triple for digit n, prefix(n) = a/e and p(n) = c/e over
one denominator, and its prefix form both follow from that record, without
a `Fraction` per digit.  `decode`, `evaluate`, the derivative ratios and the
series of `probdigit.remap` read only these triples.  Nearly every digit
read is small (digits are i.i.d. with the weight law), so one table per
family keeps the triple of each digit n <= DIGIT_CAP + 1, with its two
floats for decode's guess, from the first time that digit is used; larger
digits are computed on every call and never stored.  The exact `p(n)` and
`prefix(n)` each family also gives are computed on every call.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterator, NamedTuple

from .errors import DomainError, InvalidDistribution

Rational = int | str | Fraction

ZERO = Fraction(0)
ONE = Fraction(1)
MAX_PREFIX_BITS = 1 << 18  # bit budget of one exact prefix; see ProbVector.digit_of
# Digits 1..DIGIT_CAP + 1: each family keeps their integer triples, and the
# float path enumerates them one by one
DIGIT_CAP = 64
# decode's float guess (ProbVector._guess_block): a block ends before its float
# width drops below _BLOCK_WIDTH, and each digit adds _ROUNDING to the bound on
# the float point's error, for the rounding of its cylinder ends and its step
_BLOCK_WIDTH = 2.0**-40
_ROUNDING = 2.0**-49


def parse_rational(text: str) -> Fraction:
    """Exact conversion of "a/b" or a decimal string like "0.3" (-> 3/10).
    An exponent past the interpreter's limit on integer string digits, which
    already bounds "a/b", is refused: 10**exponent would take seconds."""
    text = text.strip()
    exponent = text.lower().partition("e")[2].lstrip("+-").replace("_", "")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit, as before Python 3.10.7
    if exponent.isdecimal() and limit and int(exponent) > limit:
        raise ValueError(f"{text!r} has over {limit} digits")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def as_fraction(value: Rational) -> Fraction:
    """Convert to Fraction, rejecting floats.

    Binary floats smuggle rounding error into the exact path; callers that
    really mean a decimal should pass the decimal as a string, which converts
    exactly ("0.3" -> 3/10) through `parse_rational`.
    """
    if isinstance(value, float):
        raise TypeError(
            "floats are not accepted on the exact path; pass a Fraction, int or string"
        )
    return parse_rational(value) if isinstance(value, str) else Fraction(value)


def _as_point(value: Rational, name: str = "x") -> Fraction:
    """`as_fraction`, a `Fraction` taken as it is, then check that the point
    lies in [0, 1): 0 <= numerator < denominator, the denominator positive."""
    x = value if type(value) is Fraction else as_fraction(value)
    if not 0 <= x.numerator < x.denominator:
        raise DomainError(f"{name} must lie in [0, 1), got {x}")
    return x


def log_rational(x: Fraction) -> float:
    """ln x = k ln 2 + log1p(x 2**-k - 1), k the integer nearest log2 x: finite
    where float(x) under- or overflows, within a few ulps, near 1 (k = 0) too."""
    k = round(math.log2(x.numerator) - math.log2(x.denominator))
    num, den = x.numerator << max(-k, 0), x.denominator << max(k, 0)
    return k * math.log(2) + math.log1p((num - den) / den)


def _check_digit(j: int) -> int:
    if not isinstance(j, int) or isinstance(j, bool) or j < 1:
        raise ValueError(f"digits are positive integers, got {j!r}")
    return j


class GeometricForm(NamedTuple):
    """Closed form valid from `start` on: prefix(n) = 1 - coeff * ratio**n."""

    start: int
    coeff: Fraction
    ratio: Fraction


class ProbVector:
    """Base class for closed-form weight families on the positive integers.

    Every family is a head of masses p_1 .. p_m, then a geometric tail that
    spreads the leftover mass over digits m + 1, m + 2, ... in proportions
    (1 - ratio), (1 - ratio) ratio, ...  A subclass records that shape once
    with ``_set_form`` and gives the exact ``p(j)`` and ``prefix(n)`` (mass
    strictly below digit ``n``, so ``prefix(1) == 0``) as `Fraction` closed
    forms.  The rest follows here from the record: the integer ``_triple``
    behind the table ``_int_head`` that the library reads, ``prefix_form``,
    the float hint for the digit search and the key of equality.
    Instances are immutable and compare equal when they assign the same mass
    to every digit, regardless of how they were described.
    """

    _cum: tuple[Fraction, ...]  # prefix(1) .. prefix(m + 1): 0, then the head's running sums
    _leftover: Fraction  # the tail's mass, 1 - prefix(m + 1)
    _ratio: Fraction  # the tail's ratio

    def _set_form(self, head: tuple[Fraction, ...], ratio: Fraction, noun: str) -> None:
        """Validate and record the shape: each head mass and the ratio, named
        `noun` in its refusal, strictly inside (0, 1), the head summing below 1."""
        cum = [ZERO]
        for h in head:
            if not (ZERO < h < ONE):
                raise InvalidDistribution(f"head masses must lie strictly inside (0, 1), got {h}")
            cum.append(cum[-1] + h)
        if cum[-1] >= ONE:
            raise InvalidDistribution(f"head masses must sum below 1, got {cum[-1]}")
        if not (ZERO < ratio < ONE):
            raise InvalidDistribution(f"{noun} must lie strictly inside (0, 1), got {ratio}")
        object.__setattr__(self, "_cum", tuple(cum))
        object.__setattr__(self, "_leftover", ONE - cum[-1])
        object.__setattr__(self, "_ratio", ratio)

    def p(self, j: int) -> Fraction:
        raise NotImplementedError

    def prefix(self, n: int) -> Fraction:
        raise NotImplementedError

    def prefix_form(self) -> GeometricForm:
        """prefix(n) = 1 - (l/d) q**(n-m-1) past the head, with q = u/v:
        coeff = l v**(m+1) / (d u**(m+1))."""
        m = len(self._cum) - 1
        l, d = self._leftover.as_integer_ratio()
        u, v = self._ratio.as_integer_ratio()
        return GeometricForm(m + 1, Fraction(l * v ** (m + 1), d * u ** (m + 1)), self._ratio)

    @cached_property
    def _int_head(self) -> dict[int, tuple[int, int, int, float, float]]:
        # the integer table: digit n <= DIGIT_CAP + 1 -> _int_entry(n), filled on first use
        return {}

    def _triple(self, n: int) -> tuple[int, int, int]:
        """(a, c, e) with prefix(n) = a/e, p(n) = c/e and no common factor:
        a tail digit's from `_tail_triple`, a head digit's over the lcm of
        the denominators of prefix(n) and prefix(n + 1), which is that of
        prefix(n) and p(n), as each of the three sums or differences the others."""
        cum = self._cum
        m = len(cum) - 1
        if n > m:
            return _tail_triple(self._leftover, self._ratio, n - m)
        prefix, after = cum[n - 1], cum[n]
        e = math.lcm(prefix.denominator, after.denominator)
        a = prefix.numerator * (e // prefix.denominator)
        return a, after.numerator * (e // after.denominator) - a, e

    def _int_entry(self, n: int) -> tuple[int, int, int, float, float]:
        """(a, c, e, a/e, c/e): prefix(n) = a/e and p(n) = c/e as
        `_triple(n)` gives them, then both rounded to floats for
        `_guess_block`; digits up to DIGIT_CAP + 1 are kept in `_int_head`,
        the family's one table.

        e is the lcm of the lowest-term denominators of prefix(n) and p(n),
        the triple these two Fractions would give: any common denominator of
        both is that lcm times some k, and k then divides a, c and e, so a
        triple without a common factor has k = 1.
        """
        entry = self._int_head.get(n)
        if entry is None:
            a, c, e = self._triple(n)
            entry = (a, c, e, a / e, c / e)
            if n <= DIGIT_CAP + 1:
                self._int_head[n] = entry
        return entry

    @cached_property
    def _digit_search(self) -> tuple[float, float, int, int]:
        # ln coeff and ln ratio of the prefix form (the log of a ratio within
        # float precision of 1 is kept negative), max digit: past `start`,
        # each digit adds the bits of the ratio's denominator, and `start`
        start, coeff, ratio = self.prefix_form()
        max_digit = start + MAX_PREFIX_BITS // ratio.denominator.bit_length()
        return log_rational(coeff), min(log_rational(ratio), -math.ulp(0.0)), max_digit, start

    def digit_of(self, x: Rational) -> int:
        """The unique digit n with prefix(n) <= x < prefix(n+1): one `_shift` step.

        The bits of the exact prefix(n) grow linearly in n, so a huge digit
        would be searched for without end; one whose prefix needs more than
        MAX_PREFIX_BITS bits raises DomainError.  At that budget a whole
        search from digit 1 stays under a second (2-vCPU host).
        """
        x = _as_point(x)
        return self._shift(x.numerator, x.denominator)[0][0]

    def _shift(self, num: int, den: int, most: int = 1) -> tuple[list[int], int, int]:
        """Up to `most` digits of x = num/den, 0 <= x < 1 in lowest terms, and
        the point shifted past their cylinder [a/e, (a + c)/e), (x - a/e) / (c/e),
        as a pair (num', den'): the digits `_guess_block` guesses from x rounded
        to a float once one exact test confirms that x lies in their cylinder,
        else the one digit `_search` finds without floats from the guess's bound."""
        block, a, c, e, low = self._guess_block(num / den, most)
        shifted = _into_cylinder(num, den, a, c, e) if block else None
        if shifted is None:
            block = [self._search(num, den, low)]
            a, c, e, _, _ = self._int_entry(block[0])
            shifted = _into_cylinder(num, den, a, c, e)
        return block, *shifted

    def _search(self, num: int, den: int, low: int = 1) -> int:
        """The digit n of x = num/den without floats: galloping up from `low`,
        then bisecting, comparing prefix(m) <= x by cross-multiplication, so
        from low <= n it reads only digits <= 2n + 1, at a cost set by n - low."""
        max_digit = self._digit_search[2]
        lo, hi = 1, max(low - 1, 1)  # invariant: prefix(lo) <= x < prefix(hi + 1)
        while self._prefix_at_most(hi + 1, num, den):
            if hi >= max_digit:
                raise DomainError(f"digit exceeds {max_digit}: its prefix needs over {MAX_PREFIX_BITS} bits")
            lo, hi = hi + 1, min(2 * hi + 2 - low, max_digit)
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self._prefix_at_most(mid, num, den):
                lo = mid
            else:
                hi = mid - 1
        return lo

    def _prefix_at_most(self, m: int, num: int, den: int) -> bool:
        a, _, e, _, _ = self._int_entry(m)
        return a * den <= num * e

    def _guess_block(self, xf: float, most: int) -> tuple[list[int], int, int, int, int]:
        """Up to `most` digits of a point x guessed from xf, x rounded to a
        float, their cylinder as integers (a, c, e), which starts at a/e and is
        c/e wide as `evaluate` accumulates it, and a bound low <= x's digit.

        err bounds the float point's distance from the true one: each digit
        adds _ROUNDING, for the rounding of its float cylinder's ends and of
        its step, and the step divides err by p.  A digit is taken only when
        the float point lies more than err inside the digit's float cylinder
        [prefix, prefix + p).  From the prefix form's start on, g, the core's
        one float inverse of 1 - x = coeff * ratio**g, is the digit plus the
        point's place inside it, so a g within the point's error of an
        integer, past the max digit or no number ends the block before that
        digit's entry is read; before the start the guess walks up from digit
        1 within the integer table.  The block also ends once the float width
        falls below _BLOCK_WIDTH, where err nears 2**-9.  A guess that stops at
        its first digit offers the digit it stopped at if the table holds it,
        x's digit when x is its left end, as a digit string's value is, else
        bounds x's digit by g - slop, so a search next to the max digit reads
        a few ~2**18-bit entries, not ~30.  `_shift` and `_search` test both.
        """
        log_coeff, log_ratio, max_digit, start = self._digit_search
        scale, top = -1.0 / log_ratio, min(max_digit, DIGIT_CAP + 1)
        head, entry, log = self._int_head, self._int_entry, math.log
        block_width, rounding, past_max = _BLOCK_WIDTH, _ROUNDING, max_digit + 1
        block, a, c, e, n = [], 0, 1, 1, 0
        width, err, g, slop = 1.0, 0.0, 0.0, 0.0
        while most and width >= block_width:
            err += rounding
            rem = 1.0 - xf
            if rem <= err:
                break
            g = (log_coeff - log(rem)) * scale
            slop = err * scale / rem + 1e-12 * g  # 1e-12 g: the rounding of the logs behind g
            if g < start:
                n = 1
                an, cn, en, lo, m = head.get(1) or entry(1)
                while xf >= lo + m and n < top:
                    n += 1
                    an, cn, en, lo, m = head.get(n) or entry(n)
            elif g < past_max:  # False for inf and nan too: a ratio within float precision of 1
                n = int(g + slop)  # the digit, if g - slop >= n; else the one that begins within slop of g
                if g - slop < n:
                    break
                an, cn, en, lo, m = head.get(n) or entry(n)
            else:
                break
            if not lo + err <= xf < lo + m - err:
                break
            block.append(n)
            a, c, e = a * en + an * c, c * cn, e * en
            xf, err, width = (xf - lo) / m, err / m, width * m
            most -= 1
        if not block and 0 < n <= top:  # the walk's digit, or the one that begins within slop of g
            block, (a, c, e, _, _) = [n], head.get(n) or entry(n)
        low = int(min(g - slop, max_digit)) if not block and g - slop >= 1 else 1  # nan: no bound
        return block, a, c, e, low

    def _canonical_key(self) -> tuple[tuple[Fraction, ...], Fraction]:
        """(_cum, ratio) of the shortest head: a last head mass h that the
        tail would give, h q = l (1 - q) with l the leftover, joins the tail,
        so every description of one law ends at the same record."""
        cum, q = self._cum, self._ratio
        m = len(cum) - 1
        while m and (cum[m] - cum[m - 1]) * q == (ONE - cum[m]) * (ONE - q):
            m -= 1
        return cum[: m + 1], q

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProbVector):
            return NotImplemented
        return self._canonical_key() == other._canonical_key()

    def __hash__(self) -> int:
        return hash(self._canonical_key())


def _tail_triple(leftover: Fraction, q: Fraction, k: int) -> tuple[int, int, int]:
    """`_triple` of digit k of a geometric tail that spreads mass l/d over
    its digits in proportions (1 - q), (1 - q) q, ..., with q = u/v:

        prefix = 1 - (l/d) q**(k-1),  mass = (l/d) (1 - q) q**(k-1)

    over e = d v**k, so a = e - v w and c = (v - u) w with w = l u**(k-1).
    The triple's common factor g = gcd(a, c, e) is gcd(e, w), as
    gcd(v, v - u) = gcd(v, u) = 1, and since gcd(l, d) = 1 too it splits
    into gcd(d, w) gcd(l, e): two gcds with a short operand, where one gcd
    of the long a, c and e would cost quadratic time in their length.  A
    geometric family (l = d = 1) has g = 1.
    """
    l, d = leftover.numerator, leftover.denominator
    u, v = q.numerator, q.denominator
    w, e = l * u ** (k - 1), d * v**k
    g = math.gcd(d, w) * math.gcd(l, e)
    return (e - v * w) // g, (v - u) * w // g, e // g


@dataclass(frozen=True, eq=False)
class Geometric(ProbVector):
    """Weights p_j = (1 - q) * q**(j-1); one ratio controls the whole family.

    prefix(n) = 1 - q**(n-1) in closed form, so arbitrarily deep expansions
    stay exact.
    """

    q: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", as_fraction(self.q))
        self._set_form((), self.q, "geometric ratio")

    def p(self, j: int) -> Fraction:
        _check_digit(j)
        return (ONE - self.q) * self.q ** (j - 1)

    def prefix(self, n: int) -> Fraction:
        _check_digit(n)
        return ONE - self.q ** (n - 1)


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
        object.__setattr__(self, "head", tuple(as_fraction(h) for h in self.head))
        object.__setattr__(self, "tail_q", as_fraction(self.tail_q))
        self._set_form(self.head, self.tail_q, "tail ratio")

    def p(self, j: int) -> Fraction:
        _check_digit(j)
        m = len(self.head)
        if j <= m:
            return self.head[j - 1]
        return self._leftover * (ONE - self.tail_q) * self.tail_q ** (j - m - 1)

    def prefix(self, n: int) -> Fraction:
        _check_digit(n)
        m = len(self.head)
        if n <= m + 1:
            return self._cum[n - 1]
        return ONE - self._leftover * self.tail_q ** (n - m - 1)


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
        digits = tuple(self.digits)
        object.__setattr__(self, "digits", digits)
        # one sweep accepts plain ints >= 1; anything else is checked digit by
        # digit, so the first bad digit raises `_check_digit`'s message
        if not ({int}.issuperset(map(type, digits)) and min(digits, default=1) >= 1):
            for d in digits:
                _check_digit(d)
        _check_digit(self.tail)

    @classmethod
    def of(cls, *digits: int, tail: int = 1) -> "DigitSeq":
        return cls(tuple(digits), tail)

    @classmethod
    def _unchecked(cls, digits: tuple[int, ...], tail: int) -> "DigitSeq":
        """A sequence from digits the library itself produced or already checked."""
        seq = object.__new__(cls)
        object.__setattr__(seq, "digits", digits)
        object.__setattr__(seq, "tail", tail)
        return seq

    def __len__(self) -> int:
        return len(self.digits)

    def __iter__(self) -> Iterator[int]:
        return iter(self.digits)

    def __getitem__(self, i: int) -> int:
        return self.digits[i]

    def drop(self, count: int) -> "DigitSeq":
        """Remove the first `count` digits; past the end, only the tail is left."""
        if count < 0:
            raise ValueError("count must be non-negative")
        return DigitSeq._unchecked(self.digits[count:], self.tail)


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
    width: Fraction

    @property
    def hi(self) -> Fraction:
        return self.lo + self.width

    def contains(self, x: Fraction) -> bool:
        return self.lo <= x < self.hi


def constant_point(pv: ProbVector, digit: int) -> Fraction:
    """Exact value of the sequence repeating one digit forever.

    Summing the geometric series gives prefix(d) / (1 - p_d), the constant
    tail `evaluate` closes after an empty prefix; digit 1 yields 0.
    """
    return evaluate(pv, DigitSeq(tail=digit)).value


def _into_cylinder(num: int, den: int, a: int, c: int, e: int) -> tuple[int, int] | None:
    """(x - a/e) / (c/e) as a pair in lowest terms, for x = num/den in lowest
    terms, or None when x lies outside the cylinder [a/e, (a + c)/e).

    The shifted point is (num*e - a*den) / (den*c).  A prime that divides den
    cannot divide num, so the part of den shared with the new numerator is
    gcd(den, e); what is left to cancel divides c.  Two gcds against e and c,
    short beside den, thus leave the pair in lowest terms as one gcd of the
    pair would, whether (a, c, e) is one digit's triple or a block's.
    """
    rest = num * e - a * den
    if not 0 <= rest < den * c:
        return None
    g = math.gcd(den, e)
    rest, den = rest // g, den // g
    h = math.gcd(rest, c)
    return rest // h, den * (c // h)


def evaluate(pv: ProbVector, seq: DigitSeq) -> Evaluation:
    """Exact value of a digit sequence, plus the width of its prefix cylinder;
    the constant tail t adds prefix(t) / (1 - p_t) = a / (e - c) from t's triple."""
    head, entry = pv._int_head, pv._int_entry
    # value so far num/den, cylinder width so far mass/den, from the empty prefix
    num, mass, den = 0, 1, 1
    for n in seq.digits:
        a, c, e, _, _ = head.get(n) or entry(n)
        num = num * e + a * mass
        mass *= c
        den *= e
    a, c, e, _, _ = entry(seq.tail)  # the continuation fills its share of the cylinder
    return Evaluation(Fraction(num * (e - c) + mass * a, den * (e - c)), Fraction(mass, den))


def decode(pv: ProbVector, x: Rational, depth: int) -> DigitSeq:
    """First `depth` digits of x's expansion.

    Each digit is the unique one whose prefix interval contains the current
    point (ties at the left endpoint stay with that digit, matching the
    half-open cylinders), and the point is then rescaled.  Each step,
    `ProbVector._shift`, reads a run of digits `ProbVector._guess_block`
    guesses in floats once one exact test, that x lies in the cylinder the
    run spans, confirms it, and rescales by that cylinder.  The depth-k
    cylinders partition [0, 1), so a confirmed run is exactly the digits the
    one-digit steps would read.  Where no run is confirmed (the float point
    within rounding of a boundary, a ratio within float precision of 1, a
    point that rounds to 1) the step reads one digit: the table digit that
    begins at that boundary if the exact test confirms it, else the one the
    exact search `ProbVector._search` finds above the guess's bound, at a
    cost set by that digit.  The point 0 reads digit 1 forever.
    Exact: decode(evaluate(d)) == d.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    x = _as_point(x)
    num, den = x.numerator, x.denominator
    digits = []
    while len(digits) < depth:
        if num == 0:  # prefix(1) == 0, so 0 shifts to itself by digit 1
            digits += [1] * (depth - len(digits))
            break
        block, num, den = pv._shift(num, den, depth - len(digits))
        digits += block
    return DigitSeq._unchecked(tuple(digits), 1)  # _shift gives digits >= 1


def shift_value(pv: ProbVector, x: Rational) -> Fraction:
    """Drop the leading digit of x's expansion: (x - prefix(n_1)) / p_{n_1}."""
    x = _as_point(x)
    _, num, den = pv._shift(x.numerator, x.denominator)
    return Fraction(num, den)


def cylinder(pv: ProbVector, prefix: DigitSeq) -> Cylinder:
    """The half-open interval spanned by all continuations of `prefix`.

    The lower endpoint is the value of the prefix followed by all ones; the
    width, the product of the prefix digit masses, is that evaluation's error
    bound, and hi = lo + width is the prefix with its last digit bumped.
    """
    if not prefix.digits:
        raise ValueError("cylinder needs a nonempty digit prefix")
    base = DigitSeq._unchecked(prefix.digits, 1)
    return Cylinder(base, *evaluate(pv, base))
