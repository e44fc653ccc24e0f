"""Derivative diagnostics for digit remaps.

Along the nested cylinders of a point, the difference quotient of a remap is
the ratio of image-cylinder width to source-cylinder width, a product of one
exact rational factor per digit:

    target.p(phi(n_i)) / source.p(n_i)

Whether that product collapses to 0, blows up, or settles is what separates
flat (singular) behaviour from infinite or finite derivatives, so this module
exposes the per-digit ratios, their products along cylinders, a finite-horizon
classifier, and the mean and spread of the log ratio over all digits under
the source weights; the mean predicts the typical exponent along digit
sequences sampled from the source weights.
"""

from __future__ import annotations

import enum
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .core import DigitSeq, ONE, log_rational
from .remap import DigitRemap


def _ratio_terms(remap: DigitRemap, digit: int) -> tuple[int, int]:
    """derivative_ratio(remap, digit) as an unreduced pair of integers, read
    off the two families' integer triples: o_phi(d) / p_d = (C/E) / (c/e)."""
    image = remap.digit_map.apply(digit)  # checks the digit before any integer read
    _, c, e, _, _ = remap.source._int_entry(digit)
    _, C, E, _, _ = remap.target._int_entry(image)
    return C * e, E * c


def derivative_ratio(remap: DigitRemap, digit: int) -> Fraction:
    """Exact per-digit stretch factor target.p(phi(digit)) / source.p(digit)."""
    return Fraction(*_ratio_terms(remap, digit))


def cylinder_derivative(remap: DigitRemap, prefix: DigitSeq) -> Fraction:
    """Image-cylinder width over source-cylinder width for a digit prefix.

    Equals the product of derivative_ratio over the prefix digits, taken here
    digit by digit in integers and reduced once.
    """
    if not prefix.digits:
        raise ValueError("cylinder derivative needs a nonempty prefix")
    num = den = 1
    for d in prefix.digits:
        n, m = _ratio_terms(remap, d)
        num, den = num * n, den * m
    return Fraction(num, den)


class Verdict(enum.Enum):
    SINGULAR_INDICATED = "singular-indicated"
    INFINITE_DERIVATIVE_INDICATED = "infinite-derivative-indicated"
    FINITE_DERIVATIVE_INDICATED = "finite-derivative-indicated"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class PointClassification:
    """Finite-horizon evidence about the derivative at a point.

    The asymptotic statements quantify over infinite digit tails; at a finite
    horizon K this classifier inspects the late window (K/2, K] and reports
    evidence rather than truth.  If no window index has image mass >= source
    mass the flat behaviour is indicated; if none has <=, the blow-up; if
    none differs at all, a finite derivative; anything else is inconclusive.
    """

    verdict: Verdict
    horizon: int
    window_start: int
    window_ge: int
    window_le: int
    window_ne: int
    total_ge: int
    total_le: int
    total_ne: int


def classify_point(remap: DigitRemap, seq: DigitSeq, horizon: int) -> PointClassification:
    if not 1 <= horizon <= len(seq):
        raise ValueError(f"horizon must lie in 1..{len(seq)}, got {horizon}")
    window_start = horizon // 2 + 1
    digits = seq.digits[:horizon]
    sign: dict[int, int] = {}  # digit -> sign of image mass minus source mass; digits repeat
    for n in set(digits):
        image, source = _ratio_terms(remap, n)  # the masses' quotient, over positive integers
        sign[n] = (image > source) - (image < source)
    signs = [sign[n] for n in digits]

    def tally(part: list[int]) -> tuple[int, int, int]:  # positions with >=, <=, !=
        count = Counter(part)
        return count[1] + count[0], count[-1] + count[0], count[1] + count[-1]

    wge, wle, wne = tally(signs[window_start - 1 :])
    tge, tle, tne = tally(signs)
    if wge == 0:
        verdict = Verdict.SINGULAR_INDICATED
    elif wle == 0:
        verdict = Verdict.INFINITE_DERIVATIVE_INDICATED
    elif wne == 0:
        verdict = Verdict.FINITE_DERIVATIVE_INDICATED
    else:
        verdict = Verdict.INCONCLUSIVE
    return PointClassification(
        verdict, horizon, window_start, wge, wle, wne, tge, tle, tne
    )


class LogRatioDiagnostic(NamedTuple):
    """Mean and standard deviation of ln(target.p(phi(j)) / source.p(j)) for
    j drawn from the source weights, read off one (weight, mean, spread) per
    residue class.  `value` is <= 0 (Gibbs' inequality), and exactly 0.0,
    with `std` 0.0, when every ratio is 1."""

    value: float
    std: float


def _sqrt(num: int, den: int) -> float:
    """sqrt(num / den) for 0 < num <= den to a float's precision, also where
    num / den is subnormal as a float."""
    s = (den.bit_length() - num.bit_length()) // 2  # num / den * 4**s lies near 1
    return math.ldexp(math.sqrt((num << 2 * s) / den), -s)


def expected_log_ratio(remap: DigitRemap) -> LogRatioDiagnostic:
    """Average log stretch factor under the source weights, and its spread.

    A negative value predicts that cylinder derivatives collapse to 0 along
    source-typical digit sequences (the inverse remap then blows up); zero
    means the two sides assign identical mass to every rewritten digit.

    The classes are those of `DigitRemap._classes`.  From its start on the
    digits j0 + k * period of a class have weight p_j0 * q**k and log ratio
    level + k * slope, with level = ln(ratio_j0) and slope = ln(t / q), so
    the class index k is geometric and the class has weight p_j0 / (1 - q),
    mean level + slope * q / (1 - q) (summed exactly from the float logs,
    then rounded once) and spread |slope| * sqrt(q) / (1 - q).  The mean is
    the weighted sum of the class means; the std is one hypot over each
    class's offset from it and its spread, times the root of the exact class
    weight (precise below floats).  A slope of exactly 0 keeps every class
    constant, however near 1 q lies.

    Weights, class means and their products are rounded floats, so the mean
    is accurate to about 1e-16 of sum p_j |ln ratio_j|, not of the mean
    itself: for Geometric(1 - 10**-20) onto itself under the pair swap it
    reads -1e-40 against the exact -5e-41.
    """
    start, period, q, t, rows = remap._classes
    qn, qd = q.numerator, q.denominator
    slope = Fraction(log_rational(t / q))
    # divide exactly before rounding: near q = 1, float(1 - q) may be 0
    drift, spread = slope * q / (ONE - q), float(abs(slope) / (ONE - q)) * _sqrt(qn, qd)
    dn, dd = drift.numerator, drift.denominator
    # (exact weight as a pair of integers, mean, spread) per class, read off
    # the integer rows: p_j = c/e and o_phi(j) = C/E
    classes = []
    for j, (c, _, e, C, _, E) in enumerate(rows, 1):
        level = log_rational(Fraction(C * e, E * c))
        if j < start:
            classes.append((c, e, level, 0.0))
        else:  # level + drift summed exactly, then rounded once
            ln, ld = level.as_integer_ratio()
            classes.append((c * qd, e * (qd - qn), (ln * dd + dn * ld) / (ld * dd), spread))
    mean = math.fsum(wn / wd * m for wn, wd, m, _ in classes)
    # a list: unpacking a generator resizes a tuple, which grew peak RSS 1 MB in 16000 calls
    std = math.hypot(*[_sqrt(wn, wd) * x for wn, wd, m, s in classes for x in (m - mean, s)])
    return LogRatioDiagnostic(mean, std)
