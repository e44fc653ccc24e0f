"""Derivative diagnostics for digit remaps.

Along the nested cylinders of a point, the difference quotient of a remap is
the ratio of image-cylinder width to source-cylinder width, a product of one
exact rational factor per digit:

    target.p(phi(n_i)) / source.p(n_i)

Whether that product collapses to 0, blows up, or settles is what separates
flat (singular) behaviour from infinite or finite derivatives, so this module
exposes the per-digit ratios, their products, digit-occurrence counts that
factor those products, a finite-horizon classifier, and the mean and spread
of the log ratio over all digits under the source weights; the mean predicts
the typical exponent along digit sequences sampled from the source weights.
"""

from __future__ import annotations

import enum
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .core import DigitSeq, ONE, log_rational
from .remap import DigitRemap, _eventual_classes


def derivative_ratio(remap: DigitRemap, digit: int) -> Fraction:
    """Exact per-digit stretch factor target.p(phi(digit)) / source.p(digit)."""
    return remap.target.p(remap.digit_map.apply(digit)) / remap.source.p(digit)


def cylinder_derivative(remap: DigitRemap, prefix: DigitSeq) -> Fraction:
    """Image-cylinder width over source-cylinder width for a digit prefix.

    Equals the product of derivative_ratio over the prefix digits.
    """
    if not prefix.digits:
        raise ValueError("cylinder derivative needs a nonempty prefix")
    out = ONE
    for d in prefix.digits:
        out *= derivative_ratio(remap, d)
    return out


@dataclass(frozen=True)
class DigitCounts:
    """Occurrence counts of each digit among the first `horizon` digits."""

    counts: dict[int, int]
    horizon: int


def digit_counts(seq: DigitSeq, horizon: int) -> DigitCounts:
    if not 0 <= horizon <= len(seq):
        raise ValueError(f"horizon must lie in 0..{len(seq)}, got {horizon}")
    counts: dict[int, int] = {}
    for d in seq.digits[:horizon]:
        counts[d] = counts.get(d, 0) + 1
    return DigitCounts(counts, horizon)


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

    def report(self) -> str:
        w = self.horizon - self.window_start + 1
        return "\n".join(
            [
                f"verdict: {self.verdict.value}",
                f"horizon: {self.horizon} digits, window: {self.window_start}..{self.horizon}",
                f"window evidence: >= at {self.window_ge}/{w}, <= at {self.window_le}/{w}, != at {self.window_ne}/{w}",
                f"full horizon: >= at {self.total_ge}/{self.horizon}, <= at {self.total_le}/{self.horizon}, != at {self.total_ne}/{self.horizon}",
            ]
        )


def classify_point(remap: DigitRemap, seq: DigitSeq, horizon: int) -> PointClassification:
    if not 1 <= horizon <= len(seq):
        raise ValueError(f"horizon must lie in 1..{len(seq)}, got {horizon}")
    window_start = horizon // 2 + 1
    digits = seq.digits[:horizon]
    sign: dict[int, int] = {}  # digit -> sign of image mass minus source mass; digits repeat
    for n in set(digits):
        image_mass, source_mass = remap.target.p(remap.digit_map.apply(n)), remap.source.p(n)
        sign[n] = (image_mass > source_mass) - (image_mass < source_mass)
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


def expected_log_ratio(remap: DigitRemap) -> LogRatioDiagnostic:
    """Average log stretch factor under the source weights, and its spread.

    A negative value predicts that cylinder derivatives collapse to 0 along
    source-typical digit sequences (the inverse remap then blows up); zero
    means the two sides assign identical mass to every rewritten digit.

    Each digit before the `_eventual_classes` start is a class of one.  From
    there on the digits j0 + k * period of a residue class have weight
    p_j0 * q**k and log ratio level + k * slope, with level = ln(ratio_j0)
    and slope = ln(t / q), so the class index k is geometric and the class
    has weight p_j0 / (1 - q), mean level + slope * q / (1 - q) (summed
    exactly from the float logs, then rounded once) and spread
    |slope| * sqrt(q) / (1 - q).  The mean is the weighted sum of the class
    means; the std is one hypot over each class's offset from it and its
    spread.  A slope of exactly 0 keeps every class constant, however near 1
    q lies.

    Weights, class means and their products are rounded floats, so the mean
    is accurate to about 1e-16 of sum p_j |ln ratio_j|, not of the mean
    itself: for Geometric(1 - 10**-20) onto itself under the pair swap it
    reads -1e-40 against the exact -5e-41.
    """
    start, period, q, t = _eventual_classes(remap)
    slope = Fraction(log_rational(t / q))
    # divide exactly before rounding: near q = 1, float(1 - q) may be 0
    drift, spread = slope * q / (ONE - q), float(abs(slope) / (ONE - q)) * math.sqrt(q)
    classes = []  # (weight, mean, spread) per class; a digit before `start` is a class of one
    for j in range(1, start + period):
        level = log_rational(derivative_ratio(remap, j))
        if j < start:
            classes.append((float(remap.source.p(j)), level, 0.0))
        else:
            classes.append((float(remap.source.p(j) / (ONE - q)), float(Fraction(level) + drift), spread))
    mean = math.fsum(w * m for w, m, _ in classes)
    # a list: unpacking a generator resizes a tuple, which grew peak RSS 1 MB in 16000 calls
    std = math.hypot(*[math.sqrt(w) * x for w, m, s in classes for x in (m - mean, s)])
    return LogRatioDiagnostic(mean, std)
