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

from .core import DigitSeq, ONE, ZERO, log_rational
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
    j drawn from the source weights.  `value` is <= 0 (Gibbs' inequality),
    and exactly 0.0 when every ratio is 1."""

    value: float
    std: float


def expected_log_ratio(remap: DigitRemap) -> LogRatioDiagnostic:
    """Average log stretch factor under the source weights, and its spread.

    A negative value predicts that cylinder derivatives collapse to 0 along
    source-typical digit sequences (the inverse remap then blows up); zero
    means the two sides assign identical mass to every rewritten digit.

    Digits before the `_eventual_classes` start are taken one by one.  From
    there on the digits j0 + k * period of a residue class have weight
    p_j0 * q**k and log ratio ln(ratio_j0) + k * ln(step), with step = t / q,
    so the exact moments p_j0 * sum_k k**i * q**k (i = 0, 1, 2) sum the
    whole class.

    Only the logs and the final sums are floats, so the mean is accurate to
    about 1e-16 of sum p_j |ln ratio_j|, not of the mean itself: for
    Geometric(1 - 10**-20) onto itself under the pair swap it reads -1e-40
    against the exact -5e-41.
    """
    src = remap.source
    start, period, q, t = _eventual_classes(remap)
    step = t / q
    # (m0, m1, m2, ratio at k = 0) per class; a digit before `start` is a class of one
    classes = [(src.p(j), ZERO, ZERO, derivative_ratio(remap, j)) for j in range(1, start)]
    for j0 in range(start, start + period):
        m0 = src.p(j0) / (ONE - q)
        # a step of exactly 1 leaves the log ratio constant on the class, so the
        # higher moments never count (and may be too large for a float)
        m1 = m0 * q / (ONE - q) if step != ONE else ZERO
        classes.append((m0, m1, m1 * (ONE + q) / (ONE - q), derivative_ratio(remap, j0)))
    slope = log_rational(step)
    # near q = 1, m2 (about 1 / (1 - q)**2) and the squared centred logs can
    # exceed a float while mean and std fit: sum with the logs and m1 scaled by
    # 2**-shift and m2 by 4**-shift, which leaves m2 near 1, then scale back
    bits = max(m2.numerator.bit_length() - m2.denominator.bit_length() for *_, m2, _ in classes)
    shift = max(0, bits // 2)
    moments = [
        (
            float(m0),
            m1.numerator / (m1.denominator << shift),  # int division rounds once, as float() does
            m2.numerator / (m2.denominator << 2 * shift),
            math.ldexp(log_rational(r), -shift),
        )
        for m0, m1, m2, r in classes
    ]
    mean = math.fsum(m0 * level + m1 * slope for m0, m1, _, level in moments)
    var = math.fsum(
        m0 * (level - mean) ** 2 + 2 * m1 * (level - mean) * slope + m2 * slope**2
        for m0, m1, m2, level in moments
    )
    return LogRatioDiagnostic(math.ldexp(mean, shift), math.ldexp(math.sqrt(var), shift))
