"""Derivative diagnostics for digit remaps.

Along the nested cylinders of a point, the difference quotient of a remap is
the ratio of image-cylinder width to source-cylinder width, a product of one
exact rational factor per digit:

    target.p(phi(n_i)) / source.p(n_i)

Whether that product collapses to 0, blows up, or settles is what separates
flat (singular) behaviour from infinite or finite derivatives, so this module
exposes the per-digit ratios, their products, digit-occurrence counts that
factor those products, a finite-horizon classifier, and the source-weighted
expected log ratio, which predicts the typical exponent along digit sequences
sampled from the source weights.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .core import DigitSeq, ONE, log_rational
from .remap import DigitRemap, _eventual_start


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
    tge = tle = tne = wge = wle = wne = 0
    seen: dict[int, tuple[bool, bool, bool]] = {}  # digit -> (>=, <=, !=); digits repeat
    for k in range(1, horizon + 1):
        n = seq[k - 1]
        if n not in seen:
            image_mass = remap.target.p(remap.digit_map.apply(n))
            source_mass = remap.source.p(n)
            seen[n] = (image_mass >= source_mass, image_mass <= source_mass, image_mass != source_mass)
        ge, le, ne = seen[n]
        tge += ge
        tle += le
        tne += ne
        if k >= window_start:
            wge += ge
            wle += le
            wne += ne
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
    """Truncated source-weighted expected log stretch factor.

    `value` is sum over j <= terms of p_j * ln(ratio_j) in floats; the full
    series is <= 0 for every valid remap, with equality only when every ratio
    is 1, so value <= tail_bound always holds.  `tail_bound` estimates the
    magnitude of the omitted tail from the eventually geometric closed
    forms.  It is float arithmetic padded by a relative 1e-9, not an
    outward-rounded enclosure: an estimate, not a rigorous cap.
    """

    value: float
    tail_bound: float
    terms: int


def expected_log_ratio(remap: DigitRemap, terms: int = 60) -> LogRatioDiagnostic:
    """Average log stretch factor under the source weights, with a tail cap.

    A negative value predicts that cylinder derivatives collapse to 0 along
    source-typical digit sequences (the inverse remap then blows up); zero
    means the two sides assign identical mass to every rewritten digit.
    """
    if terms < 1:
        raise ValueError("terms must be at least 1")
    src, tgt, phi = remap.source, remap.target, remap.digit_map
    sv = src.value_form()
    tv = tgt.value_form()
    ev = phi.eventual_structure()
    n = max(terms, _eventual_start(sv, tv, ev))
    total = 0.0
    for j in range(1, n + 1):
        total += float(src.p(j)) * log_rational(tgt.p(phi.apply(j)) / src.p(j))
    qp = float(sv.ratio)
    ap = float(sv.coeff)
    qo = float(tv.ratio)
    ao = float(tv.coeff)
    slope = abs(math.log(qo) - math.log(qp))
    level = max(
        abs(math.log(ao) - math.log(ap) + off * math.log(qo)) for off in ev.offsets
    )
    geo0 = qp ** (n + 1) / (1.0 - qp)
    geo1 = qp ** (n + 1) * ((n + 1) - n * qp) / (1.0 - qp) ** 2
    bound = ap * (level * geo0 + slope * geo1) * (1.0 + 1e-9)
    return LogRatioDiagnostic(total, bound, n)
