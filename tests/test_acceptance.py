"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Every tolerance is pinned here: "exact" means rational equality,
the Monte Carlo checks use three standard errors, and the stated runtime
budgets are asserted.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from probdigit import (
    DigitRemap,
    DigitSeq,
    Geometric,
    Identity,
    MixedHeadTail,
    PairSwap,
    TablePermutation,
    classify_point,
    closed_form_integral,
    cylinder,
    cylinder_derivative,
    decode,
    derivative_ratio,
    digit_counts,
    evaluate,
    expected_log_ratio,
    integral_bracket,
    monotonicity_witnesses,
)
from probdigit.numeric import log_derivative_paths, monte_carlo_integral

F = Fraction
SEED = 1729

HALF = Geometric(F(1, 2))
TWOTHIRDS = Geometric(F(2, 3))
SWAP = DigitRemap(HALF, TWOTHIRDS, PairSwap())
IDENT = DigitRemap(HALF, HALF, Identity())
TABLE = DigitRemap(HALF, MixedHeadTail((F(1, 3), F(1, 5)), F(1, 2)), TablePermutation((3, 1, 2)))


def report(number: int, name: str, started: float) -> None:
    print(f"[acceptance] criterion {number} ({name}): PASS ({time.monotonic() - started:.2f}s)")


def random_seq(rng: random.Random, max_len=12, max_digit=12, min_len=1) -> DigitSeq:
    return DigitSeq(
        tuple(rng.randint(1, max_digit) for _ in range(rng.randint(min_len, max_len)))
    )


def test_criterion_1_roundtrip_bijectivity():
    started = time.monotonic()
    rng = random.Random(SEED)
    for pv in (HALF, TWOTHIRDS):
        for _ in range(1000):
            seq = random_seq(rng)
            value = evaluate(pv, seq).value
            assert decode(pv, value, len(seq)) == seq
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"roundtrip took {elapsed:.2f}s, budget is 5s"
    report(1, "roundtrip-bijectivity", started)


def test_criterion_2_order_isomorphism():
    started = time.monotonic()
    rng = random.Random(SEED + 1)
    checked = 0
    while checked < 1000:
        a, b = random_seq(rng), random_seq(rng)
        order = a.compare(b)
        if order == 0:
            continue
        if order > 0:
            a, b = b, a
        for pv in (HALF, TWOTHIRDS):
            assert evaluate(pv, a).value < evaluate(pv, b).value
        checked += 1
    report(2, "order-isomorphism", started)


def test_criterion_3_functional_equation():
    started = time.monotonic()
    rng = random.Random(SEED + 2)
    for remap in (SWAP, TABLE):
        for _ in range(500):
            seq = random_seq(rng, max_len=10, max_digit=9)
            k = rng.randint(1, len(seq))
            assert remap.residual(seq, k) == 0
    report(3, "functional-equation", started)


def test_criterion_4_integral_closed_form():
    started = time.monotonic()
    from probdigit.remap import _series_sums_exact

    # the residue-class geometric summation behind 11/25
    assert _series_sums_exact(SWAP) == (F(11, 32), F(7, 32))
    expectations = [(IDENT, F(1, 2)), (SWAP, F(11, 25))]
    for remap, value in expectations:
        closed = closed_form_integral(remap)
        assert closed.value == value and closed.tail_bound == 0
        assert integral_bracket(remap, 8).contains(value)
        mc = monte_carlo_integral(remap, samples=1_000_000, seed=SEED)
        assert abs(mc.mean - float(value)) <= 3 * mc.std_error, (
            f"Monte Carlo {mc.mean} vs {float(value)} at sigma {mc.std_error}"
        )
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"integral checks took {elapsed:.2f}s, budget is 30s"
    report(4, "integral-closed-form", started)


def test_criterion_5_ratio_formulas():
    started = time.monotonic()
    for t in range(1, 11):
        assert derivative_ratio(SWAP, 2 * t - 1) == F(2 ** (4 * t - 2), 3 ** (2 * t))
        assert derivative_ratio(SWAP, 2 * t) == F(2 ** (4 * t - 2), 3 ** (2 * t - 1))
        assert derivative_ratio(SWAP, 2 * t) > 1
    # documented discrepancy: the odd family starts below 1 even though the
    # even family never does, so not every per-digit ratio exceeds 1
    assert derivative_ratio(SWAP, 1) == F(4, 9) < 1
    assert derivative_ratio(SWAP, 3) == F(64, 81) < 1
    report(5, "ratio-formulas", started)


def test_criterion_6_factored_derivative_identity():
    started = time.monotonic()
    rng = random.Random(SEED + 3)
    for _ in range(500):
        remap = rng.choice((SWAP, TABLE))
        seq = random_seq(rng, max_len=20, max_digit=12)
        derivative = cylinder_derivative(remap, seq)
        product = F(1)
        for digit, count in digit_counts(seq, len(seq)).counts.items():
            product *= derivative_ratio(remap, digit) ** count
        image = remap.image_digits(seq)
        quotient = cylinder(remap.target, image).width / cylinder(remap.source, seq).width
        assert derivative == product == quotient
    report(6, "factored-derivative-identity", started)


def test_criterion_7_expected_log_ratio_and_lln():
    started = time.monotonic()
    assert expected_log_ratio(IDENT).value == 0.0
    diag = expected_log_ratio(SWAP)
    assert diag.value < 0
    depth = 10_000
    paths = log_derivative_paths(SWAP, paths=100, depth=depth, seed=SEED)
    band = 3 * diag.std / math.sqrt(depth)
    deviations = np.abs(paths - diag.value)
    assert np.all(deviations <= band), (
        f"worst path misses by {deviations.max():.5f}, band {band:.5f}"
    )
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"log-ratio checks took {elapsed:.2f}s, budget is 60s"
    report(7, "expected-log-ratio-lln", started)


def test_criterion_8_continuity_modulus():
    started = time.monotonic()
    rng = random.Random(SEED + 4)
    for _ in range(1000):
        remap = rng.choice((SWAP, TABLE))
        shared = random_seq(rng, max_len=8, max_digit=8)
        ext_a = random_seq(rng, max_len=5, max_digit=8, min_len=0)
        ext_b = random_seq(rng, max_len=5, max_digit=8, min_len=0)
        a = remap.point_value(DigitSeq(shared.digits + ext_a.digits))
        b = remap.point_value(DigitSeq(shared.digits + ext_b.digits))
        modulus = F(1)
        for d in shared:
            modulus *= remap.target.p(remap.digit_map.apply(d))
        assert abs(a - b) < modulus
    report(8, "continuity-modulus", started)


def test_criterion_9_non_monotonicity_witnesses():
    started = time.monotonic()
    found = monotonicity_witnesses(SWAP)
    assert found.increasing is not None, "no order-preserving pair found"
    assert found.decreasing is not None, "no order-reversing pair found"
    (x1, y1), (x2, y2) = found.increasing
    assert x1 < x2 and y1 < y2
    (x1, y1), (x2, y2) = found.decreasing
    assert x1 < x2 and y1 > y2
    report(9, "non-monotonicity-witnesses", started)


def test_point_classifier_sees_the_worked_example_both_ways():
    # companion check: the per-digit evidence drives the verdicts that the
    # ratio families above suggest
    from probdigit import Verdict

    all_twos = DigitSeq.of(*([2] * 40))
    assert classify_point(SWAP, all_twos, 40).verdict is Verdict.INFINITE_DERIVATIVE_INDICATED
    alternating = DigitSeq.of(*([1, 2] * 20))
    assert classify_point(SWAP, alternating, 40).verdict is Verdict.INCONCLUSIVE


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
