"""Every entry point that takes a digit or a point refuses a bad one the
same way: a digit that is not a positive int raises ValueError, a point
outside [0, 1) raises DomainError, and a float point raises TypeError.
Each remaining refusal raises its own error with its own message."""

from fractions import Fraction

import pytest

from probdigit import (
    DigitRemap,
    DigitSeq,
    DomainError,
    Geometric,
    Identity,
    MixedHeadTail,
    NotBijective,
    PairSwap,
    TablePermutation,
    classify_point,
    closed_form_integral,
    decode,
    shift_value,
)
from probdigit.configio import render_distribution

F = Fraction
HALF = Geometric(F(1, 2))
MIXED = MixedHeadTail((F(1, 3), F(1, 5)), F(1, 2))
SWAP = DigitRemap(HALF, Geometric(F(2, 3)), PairSwap())
TABLE = TablePermutation((2, 1))

DIGIT_ENTRY_POINTS = {
    "Geometric.p": HALF.p,
    "Geometric.prefix": HALF.prefix,
    "MixedHeadTail.p": MIXED.p,
    "MixedHeadTail.prefix": MIXED.prefix,
    "DigitSeq.digits": lambda n: DigitSeq((1, n)),
    "DigitSeq.tail": lambda n: DigitSeq((1,), n),
    "Identity.apply": Identity().apply,
    "Identity.inverse": Identity().inverse,
    "PairSwap.apply": PairSwap().apply,
    "PairSwap.inverse": PairSwap().inverse,
    "TablePermutation.apply": TABLE.apply,
    "TablePermutation.inverse": TABLE.inverse,
    "TablePermutation.table": lambda n: TablePermutation((n,)),
}

POINT_ENTRY_POINTS = {
    "digit_of": HALF.digit_of,
    "decode": lambda x: decode(HALF, x, 3),
    "shift_value": lambda x: shift_value(HALF, x),
    "DigitRemap.apply": SWAP.apply,
    "DigitRemap.apply_inverse": SWAP.apply_inverse,
}


@pytest.mark.parametrize("bad", [0, -1, True, 1.0], ids=repr)
@pytest.mark.parametrize("entry", DIGIT_ENTRY_POINTS)
def test_digit_entry_points_refuse_non_digits(entry, bad):
    with pytest.raises(ValueError, match="positive integers"):
        DIGIT_ENTRY_POINTS[entry](bad)


@pytest.mark.parametrize(
    "bad, error",
    [(1, DomainError), (F(-1, 2), DomainError), (0.5, TypeError)],
    ids=["one", "minus-half", "float"],
)
@pytest.mark.parametrize("entry", POINT_ENTRY_POINTS)
def test_point_entry_points_refuse_points_outside_the_unit_interval(entry, bad, error):
    with pytest.raises(error):
        POINT_ENTRY_POINTS[entry](bad)


REFUSALS = {
    "classify_point-horizon-0": (lambda: classify_point(SWAP, DigitSeq((1, 2)), 0), ValueError, "horizon must lie in 1..2, got 0"),
    "classify_point-horizon-past-len": (lambda: classify_point(SWAP, DigitSeq((1, 2)), 3), ValueError, "horizon must lie in 1..2, got 3"),
    "DigitSeq.drop": (lambda: DigitSeq((1, 2)).drop(-1), ValueError, "count must be non-negative"),
    "DigitSeq.bump_last": (lambda: DigitSeq(()).bump_last(), ValueError, "cannot bump the last digit of an empty sequence"),
    "closed_form_integral-terms-0": (lambda: closed_form_integral(SWAP, terms=0), ValueError, "terms must be at least 1"),
    # an unverified table that repeats a value never produces another
    "TablePermutation.inverse": (lambda: TablePermutation((1, 1)).inverse(2), NotBijective, "value 2 is never produced by table [1, 1]"),
    "render_distribution": (lambda: render_distribution(object()), TypeError, "cannot render object"),
}


@pytest.mark.parametrize("entry", REFUSALS)
def test_each_remaining_refusal_raises_its_error(entry):
    call, error, message = REFUSALS[entry]
    with pytest.raises(error) as raised:
        call()
    assert str(raised.value) == message
