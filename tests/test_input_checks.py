"""Every entry point that takes a digit or a point refuses a bad one the
same way: a digit that is not a positive int raises ValueError, a point
outside [0, 1) raises DomainError, and a float point raises TypeError."""

from fractions import Fraction

import pytest

from probdigit import (
    DigitRemap,
    DigitSeq,
    DomainError,
    Geometric,
    Identity,
    MixedHeadTail,
    PairSwap,
    TablePermutation,
    decode,
    shift_value,
)

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
