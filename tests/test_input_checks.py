"""Every entry point that takes a digit or a point refuses a bad one the
same way: a digit that is not a positive int raises ValueError, a point
outside [0, 1) raises DomainError, and a float point raises TypeError.
Each remaining refusal raises its own error with its own message, promptly."""

import enum
import time
from fractions import Fraction

import numpy
import pytest
from hypothesis import given, strategies as st

from probdigit import (
    DigitRemap,
    DigitSeq,
    DomainError,
    Geometric,
    Identity,
    InvalidDistribution,
    MixedHeadTail,
    NotBijective,
    PairSwap,
    TablePermutation,
    as_fraction,
    classify_point,
    closed_form_integral,
    decode,
    derivative_ratio,
    shift_value,
)
from probdigit.configio import parse_distribution, render_distribution
from probdigit.core import _as_point, _check_digit

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
    # with digit 1's integer entries cached first, a lookup alone would accept True
    "derivative_ratio": lambda n: (derivative_ratio(SWAP, 1), derivative_ratio(SWAP, n)),
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
    "closed_form_integral-terms-0": (lambda: closed_form_integral(SWAP, terms=0), ValueError, "terms must be at least 1"),
    # an unverified table that repeats a value never produces another
    "TablePermutation.inverse": (lambda: TablePermutation((1, 1)).inverse(2), NotBijective, "value 2 is never produced by table [1, 1]"),
    "render_distribution": (lambda: render_distribution(object()), TypeError, "cannot render object"),
    # strings go through the command line's reader: Fraction alone would build
    # 10**4000000, seconds of work, and raise ZeroDivisionError on "1/0"
    "as_fraction-huge-exponent": (lambda: as_fraction("1e-4000000"), ValueError, "'1e-4000000' has over 4300 digits"),
    "as_fraction-zero-denominator": (lambda: as_fraction("1/0"), ValueError, "zero denominator in '1/0'"),
    "Geometric-zero-denominator": (lambda: Geometric("1/0"), ValueError, "zero denominator in '1/0'"),
}


@pytest.mark.parametrize("entry", REFUSALS)
def test_each_remaining_refusal_raises_its_error(entry):
    call, error, message = REFUSALS[entry]
    start = time.perf_counter()
    with pytest.raises(error) as raised:
        call()
    assert time.perf_counter() - start < 0.5  # each refusal is prompt
    assert str(raised.value) == message


# one shape check serves both families; the ratio's refusal names the family's ratio
FAMILY_REFUSALS = {
    "geometric:1": "geometric ratio must lie strictly inside (0, 1), got 1",
    "mixed:[1/3]:1": "tail ratio must lie strictly inside (0, 1), got 1",
    "mixed:[1/2,0]:1/2": "head masses must lie strictly inside (0, 1), got 0",
    "mixed:[1/2,1/2]:1/2": "head masses must sum below 1, got 1",
}


@pytest.mark.parametrize("text", FAMILY_REFUSALS)
def test_each_family_refusal_names_what_is_wrong(text):
    with pytest.raises(InvalidDistribution) as raised:
        parse_distribution(text)
    assert str(raised.value) == FAMILY_REFUSALS[text]


class Digit(enum.IntEnum):
    ONE = 1
    SEVEN = 7


class Point(Fraction):
    """A Fraction subclass: `_as_point` converts it, as it always did."""


# elements _check_digit accepts (positive ints of any size, IntEnum members)
# and refuses (0, negative ints, bools, floats, numpy ints, strings)
elements = st.one_of(
    st.integers(min_value=1),
    st.integers(min_value=2**64),
    st.integers(max_value=0),
    st.booleans(),
    st.floats(),
    st.sampled_from(Digit),
    st.integers(-(2**63), 2**63 - 1).map(numpy.int64),
    st.text(max_size=3),
)


def _outcome(call, *args):
    try:
        result = call(*args)
    except (TypeError, ValueError, DomainError) as exc:
        return type(exc), str(exc)
    return type(result), result


def _check_each(digits, tail):
    for d in (*digits, tail):
        _check_digit(d)
    return tuple(digits), tail


@given(st.one_of(st.lists(st.integers(1, 2**70), max_size=40), st.lists(elements, max_size=8)), elements)
def test_digit_seq_refuses_what_the_digit_check_refuses(digits, tail):
    # DigitSeq sweeps all digits at once and falls back to _check_digit per
    # digit: it accepts the same sequences and names the same first bad digit
    def build(digits, tail):
        seq = DigitSeq(digits, tail)
        return seq.digits, seq.tail

    assert _outcome(build, digits, tail) == _outcome(_check_each, digits, tail)


def _as_point_reference(value, name="x"):
    """_as_point as two Fraction comparisons after `as_fraction`."""
    x = as_fraction(value)
    if not (0 <= x < 1):
        raise DomainError(f"{name} must lie in [0, 1), got {x}")
    return x


points = st.one_of(
    st.fractions(min_value=0, max_value=1),
    st.fractions(),
    st.fractions().map(Point),
    st.integers(),
    st.booleans(),
    st.decimals(allow_nan=False, allow_infinity=False).map(str),
    st.fractions().map(str),
    st.floats(),
)


@given(points, st.sampled_from(["x", "y"]))
def test_point_check_agrees_with_two_fraction_comparisons(value, name):
    assert _outcome(_as_point, value, name) == _outcome(_as_point_reference, value, name)
