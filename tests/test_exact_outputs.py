"""A pinned digest of exact outputs, so that no cache or shortcut in the exact
core can change a value unnoticed.

The digest covers decode, evaluate, apply and apply_inverse at depth 256, the
exact and truncated closed-form integrals and the integral brackets at depths
8 and 32, over nine weight families (each remapped onto the next) under the
pair swap and the reversing table [4, 3, 2, 1].  Each remap is read at a
typical point and at a point whose first digit lies past the float tables'
digit cap, so both the small-digit and the large-digit paths are covered.
The pinned value was computed before small-digit values were memoized, and
moved only through the brackets when they came to cover every digit instead of
the digits up to 64 plus a band.
"""

import hashlib
from fractions import Fraction

from probdigit import (
    DigitRemap,
    DigitSeq,
    Geometric,
    MixedHeadTail,
    PairSwap,
    TablePermutation,
    closed_form_integral,
    decode,
    evaluate,
    integral_bracket,
)

F = Fraction
DEPTH = 256

FAMILIES = (
    Geometric(F(1, 2)),
    Geometric(F(2, 3)),
    Geometric(F(1, 3)),
    Geometric(F(3, 5)),
    Geometric(F(3, 4)),
    MixedHeadTail((F(1, 3), F(1, 5)), F(1, 2)),
    MixedHeadTail((F(1, 4),), F(2, 3)),
    MixedHeadTail((F(1, 2), F(1, 8), F(1, 16)), F(3, 5)),
    MixedHeadTail((F(1, 5), F(1, 5), F(1, 5)), F(1, 2)),
)
MAPS = (PairSwap(), TablePermutation((4, 3, 2, 1)))
DIGITS = (3, 1, 70, 2, 5, 1, 66, 9, 4, 1, 1, 12, 2, 65, 7)
PINNED = "7abef3b7777e125101447ce4eef35218f095035b6724c76c5f85893892fd6ddf"


def _canonical(value):
    if isinstance(value, Fraction):
        return hex(value.numerator), hex(value.denominator)
    if isinstance(value, DigitSeq):
        return value.digits, value.tail
    if isinstance(value, tuple):
        return tuple(_canonical(v) for v in value)
    return value


def exact_outputs():
    for k, src in enumerate(FAMILIES):
        tgt = FAMILIES[(k + 1) % len(FAMILIES)]
        for phi in MAPS:
            rm = DigitRemap(src, tgt, phi)
            yield closed_form_integral(rm)
            yield closed_form_integral(rm, exact=False)
            yield integral_bracket(rm, 8)
            yield integral_bracket(rm, 32)
            yield evaluate(src, DigitSeq(DIGITS, tail=2))
            for x in (F(5, 17), evaluate(src, DigitSeq.of(73, 2, 1, 3)).value):
                yield decode(src, x, DEPTH)
                y = rm.apply(x, DEPTH)
                yield y
                yield rm.apply_inverse(y.value, DEPTH)


def test_exact_outputs_match_the_pinned_digest():
    digest = hashlib.sha256(repr(_canonical(tuple(exact_outputs()))).encode()).hexdigest()
    assert digest == PINNED
