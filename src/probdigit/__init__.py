"""probdigit: exact digit expansions of [0,1) driven by probability
distributions on the positive integers, digit-permutation remaps between two
such expansions, and the derivative/integral calculus those remaps carry.

The exact layer runs entirely on rationals; `probdigit.numeric` holds the
seeded float fast path (plot grids, Monte Carlo, sampled-path diagnostics)
and `probdigit.cli` the command-line front end.
"""

from .bijections import (
    DigitBijection,
    Identity,
    PairSwap,
    TablePermutation,
    verify_bijection,
)
from .core import (
    Cylinder,
    DigitSeq,
    Evaluation,
    Geometric,
    MixedHeadTail,
    ProbVector,
    as_fraction,
    constant_point,
    cylinder,
    decode,
    evaluate,
    shift_value,
)
from .derivative import (
    LogRatioDiagnostic,
    PointClassification,
    Verdict,
    classify_point,
    cylinder_derivative,
    derivative_ratio,
    expected_log_ratio,
)
from .errors import (
    DomainError,
    InvalidDistribution,
    NotBijective,
    ProbDigitError,
)
from .remap import (
    ClosedFormIntegral,
    DigitRemap,
    IntegralBracket,
    OrderWitnesses,
    closed_form_integral,
    integral_bracket,
    monotonicity_witnesses,
)

__version__ = "0.1.0"

__all__ = [
    "ClosedFormIntegral",
    "Cylinder",
    "DigitBijection",
    "DigitRemap",
    "DigitSeq",
    "DomainError",
    "Evaluation",
    "Geometric",
    "Identity",
    "IntegralBracket",
    "InvalidDistribution",
    "LogRatioDiagnostic",
    "MixedHeadTail",
    "NotBijective",
    "OrderWitnesses",
    "PairSwap",
    "PointClassification",
    "ProbDigitError",
    "ProbVector",
    "TablePermutation",
    "Verdict",
    "as_fraction",
    "classify_point",
    "closed_form_integral",
    "constant_point",
    "cylinder",
    "cylinder_derivative",
    "decode",
    "derivative_ratio",
    "evaluate",
    "expected_log_ratio",
    "integral_bracket",
    "monotonicity_witnesses",
    "shift_value",
    "verify_bijection",
]
