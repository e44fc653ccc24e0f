"""Exception types shared across the package."""


class ProbDigitError(Exception):
    """Base class for all package-specific errors."""


class InvalidDistribution(ProbDigitError):
    """Distribution parameters violate the strict (0,1) mass constraints."""


class DomainError(ProbDigitError):
    """A point lies outside the half-open unit interval [0, 1)."""


class NotBijective(ProbDigitError):
    """A digit map failed a bijectivity check."""
