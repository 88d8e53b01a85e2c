"""Shared exception types for the quartic package."""


class QuarticError(Exception):
    """Base class for all package errors."""


class NonIntegerCoefficient(QuarticError):
    """A polynomial source contained a non-integer coefficient."""


class MalformedExponent(QuarticError):
    """A polynomial source contained a bad exponent (negative, non-integer)."""


class NotQuarticForm(QuarticError):
    """Operation requires a homogeneous form of degree 4."""


class DimensionMismatch(QuarticError):
    """Vector length does not match the number of variables."""


class BudgetExceeded(QuarticError):
    """Requested enumeration is larger than the configured budget."""


class CompositeP(QuarticError):
    """A prime was required but a composite was supplied."""


class AmbiguousDimension(QuarticError):
    """Point counts do not single out one dimension within the band constant."""


class SearchExhausted(QuarticError):
    """A bounded search ran out of candidates."""


class NotCoprime(QuarticError):
    """Arguments were required to be coprime."""


class DeltaOutOfRange(QuarticError):
    """Major-arc exponent outside (0, 4/3)."""


class ArcsOverlap(QuarticError):
    """Arc family is not pairwise disjoint at these parameters."""


class ToleranceNotMet(QuarticError):
    """Quadrature failed to reach the requested tolerance within limits."""


class MitmNotApplicable(QuarticError):
    """Meet-in-the-middle path needs a separable weight."""


class PreconditionViolated(QuarticError):
    """Inputs violate a stated precondition of the identity being checked."""


class InvariantViolated(QuarticError):
    """An identity the code relies on failed: a defect, not a bad input."""


class Inconclusive(QuarticError):
    """Budget exhausted before a witness or a refutation was found."""


class ConfigInvalid(QuarticError):
    """Run configuration failed validation."""


class CacheCorrupt(QuarticError):
    """A cache entry failed its checksum."""
