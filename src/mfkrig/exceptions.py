"""Exception hierarchy shared across the package."""


class MfkrigError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(MfkrigError):
    """Array shapes are inconsistent with each other or with the model."""


class NotPositiveDefinite(MfkrigError):
    """Cholesky factorization failed even after jitter escalation."""


class RankDeficientBasis(MfkrigError):
    """The basis design matrix does not have full column rank."""


class SingularNormalEquations(MfkrigError):
    """The normal equations of a generalized least-squares step are singular."""


class ObjectiveNonFinite(MfkrigError):
    """The objective returned NaN/Inf at a feasible point."""


class AllStartsFailed(MfkrigError):
    """Every multi-start optimization attempt raised ObjectiveNonFinite."""


class NonMonotoneEM(MfkrigError):
    """The observed-data log-likelihood decreased along EM iterates."""


class DomainViolation(MfkrigError):
    """An input lies outside the admissible domain."""


class ConstantTruth(MfkrigError):
    """The test-set ground truth is constant, so the predictivity score is undefined."""


class EmptyGrid(MfkrigError):
    """An interval-level grid is empty or not strictly increasing in (0, 1)."""


class ParseError(MfkrigError):
    """A CSV or JSON input could not be parsed."""


class InvalidConfig(MfkrigError):
    """A configuration value violates its constraints."""
