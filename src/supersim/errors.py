"""Exception hierarchy.

ValidationError subclasses signal bad user input and map to CLI exit code 2;
everything else is a runtime failure (exit code 1).
"""


class SupersimError(Exception):
    """Base class for all package errors."""


class ValidationError(SupersimError, ValueError):
    """Invalid input supplied by the caller."""


class NormalizationError(ValidationError):
    """Vector or matrix fails its normalization invariant."""


class DimensionMismatchError(ValidationError):
    """Operands live in incompatible Hilbert spaces."""


class TensorCapError(ValidationError):
    """Tensor product would exceed the configured size cap."""


class DegenerateSuperpositionError(SupersimError):
    """Requested superposition cancels to the zero vector."""


class BudgetExceededError(SupersimError):
    """No shot count in the schedule table reaches the requested accuracy."""


class RefinementNeededError(SupersimError):
    """Loop sampling too coarse for a reliable winding number."""


class InvalidMapError(SupersimError):
    """Candidate map violated its positivity contract."""


class ZeroFunctionalError(SupersimError):
    """Cross-term functional vanished; normalization undefined."""


class InvariantViolation(SupersimError):
    """An internal guarantee failed; indicates a bug."""
