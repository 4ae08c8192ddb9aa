"""Exception hierarchy for the twinbeam package.

Exceptions are grouped by how the command-line front end reports them:
``UsageError`` maps to exit code 2, ``DataError`` to 3 and ``NumericError``
to 4.
"""


class TwinbeamError(Exception):
    """Base class for all package-specific errors."""


class UsageError(TwinbeamError):
    """Invalid arguments or configuration."""


class DataError(TwinbeamError):
    """Input data does not satisfy a precondition."""


class NumericError(TwinbeamError):
    """A numerical procedure failed or exhausted its configured precision."""


class InvalidParameterError(UsageError):
    """A physical parameter is outside its admissible range."""


class StreamTooShortError(DataError):
    """A click stream is too short for the requested grouping."""


class InsufficientDataError(DataError):
    """Not enough groups or blocks for the requested statistics."""


class InsufficientOrderError(DataError):
    """A moment table does not extend to the order an expression needs."""


class NoEligibleColumnError(DataError):
    """No histogram column satisfies the minimum event count."""


class PrecisionExhaustedError(NumericError):
    """Matrix evaluation failed validation at the configured precision."""


class DivergentSeriesError(NumericError):
    """A truncated series failed its convergence check at the support edge."""
