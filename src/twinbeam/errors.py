"""Exception hierarchy for the twinbeam package.

There is one class per exit code of the command-line front end:
``UsageError`` maps to exit code 2, ``DataError`` to 3 and ``NumericError``
to 4.  The message says which check failed.  ``check_size`` is the one
check of a count, and so of each integer flag of the command line.
"""

import numbers


class TwinbeamError(Exception):
    """Base class for all package-specific errors."""


class UsageError(TwinbeamError):
    """Invalid arguments, configuration or physical parameters."""


class DataError(TwinbeamError):
    """Input data does not satisfy a precondition."""


class NumericError(TwinbeamError):
    """A numerical procedure failed a validation or left double range."""


def check_size(value, name: str, low: int = 1) -> None:
    """Refuse a size that is not an integer >= ``low``, naming its value."""
    if not isinstance(value, numbers.Integral):
        raise UsageError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise UsageError(f"{name} must be >= {low}, got {value}")
