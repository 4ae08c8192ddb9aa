"""Exception hierarchy for the twinbeam package.

There is one class per exit code of the command-line front end:
``UsageError`` maps to exit code 2, ``DataError`` to 3 and ``NumericError``
to 4.  The message says which check failed.
"""


class TwinbeamError(Exception):
    """Base class for all package-specific errors."""


class UsageError(TwinbeamError):
    """Invalid arguments, configuration or physical parameters."""


class DataError(TwinbeamError):
    """Input data does not satisfy a precondition."""


class NumericError(TwinbeamError):
    """A numerical procedure failed a validation or left double range."""
