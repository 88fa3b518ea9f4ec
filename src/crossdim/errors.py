"""Exception types shared across the package.

Invalid arguments raise plain ``ValueError`` (or the ``ConfigError``
subclass for scenario files); numerical breakdowns raise ``NumericFailure``.
The CLI maps ``ValueError`` to exit code 2 and ``NumericFailure`` to 3.
"""


class NumericFailure(RuntimeError):
    """A numerical routine failed to produce a trustworthy result."""

    def __init__(self, message, *, operation=None, time=None):
        details = []
        if operation is not None:
            details.append(f"operation={operation}")
        if time is not None:
            details.append(f"t={time:.6g}")
        if details:
            message = f"{message} ({', '.join(details)})"
        super().__init__(message)
        self.operation = operation
        self.time = time


class ConfigError(ValueError):
    """A scenario file failed validation; the message names the offending field."""
