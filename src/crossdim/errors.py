"""Exception types shared across the package.

Invalid arguments raise plain ``ValueError`` (or the ``ConfigError``
subclass for scenario files); numerical breakdowns raise ``NumericFailure``.
The CLI maps ``ValueError`` to exit code 2 and ``NumericFailure`` to 3.
"""


class NumericFailure(RuntimeError):
    """A numerical routine failed to produce a trustworthy result.

    ``reason`` is the message without the details (operation, segment
    index of a run, time) that ``str`` appends to it.
    """

    def __init__(self, message, *, operation=None, time=None, segment=None):
        details = []
        if operation is not None:
            details.append(f"operation={operation}")
        if segment is not None:
            details.append(f"segment={segment}")
        if time is not None:
            details.append(f"t={time:.6g}")
        super().__init__(f"{message} ({', '.join(details)})" if details else message)
        self.reason = message
        self.operation = operation
        self.time = time
        self.segment = segment


class ConfigError(ValueError):
    """A scenario file failed validation; the message names the offending field."""
