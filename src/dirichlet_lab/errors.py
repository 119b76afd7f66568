"""Exception taxonomy shared by the whole package.

Two classes of failure are distinguished because the CLI maps them to
different exit codes: bad inputs (exit 2) and blown resource budgets
(exit 3).  Everything else is a plain bug and propagates as-is.
"""


class ParameterError(ValueError):
    """Invalid argument or violated precondition (CLI exit code 2)."""


class DegenerateBasisError(ParameterError):
    """Gram-Schmidt collapsed, or no well-conditioned basis was drawn: singular input."""


class EmptySupportError(ParameterError):
    """No sample of the measure landed where the operation needed one."""


class CapacityError(RuntimeError):
    """An enumeration or sampling budget was exceeded (CLI exit code 3).

    The message always names the budget that was hit, so callers can
    report it without guessing.
    """
