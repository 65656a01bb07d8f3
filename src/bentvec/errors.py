"""Exception hierarchy shared by all bentvec modules.

CLI exit-code mapping: ParseError -> 1, PreconditionError -> 2,
VerificationError -> 3 (a falsified identity, should never happen).
"""


class BentvecError(Exception):
    """Base class for all library errors."""


class FieldError(BentvecError):
    """Invalid field parameters or element outside its domain.

    A bad table entry is named by `point`, its least index, and `extra`
    tells whether its appended bits, not its value, are at fault; for a
    bad output dimension, whether t, not m, is.
    """

    def __init__(self, message, point=None, extra=False):
        super().__init__(message)
        self.point = point
        self.extra = extra


class PreconditionError(BentvecError):
    """An operation's stated precondition does not hold for the inputs."""


class NotBentError(PreconditionError):
    """Dual requested for a non-bent function.

    Carries the offending spectrum point and value.
    """

    def __init__(self, point, value, expected):
        super().__init__(
            f"not bent: |W({point})| = {abs(value)}, expected {expected}"
        )
        self.point = point
        self.value = value
        self.expected = expected


class VerificationError(BentvecError):
    """An exhaustively checked identity failed.

    Raised only when a verified quantity contradicts its prediction,
    which would falsify the underlying theorem or reveal a bug.
    """


class ParseError(BentvecError):
    """Malformed textual input. line/column are 1-based."""

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" at line {line}" + (f", col {column}" if column is not None else "")
        super().__init__(message + loc)
        self.line = line
        self.column = column
