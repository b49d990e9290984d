"""Exception hierarchy shared by all madic modules."""


class MadicError(Exception):
    """Base class for all library errors."""


class DomainMismatchError(MadicError):
    """Operands live over different coefficient fields or variable universes."""


class CapacityError(MadicError):
    """Input exceeds a hard capacity limit (e.g. subset enumeration blow-up)."""


class PrecisionError(MadicError):
    """Working precision too low to certify the requested result."""


class HypothesisError(MadicError):
    """A mathematical precondition of an operation is violated.

    Carries enough context (the measured quantity) for the caller to report
    what failed, and, where callers branch on the failure, a `reason` code:
    `residual-not-multiple` when a residual is not an exact multiple of the
    squared minor, `residual-order` when the quotient's order is below the
    target.
    """

    def __init__(self, message, measured=None, reason=None):
        super().__init__(message)
        self.measured = measured
        self.reason = reason


class UnsupportedInstanceError(MadicError):
    """No available solver strategy applies to the given instance."""


class ParseError(MadicError):
    """Malformed polynomial / series / problem-file text."""

    def __init__(self, message, line=None, column=None):
        self.message = message
        if line is not None:
            where = f"line {line}" if column is None else f"line {line}, col {column}"
            message = f"{where}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column
