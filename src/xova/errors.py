"""Exception types shared across the package."""


class XovaError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(XovaError, ValueError):
    """Operands disagree on vector or matrix dimensions."""


class InvalidEntryError(XovaError, ValueError):
    """A sparse matrix entry whose column is out of range or out of order in its row."""

    def __init__(self, message: str, row: int):
        super().__init__(message)
        self.row = row


class ParseError(XovaError, ValueError):
    """A data file violates the expected text format."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ModelFormatError(XovaError, ValueError):
    """A model file violates the expected text format."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ConfigError(XovaError, ValueError):
    """Invalid configuration, or invalid state for the requested operation."""


class NumericalError(XovaError, RuntimeError):
    """Non-finite values encountered during optimization.

    Carries the last accepted weight vector and the trace collected so far,
    so callers can salvage partial progress.
    """

    def __init__(self, message: str, w_last=None, trace=None):
        super().__init__(message)
        self.w_last = w_last
        self.trace = trace
