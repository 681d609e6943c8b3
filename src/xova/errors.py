"""Exception types shared across the package."""


class XovaError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(XovaError, ValueError):
    """Operands disagree on vector or matrix dimensions."""


class InvalidEntryError(XovaError, ValueError):
    """A sparse matrix entry whose column is out of range or out of order in
    its row, or whose value is not finite."""

    def __init__(self, message: str, row: int, col: int):
        super().__init__(message)
        self.row = row
        self.col = col


class ParseError(XovaError, ValueError):
    """A data file violates the text format, at ``line``."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ModelFormatError(XovaError, ValueError):
    """A model file violates the model format."""


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
