"""Exception types shared across the package, and ``is_number``, the rule for a number.

A numerical failure in a solve is not one of them: it is returned on the
solve's trace (``SolverTrace.failure``).
"""

import sys


class XovaError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(XovaError, ValueError):
    """Operands disagree on vector or matrix dimensions."""


class InvalidEntryError(XovaError, ValueError):
    """A sparse matrix entry whose column is out of range or out of order in
    its row, or whose value is not finite; ``col`` is -1 where the column
    indices are not integers."""

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


def is_number(value, whole: bool = False) -> bool:
    """A Python int, or also a float unless ``whole``; never a bool, which the
    report would write as true or false. A float subclass such as
    numpy.float64 counts; str does not, nor numpy.float32, which would
    compute every objective in 32 bits.
    Unless ``whole``, an int must lie in the float range, as a real setting
    is used as a float: a range test against ``inf`` compares an int
    exactly, so 10**400 would pass it."""
    if isinstance(value, bool) or not isinstance(value, int if whole else (int, float)):
        return False
    return whole or isinstance(value, float) or abs(value) <= sys.float_info.max
