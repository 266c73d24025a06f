"""Shared exception types, and the form of an integer in their messages.

The CLI maps these onto its exit-code contract: UsageError -> 2,
DataError and NumericalError -> 3, OSError -> 4.
"""


def fmt_int(v: int) -> str:
    """v in full below 10**15 in magnitude, else in e-notation to four digits
    formed from its digits ('%.3e' goes through float, overflowing past 1.8e308)."""
    from decimal import Decimal

    return "%d" % v if abs(v) < 10 ** 15 else format(Decimal(v), ".3e")


class UsageError(ValueError):
    """A parameter, flag or specification string is invalid."""


class DataError(ValueError):
    """An input stream is malformed, truncated or insufficient."""


class NumericalError(RuntimeError):
    """An iterative numerical procedure failed to converge."""
