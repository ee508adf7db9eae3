"""Exception types shared across the package."""

import operator
import sys


class SeqEmbedError(Exception):
    """Base class for all package errors."""


class IndexZero(SeqEmbedError):
    """An index argument was 0 (indices are 1-based)."""


class LengthMismatch(SeqEmbedError):
    """Parallel lists have different lengths, or a list is empty."""


class EmptyWindow(SeqEmbedError):
    """A coordinate window contains no indices."""


class KindMismatch(SeqEmbedError):
    """Element or functional does not belong to the given space kind."""


class NotUnitVector(SeqEmbedError):
    """An argument required to lie on the unit sphere does not."""


class ZeroElement(SeqEmbedError):
    """A nonzero element was required."""


class EmptyBasis(SeqEmbedError):
    """An extraction needs at least one basis sequence."""


class SchemeExhausted(SeqEmbedError):
    """A coordinate beyond the materialized index scheme was requested:
    `index` passed the int `coverage`, the scheme's coverage for an
    index or its prefix length for a position. Re-extract the scheme
    with a larger scan budget to reach past it."""

    def __init__(self, index, coverage):
        self.index = index
        self.coverage = coverage
        super().__init__(f"index {index} beyond scheme coverage ({coverage})")


class BudgetExhausted(SeqEmbedError):
    """A scan budget ran out before the request was satisfied.

    Carries the partial witness or scheme every raiser assembles and
    the count it found, so callers can diagnose density/budget quality
    instead of failing opaquely.
    """

    def __init__(self, message, partial, found):
        self.partial = partial
        self.found = found
        super().__init__(message)


class ConfigError(SeqEmbedError):
    """A run configuration failed to parse or validate."""


def _is_number(v) -> bool:
    """An int or float, not a bool, whose magnitude a float holds: the
    one test of a number from outside. The comparison is False for NaN,
    infinities and ints too large for a float, and never raises."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def _numbers(values, what: str):
    """Raise a ConfigError unless every value passes `_is_number`."""
    if not all(map(_is_number, values)):
        raise ConfigError(f"{what} has a value that is not a finite number")


def _positive_int(value, name: str, least: int) -> int:
    """value as a Python int: an int or numpy integer >= least, the one
    test of a count or budget. Anything else (a bool, a float, an int
    below least) is a ValueError naming the argument."""
    try:
        n = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        n = None
    if n is None or n < least:
        raise ValueError(f"{name} = {value!r} must be >= {least} and an int")
    return n
