"""Exception types shared across the package."""

import math


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
    """A coordinate beyond the materialized index scheme was requested.

    The truncation is explicit: re-extract the scheme with a larger
    scan budget to classify indices past its coverage.
    """

    def __init__(self, index, coverage=None):
        self.index = index
        self.coverage = coverage
        msg = f"index {index} beyond scheme coverage"
        if coverage is not None:
            msg += f" ({coverage})"
        super().__init__(msg)


class BudgetExhausted(SeqEmbedError):
    """A scan budget ran out before the request was satisfied.

    Carries whatever partial result was assembled so callers can
    diagnose density/budget quality instead of failing opaquely.
    """

    def __init__(self, message, partial=None, found=None):
        self.partial = partial
        self.found = found
        super().__init__(message)


class ConfigError(SeqEmbedError):
    """A run configuration failed to parse or validate."""


def _finite(values, what: str):
    """Reject NaN and infinities (from JSON input or overflow)."""
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"{what} has a non-finite value")
