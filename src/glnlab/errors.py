"""Shared exception types.

Every hard failure in the library is one of these, so callers (and the
CLI exit-code mapping) can dispatch on type rather than message text.
"""


class GlnLabError(Exception):
    """Base class for all library errors."""


class CapExceeded(GlnLabError):
    """An exhaustive enumeration would exceed the configured size cap."""


class NotInvertible(GlnLabError):
    pass


class PrecisionExhausted(GlnLabError):
    """A truncated-ring computation needs more p-adic digits than available."""


class NonIntegral(GlnLabError):
    """A quantity required to be an integer (e.g. a Cartan integer) is not."""


class NotPositiveDefinite(GlnLabError):
    pass


class NotACocycle(GlnLabError):
    pass


class MatchFailure(GlnLabError):
    """A claimed bijection could not be completed."""


class InvalidConfig(GlnLabError):
    pass


class NotPrime(InvalidConfig):
    """A prime parameter is not prime; a configuration error."""


class UnsupportedRank(InvalidConfig):
    """A rank outside the supported range; a configuration error."""


class RankMismatch(InvalidConfig):
    """A representation needs a rank the parameter does not have."""


class ZeroEntry(InvalidConfig):
    """A torus value or Satake parameter that must be nonzero is zero."""
