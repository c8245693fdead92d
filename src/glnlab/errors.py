"""Shared exception types.

Every hard failure in the library is one of these, so callers (and the
CLI exit-code mapping) can dispatch on type rather than message text.
"""


class GlnLabError(Exception):
    """Base class for all library errors."""


class CapExceeded(GlnLabError):
    """An exhaustive enumeration would exceed the configured size cap."""


def charge(cap, what, count, exponent=0):
    """Raise CapExceeded(f"{what} exceed cap {cap}") when the ``count``
    units of work that ``what`` names exceed cap: the one refusal of the
    cap, made once per enumeration, before its work starts.

    A count too large to form blindly (a power, a factorial) is passed as
    a function of no arguments, with an ``exponent`` such that count >=
    2^exponent.  Once the exponent reaches the bit length of cap, the
    count exceeds cap and is refused without being formed.
    """
    if exponent >= cap.bit_length() or (
            count() if callable(count) else count) > cap:
        raise CapExceeded(f"{what} exceed cap {cap}")


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
