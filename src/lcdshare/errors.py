"""Exception hierarchy shared by all lcdshare modules.

Every library error derives from LcdshareError so callers (and the CLI)
can catch domain failures in one place without swallowing real bugs.
"""


class LcdshareError(Exception):
    """Base class for all errors raised by this package."""


class NotPrime(LcdshareError):
    """The ring characteristic p failed the primality check."""


class Overflow(LcdshareError):
    """The requested modulus p**e exceeds the supported bound 2**31 - 1."""


class NotAUnit(LcdshareError):
    """Inversion was requested for an element divisible by p."""


class BadParameters(LcdshareError):
    """Arguments are structurally valid but violate a domain constraint."""


class DimensionMismatch(LcdshareError):
    """Operand shapes or rings are incompatible."""


class NotFullRowRank(LcdshareError):
    """A matrix required to have independent rows does not."""


class Singular(LcdshareError):
    """The square linear system has no unique solution."""


class NotEnoughIndependentRows(LcdshareError):
    """Greedy row selection ran out of rows before reaching the count."""


class GenerationFailed(LcdshareError):
    """Rejection sampling exhausted its draw budget."""


class NotLcd(LcdshareError):
    """The code is not linear complementary dual."""


class NotEnoughIndependentShares(LcdshareError):
    """The supplied shares do not contain k independent codeword rows."""


class InvalidShare(LcdshareError):
    """A share's codeword fails the parity check, or the picked shares'
    y values fit no common secret; likely corruption."""


class ParseError(LcdshareError):
    """A document could not be parsed against the expected schema."""


class ValidationError(LcdshareError):
    """A parsed document violates a semantic invariant."""
