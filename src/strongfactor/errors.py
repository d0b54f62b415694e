"""Exception types shared across the toolkit."""


class StrongFactorError(Exception):
    """Base class for all toolkit errors."""


class LengthMismatch(StrongFactorError):
    """Vector lengths do not agree where entrywise pairing is required."""


class SizeMismatch(StrongFactorError):
    """Matrix shapes do not agree."""


class DomainMismatch(StrongFactorError):
    """Sequence index domain or function interval is incompatible."""


class IndexOutOfRange(StrongFactorError):
    """Basis index outside the declared range."""


class ExponentRange(StrongFactorError):
    """Exponent outside the admissible range for the operation."""


class AllZeroMultiplier(StrongFactorError):
    """Multiplier sequence is identically zero."""


class DegenerateExponent(StrongFactorError):
    """Multiplier exponent equals 1, so its conjugate is infinite."""


class ZeroDiagonal(StrongFactorError):
    """Diagonal multiplier has a zero entry where injectivity is required."""


class ParseError(StrongFactorError):
    """Malformed input file (CSV/JSON)."""


class SpecError(StrongFactorError):
    """Inconsistent or incomplete job specification."""
