"""Exception types shared across the package."""


class LyapcertError(Exception):
    """Base class for all package-specific errors."""


class DomainError(LyapcertError):
    """An evaluation left the mathematical domain of an operation
    (sqrt of a negative range, division by a range containing zero, ...)."""


class ParseError(LyapcertError):
    """Expression text could not be parsed.  Carries a 1-based column."""

    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column})")
        self.column = column


class TieError(LyapcertError):
    """A state sits on a guard boundary and no region was forced."""


class BranchOverflowError(LyapcertError):
    """Branch enumeration exceeded the configured cap."""


class CoverageError(LyapcertError):
    """A state is covered by no region of the piecewise system."""


class NotLocallyStableError(LyapcertError):
    """The linearized dynamics admit no Lyapunov solution
    (spectral radius >= 1, or no common solution across pieces)."""


class ConfigError(LyapcertError):
    """A run configuration failed validation."""
