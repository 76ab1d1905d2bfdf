"""Exception types raised across the library."""


class LevSketchError(Exception):
    """Base class for all library-specific errors."""


class DimensionError(LevSketchError, ValueError):
    """Operands have incompatible or invalid shapes."""


class RankDeficientError(LevSketchError, ValueError):
    """An input matrix does not have full column rank."""


class SketchRankDeficientError(LevSketchError):
    """A realized sketch lost column rank, so the sketched solve is undefined.

    Deliberately not caught and retried inside the solver: silent retries
    would bias failure-rate measurements.  Callers decide how to account
    for these trials.
    """


class UnsupportedRowError(LevSketchError, ValueError):
    """A row that matters to the target quantity has zero sampling probability."""


class InvalidSampleCountError(LevSketchError, ValueError):
    """The requested number of row samples is not a positive integer."""


class InvalidParameterError(LevSketchError, ValueError):
    """A numeric parameter is outside its documented range."""


class GenerationFailedError(LevSketchError, RuntimeError):
    """Synthetic problem generation exhausted its retry budget."""


class _LineParseError(LevSketchError, ValueError):
    """A file is malformed at the 1-based line ``line``."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class MatrixMarketParseError(_LineParseError):
    """A matrix file is malformed; ``line`` is the 1-based offending line."""


class ConfigParseError(_LineParseError):
    """A run-configuration file is malformed; ``line`` is 1-based."""
