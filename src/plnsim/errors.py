"""Exception types shared across the package."""


class PlnsimError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(PlnsimError):
    """Invalid input data: malformed matrices, grids, topologies or ranges."""


class DecompositionError(PlnsimError):
    """Modal decomposition failed: Y Z overflows, defective propagation
    operator, excess diagonalization residual or zero propagation constant."""

    def __init__(self, message: str, frequency_hz: float | None = None):
        if frequency_hz is not None:
            message = f"{message} (at f = {frequency_hz:.6g} Hz)"
        super().__init__(message)
        self.frequency_hz = frequency_hz


class SingularityError(PlnsimError):
    """A factor that must be inverted is singular, typically at a lossless
    resonance or for a degenerate (exactly matched) configuration."""

    def __init__(self, message: str, frequency_hz: float | None = None,
                 index: int | None = None):
        if frequency_hz is not None:
            message = f"{message} (at f = {frequency_hz:.6g} Hz)"
        elif index is not None:
            message = f"{message} (at grid index {index})"
        super().__init__(message)
        self.frequency_hz = frequency_hz
        self.index = index


class UsageError(PlnsimError):
    """API or CLI misuse: arguments that make no sense for the operation."""


class ParseError(PlnsimError):
    """A topology, anomaly or spectrum file could not be parsed.  The message
    carries the file/field context."""
