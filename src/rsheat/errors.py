"""Exception types shared across the package."""


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class ConvergenceError(RuntimeError):
    """Adaptive quadrature exhausted its subdivision budget.

    Carries the best partial result so callers can decide whether the
    achieved accuracy is still usable.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class FitError(RuntimeError):
    """Least-squares fit failed (rank deficiency or degenerate window)."""


class InsufficientSpectrumError(RuntimeError):
    """Spectrum truncated too early for the requested trace accuracy."""
