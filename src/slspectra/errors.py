"""Exception types shared across the package."""


class SpectralError(Exception):
    """Base class for computational failures raised by this package."""


class QuadratureError(SpectralError):
    """Adaptive quadrature did not reach the requested tolerance.

    Carries the best available estimate and the error bound at the point
    of failure.
    """

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


class BlowUpError(SpectralError):
    """Solution magnitude exceeded the overflow guard during integration."""


class BracketError(SpectralError):
    """The eigenvalue count could not isolate an index within its limits."""


class OscillationMismatchError(SpectralError):
    """Eigenfunction zero count disagrees with the requested index."""


class ConvergenceError(SpectralError):
    """Fixed-point or root iteration did not converge.

    Carries the last iterate and its residual.
    """

    def __init__(self, message: str, last_value: float, residual: float):
        super().__init__(message)
        self.last_value = last_value
        self.residual = residual


class CaseError(SpectralError):
    """Boundary parameters outside the cases supported by the series builder."""


class UnsupportedRegimeError(SpectralError):
    """Spectral data outside the regime the asymptotic machinery assumes."""
