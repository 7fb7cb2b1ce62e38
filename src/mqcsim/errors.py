"""Exception and warning classes shared across the package."""


class MqcsimError(Exception):
    """Base class for all package errors."""


class CapExceeded(MqcsimError):
    """A path's memory estimate exceeds the physical-memory budget."""


class InvalidGeometry(MqcsimError):
    """Geometry parameters are inconsistent or non-positive."""


class DimensionMismatch(MqcsimError):
    """Vector or matrix dimensions do not match the spin system."""


class NonUniformPhaseGrid(MqcsimError):
    """Phase grid is not uniform over [0, 2*pi)."""


class FitFailure(MqcsimError):
    """A nonlinear fit failed or its residual exceeds the failure threshold.

    ``diagnostics`` holds a dict with whatever the fitter could salvage.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class NoFeasibleSolution(MqcsimError):
    """Inversion input carries no usable signal (e.g. all-zero data)."""


class NoPeaks(MqcsimError):
    """Distribution has no peak above the prominence threshold."""


class NonPositiveData(MqcsimError):
    """Power-law fitting requires strictly positive times and values."""


class ConfigError(MqcsimError):
    """Run configuration is invalid; message carries field diagnostics."""


class IllConditionedWarning(UserWarning):
    """Kernel matrix condition number is large; regularization is essential."""


class ImaginaryResidueWarning(UserWarning):
    """Discarded imaginary parts exceeded the documented threshold."""
