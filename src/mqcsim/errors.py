"""Exception and warning classes shared across the package.

Every failure the package raises on purpose is an :class:`MqcsimError`.
Bad input is one of them: :class:`InvalidParameter` names the offending
parameter, and is also a ``ValueError``. The command line turns an
``InvalidParameter`` naming a field of the command's config section into
a :class:`ConfigError` (exit 2); any other ``MqcsimError`` is a failure of
the run itself (exit 1). :func:`choice` converts a value to an enum member
and reports one that is not a member the same way.
"""


class MqcsimError(Exception):
    """Base class for all package errors."""


class InvalidParameter(MqcsimError, ValueError):
    """A parameter value is out of range, non-finite or not one of its choices.

    ``name`` is the parameter as the raising function or class calls it.
    """

    def __init__(self, name: str, message: str):
        super().__init__(message)
        self.name = name

    def __reduce__(self):
        # the default rebuilds from ``args``, which hold the message alone
        return type(self), (self.name, str(self))


def choice(enum: type, value, name: str):
    """``enum(value)``, or an :class:`InvalidParameter` naming ``name`` when
    ``value`` is not one of its members."""
    try:
        return enum(value)
    except ValueError:
        members = ", ".join(repr(m.value) for m in enum)
        raise InvalidParameter(name, f"{name} must be one of {members}, "
                                     f"got {value!r}") from None


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
