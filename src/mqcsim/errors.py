"""Exception and warning classes shared across the package.

Every failure the package raises on purpose is an :class:`MqcsimError`.
Bad input, out of range or of the wrong shape or type, is only ever an
:class:`InvalidParameter`: a ``ValueError`` that names the parameter.
:func:`choice`, :func:`number`, :func:`integer` and :func:`vector` raise
it for a value that is not an enum member, not a number, not an integer or
not a 1-D array of real numbers. The other
classes report a run that failed: :class:`CapExceeded`,
:class:`FitFailure`, :class:`NoFeasibleSolution` and :class:`NoPeaks`.
The command line reports a bad config field or input file as a
:class:`ConfigError` (exit 2), an ``InvalidParameter`` that names a
config field too; any other ``MqcsimError`` exits 1.
"""

import numbers

import numpy as np


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


def is_number(value) -> bool:
    """An int or float, numpy scalars included, but not a bool or a string."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def number(value, name: str) -> float:
    """``value`` as a float, or an :class:`InvalidParameter` naming ``name``
    when it is not a number (:func:`is_number`) or lies beyond float range."""
    if not is_number(value):
        raise InvalidParameter(name, f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise InvalidParameter(name, f"{name} lies beyond float range") from None


def integer(value, name: str) -> int:
    """``value`` as an int, or an :class:`InvalidParameter` naming ``name``
    when it is not an integer (numpy integers count; a bool does not)."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise InvalidParameter(name, f"{name} must be an integer, got {value!r}")
    return int(value)


def vector(value, name: str) -> np.ndarray:
    """``value`` as a 1-D float array, or an :class:`InvalidParameter`
    naming ``name`` when it is not a 1-D array of real numbers (bools,
    strings and complex numbers are not)."""
    try:
        arr = np.asarray(value)
        ok = arr.ndim == 1 and arr.dtype.kind in "iuf"
    except ValueError:  # a ragged nesting of lists
        ok = False
    if not ok:
        raise InvalidParameter(name, f"{name} must be a 1-D array of real numbers")
    return arr.astype(float, copy=False)


class CapExceeded(MqcsimError):
    """A path's memory estimate exceeds the physical-memory budget."""


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


class ConfigError(MqcsimError):
    """Run configuration is invalid; message carries field diagnostics."""


class IllConditionedWarning(UserWarning):
    """Kernel matrix condition number is large; regularization is essential."""


class ImaginaryResidueWarning(UserWarning):
    """Discarded imaginary parts exceeded the documented threshold."""
