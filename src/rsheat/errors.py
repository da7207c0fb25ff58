"""Exception types, and the package's one argument check: each real
argument of a public function goes through ``check_real`` (or its array
form) first, and narrower bounds are one comparison after it; each
integer argument goes through ``check_int``."""

import functools
import math
import numbers

import numpy as np


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


@functools.cache
def _lower(bound):
    """m of a ">= m" bound, parsed once per bound string."""
    return float(bound[3:])


def check_real(x, name, arg, bound=None):
    """``x`` as a float if it is a finite real number (any ``numbers.Real``
    but a bool) within ``bound``: None (any), "> 0", or ">= m" for a number
    m (">= 0", ">= 1e-305"), whose m is parsed once per bound string; else
    DomainError "<name>: need <arg> ..., got <x>"."""
    # float and int first: they skip the slower abstract-base-class check
    if not isinstance(x, (float, int, numbers.Real)) or isinstance(x, bool):
        raise DomainError(f"{name}: need real {arg}, got {x!r}")
    try:
        v = float(x)
    except OverflowError:
        v = math.inf
    if math.isfinite(v) and (bound is None or (
            v > 0.0 if bound == "> 0" else v >= _lower(bound))):
        return v
    raise DomainError(f"{name}: need finite {arg} {bound or ''}".rstrip() + f", got {v!r}")


def check_int(x, name, arg, minimum=None):
    """``x`` as an int if it is an integer (any ``numbers.Integral`` but a
    bool) of at least ``minimum`` (None: any); else DomainError."""
    if isinstance(x, numbers.Integral) and not isinstance(x, bool) and (
            minimum is None or x >= minimum):
        return int(x)
    at_least = "" if minimum is None else f" >= {minimum}"
    raise DomainError(f"{name}: need integer {arg}{at_least}, got {x!r}")


def check_real_array(x, name, arg, bound=None):
    """``check_real`` on a non-empty 1-D array of real numbers; a float array."""
    x = np.asarray(x)
    if x.ndim != 1 or not x.size or x.dtype.kind not in "iuf":
        raise DomainError(f"{name}: need a non-empty 1-D real array {arg}, got {x!r}")
    v = x.astype(float)
    low = (v > 0.0 if bound == "> 0" else v >= _lower(bound)) if bound else True
    if np.all(np.isfinite(v) & low):
        return v
    raise DomainError(f"{name}: need finite {arg} {bound or ''}".rstrip() + f", got {x!r}")
