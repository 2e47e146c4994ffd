"""Exception types raised by this package, and the one check of scalar arguments."""

import math
import numbers
from sys import float_info


class GemfmError(Exception):
    """Base class for all errors raised by gemfm."""


class DataFormatError(GemfmError):
    """Malformed instance line, field map, or out-of-range feature index."""


class GraphFormatError(GemfmError):
    """Invalid graph construction input or edge-list file."""


class CheckpointError(GemfmError):
    """Unreadable or inconsistent model checkpoint."""


class ConfigError(GemfmError, ValueError):
    """Invalid or contradictory setting or argument; also a ValueError."""


class TrainingDivergedError(GemfmError):
    """Training loss became NaN or infinite."""


def check(name, value, kind, low=None, high=None, *, above=None, below=None, error=ConfigError):
    """Return ``value`` if it is one of the tuple ``kind``, or an integer (``kind`` int) or
    finite real number (``kind`` float), not a bool, within the bounds given: [low, high],
    [low, below), >= low or > above. Otherwise raise ``error`` naming it."""
    number = isinstance(value, numbers.Real) and not isinstance(value, bool)
    integral = number and isinstance(value, numbers.Integral)
    if isinstance(kind, tuple):
        if value not in kind:
            raise error(f"unknown {name} {value!r}")
    elif kind is int and not integral:
        raise error(f"{name} must be an integer, got {value!r}")
    elif kind is float and not (number and (abs(value) <= float_info.max if integral
                                            else math.isfinite(value))):
        raise error(f"{name} must be a real number, got {value!r}")
    elif below is not None and not low <= value < below:
        raise error(f"{name} {value!r} outside [{low}, {below})")
    elif high is not None and not low <= value <= high:
        raise error(f"{name} {value!r} outside [{low}, {high}]")
    elif low is not None and value < low:
        raise error(f"{name} must be >= {low}, got {value!r}")
    elif above is not None and value <= above:
        raise error(f"{name} must be > {above}, got {value!r}")
    return value
