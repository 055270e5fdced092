"""Argument-validation helpers with uniform error messages.

Validation failures raise :class:`repro.errors.ConfigurationError` so
that user-facing APIs reject bad inputs early with actionable messages
instead of failing deep inside numpy broadcasting.
"""

from __future__ import annotations

import numbers
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError


def check_positive(name: str, value: float, strict: bool = True) -> float:
    """Validate that ``value`` is positive (``> 0``; ``>= 0`` if not strict)."""
    value = float(value)
    if not np.isfinite(value):
        raise ConfigurationError(f"{name} must be finite, got {value}")
    if strict and value <= 0:
        raise ConfigurationError(f"{name} must be > 0, got {value}")
    if not strict and value < 0:
        raise ConfigurationError(f"{name} must be >= 0, got {value}")
    return value


def check_integer(name: str, value, floor: int) -> None:
    """Validate that ``value`` is an integer ``>= floor``.

    Any :class:`numbers.Integral` passes (numpy integers included);
    ``bool``, strings and floats are refused rather than coerced, since
    ``int()`` would silently admit ``"3"`` or truncate ``2.9``.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if value < floor:
        raise ConfigurationError(f"{name} must be >= {floor}, got {value}")


def check_in_range(
    name: str,
    value: float,
    low: float,
    high: float,
    inclusive: Tuple[bool, bool] = (True, True),
) -> float:
    """Validate ``low <= value <= high`` (bounds open/closed per ``inclusive``)."""
    value = float(value)
    lo_ok = value >= low if inclusive[0] else value > low
    hi_ok = value <= high if inclusive[1] else value < high
    if not (np.isfinite(value) and lo_ok and hi_ok):
        lo_b = "[" if inclusive[0] else "("
        hi_b = "]" if inclusive[1] else ")"
        raise ConfigurationError(
            f"{name} must be in {lo_b}{low}, {high}{hi_b}, got {value}"
        )
    return value


def check_probability(name: str, value: float) -> float:
    """Validate that ``value`` lies in [0, 1]."""
    return check_in_range(name, value, 0.0, 1.0)


def check_finite_array(name: str, array: np.ndarray) -> np.ndarray:
    """Validate that every element of ``array`` is finite; returns it as ndarray."""
    array = np.asarray(array, dtype=float)
    if array.size and not np.all(np.isfinite(array)):
        bad = int(np.count_nonzero(~np.isfinite(array)))
        raise ConfigurationError(f"{name} contains {bad} non-finite element(s)")
    return array


def check_shape(
    name: str, array: np.ndarray, shape: Sequence[Optional[int]]
) -> np.ndarray:
    """Validate the shape of ``array``; ``None`` entries match any extent."""
    array = np.asarray(array)
    if array.ndim != len(shape):
        raise ConfigurationError(
            f"{name} must have {len(shape)} dimension(s), got {array.ndim}"
        )
    for axis, want in enumerate(shape):
        if want is not None and array.shape[axis] != want:
            raise ConfigurationError(
                f"{name} must have shape {tuple(shape)}, got {array.shape}"
            )
    return array
