"""Input validation helpers shared across the package.

Small check_* functions in the spirit of sklearn's validation utilities:
they coerce to numpy, enforce shape/sign contracts, and raise ValueError
with the offending name in the message.
"""

from __future__ import annotations

import numpy as np


def as_float_vector(x, name: str) -> np.ndarray:
    """Coerce to a read-only 1-D float64 array."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional, got shape {arr.shape}")
    arr = np.array(arr, copy=True)
    arr.flags.writeable = False
    return arr


def as_float_matrix(x, name: str) -> np.ndarray:
    """Coerce to a read-only 2-D float64 array."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    arr = np.array(arr, copy=True)
    arr.flags.writeable = False
    return arr


def check_positive_int(value, name: str) -> int:
    """int(value) for a whole number >= 1; anything else, NaN and infinity
    included, raises ValueError naming it."""
    try:
        whole = int(value) == value
    except (ValueError, OverflowError):
        whole = False
    if not whole or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return int(value)
