"""Package-level error types, and the number tests and conversion every config check shares."""

import numpy as np


class ConfigError(ValueError):
    """Experiment configuration is malformed or inconsistent (CLI exit code 2)."""


class TrainingDiverged(RuntimeError):
    """A training loss went non-finite; the run must abort (CLI exit code 3)."""


def is_count(value: object, minimum: int) -> bool:
    """Whether ``value`` is an integer (not a bool) of at least ``minimum``."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= minimum


def is_real(value: object) -> bool:
    """Whether ``value`` is a real number: an int (not a bool), a float, or a NumPy real."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _vector(name: str, value: object, ndim: int = 1) -> np.ndarray:
    """``value`` as an ``ndim``-D float array; anything else is an error that names ``name``."""
    try:
        vec = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        vec = None
    if vec is None or vec.ndim != ndim:
        shape = "list" if ndim == 1 else "matrix"
        raise ValueError(f"{name} must be a {shape} of numbers, got {value!r}")
    return vec
