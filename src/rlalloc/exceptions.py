"""Package-level error types, and the rules every config check and both learners share."""

import dataclasses
import json

import numpy as np

ACTION_MODES = ("explore", "train", "eval")


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


def hidden_tuples(hp: object, *names: str) -> None:
    """Turn each named hidden-size field of ``hp`` into a tuple; a non-list is an error."""
    for name in names:
        sizes = getattr(hp, name)
        if not isinstance(sizes, (list, tuple)):
            raise ValueError(f"{name} must be a list of layer sizes, got {sizes!r}")
        setattr(hp, name, tuple(sizes))


def check_learner(hp: object, count: str, *hidden: str) -> None:
    """Check the hyperparameter rules TD3 and DQN share; ``count`` names the learner's cadence."""
    for name, minimum in ((count, 1), ("batch_size", 1), ("buffer_capacity", 1),
                          ("exploration_steps", 0), ("total_steps", 0)):
        value = getattr(hp, name)
        if not is_count(value, minimum):
            raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    if hp.buffer_capacity < hp.batch_size:
        raise ValueError("need buffer_capacity >= batch_size")
    if hp.exploration_steps > hp.total_steps:
        raise ValueError("need exploration_steps <= total_steps")
    if not all(is_count(h, 1) for name in hidden for h in getattr(hp, name)):
        raise ValueError("hidden layer sizes must be positive integers")


def check_mode(mode: str, rng: object) -> None:
    """Reject an unknown action mode, and an explore or train call without an rng."""
    if mode not in ACTION_MODES:
        raise ValueError(f"mode must be one of {ACTION_MODES}, got {mode!r}")
    if mode != "eval" and rng is None:
        raise ValueError(f"{mode} mode needs an rng")


def _json_default(value: object) -> object:
    """A nested config as its dict, an array or a NumPy scalar as plain Python values."""
    return value.to_dict() if hasattr(value, "to_dict") else value.tolist()


def config_dict(config: object) -> dict:
    """A config dataclass's constructor fields in JSON form, leaving out None and {} values."""
    fields = ((f.name, getattr(config, f.name)) for f in dataclasses.fields(config) if f.init)
    given = {k: v for k, v in fields if v is not None and not (isinstance(v, dict) and not v)}
    return json.loads(json.dumps(given, default=_json_default))
