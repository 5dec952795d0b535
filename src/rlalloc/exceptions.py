"""Package-level error types, and the one checker of the field rules each config class
declares once per field with ``spec``; only rules across fields stay in the classes."""

import dataclasses
import json
import math
from typing import Callable, NamedTuple

import numpy as np

ACTION_MODES = ("explore", "train", "eval")


class ConfigError(ValueError):
    """Experiment configuration is malformed or inconsistent (CLI exit code 2).

    ``field`` names the field whose own rule failed, if one did."""

    def __init__(self, message: str, field: str | None = None) -> None:
        super().__init__(message)
        self.field = field


class TrainingDiverged(RuntimeError):
    """A training loss went non-finite; the run must abort (CLI exit code 3)."""


def is_count(value: object, minimum: int) -> bool:
    """Whether ``value`` is an integer (not a bool) of at least ``minimum``."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= minimum


def is_real(value: object) -> bool:
    """Whether ``value`` is a real number: an int (not a bool), a float, or a NumPy real."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


class Rule(NamedTuple):
    """How a config field is read: ``convert`` stores the given value (or raises), ``test`` says
    if that is allowed and ``message`` what is. ``per`` 1 makes the field one entry per slice
    or server, 2 a square matrix of them."""

    test: Callable[[object], bool] = lambda _: True
    message: str = ""
    per: int = 0
    convert: Callable[[str, object], object] | None = None


def _must(words: str) -> str:
    return "{name} must " + words + ", got {value!r}"


def real(test: Callable[[float], bool], words: str) -> Rule:
    """A real number passing ``test``, which must reject NaN."""
    return Rule(lambda v: is_real(v) and test(v), _must(words))


def count(minimum: int) -> Rule:
    return Rule(lambda v: is_count(v, minimum), _must(f"be an integer >= {minimum}"))


def one_of(options: tuple) -> Rule:
    return Rule(lambda v: isinstance(v, str) and v in options, _must(f"be one of {options}"))


def _vector(name: str, value: object, ndim: int = 1) -> np.ndarray:
    """``value`` as an ``ndim``-D float array; anything else is an error that names ``name``."""
    try:
        vec = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        vec = None
    if vec is None or vec.ndim != ndim:
        shape = "list" if ndim == 1 else "matrix"
        raise ConfigError(f"{name} must be a {shape} of numbers, got {value!r}", name)
    return vec


def nested(cls: type, many: str | None = None) -> Rule:
    """A ``cls`` config object, or its dict; given ``many``, the noun for one, a list of them."""
    def convert(name: str, value: object) -> object:
        items = value if many and isinstance(value, list) else [value]
        if bool(many) != isinstance(value, list) or not all(isinstance(v, (dict, cls))
                                                            for v in items):
            words = f"a list of {many} objects" if many else "an object"
            raise ConfigError(f"{name} must be {words}, got {value!r}", name)
        built = [v if isinstance(v, cls) else cls.from_dict(v) for v in items]
        return built if many else built[0]
    return Rule(per=int(bool(many)), convert=convert)


def _layer_sizes(name: str, sizes: object) -> tuple:
    if not isinstance(sizes, (list, tuple)):
        raise ConfigError(f"{name} must be a list of layer sizes, got {sizes!r}", name)
    return tuple(sizes)


POSITIVE = real(lambda v: 0 < v < math.inf, "be positive")
FINITE = POSITIVE._replace(message=_must("be positive and finite"))
NON_NEGATIVE = real(lambda v: 0 <= v < math.inf, "be non-negative and finite")
UNIT = real(lambda v: 0 <= v <= 1, "lie in [0, 1]")
POSITIVES = Rule(lambda a: bool(np.all((a > 0) & (a < np.inf))),
                 _must("be positive and finite"), 1, _vector)
NON_NEGATIVES = POSITIVES._replace(test=lambda a: bool(np.all((a >= 0) & (a < np.inf))),
                                   message=_must("be non-negative and finite"))
OBJECT = Rule(lambda v: isinstance(v, dict), _must("be an object"))
MATRIX = Rule(per=2, convert=lambda name, value: _vector(name, value, 2))
HIDDEN = Rule(lambda sizes: all(is_count(h, 1) for h in sizes),
              "hidden layer sizes must be positive integers", convert=_layer_sizes)


def spec(rule: Rule = Rule(), default=dataclasses.MISSING, *, reads: str | tuple | None = None,
         factory=dataclasses.MISSING, key: str | None = None):
    """A dataclass field with its ``rule`` (by default none of its own), read only in the mode
    or modes ``reads`` if that is given, under the JSON ``key`` if that differs from its name."""
    reads = (reads,) if isinstance(reads, str) else reads
    return dataclasses.field(default=default, default_factory=factory,
                             metadata={"rule": rule, "reads": reads, "key": key})


def check_fields(config: object, selector: str | None = None, n: int | None = None) -> int | None:
    """Convert and check each ``spec`` field, those every mode reads first; return the count
    ``n`` of entries per slice or server, which the first such field sets unless it is given.
    A field the ``selector``'s value (a mode or a kind) does not read must keep its default,
    and one it reads must be given. Each error names its field."""
    mode = getattr(config, selector) if selector else None
    fields = [f for f in dataclasses.fields(config) if "reads" in f.metadata]
    for f in sorted(fields, key=lambda f: f.metadata["reads"] is not None):
        name = f.metadata["key"] or f.name  # the JSON key, which messages give
        value, factory = getattr(config, f.name), f.default_factory
        rule, reads = f.metadata["rule"], f.metadata["reads"]
        default = f.default if factory is dataclasses.MISSING else factory()
        if reads is not None and mode not in reads:
            # True == 1.0 in Python, yet a bool is not the number it equals.
            if value is not default and (value != default or isinstance(value, bool)):
                raise ConfigError(f"{selector} {mode!r} does not read {name!r}; remove it", name)
            continue
        if value is None and default is None:
            if reads is None:
                continue  # an optional field left unset
            raise ConfigError(f"{selector} {mode!r} needs {name!r}", name)
        if rule.convert is not None:
            value = rule.convert(name, value)
            setattr(config, f.name, value)
        if rule.per:
            shape = value.shape if isinstance(value, np.ndarray) else (len(value),)
            if n is None and not shape[0]:
                raise ConfigError(f"{name} must have at least one entry", name)
            n = shape[0] if n is None else n
            if shape != (n,) * rule.per:
                raise ConfigError(f"{name} must have shape {(n,) * rule.per}, got {shape}", name)
        if not rule.test(value):
            shown = value.tolist() if isinstance(value, np.ndarray) else value
            raise ConfigError(rule.message.format(name=name, value=shown), name)
    return n


def check_learner(hp: object) -> None:
    """Check either learner's hyperparameters: each field's rule, then the buffer's size."""
    check_fields(hp)
    if hp.buffer_capacity < hp.batch_size:
        raise ValueError("need buffer_capacity >= batch_size")


def config_from_dict(cls: type, payload: dict):
    """``cls`` built from ``payload``; a missing required key or an unknown one is an error."""
    fields = {f.metadata.get("key") or f.name: f for f in dataclasses.fields(cls) if f.init}
    for key, f in fields.items():
        if key not in payload and f.default is f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"missing required key {key!r}")
    unknown = set(payload) - set(fields)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)}")
    return cls(**{fields[key].name: value for key, value in payload.items()})


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
