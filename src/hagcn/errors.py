"""Exception types shared across the package, and the config type checks
that raise them."""

import dataclasses
import math
import numbers


class FormatError(ValueError):
    """A byte stream or text file does not match its declared format."""


class ConfigError(ValueError):
    """A configuration dict or file is malformed or has unknown keys."""


class NondeterminismError(RuntimeError):
    """A function produced different outputs on identical inputs."""


class TrainingDiverged(RuntimeError):
    """Loss became non-finite during optimization."""


def config_int(name: str, value, low: int = None) -> int:
    """``value`` as an int of at least ``low``; refuses bools and floats
    instead of reading true as 1 or truncating 8.7 to 8."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} of the wrong type: expected an integer, "
                          f"got {value!r}")
    if low is not None and value < low:
        raise ConfigError(f"{name} must be at least {low}, got {value}")
    return int(value)


def config_ints(name: str, values, low: int = None) -> tuple:
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{name} of the wrong type: expected a list of "
                          f"integers, got {values!r}")
    return tuple(config_int(name, v, low) for v in values)


def config_keys(what: str, cls, d: dict, required=()) -> None:
    """Reject keys of ``d`` that name no field of the dataclass ``cls``, and
    any ``required`` key that ``d`` lacks."""
    unknown = set(d) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {what} config keys: {sorted(unknown)}")
    missing = set(required) - set(d)
    if missing:
        raise ConfigError(f"{what} config missing keys: {sorted(missing)}")


def config_real(name: str, value) -> None:
    """Refuse bools, non-numbers, NaN and infinities."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} of the wrong type: expected a number, "
                          f"got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value}")


def config_bool(name: str, value) -> None:
    if not isinstance(value, bool):
        raise ConfigError(f"{name} of the wrong type: expected true or "
                          f"false, got {value!r}")
