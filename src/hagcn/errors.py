"""Exception types shared across the package, and the config type checks
that raise them."""

import numbers


class FormatError(ValueError):
    """A byte stream or text file does not match its declared format."""


class ConfigError(ValueError):
    """A configuration dict or file is malformed or has unknown keys."""


class NondeterminismError(RuntimeError):
    """A function produced different outputs on identical inputs."""


class TrainingDiverged(RuntimeError):
    """Loss became non-finite during optimization."""


def config_int(name: str, value) -> int:
    """``value`` as an int; refuses bools and floats instead of reading
    true as 1 or truncating 8.7 to 8."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} of the wrong type: expected an integer, "
                          f"got {value!r}")
    return int(value)


def config_ints(name: str, values) -> tuple:
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{name} of the wrong type: expected a list of "
                          f"integers, got {values!r}")
    return tuple(config_int(name, v) for v in values)


def config_real(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} of the wrong type: expected a number, "
                          f"got {value!r}")


def config_bool(name: str, value) -> None:
    if not isinstance(value, bool):
        raise ConfigError(f"{name} of the wrong type: expected true or "
                          f"false, got {value!r}")
