"""Exception types shared across the package, the one conversion of
user-supplied values (CLI flags, config keys, descriptor fields) that raises
``ConfigError`` on a value it cannot convert, and the one check of each kind
of public argument: ``_scalar`` for a number, through the same conversions
(``_positive`` for one that must be above 0), and ``_vector`` for an array,
with ``_float_array``, its conversion."""

import numpy as np


class InvalidInputError(ValueError):
    """An operation received arguments outside its documented domain."""


class SolverError(RuntimeError):
    """A solver could not produce a valid solution for a feasible-looking input."""


class ConfigError(ValueError):
    """A configuration mapping or generator descriptor is malformed."""


def _value(opts: dict, key: str, convert, default=None):
    """``convert(opts[key])``, or ``default`` when the key is unset (None).

    A flag's text and a config's JSON value take this same path, so a value
    that ``convert`` rejects raises ``ConfigError`` naming the key.
    """
    value = opts.get(key)
    if value is None:
        return default
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid {key} {value!r}: {exc}") from exc


def _required(opts: dict, key: str, convert):
    """``_value`` for a key that must be set."""
    value = _value(opts, key, convert)
    if value is None:
        raise ConfigError(f"missing {key}")
    return value


def _real(value) -> float:
    if isinstance(value, (bool, np.bool_)):
        raise TypeError("expected a number, not a boolean")
    return float(value)


def _whole(value) -> int:
    if isinstance(value, (bool, np.bool_)):
        raise TypeError("expected a whole number, not a boolean")
    if isinstance(value, (float, np.floating)) and not value.is_integer():
        raise ValueError("expected a whole number")
    return int(value)


def _floats(value) -> list[float]:
    if isinstance(value, str):  # else "12" would read as [1.0, 2.0]
        raise TypeError("expected a list of numbers")
    return [_real(v) for v in value]


def _scalar(value, name: str, low: float = -np.inf, high: float = np.inf,
            error: type[Exception] = InvalidInputError, convert=_real):
    """``convert(value)`` (``_real`` or ``_whole``, as for a flag or config
    value); raises ``error``, not numpy's or Python's own exception, unless
    the result is finite and in ``[low, high]`` (NaN fails)."""
    try:
        number = convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"invalid {name} {value!r}: {exc}") from exc
    # an int compares with inf exactly, where math.isfinite could overflow
    if not (-np.inf < number < np.inf and low <= number <= high):
        raise error(f"{name} must be finite and lie in [{low:g}, {high:g}]")
    return number


def _positive(value, name: str, high: float = np.inf) -> float:
    """``_scalar(value, name, 0, high)`` that is also above 0; raises
    ``InvalidInputError`` naming ``name`` otherwise."""
    number = _scalar(value, name, 0.0, high)
    if not number > 0:
        raise InvalidInputError(f"{name} must be positive")
    return number


def _float_array(values, name: str, error: type[Exception] = InvalidInputError) -> np.ndarray:
    """A float copy of ``values``; raises ``error``, not numpy's own exception,
    for a non-numeric entry or a ragged nesting."""
    try:
        return np.array(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"{name} must be an array of numbers: {exc}") from exc


def _vector(values, name: str, low: float = -np.inf, high: float = np.inf,
            error: type[Exception] = InvalidInputError) -> np.ndarray:
    """A read-only 1-D float copy of ``values``; raises ``error`` unless it is
    non-empty and every entry is a finite number in ``[low, high]`` (NaN fails)."""
    array = _float_array(values, name, error)
    if array.ndim != 1 or array.size == 0:
        raise error(f"{name} must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(array) & (low <= array) & (array <= high)):
        raise error(f"{name} must be finite and lie in [{low:g}, {high:g}]")
    array.setflags(write=False)
    return array
