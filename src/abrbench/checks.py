"""What a valid parameter value is, decided once for every layer.

Each check takes a value's name and the value, raises a ``ValueError``
naming both when the value is not valid, and returns it. Reals come
back as ``float``, so an integer where a real is expected behaves, and
is written into artifacts, as the float would. A bool is never a
number, although Python counts it as an int. ``naming`` puts a bad
input's source (a config key, a file) in front of its error.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import numbers


def is_number(value) -> bool:
    """A real number that is not a bool (``true`` is not a config number)."""
    return type(value) is float or (isinstance(value, numbers.Real) and not isinstance(value, bool))


def finite(name: str, value) -> float:
    if not (is_number(value) and -math.inf < value < math.inf):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def nonnegative(name: str, value) -> float:
    if not (is_number(value) and 0.0 <= value < math.inf):  # NaN fails both comparisons
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
    return float(value)


def positive(name: str, value) -> float:
    if not (is_number(value) and 0.0 < value < math.inf):
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")
    return float(value)


def between(name: str, value, low: float, high: float, exclusive: bool = False) -> float:
    """A number in [low, high], or in (low, high) when ``exclusive``."""
    if not (is_number(value) and ((low < value < high) if exclusive else (low <= value <= high))):
        interval = f"({low}, {high})" if exclusive else f"[{low}, {high}]"
        raise ValueError(f"{name} must be a number in {interval}, got {value!r}")
    return float(value)


def count(name: str, value) -> int:
    # the exact-int test first: ``abr._recent`` runs per decision and the ABC check costs ~1 us
    integral = type(value) is int or (isinstance(value, numbers.Integral) and not isinstance(value, bool))
    if not (integral and value >= 1):
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return value


def flag(name: str, value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be true or false, got {value!r}")
    return value


def path(name: str, value) -> str:
    """A file or directory path: a non-empty string (``""`` would name the working directory)."""
    if not (isinstance(value, str) and value):
        raise ValueError(f"{name} must be a non-empty path string, got {value!r}")
    return value


def command(name: str, value) -> list:
    """A command line: a non-empty list of strings, the program and its arguments (never one string)."""
    if not (isinstance(value, list) and value and all(isinstance(arg, str) for arg in value)):
        raise ValueError(f"{name} must be a non-empty list of strings, got {value!r}")
    return value


def floats_within(values, low: float, high: float, exclusive: bool = False) -> bool:
    """Whether every item of ``values`` is a float in [low, high], or (low, high) when ``exclusive``.

    One pass of chained comparisons (False for NaN). An int is no float here: False means "check
    item by item", True that ``between`` or ``positive`` would return every item unchanged.
    """
    if exclusive:
        return all(type(x) is float and low < x < high for x in values)
    return all(type(x) is float and low <= x <= high for x in values)


def each(check, within: tuple[float, float, bool] | None = None):
    """A check of a list (or tuple) whose items all pass ``check``; it returns them as a tuple.

    ``within`` is the (low, high, exclusive) range of the floats ``check`` accepts: a list of them
    passes in one ``floats_within`` pass, and anything else goes through ``check`` item by item.
    """

    def check_each(name: str, values) -> tuple:
        if not isinstance(values, (list, tuple)):
            raise ValueError(f"{name} must be a list, got {values!r}")
        if within is not None and floats_within(values, *within):
            return tuple(values)
        try:
            return tuple(map(check, itertools.repeat(name), values))
        except ValueError:
            for i, value in enumerate(values):
                check(f"{name}[{i}]", value)  # the first bad item raises again, named by its index
            raise

    return check_each


def instance(cls):
    """A check that a value is a ``cls`` (a parameter set, a table), returned as it is."""

    def check_instance(name: str, value):
        if not isinstance(value, cls):
            raise ValueError(f"{name} must be a {cls.__name__}, got {value!r}")
        return value

    return check_instance


def attrs(obj, check, *names: str) -> None:
    """Check the named attributes of a (frozen) dataclass instance, storing each checked value back."""
    for name in names:
        object.__setattr__(obj, name, check(name, getattr(obj, name)))


def known_keys(where: str, block: dict, allowed) -> None:
    """A config block holds only ``allowed`` keys; the error names the first other one."""
    unknown = [key for key in block if key not in allowed]
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r} in {where}; expected one of {sorted(allowed)}")


@contextlib.contextmanager
def naming(where: str, errors=ValueError):
    """A block whose ``errors`` exception is re-raised as ``ValueError(f"{where}: {exc}")``, chained to it."""
    try:
        yield
    except errors as exc:
        raise ValueError(f"{where}: {exc}") from exc
