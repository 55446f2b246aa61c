"""What a valid parameter value is, decided once for every layer.

Each check takes a value's name and the value, raises a ``ValueError``
naming both when the value is not valid, and returns it. Reals come
back as ``float``, so an integer where a real is expected behaves, and
is written into artifacts, as the float would. A bool is never a
number, although Python counts it as an int.

Every layer imports this module, so it also holds ``to_json``, the one
writer of the package's JSON artifacts.
"""

from __future__ import annotations

import functools
import itertools
import json
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


def each(check):
    """A check of a list (or tuple) whose items all pass ``check``; it returns them as a tuple."""

    def check_each(name: str, values) -> tuple:
        if not isinstance(values, (list, tuple)):
            raise ValueError(f"{name} must be a list, got {values!r}")
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


_encode = json.JSONEncoder().encode  # the C encoder, as json.dumps writes a leaf or a key
_CONTAINERS = (dict, list, tuple)


def to_json(doc) -> str:
    """What ``json.dumps`` writes for ``doc`` with ``indent=1``, byte for byte.

    With ``indent`` set, ``json.dumps`` runs the pure-Python encoder.
    Here the C encoder writes a list or dict of leaves (numbers, strings,
    bools and None) in one call, its item separator a line break and the
    indent of that level, and a list of rows of leaves (pairs, or flat
    dicts) the same way. No leaf's text holds a line break, so each one
    in that text is an item boundary. Other containers are laid out item
    by item.
    """
    return _layout(doc, "\n")


@functools.cache
def _level_encoder(newline: str):
    """The C encoder that lays out one level of leaves below ``newline``."""
    return json.JSONEncoder(separators=("," + newline + " ", ": ")).encode


def _layout(value, newline: str) -> str:
    if not isinstance(value, _CONTAINERS):
        return _encode(value)
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    inner = newline + " "
    items = value.values() if isinstance(value, dict) else value
    if not any(map(isinstance, items, itertools.repeat(_CONTAINERS))):
        text = _level_encoder(newline)(value)
        return text[0] + inner + text[1:-1] + newline + text[-1]
    if isinstance(value, dict):
        pairs = (_key(key) + ": " + _layout(item, inner) for key, item in value.items())
        return "{" + inner + ("," + inner).join(pairs) + newline + "}"
    kind = dict if isinstance(value[0], dict) else (list, tuple)
    if all(map(isinstance, value, itertools.repeat(kind))) and all(value):  # rows: non-empty, of one kind
        leaves = itertools.chain.from_iterable(map(dict.values, value) if kind is dict else value)
        if not any(map(isinstance, leaves, itertools.repeat(_CONTAINERS))):
            # no leaf's text ends in "]" or "}", so closer, separator and opener are found between rows only
            deeper = inner + " "
            opener, closer = "{}" if kind is dict else "[]"
            rows = _level_encoder(inner)(value)[2:-2].replace(
                closer + "," + deeper + opener, inner + closer + "," + inner + opener + deeper)
            return "[" + inner + opener + deeper + rows + inner + closer + newline + "]"
    return "[" + inner + ("," + inner).join(_layout(item, inner) for item in value) + newline + "]"


def _key(key) -> str:
    if not isinstance(key, str):  # json.dumps writes an int, float, bool or None key as its value's text
        if not (isinstance(key, (int, float)) or key is None):
            raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
        key = _encode(key)
    return _encode(key)
