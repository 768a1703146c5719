"""Converters for the values that enter the package through its API.

Each takes a value as a caller gave it and returns it in the package's
own type, or raises: `UsageError` for a call of the wrong shape (a column
that is not 1-D), `ConfigError` for a bad value. Nothing is truncated on
the way: 2.5 is not a frame time, 1.7 is not a pixel, and neither the
string "4.0" nor True is a query position. Integer columns
are checked by their minimum and maximum only, with no extra pass.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import ConfigError, UsageError

_INT64 = (-(2**63), 2**63)


def whole(value, what: str) -> int:
    """`value` as an int: a whole number (not a bool) that fits int64."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        n = int(value)
    elif isinstance(value, (float, np.floating)) and math.isfinite(value) and value == int(value):
        n = int(value)
    else:
        raise ConfigError(f"{what} {value!r} is not a whole number")
    if not _INT64[0] <= n < _INT64[1]:
        raise ConfigError(f"{what} {value!r} does not fit 64 bits")
    return n


def real(value, what: str) -> float:
    """`value` as a float: a real number, not a bool or a string."""
    if not isinstance(value, (int, float, np.integer, np.floating)) or isinstance(value, bool):
        raise ConfigError(f"{what} {value!r} is not a number")
    try:
        return float(value)
    except OverflowError:  # an int past the float range
        return math.inf


def finite(value, what: str) -> float:
    """`value` as a float: a finite real number, not a bool or a string."""
    x = real(value, what)
    if not math.isfinite(x):
        raise ConfigError(f"{what} {value!r} is not finite")
    return x


def config_fields(config) -> None:
    """Check each field of a config dataclass against its annotation, and
    store numbers in the package's own type. `int` takes an int or numpy
    integer that fits int64; `float` a real number (each float field's
    range check then requires it finite); `bool` a bool; `str` a str; a
    nested config an instance of its default's class; and `X | None`
    also None. A bool is not a number here. A mismatch is a `ConfigError`
    that names the field."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        kind = f.type.removesuffix(" | None")  # the config modules defer annotations to strings
        if value is None and kind != f.type:
            continue
        if kind == "float":
            setattr(config, f.name, real(value, f.name))
            continue
        expected = {"int": (int, np.integer), "bool": bool, "str": str}.get(kind, f.default_factory)
        if not isinstance(value, expected) or (kind == "int" and isinstance(value, bool)):
            raise ConfigError(f"{f.name} must be {'an' if kind == 'int' else 'a'} {kind}, "
                              f"got {value!r}")
        if kind == "int":
            setattr(config, f.name, whole(value, f.name))


def whole_column(values, what: str) -> np.ndarray:
    """A 1-D column of whole numbers as int64."""
    a = _numbers(values, what)
    if not np.can_cast(a.dtype, np.int64):
        _check_whole(a, *_INT64, what)
    return a.astype(np.int64, copy=False)


def pixel_column(values, extent: int, what: str) -> np.ndarray:
    """A 1-D column of pixel coordinates in [0, extent) as int32."""
    a = _numbers(values, what)
    _check_whole(a, 0, extent, what)
    return a.astype(np.int32, copy=False)


def polarity_column(values) -> np.ndarray:
    """A 1-D column of polarities, each -1 or +1, as int8."""
    a = _numbers(values, "polarity")
    if not np.all(np.abs(a) == 1):
        raise ConfigError("polarity must be -1 or +1")
    return a.astype(np.int8, copy=False)


def _numbers(values, what: str) -> np.ndarray:
    try:
        a = np.asarray(values)
    except (ValueError, TypeError, OverflowError):  # ragged or unconvertible
        raise ConfigError(f"{what} is not a column of numbers") from None
    if a.ndim != 1:
        raise UsageError(f"{what} must be a 1-D column, got shape {a.shape}")
    if a.dtype.kind not in "iuf":
        raise ConfigError(f"{what} holds {a.dtype} values, not numbers")
    return a


def _check_whole(a: np.ndarray, lo: int, hi: int, what: str) -> None:
    """Every value of `a` is a whole number in [lo, hi); NaN fails the bounds."""
    if a.size and not (lo <= a.min() and a.max() < hi):
        raise ConfigError(f"{what} outside [{lo}, {hi})")
    if a.dtype.kind == "f":
        bad = a != np.trunc(a)
        if bad.any():
            raise ConfigError(f"{what} {a[bad][0].item()!r} is not a whole number")
