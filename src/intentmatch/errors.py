"""Exception types shared across the package, and the one check of config field values.

`check_fields` checks each field's type, `choices` and `RANGES` interval, such as "[1, inf)";
`check_range` is the one interval check, the thresholds' included.
"""

import dataclasses
import functools
import numbers
import sys

import numpy as np


class ConfigError(ValueError):
    """A configuration value is invalid or internally inconsistent."""


def _fits(annotation, value):
    """Whether a field annotated `annotation` takes `value`; a bool is never a number."""
    if annotation == "tuple[int, int]":
        return isinstance(value, tuple) and len(value) == 2 and all(_fits("int", v) for v in value)
    kind = {"int": numbers.Integral, "float": numbers.Real, "str": str, "dict": dict}[annotation]
    # a float field takes a finite one: False for NaN, inf and an int beyond float range
    return isinstance(value, kind) and not isinstance(value, bool) and (
        annotation != "float" or abs(value) <= sys.float_info.max)


def _plain(value):
    """`value` with a numpy scalar, or each one in a pair, as the Python number it holds."""
    if isinstance(value, tuple):
        return tuple(_plain(v) for v in value)
    return value.item() if isinstance(value, np.generic) else value


@functools.cache
def _bounds(interval):
    """(low, high, low is open, high is open) of an interval such as "[0, 1)"."""
    low, high = interval[1:-1].split(",")
    return float(low), float(high), interval[0] == "(", interval[-1] == ")"


def check_range(name, value, interval):
    """Raise ConfigError unless `value`, or each element of a pair, is a real number in `interval`.

    `interval` is written "[1, inf)", "(0, 1]" and so on; NaN lies in none,
    and a bool, a string or None is no number.
    """
    low, high, low_open, high_open = _bounds(interval)
    for v in value if isinstance(value, tuple) else (value,):
        if isinstance(v, bool) or not isinstance(v, numbers.Real) or not (
            (low < v if low_open else low <= v) and (v < high if high_open else v <= high)
        ):
            raise ConfigError(f"{name} must be in {interval}, got {value!r}")


def check_fields(config, ranges):
    """Check each field of the dataclass `config`: annotation, `choices` metadata, `ranges`.

    Raises ConfigError naming the first field that fails.  A JSON list for a
    pair becomes a tuple, and an accepted numpy scalar the Python number it
    holds, so the config serializes as JSON and sizes behave as Python ints.
    """
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if isinstance(value, list) and f.type == "tuple[int, int]":  # JSON has no tuples
            value = tuple(value)
        value = _plain(value)
        if not _fits(f.type, value):
            expected = "finite float" if f.type == "float" else f.type
            raise ConfigError(f"{f.name} is {value!r}, expected {expected}")
        choices = f.metadata.get("choices")
        if choices is not None and value not in choices:
            raise ConfigError(f"{f.name} is {value!r}, expected one of {choices}")
        setattr(config, f.name, value)
        if f.name in ranges:
            check_range(f.name, value, ranges[f.name])


class VocabError(ValueError):
    """A token id falls outside the vocabulary."""


class DataFormatError(ValueError):
    """A dataset, category or vocab file does not match its format."""


class NonFiniteError(ArithmeticError):
    """Training produced a NaN or infinite loss or parameter."""


class CheckpointError(Exception):
    """Base class for checkpoint load failures."""


class VersionMismatchError(CheckpointError):
    """Checkpoint format version is not supported."""


class ConfigMismatchError(CheckpointError):
    """Checkpoint was written for a different model configuration."""


class CorruptCheckpointError(CheckpointError):
    """Checkpoint is truncated, fails a length check or holds a non-finite tensor."""
