"""Exception types shared across the package, and the one check of config field values."""

import dataclasses
import numbers


class ConfigError(ValueError):
    """A configuration value is invalid or internally inconsistent."""


def _fits(annotation, value):
    """Whether a field annotated `annotation` takes `value`; a bool is never a number."""
    if annotation == "tuple[int, int]":
        return isinstance(value, tuple) and len(value) == 2 and all(_fits("int", v) for v in value)
    kind = {"int": numbers.Integral, "float": numbers.Real, "str": str, "dict": dict}[annotation]
    return isinstance(value, kind) and not isinstance(value, bool)


def check_fields(config, minimums):
    """Check each field of the dataclass `config` against its annotation, then `minimums`.

    Raises ConfigError naming the first field that fails; a pair's minimum
    applies to each element.
    """
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if not _fits(f.type, value):
            raise ConfigError(f"{f.name} is {value!r}, expected {f.type}")
    for name, low in minimums.items():
        value = getattr(config, name)
        if (min(value) if isinstance(value, tuple) else value) < low:
            raise ConfigError(f"{name} must be at least {low}, got {value}")


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
