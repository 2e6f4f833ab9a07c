"""Exception types shared across the package, and the shared config minimum check."""


class ConfigError(ValueError):
    """A configuration value is invalid or internally inconsistent."""


def check_minimums(config, minimums):
    """Raise ConfigError naming the first field of `config` below its minimum."""
    for name, low in minimums.items():
        value = getattr(config, name)
        if value < low:
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
