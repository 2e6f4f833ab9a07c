"""Mini-batch Adam training with deterministic seeding and checkpoints.

Checkpoint format (little-endian throughout):

    magic b"MMAN" | u32 version | u32 json_len | canonical JSON config
    | per tensor: u64 byte_len | raw f64 payload

Tensors appear in `model.parameters()` order (see `ad.Params`); if optimizer
state is included, each parameter's first- and second-moment buffers
follow the parameter payloads in the same order.  Canonical JSON (sorted
keys, no whitespace) makes save -> load -> save byte-identical.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import (
    ConfigError,
    ConfigMismatchError,
    CorruptCheckpointError,
    NonFiniteError,
    VersionMismatchError,
    check_fields,
)
from .model import Model, ModelConfig, multilabel_loss
from .textdata import atomic_output

CHECKPOINT_MAGIC = b"MMAN"
CHECKPOINT_VERSION = 1


@dataclass
class AdamState:
    """Bias-corrected Adam moments for one named parameter list."""

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    RANGES = dict(lr="(0, inf)", beta1="[0, 1)", beta2="[0, 1)", eps="(0, inf)", step="[0, inf)")

    def __post_init__(self):
        check_fields(self, self.RANGES)

    @classmethod
    def for_params(cls, named_params, lr):
        state = cls(lr=lr)
        for name, tensor in named_params:
            state.m[name] = np.zeros_like(tensor.data)
            state.v[name] = np.zeros_like(tensor.data)
        return state


def adam_step(named_params, state):
    """One in-place Adam update; gradients are consumed and released.

    A parameter whose `.grad` is None takes a zero-gradient step.
    """
    state.step += 1
    b1c = 1.0 - state.beta1**state.step
    b2c = 1.0 - state.beta2**state.step
    for name, tensor in named_params:
        g = 0.0 if tensor.grad is None else tensor.grad
        m = state.m[name]
        v = state.v[name]
        if m.shape != tensor.shape:
            raise ValueError(
                f"adam buffer for {name} has shape {m.shape}, parameter has {tensor.shape}"
            )
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        tensor.data -= state.lr * (m / b1c) / (np.sqrt(v / b2c) + state.eps)
        tensor.grad = None


@dataclass
class TrainConfig:
    epochs: int = 10
    batch_size: int = 32
    lr: float = 5e-5
    seed: int = 42

    RANGES = dict(epochs="[0, inf)", batch_size="[1, inf)", lr="(0, inf)", seed="[0, inf)")

    def __post_init__(self):
        check_fields(self, self.RANGES)


def batch_gradients(model, batch, cats):
    """Accumulate d(mean batch loss)/d(params); returns the mean loss.

    The whole batch, categories included, runs as one batched forward on
    one tape, so the tape's length does not grow with the batch, and is
    replayed by one backward call.
    """
    with ad.Tape() as tape:
        cat_enc = model.encode_categories(cats)
        logits = model.forward([ex.query for ex in batch], cat_enc)
        loss = multilabel_loss(logits, np.stack([ex.labels for ex in batch]))
    ad.backward(loss, tape)
    return float(loss.data)


def _check_finite(named_params, loss, epoch, batch):
    """Raise NonFiniteError when the batch loss or any parameter is NaN or infinite."""
    bad = next((name for name, t in named_params if not np.isfinite(t.data).all()), None)
    if bad is not None or not math.isfinite(loss):
        raise NonFiniteError(
            f"training diverged at epoch {epoch}, batch {batch}: loss {loss:g}, "
            f"first non-finite parameter: {bad or 'none'}"
        )


def train(model, data, cats, config, log_fn=None):
    """Seeded shuffled mini-batch loop; returns (loss history, AdamState).

    The model's parameters are updated in place.  log_fn, when given, is
    called with (epoch_index, mean_loss) after every epoch.  After every
    Adam step the batch loss and the parameters are checked: a NaN or
    infinity raises NonFiniteError naming the epoch and batch (both counted
    from 1) and the first bad parameter, so nothing non-finite reaches a
    checkpoint.
    """
    if not data:
        raise ConfigError("training data is empty")
    n_cats = model.config.num_categories
    for i, ex in enumerate(data):
        if ex.labels.shape != (n_cats,):
            raise ConfigError(
                f"example {i} has {ex.labels.shape[0]} labels, model expects {n_cats}"
            )
    named = model.parameters()
    state = AdamState.for_params(named, lr=config.lr)
    rng = np.random.default_rng(config.seed)
    history = []
    n = len(data)
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        loss_sum = 0.0
        for batch_no, start in enumerate(range(0, n, config.batch_size), start=1):
            batch = [data[i] for i in order[start : start + config.batch_size]]
            mean_loss = batch_gradients(model, batch, cats)
            adam_step(named, state)
            _check_finite(named, mean_loss, epoch + 1, batch_no)
            loss_sum += mean_loss * len(batch)
        history.append(loss_sum / n)
        if log_fn is not None:
            log_fn(epoch, history[-1])
    return history, state


# ---------------------------------------------------------------------------
# checkpoints


@dataclass
class LoadedCheckpoint:
    model: Model
    adam_state: AdamState | None
    extra: dict


def _write_tensor(f, arr):
    payload = np.ascontiguousarray(arr, dtype="<f8").tobytes()
    f.write(struct.pack("<Q", len(payload)))
    f.write(payload)


# the AdamState fields a checkpoint's "optimizer" block holds
_ADAM_HEADER = ("lr", "beta1", "beta2", "eps", "step")


def _manifest(named):
    """The header's "params" block: [name, shape] per tensor, in declaration order."""
    return [[name, list(t.shape)] for name, t in named]


def save_checkpoint(path, model, vocab, cats, adam_state=None, extra=None):
    named = model.parameters()
    header = {
        "model": asdict(model.config),
        "vocab_sha256": vocab.fingerprint(),
        "categories_sha256": cats.fingerprint(),
        "params": _manifest(named),
        "optimizer": None
        if adam_state is None
        else {"algo": "adam", **{key: getattr(adam_state, key) for key in _ADAM_HEADER}},
        "extra": extra or {},
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with atomic_output(path) as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", CHECKPOINT_VERSION))
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        for _, tensor in named:
            _write_tensor(f, tensor.data)
        if adam_state is not None:
            for name, _ in named:
                _write_tensor(f, adam_state.m[name])
                _write_tensor(f, adam_state.v[name])


class _Reader:
    """Reads a checkpoint's bytes front to back through a memoryview, so no read copies."""

    def __init__(self, raw, path):
        self.raw = memoryview(raw)
        self.path = path
        self.pos = 0

    def take(self, n, what):
        if self.pos + n > len(self.raw):
            raise CorruptCheckpointError(
                f"{self.path}: truncated while reading {what} "
                f"(need {n} bytes at offset {self.pos}, have {len(self.raw) - self.pos})"
            )
        out = self.raw[self.pos : self.pos + n]
        self.pos += n
        return out

    def tensors(self, targets):
        """One array per (name, shape) pair of `targets`, read from the next payloads in order.

        Each payload is copied once, into a fresh array.  The section is
        checked for a NaN or infinity as a whole, and a failure names the
        first tensor that holds one.
        """
        start = self.pos
        arrays = []
        for what, shape in targets:
            (nbytes,) = struct.unpack("<Q", self.take(8, f"{what} length"))
            expected = math.prod(shape) * 8
            if nbytes != expected:
                raise CorruptCheckpointError(
                    f"{self.path}: {what} payload is {nbytes} bytes, expected {expected}"
                )
            payload = np.frombuffer(self.take(nbytes, what), dtype="<f8")
            arrays.append(payload.reshape(shape).astype(np.float64))
        # the u64 length words read as finite f64s: only words from 0x7FF0 << 48
        # (9.2e18) up do not, and each one here is the size of a payload in the file
        section = np.frombuffer(self.raw[start : self.pos], dtype="<f8")
        if not np.isfinite(section).all():
            what = next(w for (w, _), a in zip(targets, arrays) if not np.isfinite(a).all())
            raise CorruptCheckpointError(f"{self.path}: {what} holds a NaN or infinite value")
        return arrays


def _header_value(path, block, key, where="header"):
    """block[key] from the decoded header; CorruptCheckpointError names what is wrong."""
    if not isinstance(block, dict):
        raise CorruptCheckpointError(f"{path}: {where} is not a JSON object")
    if key not in block:
        raise CorruptCheckpointError(f"{path}: {where} has no {key!r} field")
    return block[key]


def load_checkpoint(path, vocab, cats):
    """Rebuild model (and optimizer state, if saved) from a checkpoint."""
    with open(path, "rb") as f:
        raw = f.read()
    r = _Reader(raw, path)
    if r.take(4, "magic") != CHECKPOINT_MAGIC:
        raise CorruptCheckpointError(f"{path}: not a checkpoint file (bad magic)")
    (version,) = struct.unpack("<I", r.take(4, "version"))
    if version != CHECKPOINT_VERSION:
        raise VersionMismatchError(
            f"{path}: format version {version}, this build reads {CHECKPOINT_VERSION}"
        )
    (blob_len,) = struct.unpack("<I", r.take(4, "config length"))
    blob = r.take(blob_len, "config")
    try:
        header = json.loads(str(blob, "utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptCheckpointError(f"{path}: unreadable config block: {exc}") from exc

    model_cfg = _header_value(path, header, "model")
    try:
        config = ModelConfig(**model_cfg)
    except (TypeError, ValueError) as exc:
        raise CorruptCheckpointError(f'{path}: bad "model" block: {exc}') from exc
    # the sizes before the fingerprints, which a size mismatch fails as well
    for what, stored, loaded in [
        ("category count", config.num_categories, len(cats)),
        ("vocab size", config.vocab_size, len(vocab)),
        ("vocab fingerprint", _header_value(path, header, "vocab_sha256"), vocab.fingerprint()),
        ("category-set fingerprint", _header_value(path, header, "categories_sha256"),
         cats.fingerprint()),
    ]:
        if stored != loaded:
            raise ConfigMismatchError(
                f"checkpoint built for {what} {stored!s:.12}, the loaded files give {loaded!s:.12}"
            )

    # built only once the vocab and category counts match the files, and
    # with no weights drawn or allocated: the payloads give every array
    try:
        model = Model(config, None)
    except (MemoryError, ValueError) as exc:  # ValueError: a shape past numpy's maximum size
        raise CorruptCheckpointError(
            f'{path}: "model" block describes a model too large to allocate: {exc}'
        ) from exc
    named = model.parameters()
    if _manifest(named) != _header_value(path, header, "params"):
        raise CorruptCheckpointError(
            f"{path}: parameter manifest does not match the stored config"
        )
    for (_, tensor), arr in zip(named, r.tensors([(name, t.shape) for name, t in named])):
        tensor.data = arr

    adam_state = None
    opt = _header_value(path, header, "optimizer")
    if opt is not None:
        algo = _header_value(path, opt, "algo", '"optimizer" block')
        if algo != "adam":
            raise CorruptCheckpointError(f'{path}: "optimizer" block: unknown algo {algo!r}')
        values = {key: _header_value(path, opt, key, '"optimizer" block') for key in _ADAM_HEADER}
        try:
            adam_state = AdamState(**values)
        except ConfigError as exc:
            raise CorruptCheckpointError(f'{path}: bad "optimizer" block: {exc}') from exc
        moments = r.tensors([(f"adam {key}[{name}]", t.shape) for name, t in named for key in "mv"])
        for (name, _), m, v in zip(named, moments[::2], moments[1::2]):
            adam_state.m[name], adam_state.v[name] = m, v
    if r.pos != len(raw):
        raise CorruptCheckpointError(
            f"{path}: {len(raw) - r.pos} trailing bytes after the last tensor"
        )
    extra = header.get("extra", {})
    if not isinstance(extra, dict):
        raise CorruptCheckpointError(f'{path}: "extra" block is not a JSON object')
    if not isinstance(extra.get("run_config", {}), dict):
        raise CorruptCheckpointError(f'{path}: "extra.run_config" is not a JSON object')
    return LoadedCheckpoint(model, adam_state, extra)
