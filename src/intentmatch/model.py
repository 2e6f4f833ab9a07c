"""Multi-granularity query-category matching network.

Three views of one query are combined to score every category at once:

* self-matching: attention pooling of the query over its own tokens,
  giving a single query vector q;
* char-level matching: a bilinear token-by-token interaction map per
  query/category pair, each pushed through a shared conv/pool stack to
  fine-grained features Z1;
* semantic-level matching: mean-pooled category vectors cross-attend
  over query tokens, giving coarse-grained features Z2.

A fusion head mixes q, Z1 and Z2 into one logit per category; training
uses the summed per-label binary cross entropy in its stable logit form.
Ablation variants drop exactly one of the three views.

The model runs on a batch of queries: every activation carries a leading
batch axis, all query/category maps of a batch go through the conv/pool
stack as one stack of images, and a single query is the batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .encoder import EncoderParams, encode, length_mask
from .errors import ConfigError, check_minimums
from .textdata import TokenSequence, assemble_category_text

VARIANTS = ("full", "no_self", "no_char", "no_semantic")


@dataclass
class ModelConfig:
    vocab_size: int
    num_categories: int
    d: int = field(default=64, metadata={"help": "embedding width"})
    l_q: int = field(default=16, metadata={"help": "query length after pad/truncate"})
    l_c: int = field(default=32, metadata={"help": "category text length"})
    encoder_layers: int = 2
    encoder_heads: int = 4
    encoder_ffn: int = field(default=0, metadata={"help": "0 means 4*d"})
    conv_filters: int = 8
    conv_window: tuple = (3, 3)
    conv_stride: tuple = (1, 1)
    pool_window: tuple = (2, 2)
    pool_stride: tuple = (2, 2)
    conv_blocks: int = 2
    variant: str = field(default="full", metadata={"choices": VARIANTS})

    def __post_init__(self):
        self.conv_window = tuple(self.conv_window)
        self.conv_stride = tuple(self.conv_stride)
        self.pool_window = tuple(self.pool_window)
        self.pool_stride = tuple(self.pool_stride)
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if self.num_categories < 1:
            raise ConfigError("need at least one category")
        if self.vocab_size < 2:
            raise ConfigError("vocab must include at least PAD and UNK")
        check_minimums(self, dict(
            d=1, l_q=1, l_c=1, encoder_layers=0, encoder_heads=1, encoder_ffn=0,
            conv_filters=1, conv_blocks=1,
        ))
        for name in ("conv_window", "conv_stride", "pool_window", "pool_stride"):
            if min(getattr(self, name)) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.d % self.encoder_heads != 0:
            raise ConfigError(f"d={self.d} not divisible by encoder_heads={self.encoder_heads}")


def conv_stack_dims(config):
    """Spatial dims after each conv+pool block; raises if any collapses."""
    h, w = config.l_q, config.l_c
    kh, kw = config.conv_window
    sh, sw = config.conv_stride
    ph, pw = config.pool_window
    qh, qw = config.pool_stride
    dims = []
    for block in range(config.conv_blocks):
        if h < kh or w < kw:
            raise ConfigError(
                f"conv block {block + 1}: window {kh}x{kw} exceeds input {h}x{w}"
            )
        h = (h - kh) // sh + 1
        w = (w - kw) // sw + 1
        if h < ph or w < pw:
            raise ConfigError(
                f"pool in block {block + 1}: window {ph}x{pw} exceeds input {h}x{w}"
            )
        h = (h - ph) // qh + 1
        w = (w - pw) // qw + 1
        dims.append((h, w))
    return dims


def flat_dim(config):
    h, w = conv_stack_dims(config)[-1]
    return config.conv_filters * h * w


class SelfMatchParams:
    """Attention pooling weights: score each query token against itself."""

    def __init__(self, d, rng):
        self.w_q = ad.parameter(rng, (d, d), d)
        self.v = ad.parameter(rng, (1, d), d)

    def parameters(self):
        return [("w_q", self.w_q), ("v", self.v)]


class CharMatchParams:
    """Bilinear map plus the shared conv/pool stack and flat projection."""

    def __init__(self, config, rng):
        d = config.d
        f = config.conv_filters
        kh, kw = config.conv_window
        self.w_qc = ad.parameter(rng, (d, d), d)
        self.conv_kernels = []
        self.conv_biases = []
        in_ch = 1
        for _ in range(config.conv_blocks):
            self.conv_kernels.append(
                ad.parameter(rng, (f, in_ch, kh, kw), in_ch * kh * kw)
            )
            self.conv_biases.append(ad.Tensor(np.zeros(f), requires_grad=True))
            in_ch = f
        flat = flat_dim(config)
        self.projection = ad.parameter(rng, (flat, d), flat)

    def parameters(self):
        out = [("w_qc", self.w_qc)]
        for i, (k, b) in enumerate(zip(self.conv_kernels, self.conv_biases)):
            out.append((f"conv{i}_kernels", k))
            out.append((f"conv{i}_bias", b))
        out.append(("projection", self.projection))
        return out


class SemanticMatchParams:
    def __init__(self, d, rng):
        self.w_qs = ad.parameter(rng, (d, d), d)

    def parameters(self):
        return [("w_qs", self.w_qs)]


class FusionParams:
    """Final head: mix the pooled query with matching features.

    z_width is 2d for the full model, d when one matching branch is
    ablated away; w_qf is absent in the no_self variant.
    """

    def __init__(self, d, num_categories, variant, rng):
        n = num_categories
        self.variant = variant
        self.w_qf = None
        if variant != "no_self":
            self.w_qf = ad.parameter(rng, (d, n), d)
        z_width = 2 * d if variant in ("full", "no_self") else d
        self.w_z = ad.parameter(rng, (z_width, 1), z_width)
        # w_x starts at zero, not random: the head has no bias and ReLU is a
        # one-way gate, so a random mixer turns the early shrink-the-noise
        # gradient into a push that drives every pre-activation negative and
        # freezes the whole network. Zero w_x means zero logits at step one;
        # the mixer organizes against the (frozen) match features first and
        # only then feeds label-correlated gradient back through the gate.
        self.w_x = ad.Tensor(np.zeros((n, n)), requires_grad=True)

    def parameters(self):
        out = []
        if self.w_qf is not None:
            out.append(("w_qf", self.w_qf))
        out.append(("w_z", self.w_z))
        out.append(("w_x", self.w_x))
        return out


@dataclass
class MatchFeatures:
    """Matching views of a batch of B queries; a field is None in its ablation variant.

    Unbatched callers may drop the leading B axis from every field.
    """

    q: ad.Tensor | None  # [B, d]
    z1: ad.Tensor | None  # [B, num_categories, d]
    z2: ad.Tensor | None  # [B, num_categories, d]


@dataclass
class CategoryEncodings:
    """All category texts encoded at once, plus their pre-padding lengths."""

    tensors: ad.Tensor  # [num_categories, l_c, d]
    lengths: np.ndarray  # [num_categories]


def self_match(q_enc, params, true_length):
    """Pool query tokens into one vector by learned attention.

    q_enc is [..., L, d] with one true length per leading index. Scores are
    v . tanh(W_q Q^T); PAD positions are masked before the softmax, so alpha
    is exactly zero there and sums to one over the rest.
    Returns the pooled [..., d] and alpha [..., L].
    """
    *lead, length, d = q_enc.shape
    scores = params.v @ ad.tanh(params.w_q @ ad.transpose(q_enc))  # [..., 1, L]
    mask = length_mask(true_length, length)[..., None, :]
    alpha = ad.softmax(scores, axis=-1, mask=mask)
    pooled = alpha @ q_enc
    return ad.reshape(pooled, (*lead, d)), ad.reshape(alpha, (*lead, length))


def char_interaction(q_enc, c_enc, params):
    """Bilinear token-by-token relevance maps Q W_qc C^T.

    Leading axes broadcast: [B, 1, Lq, d] queries against [N, Lc, d]
    categories give all [B, N, Lq, Lc] maps in one product.
    """
    return (q_enc @ params.w_qc) @ ad.transpose(c_enc)


def char_match(m, params, config):
    """Conv/pool interaction maps [..., Lq, Lc], project to one [..., d] row each.

    Every leading index rides the conv batch dimension, so all queries and
    categories share the same filters and projection. Each block is
    conv, ReLU, max-pool; ReLU runs after the pool, on the smaller map,
    which gives the same values and gradients because max and ReLU commute.
    """
    *lead, h, w = m.shape
    x = ad.reshape(m, (-1, 1, h, w))
    for kernels, bias in zip(params.conv_kernels, params.conv_biases):
        x = ad.conv2d(x, kernels, bias, stride=config.conv_stride)
        x = ad.relu(ad.maxpool2d(x, config.pool_window, config.pool_stride))
    return ad.reshape(x, (*lead, flat_dim(config))) @ params.projection


def semantic_match(q_enc, cat_tensors, params, true_length, cat_lengths):
    """Cross-attention of mean-pooled category vectors over query tokens.

    q_enc is [..., Lq, d] with its true lengths; cat_tensors is [N, Lc, d].
    The mean over each category's first cat_lengths[j] rows is one masked
    matmul. Returns [..., N, d].
    """
    n, lc, _ = cat_tensors.shape
    lens = np.asarray(cat_lengths)
    weights = length_mask(lens, lc) / lens[:, None]
    c_mat = ad.reshape(ad.as_tensor(weights[:, None, :]) @ cat_tensors, (n, -1))
    scores = (c_mat @ params.w_qs) @ ad.transpose(q_enc)  # [..., N, Lq]
    mask = length_mask(true_length, q_enc.shape[-2])[..., None, :]
    attn = ad.softmax(scores, axis=-1, mask=mask)
    return attn @ q_enc


def fuse_and_score(features, params):
    """One logit per category from whichever views the variant keeps.

    Features carry an optional leading batch axis; logits come back as
    [B, num_categories], or [num_categories] for unbatched features.
    """
    parts = [z for z in (features.z1, features.z2) if z is not None]
    z_cat = parts[0] if len(parts) == 1 else ad.concat(parts, axis=-1)
    rows = z_cat.shape[:-1]  # (..., num_categories)
    pre = ad.reshape(z_cat @ params.w_z, (-1, rows[-1]))
    if params.w_qf is not None:
        d = features.q.shape[-1]
        pre = ad.reshape(features.q, (-1, d)) @ params.w_qf + pre
    logits = ad.relu(pre) @ params.w_x
    return ad.reshape(logits, rows)


def multilabel_loss(logits, labels):
    """Summed per-label binary cross entropy on raw logits.

    Uses softplus(z) - z*y, identical to -[y log sigmoid(z) +
    (1-y) log(1 - sigmoid(z))] but finite for any logit magnitude.
    """
    y = ad.as_tensor(np.asarray(labels, dtype=np.float64))
    return ad.reduce_sum(ad.softplus(logits) - logits * y)


class Model:
    """Bundles every trainable tensor with the forward composition."""

    def __init__(self, config, rng):
        self.config = config
        flat_dim(config)  # validate conv arithmetic before allocating
        self.encoder = EncoderParams(config, rng)
        self.self_params = None
        self.char_params = None
        self.semantic_params = None
        if config.variant != "no_self":
            self.self_params = SelfMatchParams(config.d, rng)
        if config.variant != "no_char":
            self.char_params = CharMatchParams(config, rng)
        if config.variant != "no_semantic":
            self.semantic_params = SemanticMatchParams(config.d, rng)
        self.fusion = FusionParams(config.d, config.num_categories, config.variant, rng)

    def parameters(self):
        """All trainable tensors as (name, tensor), declaration order."""
        out = [(f"encoder.{n}", t) for n, t in self.encoder.parameters()]
        for prefix, group in (
            ("self_match", self.self_params),
            ("char_match", self.char_params),
            ("semantic_match", self.semantic_params),
            ("fusion", self.fusion),
        ):
            if group is not None:
                out.extend((f"{prefix}.{n}", t) for n, t in group.parameters())
        return out

    def num_parameters(self):
        return sum(t.size for _, t in self.parameters())

    def encode_categories(self, cats):
        """Encode every category text in one batched `encode` call."""
        if len(cats) != self.config.num_categories:
            raise ConfigError(
                f"category set has {len(cats)} entries, model expects "
                f"{self.config.num_categories}"
            )
        seqs = [assemble_category_text(rec, self.config.l_c) for rec in cats]
        ids, lengths = _stack_sequences(seqs)
        return CategoryEncodings(encode(ids, lengths, self.encoder), lengths)

    def forward(self, query, cat_encodings):
        """Logits for tokenized queries against encoded categories.

        `query` is one TokenSequence, giving [num_categories] logits, or a
        list of B of them, giving [B, num_categories]. A single query runs
        as the batch of one.
        """
        cfg = self.config
        single = isinstance(query, TokenSequence)
        queries = [query] if single else query
        for seq in queries:
            if len(seq.ids) != cfg.l_q:
                raise ConfigError(f"query length {len(seq.ids)} != configured l_q {cfg.l_q}")
        ids, lengths = _stack_sequences(queries)
        q_enc = encode(ids, lengths, self.encoder)  # [B, Lq, d]
        q = z1 = z2 = None
        if self.self_params is not None:
            q, _ = self_match(q_enc, self.self_params, lengths)
        if self.char_params is not None:
            b, lq, d = q_enc.shape
            maps = char_interaction(
                ad.reshape(q_enc, (b, 1, lq, d)), cat_encodings.tensors, self.char_params
            )
            z1 = char_match(maps, self.char_params, cfg)
        if self.semantic_params is not None:
            z2 = semantic_match(
                q_enc,
                cat_encodings.tensors,
                self.semantic_params,
                lengths,
                cat_encodings.lengths,
            )
        logits = fuse_and_score(MatchFeatures(q, z1, z2), self.fusion)
        return ad.reshape(logits, (logits.shape[1],)) if single else logits

    def forward_with_categories(self, query, cats):
        return self.forward(query, self.encode_categories(cats))


def _stack_sequences(seqs):
    """[B, L] ids and [B] true lengths from B equal-length token sequences."""
    ids = np.stack([s.ids for s in seqs])
    return ids, np.array([s.true_length for s in seqs])
