"""Multi-granularity query-category matching network.

Three views of one query are combined to score every category at once:

* self-matching: attention pooling of the query over its own tokens,
  giving a single query vector q;
* char-level matching: a bilinear token-by-token interaction map per
  category, stacked into a category-channel image and pushed through a
  shared conv/pool stack to fine-grained features Z1;
* semantic-level matching: mean-pooled category vectors cross-attend
  over query tokens, giving coarse-grained features Z2.

A fusion head mixes q, Z1 and Z2 into one logit per category; training
uses the summed per-label binary cross entropy in its stable logit form.
Ablation variants drop exactly one of the three views.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .encoder import EncoderConfig, EncoderParams, encode
from .errors import ConfigError
from .textdata import assemble_category_text

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

    def encoder_config(self):
        return EncoderConfig(
            vocab_size=self.vocab_size,
            d=self.d,
            num_layers=self.encoder_layers,
            num_heads=self.encoder_heads,
            ffn_width=self.encoder_ffn,
            max_len=max(self.l_q, self.l_c),
        )


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
    """Per-query matching views; a field is None in its ablation variant."""

    q: ad.Tensor | None  # [d]
    z1: ad.Tensor | None  # [num_categories x d]
    z2: ad.Tensor | None  # [num_categories x d]


@dataclass
class CategoryEncodings:
    """Encoded category texts plus their pre-padding lengths."""

    tensors: list
    lengths: list


def self_match(q_enc, params, true_length):
    """Pool query tokens into one vector by learned attention.

    Scores are v . tanh(W_q Q^T); PAD positions are masked before the
    softmax, so alpha is exactly zero there and sums to one over the rest.
    """
    scores = params.v @ ad.tanh(params.w_q @ ad.transpose(q_enc))
    mask = np.zeros((1, q_enc.shape[0]))
    mask[0, :true_length] = 1.0
    alpha = ad.softmax(scores, axis=1, mask=mask)
    pooled = alpha @ q_enc
    d = q_enc.shape[1]
    return ad.reshape(pooled, (d,)), ad.reshape(alpha, (q_enc.shape[0],))


def char_interaction(q_enc, c_enc, params):
    """Bilinear token-by-token relevance map Q W_qc C^T."""
    return (q_enc @ params.w_qc) @ ad.transpose(c_enc)


def char_match(m, params, config):
    """Conv/pool the stacked interaction maps, project to one row per category.

    The category axis rides the batch dimension, so every category shares
    the same filters and projection.
    """
    n = m.shape[0]
    x = ad.reshape(m, (n, 1, m.shape[1], m.shape[2]))
    for kernels, bias in zip(params.conv_kernels, params.conv_biases):
        x = ad.relu(ad.conv2d(x, kernels, bias, stride=config.conv_stride))
        x = ad.maxpool2d(x, config.pool_window, config.pool_stride)
    return ad.reshape(x, (n, flat_dim(config))) @ params.projection


def semantic_match(q_enc, cat_tensors, params, true_length, cat_lengths=None):
    """Cross-attention of mean-pooled category vectors over query tokens."""
    rows = []
    for j, c_enc in enumerate(cat_tensors):
        tl = c_enc.shape[0] if cat_lengths is None else cat_lengths[j]
        rows.append(ad.reduce_mean(c_enc[:tl], axis=0))
    c_mat = ad.stack(rows, axis=0)
    scores = (c_mat @ params.w_qs) @ ad.transpose(q_enc)
    mask = np.zeros((1, q_enc.shape[0]))
    mask[0, :true_length] = 1.0
    attn = ad.softmax(scores, axis=1, mask=mask)
    return attn @ q_enc


def fuse_and_score(features, params):
    """One logit per category from whichever views the variant keeps."""
    parts = [z for z in (features.z1, features.z2) if z is not None]
    z_cat = parts[0] if len(parts) == 1 else ad.concat(parts, axis=1)
    pre = ad.transpose(z_cat @ params.w_z)  # [1 x num_categories]
    if params.w_qf is not None:
        d = features.q.shape[0]
        pre = ad.reshape(features.q, (1, d)) @ params.w_qf + pre
    h = ad.relu(pre)
    logits = h @ params.w_x
    return ad.reshape(logits, (logits.shape[1],))


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
        self.encoder = EncoderParams(config.encoder_config(), rng)
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
        if len(cats) != self.config.num_categories:
            raise ConfigError(
                f"category set has {len(cats)} entries, model expects "
                f"{self.config.num_categories}"
            )
        tensors, lengths = [], []
        for rec in cats:
            seq = assemble_category_text(rec, self.config.l_c)
            tensors.append(encode(seq, self.encoder))
            lengths.append(seq.true_length)
        return CategoryEncodings(tensors, lengths)

    def forward(self, query, cat_encodings):
        """Logits [num_categories] for one tokenized query."""
        cfg = self.config
        if len(query.ids) != cfg.l_q:
            raise ConfigError(f"query length {len(query.ids)} != configured l_q {cfg.l_q}")
        q_enc = encode(query, self.encoder)
        tl = query.true_length
        q = alpha = z1 = z2 = None
        if self.self_params is not None:
            q, alpha = self_match(q_enc, self.self_params, tl)
        if self.char_params is not None:
            maps = [
                char_interaction(q_enc, c_enc, self.char_params)
                for c_enc in cat_encodings.tensors
            ]
            z1 = char_match(ad.stack(maps, axis=0), self.char_params, cfg)
        if self.semantic_params is not None:
            z2 = semantic_match(
                q_enc,
                cat_encodings.tensors,
                self.semantic_params,
                tl,
                cat_encodings.lengths,
            )
        return fuse_and_score(MatchFeatures(q, z1, z2), self.fusion)

    def forward_with_categories(self, query, cats):
        return self.forward(query, self.encode_categories(cats))
