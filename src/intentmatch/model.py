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
batch axis, the query/category maps of a batch go through the conv/pool
stack in tiles of at most MAP_TILE images, and a single query is the batch
of one. The maps cover only the query and category positions that the
stack's output reads (`receptive_extent`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .encoder import EncoderParams, encode, length_mask
from .errors import ConfigError, check_fields
from .textdata import pad_batch

VARIANTS = ("full", "no_self", "no_char", "no_semantic")

# Interaction maps per pass through the conv/pool stack: few enough that a
# tile's window columns, pooled conv output and ReLU stay in cache.
MAP_TILE = 128

_PAIRS = ("conv_window", "conv_stride", "pool_window", "pool_stride")


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
    conv_window: tuple[int, int] = (3, 3)
    conv_stride: tuple[int, int] = (1, 1)
    pool_window: tuple[int, int] = (2, 2)
    pool_stride: tuple[int, int] = (2, 2)
    conv_blocks: int = 2
    variant: str = field(default="full", metadata={"choices": VARIANTS})

    def __post_init__(self):
        for name in _PAIRS:
            if isinstance(getattr(self, name), list):  # JSON has no tuples
                setattr(self, name, tuple(getattr(self, name)))
        check_fields(self, dict(
            num_categories=1, d=1, l_q=1, l_c=1, encoder_layers=0, encoder_heads=1,
            encoder_ffn=0, conv_filters=1, conv_blocks=1, **dict.fromkeys(_PAIRS, 1),
        ))
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if self.vocab_size < 2:
            raise ConfigError("vocab must include at least PAD and UNK")
        if self.d % self.encoder_heads != 0:
            raise ConfigError(f"d={self.d} not divisible by encoder_heads={self.encoder_heads}")


def conv_stack_dims(config):
    """Spatial dims after each conv+pool block; raises if any collapses."""
    dims, size = [], (config.l_q, config.l_c)
    for block in range(1, config.conv_blocks + 1):
        try:
            size = ad.window_grid(size, config.conv_window, config.conv_stride)
            size = ad.window_grid(size, config.pool_window, config.pool_stride)
        except ad.DimensionError as exc:
            raise ConfigError(f"conv/pool block {block}: {exc}") from None
        dims.append(size)
    return dims


def receptive_extent(config):
    """(rows, cols) of the interaction map that the conv/pool stack's output reads.

    Valid convs and dropped partial pool windows leave the trailing rows and
    columns of a map unread; walking the stack back from its output with
    `ad.window_extent` finds the part that is read, (14, 30) of a 16x32 map
    at the defaults.
    """
    size = conv_stack_dims(config)[-1]
    for _ in range(config.conv_blocks):
        size = ad.window_extent(size, config.pool_window, config.pool_stride)
        size = ad.window_extent(size, config.conv_window, config.conv_stride)
    return size


def flat_dim(config):
    h, w = conv_stack_dims(config)[-1]
    return config.conv_filters * h * w


class SelfMatchParams(ad.Params):
    """Attention pooling weights: score each query token against itself."""

    def __init__(self, d, rng):
        super().__init__()
        self.w_q = self.add("w_q", ad.parameter(rng, (d, d), d))
        self.v = self.add("v", ad.parameter(rng, (1, d), d))


class CharMatchParams(ad.Params):
    """Bilinear map plus the shared conv/pool stack and flat projection."""

    def __init__(self, config, rng):
        super().__init__()
        d = config.d
        f = config.conv_filters
        kh, kw = config.conv_window
        self.w_qc = self.add("w_qc", ad.parameter(rng, (d, d), d))
        self.conv_kernels = []
        self.conv_biases = []
        in_ch = 1
        for i in range(config.conv_blocks):
            kernels = ad.parameter(rng, (f, in_ch, kh, kw), in_ch * kh * kw)
            self.conv_kernels.append(self.add(f"conv{i}_kernels", kernels))
            bias = ad.Tensor(np.zeros(f), requires_grad=True)
            self.conv_biases.append(self.add(f"conv{i}_bias", bias))
            in_ch = f
        flat = flat_dim(config)
        self.projection = self.add("projection", ad.parameter(rng, (flat, d), flat))


class SemanticMatchParams(ad.Params):
    def __init__(self, d, rng):
        super().__init__()
        self.w_qs = self.add("w_qs", ad.parameter(rng, (d, d), d))


class FusionParams(ad.Params):
    """Final head: mix the pooled query with matching features.

    z_width is 2d for the full model, d when one matching branch is
    ablated away; w_qf is absent in the no_self variant.
    """

    def __init__(self, d, num_categories, variant, rng):
        super().__init__()
        n = num_categories
        self.w_qf = None
        if variant != "no_self":
            self.w_qf = self.add("w_qf", ad.parameter(rng, (d, n), d))
        z_width = 2 * d if variant in ("full", "no_self") else d
        self.w_z = self.add("w_z", ad.parameter(rng, (z_width, 1), z_width))
        # w_x starts at zero, not random: the head has no bias and ReLU is a
        # one-way gate, so a random mixer turns the early shrink-the-noise
        # gradient into a push that drives every pre-activation negative and
        # freezes the whole network. Zero w_x means zero logits at step one;
        # the mixer organizes against the (frozen) match features first and
        # only then feeds label-correlated gradient back through the gate.
        self.w_x = self.add("w_x", ad.Tensor(np.zeros((n, n)), requires_grad=True))


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
    categories share the same filters and projection. The maps go through
    the stack in tiles of MAP_TILE; the tiles' features are concatenated,
    which is their one copy, and projected once as [..., flat] rows. Each
    block is conv, max-pool, ReLU, with the pool inside `ad.conv2d`; ReLU
    runs after the pool, on the smaller map, which gives the same values
    and gradients because max and ReLU commute.
    """
    *lead, h, w = m.shape
    maps = ad.reshape(m, (-1, 1, h, w))
    pool = (config.pool_window, config.pool_stride)
    tiles = []
    for lo in range(0, maps.shape[0], MAP_TILE):
        x = ad.slice_rows(maps, lo, lo + MAP_TILE)
        for kernels, bias in zip(params.conv_kernels, params.conv_biases):
            x = ad.relu(ad.conv2d(x, kernels, bias, stride=config.conv_stride, pool=pool))
        tiles.append(x)
    feats = ad.concat(tiles, axis=0)  # [maps, filters, h', w']
    return ad.reshape(feats, (*lead, -1)) @ params.projection


def semantic_match(q_enc, cat_tensors, params, true_length, cat_lengths):
    """Cross-attention of mean-pooled category vectors over query tokens.

    q_enc is [..., Lq, d] with its true lengths; cat_tensors is [N, Lc, d].
    The mean over each category's first cat_lengths[j] rows is one masked
    matmul. Returns [..., N, d].
    """
    n, lc, _ = cat_tensors.shape
    lens = np.asarray(cat_lengths)
    weights = length_mask(lens, lc) / lens[:, None]
    c_mat = ad.reshape(ad.Tensor(weights[:, None, :]) @ cat_tensors, (n, -1))
    scores = (c_mat @ params.w_qs) @ ad.transpose(q_enc)  # [..., N, Lq]
    mask = length_mask(true_length, q_enc.shape[-2])[..., None, :]
    attn = ad.softmax(scores, axis=-1, mask=mask)
    return attn @ q_enc


def fuse_and_score(q, z1, z2, params):
    """One logit per category from whichever views the variant keeps.

    q is [B, d], z1 and z2 are [B, num_categories, d], and a view is None in
    its ablation variant; logits are [B, num_categories], or [num_categories]
    for views without the batch axis.
    """
    parts = [z for z in (z1, z2) if z is not None]
    z_cat = parts[0] if len(parts) == 1 else ad.concat(parts, axis=-1)
    rows = z_cat.shape[:-1]  # (..., num_categories)
    pre = ad.reshape(z_cat @ params.w_z, (-1, rows[-1]))
    if params.w_qf is not None:
        pre = ad.reshape(q, (-1, q.shape[-1])) @ params.w_qf + pre
    logits = ad.relu(pre) @ params.w_x
    return ad.reshape(logits, rows)


def multilabel_loss(logits, labels):
    """Each query's binary cross entropy summed over the categories, averaged over the queries."""
    return ad.sigmoid_cross_entropy(logits, labels)


class Model(ad.Params):
    """Bundles every trainable tensor with the forward composition."""

    def __init__(self, config, rng):
        super().__init__()
        self.config = config
        flat_dim(config)  # validate conv arithmetic before allocating
        self.encoder = self.add("encoder", EncoderParams(config, rng))
        self.self_params = self.char_params = self.semantic_params = None
        if config.variant != "no_self":
            self.self_params = self.add("self_match", SelfMatchParams(config.d, rng))
        if config.variant != "no_char":
            self.char_params = self.add("char_match", CharMatchParams(config, rng))
        if config.variant != "no_semantic":
            self.semantic_params = self.add("semantic_match", SemanticMatchParams(config.d, rng))
        fusion = FusionParams(config.d, config.num_categories, config.variant, rng)
        self.fusion = self.add("fusion", fusion)

    def encode_categories(self, cats):
        """Encode every category text in one batched `encode` call."""
        if len(cats) != self.config.num_categories:
            raise ConfigError(
                f"category set has {len(cats)} entries, model expects "
                f"{self.config.num_categories}"
            )
        ids, lengths = pad_batch([rec.ids for rec in cats], self.config.l_c)
        return CategoryEncodings(encode(ids, lengths, self.encoder), lengths)

    def forward(self, query, cat_encodings):
        """Logits for tokenized queries against encoded categories.

        `query` is one 1-D id array, giving [num_categories] logits, or a
        list of B of them, giving [B, num_categories]. `pad_batch` cuts or
        pads each to l_q ids, and a single query runs as the batch of one.
        """
        cfg = self.config
        single = isinstance(query, np.ndarray) and query.ndim == 1
        ids, lengths = pad_batch([query] if single else query, cfg.l_q)
        q_enc = encode(ids, lengths, self.encoder)  # [B, Lq, d]
        q = z1 = z2 = None
        if self.self_params is not None:
            q, _ = self_match(q_enc, self.self_params, lengths)
        if self.char_params is not None:
            # only the tokens whose interactions the conv/pool stack reads
            rows, cols = receptive_extent(cfg)
            q_cut = ad.slice_rows(q_enc, 0, rows, axis=1)
            c_cut = ad.slice_rows(cat_encodings.tensors, 0, cols, axis=1)
            b, _, d = q_enc.shape
            maps = char_interaction(ad.reshape(q_cut, (b, 1, rows, d)), c_cut, self.char_params)
            z1 = char_match(maps, self.char_params, cfg)
        if self.semantic_params is not None:
            z2 = semantic_match(
                q_enc,
                cat_encodings.tensors,
                self.semantic_params,
                lengths,
                cat_encodings.lengths,
            )
        logits = fuse_and_score(q, z1, z2, self.fusion)
        return ad.reshape(logits, (logits.shape[1],)) if single else logits
