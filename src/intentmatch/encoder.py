"""Shared token encoder.

Queries and category texts run through one and the same parameter set, so
both land in a single semantic space: a token+position embedding followed
by a small stack of masked multi-head self-attention and feed-forward
blocks, each with a residual connection and post-residual layer
normalization.  No classification token is prepended; the output is one
contextual vector per input position.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, VocabError

LAYERNORM_EPS = 1e-5


class EncoderLayer(ad.Params):
    """One post-norm layer: attention, then feed-forward, each with residual and layer norm."""

    def __init__(self, d, ffn, rng):
        super().__init__()
        self.w_q = self.add("w_q", ad.parameter(rng, (d, d), d))
        self.w_k = self.add("w_k", ad.parameter(rng, (d, d), d))
        self.w_v = self.add("w_v", ad.parameter(rng, (d, d), d))
        self.w_o = self.add("w_o", ad.parameter(rng, (d, d), d))
        self.ln1_g = self.add("ln1_g", ad.parameter(rng, (d,), fill=1.0))
        self.ln1_b = self.add("ln1_b", ad.parameter(rng, (d,)))
        self.ffn_w1 = self.add("ffn_w1", ad.parameter(rng, (d, ffn), d))
        self.ffn_b1 = self.add("ffn_b1", ad.parameter(rng, (ffn,)))
        self.ffn_w2 = self.add("ffn_w2", ad.parameter(rng, (ffn, d), ffn))
        self.ffn_b2 = self.add("ffn_b2", ad.parameter(rng, (d,)))
        self.ln2_g = self.add("ln2_g", ad.parameter(rng, (d,), fill=1.0))
        self.ln2_b = self.add("ln2_b", ad.parameter(rng, (d,)))


class EncoderParams(ad.Params):
    """All encoder weights, registered in a fixed declaration order."""

    def __init__(self, config, rng):
        """Weights for a ModelConfig: max(l_q, l_c) positions, FFN width encoder_ffn or 4*d."""
        super().__init__()
        d = config.d
        ffn = config.encoder_ffn or 4 * d
        self.num_heads = config.encoder_heads
        self.tok_emb = self.add("tok_emb", ad.parameter(rng, (config.vocab_size, d), d))
        self.pos_emb = self.add("pos_emb", ad.parameter(rng, (max(config.l_q, config.l_c), d), d))
        self.layers = [
            self.add(f"layer{i}", EncoderLayer(d, ffn, rng)) for i in range(config.encoder_layers)
        ]


def encode(ids, lengths, params):
    """Contextual embeddings [B, L, d] for a batch of B fixed-length id rows.

    ids is [B, L]; lengths holds each row's true (pre-padding) length.
    """
    vocab_size, max_len = params.tok_emb.shape[0], params.pos_emb.shape[0]
    ids = np.asarray(ids)
    if ids.ndim != 2:
        raise ConfigError(f"encode expects [batch, length] ids, got shape {ids.shape}")
    if np.shape(lengths) != ids.shape[:1]:
        raise ConfigError(f"encode expects {ids.shape[0]} lengths, got shape {np.shape(lengths)}")
    length = ids.shape[1]
    if length > max_len:
        raise ConfigError(f"sequence length {length} exceeds max_len {max_len}")
    if ids.min() < 0 or ids.max() >= vocab_size:
        bad = ids[(ids < 0) | (ids >= vocab_size)][0]
        raise VocabError(f"token id {bad} outside vocab of size {vocab_size}")
    x = ad.embedding(params.tok_emb, ids) + ad.embedding(params.pos_emb, np.arange(length))
    for layer in params.layers:
        attended = ad.attention(
            x, layer.w_q, layer.w_k, layer.w_v, layer.w_o, lengths, params.num_heads
        )
        x = ad.layer_norm(x + attended, layer.ln1_g, layer.ln1_b, LAYERNORM_EPS)
        out = ad.feed_forward(x, layer.ffn_w1, layer.ffn_b1, layer.ffn_w2, layer.ffn_b2)
        x = ad.layer_norm(x + out, layer.ln2_g, layer.ln2_b, LAYERNORM_EPS)
    return x
