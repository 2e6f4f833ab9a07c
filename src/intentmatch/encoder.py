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


def _zeros(shape):
    t = ad.Tensor(np.zeros(shape), requires_grad=True)
    return t


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
        self.layers = []
        for i in range(config.encoder_layers):
            layer = {
                "w_q": ad.parameter(rng, (d, d), d),
                "w_k": ad.parameter(rng, (d, d), d),
                "w_v": ad.parameter(rng, (d, d), d),
                "w_o": ad.parameter(rng, (d, d), d),
                "ln1_g": ad.Tensor(np.ones(d), requires_grad=True),
                "ln1_b": _zeros(d),
                "ffn_w1": ad.parameter(rng, (d, ffn), d),
                "ffn_b1": _zeros(ffn),
                "ffn_w2": ad.parameter(rng, (ffn, d), ffn),
                "ffn_b2": _zeros(d),
                "ln2_g": ad.Tensor(np.ones(d), requires_grad=True),
                "ln2_b": _zeros(d),
            }
            for key, tensor in layer.items():
                self.add(f"layer{i}.{key}", tensor)
            self.layers.append(layer)


def _attention_block(x, layer, key_mask, num_heads):
    """Multi-head self-attention over [B, L, d], then the residual and layer norm."""
    attended = ad.attention(
        x, layer["w_q"], layer["w_k"], layer["w_v"], layer["w_o"], key_mask, num_heads
    )
    return ad.layer_norm(x + attended, layer["ln1_g"], layer["ln1_b"], LAYERNORM_EPS)


def _ffn_block(x, layer):
    out = ad.feed_forward(x, layer["ffn_w1"], layer["ffn_b1"], layer["ffn_w2"], layer["ffn_b2"])
    return ad.layer_norm(x + out, layer["ln2_g"], layer["ln2_b"], LAYERNORM_EPS)


def length_mask(lengths, length):
    """Boolean [..., length] mask: True at the first `lengths` positions of each row."""
    return np.arange(length) < np.asarray(lengths)[..., None]


def encode(ids, lengths, params):
    """Contextual embeddings [B, L, d] for a batch of B fixed-length id rows.

    ids is [B, L]; lengths holds each row's true (pre-padding) length.
    """
    vocab_size, max_len = params.tok_emb.shape[0], params.pos_emb.shape[0]
    ids = np.asarray(ids)
    if ids.ndim != 2:
        raise ConfigError(f"encode expects [batch, length] ids, got shape {ids.shape}")
    length = ids.shape[1]
    if length > max_len:
        raise ConfigError(f"sequence length {length} exceeds max_len {max_len}")
    if ids.min() < 0 or ids.max() >= vocab_size:
        bad = ids[(ids < 0) | (ids >= vocab_size)][0]
        raise VocabError(f"token id {bad} outside vocab of size {vocab_size}")
    x = ad.embedding(params.tok_emb, ids) + ad.embedding(params.pos_emb, np.arange(length))
    key_mask = length_mask(lengths, length)
    for layer in params.layers:
        x = _attention_block(x, layer, key_mask, params.num_heads)
        x = _ffn_block(x, layer)
    return x
