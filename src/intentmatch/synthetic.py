"""Synthetic labeled-query generator.

Stands in for click-log data: every category owns a disjoint set of core
characters, queries are mostly drawn from their category's core set (plus
optional noise characters that belong to no category), category sizes
follow a power law to emulate long-tail traffic, and a configurable
fraction of queries carries two labels.  Everything is a pure function of
the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, check_fields
from .textdata import (
    CategorySet,
    LabeledQuery,
    Vocab,
    make_category_record,
    tokenize,
)

# character pool: latin letters, digits, then CJK ideographs
_BASE_POOL = [chr(c) for c in range(ord("a"), ord("z") + 1)] + [
    chr(c) for c in range(ord("0"), ord("9") + 1)
]
_CJK_FIRST = 0x4E00
# the pool must stop short of the surrogates at U+D800, which UTF-8 cannot encode
MAX_VOCAB_SIZE = len(_BASE_POOL) + 0xD800 - _CJK_FIRST


def _char_pool(size):
    pool = list(_BASE_POOL)
    cp = _CJK_FIRST
    while len(pool) < size:
        pool.append(chr(cp))
        cp += 1
    return pool[:size]


# characters owned by each category (fewer when the vocab is too small)
CORE_TOKENS_PER_CATEGORY = 4


@dataclass
class SyntheticConfig:
    num_categories: int = field(default=8, metadata={"flag": "--categories"})
    vocab_size: int = 48
    queries_per_category: int = 300
    tail_exponent: float = 0.5
    seed: int = 42
    multi_label_fraction: float = 0.15
    noise: float = 0.05
    test_fraction: float = 1.0 / 6.0
    query_len_min: int = 4
    query_len_max: int = 10

    RANGES = dict(
        num_categories="[2, inf)",
        vocab_size=f"[4, {MAX_VOCAB_SIZE}]",  # two core tokens for each of two categories
        queries_per_category="[1, inf)", seed="[0, inf)", multi_label_fraction="[0, 1]",
        noise="[0, 1]", test_fraction="[0, 1]", query_len_min="[1, inf)",
    )

    def __post_init__(self):
        check_fields(self, self.RANGES)
        if min(CORE_TOKENS_PER_CATEGORY, self.vocab_size // self.num_categories) < 2:
            raise ConfigError(
                f"vocab of {self.vocab_size} cannot give {self.num_categories} categories "
                f">= 2 disjoint core tokens each"
            )
        if self.query_len_max < self.query_len_min:
            raise ConfigError(
                f"query_len_max {self.query_len_max} is below query_len_min {self.query_len_min}"
            )
        try:
            with np.errstate(over="ignore"):
                total = _category_weights(self).sum()
        except OverflowError:
            total = math.inf
        if math.isinf(total):
            raise ConfigError(f"tail_exponent {self.tail_exponent} overflows the category weights")


@dataclass
class SyntheticDataset:
    vocab: Vocab
    categories: CategorySet
    train: list[LabeledQuery]
    test: list[LabeledQuery]


def _category_weights(cfg):
    """Power-law weight (r + 1) ** -tail_exponent of category rank r; may raise OverflowError."""
    return np.array([(r + 1.0) ** -cfg.tail_exponent for r in range(cfg.num_categories)])


def _category_counts(cfg):
    """Power-law category sizes via largest-remainder rounding."""
    total = cfg.num_categories * cfg.queries_per_category
    weights = _category_weights(cfg)
    exact = weights / weights.sum() * total
    counts = np.floor(exact).astype(int)
    remainder = exact - counts
    for i in np.argsort(-remainder)[: total - counts.sum()]:
        counts[i] += 1
    return counts


def generate_synthetic(cfg):
    """Build (vocab, categories, train, test) deterministically from cfg."""
    core_size = min(CORE_TOKENS_PER_CATEGORY, cfg.vocab_size // cfg.num_categories)
    rng = np.random.default_rng(cfg.seed)
    pool = _char_pool(cfg.vocab_size)
    vocab = Vocab(pool)

    order = rng.permutation(cfg.vocab_size)
    cores = [
        [pool[order[c * core_size + k]] for k in range(core_size)]
        for c in range(cfg.num_categories)
    ]
    noise_pool = [pool[i] for i in order[cfg.num_categories * core_size :]]

    records = []
    for cid, core in enumerate(cores):
        name = "".join(core[:3])
        words = ["".join(core[i : i + 2]) for i in range(3, len(core), 2)]
        records.append(make_category_record(vocab, cid, name, words))
    categories = CategorySet(records)

    counts = _category_counts(cfg)
    queries = []
    for cid, n in enumerate(counts):
        for _ in range(n):
            length = int(rng.integers(cfg.query_len_min, cfg.query_len_max + 1))
            labels = np.zeros(cfg.num_categories)
            labels[cid] = 1.0
            second = None
            if cfg.multi_label_fraction > 0 and rng.random() < cfg.multi_label_fraction:
                second = int(rng.integers(cfg.num_categories - 1))
                if second >= cid:
                    second += 1
                labels[second] = 1.0
            chars = []
            split = (length + 1) // 2
            for pos in range(length):
                if noise_pool and rng.random() < cfg.noise:
                    chars.append(noise_pool[rng.integers(len(noise_pool))])
                    continue
                source = cores[cid] if (second is None or pos < split) else cores[second]
                chars.append(source[rng.integers(len(source))])
            text = "".join(chars)
            queries.append(LabeledQuery(tokenize(text, vocab), labels, text))

    perm = rng.permutation(len(queries))
    n_test = int(round(len(queries) * cfg.test_fraction))
    test = [queries[i] for i in perm[:n_test]]
    train = [queries[i] for i in perm[n_test:]]
    return SyntheticDataset(vocab, categories, train, test)
