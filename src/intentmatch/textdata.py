"""Tokenization, vocabulary, dataset file formats and label filtering.

Tokenization is character level throughout: queries and category texts are
split into single characters, so literal overlap between a query and a
category surfaces directly in the char-level interaction maps.

File formats (UTF-8, LF line endings):

* train/test:  ``<query>\\t<id[,id...]>``, one labeled query per line;
* categories:  ``<id>\\t<name>\\t<word word ...>``;
* vocab:       one token per line, id = line number - 1 + 2
  (ids 0 and 1 are reserved for PAD and UNK and never appear in the file).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataFormatError

PAD_ID = 0
UNK_ID = 1
NUM_RESERVED = 2


class Vocab:
    """Token <-> id map with reserved PAD=0 and UNK=1."""

    def __init__(self, tokens):
        self.id_to_token = ["<pad>", "<unk>"] + list(tokens)
        self.token_to_id = {}
        for i, tok in enumerate(self.id_to_token[NUM_RESERVED:], start=NUM_RESERVED):
            if tok in self.token_to_id:
                raise DataFormatError(f"duplicate vocab token {tok!r}")
            self.token_to_id[tok] = i

    def __len__(self):
        return len(self.id_to_token)

    def id_of(self, token):
        return self.token_to_id.get(token, UNK_ID)

    @property
    def tokens(self):
        """Non-reserved tokens in id order."""
        return self.id_to_token[NUM_RESERVED:]

    def fingerprint(self):
        payload = "\n".join(self.tokens).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()


@dataclass
class TokenSequence:
    """Fixed-length id sequence; positions >= true_length are PAD."""

    ids: np.ndarray
    true_length: int

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64)


@dataclass
class CategoryRecord:
    """One category: display strings plus their char-level token ids."""

    category_id: int
    name: str
    product_words: list[str]
    name_tokens: list[int]
    product_word_tokens: list[int]


class CategorySet:
    """Ordered, immutable label space; category_id equals list position."""

    def __init__(self, records):
        self.records = list(records)
        for pos, rec in enumerate(self.records):
            if rec.category_id != pos:
                raise DataFormatError(
                    f"category id {rec.category_id} at position {pos}; ids must be 0..n-1 in order"
                )
            if not rec.name_tokens:
                raise DataFormatError(f"category {rec.category_id} has an empty name")

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, i):
        return self.records[i]

    def fingerprint(self):
        return hashlib.sha256(serialize_categories(self).encode("utf-8")).hexdigest()


@dataclass
class LabeledQuery:
    query: TokenSequence
    labels: np.ndarray  # binary vector over the category set
    text: str = ""

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.float64)


def tokenize(text, vocab, l_max):
    """Char-level tokenize, pad/truncate to exactly l_max ids.

    An empty string becomes a single UNK token so downstream attention
    always has at least one valid position.
    """
    if l_max < 1:
        raise ConfigError(f"l_max must be >= 1, got {l_max}")
    ids = [vocab.id_of(ch) for ch in text]
    if not ids:
        ids = [UNK_ID]
    true_length = min(len(ids), l_max)
    ids = ids[:l_max] + [PAD_ID] * (l_max - len(ids))
    return TokenSequence(np.array(ids[:l_max], dtype=np.int64), true_length)


def assemble_category_text(rec, l_max):
    """Category token sequence: name ids, then product-word ids, padded.

    Truncation keeps the front of the concatenation, so the name always
    survives before product words are cut.
    """
    ids = list(rec.name_tokens) + list(rec.product_word_tokens)
    true_length = min(len(ids), l_max)
    ids = ids[:l_max] + [PAD_ID] * (l_max - len(ids))
    return TokenSequence(np.array(ids, dtype=np.int64), true_length)


def filter_labels_by_cdf(click_counts, threshold):
    """Keep the most-clicked categories reaching `threshold` cumulative mass.

    Counts are normalized to probabilities; categories are taken in
    descending-count order (ties broken by key) until the cumulative
    probability first reaches the threshold.  The crossing category is
    kept; everything after it is dropped.
    """
    if not 0.0 < threshold <= 1.0:
        raise ConfigError(f"threshold must be in (0, 1], got {threshold}")
    if not click_counts:
        raise ConfigError("no categories to filter")
    if any(c < 0 for c in click_counts.values()):
        raise ConfigError("click counts must be non-negative")
    total = sum(click_counts.values())
    if total <= 0:
        raise ConfigError("all click counts are zero; nothing to rank")
    kept = set()
    cumulative = 0
    for key, count in sorted(click_counts.items(), key=lambda kv: (-kv[1], kv[0])):
        kept.add(key)
        cumulative += count
        # single division keeps e.g. 9/10 >= 0.9 exact; never accumulate ratios
        if cumulative / total >= threshold:
            break
    return kept


# ---------------------------------------------------------------------------
# file round trips


def serialize_dataset(queries):
    lines = []
    for q in queries:
        ids = ",".join(str(i) for i in np.flatnonzero(q.labels))
        lines.append(f"{q.text}\t{ids}\n")
    return "".join(lines)


def save_dataset(path, queries):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(serialize_dataset(queries))


def load_dataset(path, vocab, num_categories, l_max):
    queries = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            if "\t" not in line:
                raise DataFormatError(f"{path}:{lineno}: expected '<query>\\t<ids>'")
            text, _, id_field = line.rpartition("\t")
            labels = np.zeros(num_categories)
            raw_ids = [s for s in id_field.split(",") if s]
            if not raw_ids:
                raise DataFormatError(f"{path}:{lineno}: query has no labels")
            for s in raw_ids:
                try:
                    cid = int(s)
                except ValueError as exc:
                    raise DataFormatError(f"{path}:{lineno}: bad category id {s!r}") from exc
                if not 0 <= cid < num_categories:
                    raise DataFormatError(
                        f"{path}:{lineno}: category id {cid} outside [0, {num_categories})"
                    )
                labels[cid] = 1.0
            queries.append(LabeledQuery(tokenize(text, vocab, l_max), labels, text))
    return queries


def serialize_categories(cats):
    lines = []
    for rec in cats:
        words = " ".join(rec.product_words)
        lines.append(f"{rec.category_id}\t{rec.name}\t{words}\n")
    return "".join(lines)


def save_categories(path, cats):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(serialize_categories(cats))


def load_categories(path, vocab):
    records = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise DataFormatError(f"{path}:{lineno}: expected '<id>\\t<name>\\t<words>'")
            try:
                cid = int(parts[0])
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: bad category id {parts[0]!r}") from exc
            name = parts[1]
            words = [w for w in parts[2].split(" ") if w]
            records.append(make_category_record(vocab, cid, name, words))
    return CategorySet(records)


def make_category_record(vocab, category_id, name, product_words):
    name_tokens = [vocab.id_of(ch) for ch in name]
    word_tokens = [vocab.id_of(ch) for word in product_words for ch in word]
    return CategoryRecord(category_id, name, list(product_words), name_tokens, word_tokens)


def save_vocab(path, vocab):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for tok in vocab.tokens:
            f.write(tok + "\n")


def load_vocab(path):
    with open(path, encoding="utf-8") as f:
        tokens = [line.rstrip("\n") for line in f]
    while tokens and tokens[-1] == "":
        tokens.pop()
    return Vocab(tokens)
