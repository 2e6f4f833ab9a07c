"""Tokenization, batch padding, vocabulary, dataset file formats, atomic writes, label filtering.

Tokenization is character level throughout: `tokenize` splits queries and
category texts alike into single characters, so literal overlap between a
query and a category surfaces directly in the char-level interaction maps.

File formats (UTF-8, LF line endings):

* train/test:  ``<query>\\t<id[,id...]>``, one labeled query per line;
* categories:  ``<id>\\t<name>\\t<word word ...>``;
* vocab:       one token per line, id = line number - 1 + 2
  (ids 0 and 1 are reserved for PAD and UNK and never appear in the file).
"""

from __future__ import annotations

import contextlib
import hashlib
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataFormatError, check_range

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


@dataclass(eq=False)
class CategoryRecord:
    """One category: display strings plus the token ids of its text."""

    category_id: int
    name: str
    product_words: list[str]
    ids: np.ndarray  # unpadded int64 ids of the name, then the product words


class CategorySet:
    """Ordered, immutable label space; category_id equals list position."""

    def __init__(self, records):
        self.records = list(records)
        for pos, rec in enumerate(self.records):
            if rec.category_id != pos:
                raise DataFormatError(
                    f"category id {rec.category_id} at position {pos}; ids must be 0..n-1 in order"
                )
            if not rec.name:
                raise DataFormatError(f"category {rec.category_id} has an empty name")

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, i):
        return self.records[i]

    def fingerprint(self):
        return hashlib.sha256(serialize_categories(self).encode("utf-8")).hexdigest()


@dataclass(eq=False)
class LabeledQuery:
    query: np.ndarray  # unpadded int64 token ids, as `tokenize` gives them
    labels: np.ndarray  # binary vector over the category set
    text: str = ""

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.float64)


def tokenize(text, vocab):
    """Char-level token ids of `text`, as a 1-D int64 array.

    An empty string becomes a single UNK token so downstream attention
    always has at least one valid position.
    """
    return np.array([vocab.id_of(ch) for ch in text] or [UNK_ID], dtype=np.int64)


def pad_batch(seqs, length):
    """[B, length] ids and [B] true lengths from B id sequences.

    Each row holds the first `length` ids of its sequence, then PAD; an empty
    sequence, whose row would have every position masked, raises.
    """
    if not len(seqs):
        raise ConfigError("no sequences to pad: the batch is empty")
    lengths = np.array([min(len(seq), length) for seq in seqs])
    if not lengths.all():
        raise ConfigError(f"sequence {int(np.argmin(lengths))} of the batch is empty")
    ids = np.full((len(seqs), length), PAD_ID, dtype=np.int64)
    for row, seq, n in zip(ids, seqs, lengths):
        row[:n] = seq[:n]
    return ids, lengths


def filter_labels_by_cdf(click_counts, threshold):
    """Keep the most-clicked categories reaching `threshold` cumulative mass.

    Counts are normalized to probabilities; categories are taken in
    descending-count order (ties broken by key) until the cumulative
    probability first reaches the threshold.  The crossing category is
    kept; everything after it is dropped.
    """
    check_range("threshold", threshold, "(0, 1]")
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


@contextlib.contextmanager
def atomic_output(path):
    """Binary file object whose bytes replace `path` only when the block completes.

    The bytes go to a temp file in the target's directory, which `os.replace`
    renames over `path` on success and which is deleted on any failure, so
    `path` holds either its old content or the complete new one.
    """
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            yield f
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


def check_output_paths(outputs, inputs):
    """Check, before any work, that `atomic_output` can write each of `outputs`
    without replacing one of `inputs` or another output.

    An empty path, or one that resolves to the same file as an input or an
    earlier output, raises ConfigError; a missing directory raises
    FileNotFoundError naming it; a path that is itself a directory raises
    IsADirectoryError.
    """
    taken = {os.path.realpath(p): f"input {p}" for p in inputs}
    for path in outputs:
        if not os.fspath(path):
            raise ConfigError("an output path is empty")
        head = os.path.dirname(os.fspath(path)) or "."
        if not os.path.isdir(head):
            raise FileNotFoundError(f"no such directory: {head} (for output {path})")
        if os.path.isdir(path):
            raise IsADirectoryError(f"output {path} is a directory")
        real = os.path.realpath(path)
        if real in taken:
            raise ConfigError(f"output {path} is the same file as {taken[real]}")
        taken[real] = f"output {path}"


def write_text(path, text):
    """Write `text` to `path` as UTF-8 through `atomic_output`."""
    with atomic_output(path) as f:
        f.write(text.encode("utf-8"))


def _lines(path):
    """The lines of a UTF-8 file, split as text mode splits them, without line ends.

    A file that is not valid UTF-8 raises DataFormatError naming it.
    """
    try:
        with open(path, encoding="utf-8") as f:
            return f.read().split("\n")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def serialize_dataset(queries):
    lines = []
    for q in queries:
        ids = ",".join(str(i) for i in np.flatnonzero(q.labels))
        lines.append(f"{q.text}\t{ids}\n")
    return "".join(lines)


def save_dataset(path, queries):
    write_text(path, serialize_dataset(queries))


def load_dataset(path, vocab, num_categories):
    queries = []
    for lineno, line in enumerate(_lines(path), start=1):
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
        queries.append(LabeledQuery(tokenize(text, vocab), labels, text))
    if not queries:
        raise DataFormatError(f"{path}: holds no queries")
    return queries


def serialize_categories(cats):
    lines = []
    for rec in cats:
        words = " ".join(rec.product_words)
        lines.append(f"{rec.category_id}\t{rec.name}\t{words}\n")
    return "".join(lines)


def save_categories(path, cats):
    write_text(path, serialize_categories(cats))


def load_categories(path, vocab):
    records = []
    for lineno, line in enumerate(_lines(path), start=1):
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
    """A record whose ids are `tokenize` of the name and then the product words:
    `pad_batch` keeps the front, so product words are cut before any of the name."""
    ids = tokenize(name + "".join(product_words), vocab)
    return CategoryRecord(category_id, name, list(product_words), ids)


def save_vocab(path, vocab):
    write_text(path, "".join(tok + "\n" for tok in vocab.tokens))


def load_vocab(path):
    tokens = _lines(path)
    while tokens and tokens[-1] == "":
        tokens.pop()
    return Vocab(tokens)
