"""Text pipeline tests: tokenization, label filtering, files, generator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from intentmatch.errors import ConfigError, DataFormatError
from intentmatch.synthetic import SyntheticConfig, _category_counts, generate_synthetic
from intentmatch.textdata import (
    PAD_ID,
    UNK_ID,
    CategorySet,
    LabeledQuery,
    Vocab,
    filter_labels_by_cdf,
    load_categories,
    load_dataset,
    load_vocab,
    make_category_record,
    pad_batch,
    save_categories,
    save_dataset,
    save_vocab,
    serialize_categories,
    serialize_dataset,
    tokenize,
)


def micro_f1(golds, preds):
    """Pooled-count F1, used as the separability oracle metric."""
    g = np.array(golds)
    p = np.array(preds)
    tp = np.sum((g == 1) & (p == 1))
    fp = np.sum((g == 0) & (p == 1))
    fn = np.sum((g == 1) & (p == 0))
    if tp == 0:
        return 0.0
    prec = tp / (tp + fp)
    rec = tp / (tp + fn)
    return 2 * prec * rec / (prec + rec)


class TestVocab:
    def test_reserved_ids(self):
        v = Vocab(["a", "b"])
        assert v.id_of("a") == 2 and v.id_of("b") == 3
        assert v.id_of("?") == UNK_ID
        assert len(v) == 4

    def test_duplicate_token_rejected(self):
        with pytest.raises(DataFormatError, match="duplicate"):
            Vocab(["a", "b", "a"])

    def test_fingerprint_tracks_content(self):
        assert Vocab(["a", "b"]).fingerprint() == Vocab(["a", "b"]).fingerprint()
        assert Vocab(["a", "b"]).fingerprint() != Vocab(["a", "c"]).fingerprint()


def padded(seq, length):
    """The one row and true length `pad_batch` makes of `seq` at `length`."""
    ids, lengths = pad_batch([seq], length)
    return ids[0].tolist(), lengths[0]


class TestTokenize:
    def test_padding(self):
        v = Vocab(["a", "b"])
        assert tokenize("ab", v).tolist() == [2, 3]
        assert padded(tokenize("ab", v), 4) == ([2, 3, 0, 0], 2)

    def test_truncation(self):
        v = Vocab(["a", "b", "c"])
        assert padded(tokenize("abc", v), 2) == ([2, 3], 2)

    def test_unknown_char_becomes_unk(self):
        v = Vocab(["a", "b"])
        assert padded(tokenize("a?b", v), 4) == ([2, UNK_ID, 3, 0], 3)

    def test_empty_string_single_unk(self):
        seq = tokenize("", Vocab(["a"]))
        assert seq.tolist() == [UNK_ID]
        assert padded(seq, 5) == ([UNK_ID, 0, 0, 0, 0], 1)


def pad_oracle(seqs, length):
    """Loop reference for `pad_batch`: first `length` ids, then PAD."""
    rows, lengths = [], []
    for seq in seqs:
        kept = list(seq)[:length]
        rows.append(kept + [PAD_ID] * (length - len(kept)))
        lengths.append(min(len(seq), length))
    return rows, lengths


class TestPadBatch:
    @settings(max_examples=200)
    @given(
        st.lists(st.text("abcxyz", max_size=20), min_size=1, max_size=6),
        st.integers(1, 24),
    )
    def test_matches_loop_oracle(self, texts, length):
        """Empty texts are drawn too; each tokenizes to [UNK]."""
        v = Vocab(list("abcdef"))
        seqs = [tokenize(text, v) for text in texts]
        ids, lengths = pad_batch(seqs, length)
        rows, true_lengths = pad_oracle(seqs, length)
        assert ids.dtype == np.int64 and ids.shape == (len(seqs), length)
        assert ids.tolist() == rows
        assert lengths.tolist() == true_lengths

    def test_empty_batch_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            pad_batch([], 4)


class TestCategoryIds:
    """`make_category_record` tokenizes the name, then the product words."""

    VOCAB = Vocab(list("abcdefgh"))  # "d" is id 5, "e" 6, ..., "h" 9

    def test_name_then_words(self):
        rec = make_category_record(self.VOCAB, 0, "de", ["f"])
        assert rec.ids.tolist() == [5, 6, 7]
        assert padded(rec.ids, 4)[0] == [5, 6, 7, 0]

    def test_empty_word_list(self):
        rec = make_category_record(self.VOCAB, 0, "de", [])
        assert padded(rec.ids, 4) == ([5, 6, 0, 0], 2)

    def test_truncation_keeps_name_prefix(self):
        rec = make_category_record(self.VOCAB, 0, "def", ["gh"])
        assert padded(rec.ids, 4)[0] == [5, 6, 7, 8]

    @settings(max_examples=200)
    @given(
        st.text("abcxyz?一二", min_size=1, max_size=8),
        st.lists(st.text("abcxyz?一二", min_size=1, max_size=6), min_size=1, max_size=4),
    )
    def test_matches_loop_oracle(self, name, words):
        """Chars outside the vocab ("x", "?", "二") become UNK, as in a query."""
        v = Vocab(list("abc") + ["一"])
        oracle = [v.id_of(ch) for ch in name] + [v.id_of(ch) for word in words for ch in word]
        ids = make_category_record(v, 3, name, words).ids
        assert ids.dtype == np.int64 and ids.tolist() == oracle


class TestCdfFilter:
    def test_hand_cumulative_example(self):
        counts = {"A": 50, "B": 30, "C": 15, "D": 5}
        assert filter_labels_by_cdf(counts, 0.9) == {"A", "B", "C"}

    def test_single_category(self):
        assert filter_labels_by_cdf({"only": 7}, 0.5) == {"only"}
        assert filter_labels_by_cdf({"only": 7}, 1.0) == {"only"}

    def test_uniform_ten_keeps_nine(self):
        # 9/10 must compare >= 0.9 exactly; a ratio accumulator would miss it
        counts = {f"c{i}": 10 for i in range(10)}
        assert len(filter_labels_by_cdf(counts, 0.9)) == 9

    def test_threshold_one_keeps_all_positive(self):
        counts = {"a": 3, "b": 1, "c": 0}
        assert filter_labels_by_cdf(counts, 1.0) == {"a", "b"}

    def test_all_zero_rejected(self):
        with pytest.raises(ConfigError):
            filter_labels_by_cdf({"a": 0, "b": 0}, 0.5)

    def test_bad_threshold_rejected(self):
        with pytest.raises(ConfigError):
            filter_labels_by_cdf({"a": 1}, 0.0)
        with pytest.raises(ConfigError):
            filter_labels_by_cdf({"a": 1}, 1.5)

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigError):
            filter_labels_by_cdf({"a": -1, "b": 2}, 0.5)

    def test_kept_mass_reaches_threshold_minimally(self):
        """Kept mass >= threshold; dropping the crossing category falls short."""
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(1, 12))
            counts = {f"k{i}": int(rng.integers(0, 50)) for i in range(n)}
            if sum(counts.values()) == 0:
                counts["k0"] = 1
            threshold = float(rng.uniform(0.05, 1.0))
            kept = filter_labels_by_cdf(counts, threshold)
            total = sum(counts.values())
            kept_mass = sum(counts[k] for k in kept)
            assert kept_mass / total >= threshold
            # the crossing category is the last one taken in descending order
            crossing = sorted(kept, key=lambda k: (-counts[k], k))[-1]
            assert (kept_mass - counts[crossing]) / total < threshold


class TestCategorySet:
    def test_position_must_match_id(self):
        v = Vocab(["a", "b"])
        recs = [make_category_record(v, 1, "a", [])]
        with pytest.raises(DataFormatError, match="position"):
            CategorySet(recs)

    def test_empty_name_rejected(self):
        rec = make_category_record(Vocab(["a"]), 0, "", [])
        with pytest.raises(DataFormatError, match="empty name"):
            CategorySet([rec])

    def test_fingerprint_tracks_content(self):
        v = Vocab(["a", "b"])
        one = CategorySet([make_category_record(v, 0, "a", ["b"])])
        same = CategorySet([make_category_record(v, 0, "a", ["b"])])
        other = CategorySet([make_category_record(v, 0, "b", ["b"])])
        assert one.fingerprint() == same.fingerprint()
        assert one.fingerprint() != other.fingerprint()

    def test_records_compare_without_raising(self):
        """Records hold numpy arrays, so `==` is identity rather than an ambiguous field compare."""
        v = Vocab(["a", "b"])
        a, b = (make_category_record(v, 0, "ab", []) for _ in range(2))
        q, r = (LabeledQuery(np.array([2, 3]), np.array([1.0, 0.0])) for _ in range(2))
        for one, other in ((a, b), (q, r)):
            assert (one == other) is False and (one != other) is True
            assert (one == one) is True


class TestFileRoundTrips:
    def test_dataset_round_trip(self, tmp_path):
        v = Vocab(list("abc"))
        queries = [
            LabeledQuery(tokenize("ab", v), [1, 0, 0], "ab"),
            LabeledQuery(tokenize("cc", v), [0, 1, 1], "cc"),
        ]
        path = tmp_path / "train.tsv"
        save_dataset(path, queries)
        loaded = load_dataset(path, v, 3)
        assert len(loaded) == 2
        for orig, back in zip(queries, loaded):
            assert back.text == orig.text
            assert np.array_equal(back.query, orig.query)
            assert np.array_equal(back.labels, orig.labels)
        assert serialize_dataset(loaded) == serialize_dataset(queries)

    def test_dataset_line_format(self, tmp_path):
        v = Vocab(list("ab"))
        q = LabeledQuery(tokenize("ab", v), [1, 0, 1], "ab")
        assert serialize_dataset([q]) == "ab\t0,2\n"

    def test_missing_tab_is_diagnosed_with_location(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("ok\t0\nbroken line\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match=r"bad\.tsv:2"):
            load_dataset(path, Vocab(["o", "k"]), 2)

    def test_bad_category_id_is_diagnosed(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("q\tzero\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match=r"bad\.tsv:1.*'zero'"):
            load_dataset(path, Vocab(["q"]), 2)

    def test_out_of_range_id_is_diagnosed(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("q\t5\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match=r"bad\.tsv:1.*5"):
            load_dataset(path, Vocab(["q"]), 2)

    def test_file_without_queries_rejected(self, tmp_path):
        path = tmp_path / "blank.tsv"
        path.write_text("\n\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match=r"blank\.tsv: holds no queries"):
            load_dataset(path, Vocab(["q"]), 2)

    def test_unlabeled_line_rejected_when_labels_required(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("q\t\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="no labels"):
            load_dataset(path, Vocab(["q"]), 2)

    def test_categories_round_trip(self, tmp_path):
        v = Vocab(list("abcdef"))
        cats = CategorySet(
            [
                make_category_record(v, 0, "ab", ["cd", "e"]),
                make_category_record(v, 1, "f", []),
            ]
        )
        path = tmp_path / "cats.tsv"
        save_categories(path, cats)
        loaded = load_categories(path, v)
        assert serialize_categories(loaded) == serialize_categories(cats)
        assert loaded[0].ids.tolist() == cats[0].ids.tolist()

    def test_categories_bad_field_count(self, tmp_path):
        path = tmp_path / "cats.tsv"
        path.write_text("0\tname only\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match=r"cats\.tsv:1"):
            load_categories(path, Vocab(["a"]))

    def test_vocab_round_trip(self, tmp_path):
        v = Vocab(list("abc") + ["一"])
        path = tmp_path / "vocab.txt"
        save_vocab(path, v)
        back = load_vocab(path)
        assert back.fingerprint() == v.fingerprint()
        assert back.id_of("一") == v.id_of("一")


class TestSyntheticGenerator:
    def test_deterministic_under_seed(self):
        cfg = SyntheticConfig(num_categories=4, queries_per_category=50, seed=11)
        a = generate_synthetic(cfg)
        b = generate_synthetic(cfg)
        assert serialize_dataset(a.train) == serialize_dataset(b.train)
        assert serialize_dataset(a.test) == serialize_dataset(b.test)
        assert serialize_categories(a.categories) == serialize_categories(b.categories)
        assert a.vocab.fingerprint() == b.vocab.fingerprint()

    def test_seed_changes_output(self):
        cfg_a = SyntheticConfig(num_categories=4, queries_per_category=50, seed=11)
        cfg_b = SyntheticConfig(num_categories=4, queries_per_category=50, seed=12)
        assert serialize_dataset(generate_synthetic(cfg_a).train) != serialize_dataset(
            generate_synthetic(cfg_b).train
        )

    def test_zero_tail_exponent_uniform_counts(self):
        cfg = SyntheticConfig(
            num_categories=5, queries_per_category=40, tail_exponent=0.0, multi_label_fraction=0.0
        )
        data = generate_synthetic(cfg)
        labels = np.array([q.labels for q in data.train + data.test])
        counts = labels.sum(axis=0)
        assert counts.max() - counts.min() <= 1

    def test_power_law_slope(self):
        """Rank-frequency fit on log-log axes recovers the tail exponent."""
        cfg = SyntheticConfig(
            num_categories=10,
            vocab_size=64,
            queries_per_category=100,
            tail_exponent=1.0,
            multi_label_fraction=0.0,
        )
        data = generate_synthetic(cfg)
        labels = np.array([q.labels for q in data.train + data.test])
        counts = np.sort(labels.sum(axis=0))[::-1]
        ranks = np.arange(1, len(counts) + 1)
        slope = np.polyfit(np.log(ranks), np.log(counts), 1)[0]
        assert abs(slope - (-1.0)) < 0.2

    def test_core_token_sets_disjoint(self):
        data = generate_synthetic(SyntheticConfig(num_categories=6, queries_per_category=10))
        seen = set()
        for rec in data.categories:
            ids = set(rec.ids.tolist())
            assert not (ids & seen)
            seen |= ids

    def test_every_query_labeled_and_sized(self):
        cfg = SyntheticConfig(num_categories=4, queries_per_category=60)
        data = generate_synthetic(cfg)
        assert len(data.train) + len(data.test) == 4 * 60
        assert len(data.test) == round(240 * cfg.test_fraction)
        for q in data.train + data.test:
            assert q.labels.shape == (4,)
            assert q.labels.sum() >= 1
            assert q.query.dtype == np.int64
            assert cfg.query_len_min <= len(q.query) <= cfg.query_len_max

    def test_multi_label_fraction_respected(self):
        cfg = SyntheticConfig(
            num_categories=6, queries_per_category=200, multi_label_fraction=0.3, seed=5
        )
        data = generate_synthetic(cfg)
        labels = np.array([q.labels for q in data.train + data.test])
        frac = np.mean(labels.sum(axis=1) > 1)
        assert abs(frac - 0.3) < 0.05

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("categories, exponent", [(8, -400.0), (10_000, -77.0)])
    def test_overflowing_tail_weights_rejected(self, categories, exponent):
        """At -400 the weights from 6.0 ** 400 on overflow (a raw OverflowError before);
        at -77 over 10,000 categories only their sum does, which gave every category one
        query after a numpy warning."""
        with pytest.raises(ConfigError, match="tail_exponent"):
            SyntheticConfig(
                num_categories=categories, vocab_size=2 * categories, tail_exponent=exponent
            )

    def test_steepest_finite_tail_keeps_the_power_law(self):
        cfg = SyntheticConfig(
            num_categories=10_000, vocab_size=20_000, queries_per_category=1, tail_exponent=-76.0
        )
        counts = _category_counts(cfg)
        assert counts.sum() == 10_000 and counts[-1] > counts[-2] > 1

    def test_vocab_too_small_rejected(self):
        with pytest.raises(ConfigError):
            generate_synthetic(SyntheticConfig(num_categories=10, vocab_size=15))

    def test_separable_by_majority_token_vote(self):
        """A bag-of-chars vote on the clean config clears 0.8 micro-F1."""
        cfg = SyntheticConfig(
            num_categories=8, queries_per_category=100, noise=0.0, seed=3
        )
        data = generate_synthetic(cfg)
        ownership = np.zeros((len(data.vocab.id_to_token), cfg.num_categories))
        for q in data.train:
            for t in q.query:
                ownership[t] += q.labels
        owner = ownership.argmax(axis=1)
        golds, preds = [], []
        for q in data.test:
            votes = np.zeros(cfg.num_categories)
            for t in q.query:
                votes[owner[t]] += 1
            pred = np.zeros(cfg.num_categories)
            pred[votes.argmax()] = 1.0
            golds.append(q.labels)
            preds.append(pred)
        assert micro_f1(golds, preds) > 0.8

    def test_generated_files_round_trip(self, tmp_path):
        """Full artifact cycle: vocab, categories and splits survive disk."""
        data = generate_synthetic(SyntheticConfig(num_categories=4, queries_per_category=30))
        save_vocab(tmp_path / "vocab.txt", data.vocab)
        save_categories(tmp_path / "cats.tsv", data.categories)
        save_dataset(tmp_path / "train.tsv", data.train)
        vocab = load_vocab(tmp_path / "vocab.txt")
        cats = load_categories(tmp_path / "cats.tsv", vocab)
        train = load_dataset(tmp_path / "train.tsv", vocab, len(cats))
        assert vocab.fingerprint() == data.vocab.fingerprint()
        assert cats.fingerprint() == data.categories.fingerprint()
        assert serialize_dataset(train) == serialize_dataset(data.train)
        for orig, back in zip(data.train, train):
            assert np.array_equal(back.query, orig.query)
