import numpy as np
import pytest

from nbproc import (
    Corpus,
    EmptyCorpusError,
    HyperParams,
    ParseError,
    RandomSource,
    SyntheticSpec,
    filter_vocabulary,
    load_bag_of_words,
    split_train_test,
    synthesize_corpus,
    write_bag_of_words,
)


def write_files(tmp_path, docword, vocab):
    dw = tmp_path / "docword.txt"
    vf = tmp_path / "vocab.txt"
    dw.write_text(docword)
    vf.write_text(vocab)
    return dw, vf


def make_corpus(doc_tokens, vocab_size):
    vocab = tuple(f"w{v}" for v in range(vocab_size))
    return Corpus(vocab=vocab, doc_tokens=tuple(np.sort(np.asarray(t, dtype=np.int64)) for t in doc_tokens))


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------


def test_load_basic(tmp_path):
    dw, vf = write_files(tmp_path, "2\n3\n2\n1 1 2\n2 3 1\n", "apple\nbanana\ncherry\n")
    corpus = load_bag_of_words(dw, vf)
    assert corpus.num_docs == 2
    assert corpus.vocab_size == 3
    assert corpus.total_tokens == 3
    assert list(corpus.doc_tokens[0]) == [0, 0]
    assert list(corpus.doc_tokens[1]) == [2]
    assert corpus.vocab == ("apple", "banana", "cherry")


def test_load_tolerates_crlf(tmp_path):
    dw, vf = write_files(tmp_path, "1\r\n2\r\n1\r\n1 2 3\r\n", "a\r\nb\r\n")
    corpus = load_bag_of_words(dw, vf)
    assert corpus.total_tokens == 3 and corpus.doc_tokens[0][0] == 1


def test_load_doc_id_out_of_range_names_line(tmp_path):
    dw, vf = write_files(tmp_path, "2\n3\n2\n1 1 2\n3 3 1\n", "a\nb\nc\n")
    with pytest.raises(ParseError, match="line 5"):
        load_bag_of_words(dw, vf)


def test_load_word_id_out_of_range(tmp_path):
    dw, vf = write_files(tmp_path, "2\n3\n1\n1 4 2\n", "a\nb\nc\n")
    with pytest.raises(ParseError, match="line 4"):
        load_bag_of_words(dw, vf)


def test_load_nonpositive_count(tmp_path):
    dw, vf = write_files(tmp_path, "1\n2\n1\n1 1 0\n", "a\nb\n")
    with pytest.raises(ParseError, match="count"):
        load_bag_of_words(dw, vf)


def test_load_nnz_mismatch(tmp_path):
    dw, vf = write_files(tmp_path, "2\n3\n5\n1 1 2\n2 3 1\n", "a\nb\nc\n")
    with pytest.raises(ParseError, match="NNZ"):
        load_bag_of_words(dw, vf)
    dw, vf = write_files(tmp_path, "2\n3\n1\n1 1 2\n2 3 1\n", "a\nb\nc\n")
    with pytest.raises(ParseError, match="NNZ"):
        load_bag_of_words(dw, vf)


def test_load_vocab_length_mismatch(tmp_path):
    dw, vf = write_files(tmp_path, "1\n3\n1\n1 1 1\n", "a\nb\n")
    with pytest.raises(ParseError, match="vocabulary"):
        load_bag_of_words(dw, vf)


def test_load_malformed_header(tmp_path):
    dw, vf = write_files(tmp_path, "two\n3\n1\n1 1 1\n", "a\nb\nc\n")
    with pytest.raises(ParseError, match="line 1"):
        load_bag_of_words(dw, vf)


def test_round_trip(tmp_path):
    corpus = make_corpus([[0, 0, 2], [1], [2, 2, 2, 0]], 3)
    dw, vf = tmp_path / "d.txt", tmp_path / "v.txt"
    write_bag_of_words(corpus, dw, vf)
    reloaded = load_bag_of_words(dw, vf)
    assert reloaded.same_as(corpus)


# ---------------------------------------------------------------------------
# filtering
# ---------------------------------------------------------------------------


def test_filter_identity_at_threshold_one():
    corpus = make_corpus([[0, 1], [1, 2]], 3)
    assert filter_vocabulary(corpus, 1).same_as(corpus)


def test_filter_removes_rare_terms():
    # term 0 appears in 4 documents, term 1 in all 5
    docs = [[0, 1], [0, 1], [0, 1], [0, 1], [1]]
    corpus = make_corpus(docs, 2)
    filtered = filter_vocabulary(corpus, 5)
    assert filtered.vocab == ("w1",)
    assert filtered.total_tokens == 5


def test_filter_drops_empty_documents(caplog):
    docs = [[0, 1], [0], [1]]
    corpus = make_corpus(docs, 2)
    with caplog.at_level("WARNING"):
        filtered = filter_vocabulary(corpus, 2)
    assert filtered.num_docs == 3 or filtered.num_docs == 2  # depends on df
    # term 0 in docs {0,1}, term 1 in docs {0,2}: both kept at threshold 2
    assert filtered.num_docs == 3


def test_filter_all_terms_removed():
    corpus = make_corpus([[0], [1]], 2)
    with pytest.raises(EmptyCorpusError):
        filter_vocabulary(corpus, 2)


def test_filter_idempotent():
    docs = [[0, 1, 2], [1, 2], [2]]
    corpus = make_corpus(docs, 3)
    once = filter_vocabulary(corpus, 2)
    twice = filter_vocabulary(once, 2)
    assert twice.same_as(once)


def test_filter_remaps_indices_densely():
    docs = [[0, 2], [2], [0, 2]]
    corpus = make_corpus(docs, 3)
    filtered = filter_vocabulary(corpus, 2)
    assert filtered.vocab == ("w0", "w2")
    assert max(max(t) for t in filtered.doc_tokens) == 1


# ---------------------------------------------------------------------------
# held-out split
# ---------------------------------------------------------------------------


def test_split_exact_counts():
    corpus = make_corpus([list(range(10)) ], 10)
    split = split_train_test(corpus, 0.6, RandomSource(1))
    assert len(split.train_tokens[0]) == 6
    assert len(split.test_tokens[0]) == 4


def test_split_minimum_one_training_token():
    corpus = make_corpus([[3]], 5)
    split = split_train_test(corpus, 0.2, RandomSource(2))
    assert len(split.train_tokens[0]) == 1
    assert len(split.test_tokens[0]) == 0


def test_split_round_half_up():
    corpus = make_corpus([[0] * 5], 1)
    split = split_train_test(corpus, 0.5, RandomSource(3))
    assert len(split.train_tokens[0]) == 3  # round(2.5) -> 3


def test_split_recovers_tokens_exactly():
    corpus = make_corpus([[0, 0, 1, 2, 2, 2], [1, 1, 1]], 3)
    split = split_train_test(corpus, 0.55, RandomSource(4))
    for j in range(corpus.num_docs):
        positions = np.concatenate([split.train_positions[j], split.test_positions[j]])
        assert sorted(positions) == list(range(len(corpus.doc_tokens[j])))
        combined = np.sort(np.concatenate([split.train_tokens[j], split.test_tokens[j]]))
        assert np.array_equal(combined, corpus.doc_tokens[j])
    assert split.total_train + split.total_test == corpus.total_tokens


def test_split_deterministic():
    corpus = make_corpus([[0, 1, 2, 0, 1, 2, 0], [1, 1, 2, 2]], 3)
    a = split_train_test(corpus, 0.6, RandomSource(9))
    b = split_train_test(corpus, 0.6, RandomSource(9))
    assert all(np.array_equal(x, y) for x, y in zip(a.train_positions, b.train_positions))
    c = split_train_test(corpus, 0.6, RandomSource(10))
    assert any(not np.array_equal(x, y) for x, y in zip(a.train_positions, c.train_positions))


def test_split_domain_errors():
    corpus = make_corpus([[0]], 1)
    for frac in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            split_train_test(corpus, frac, RandomSource(0))


def test_split_rejects_empty_document():
    corpus = make_corpus([[0], []], 1)
    with pytest.raises(EmptyCorpusError):
        split_train_test(corpus, 0.5, RandomSource(0))


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------


def test_synthesize_single_topic():
    spec = SyntheticSpec(k_true=1, vocab_size=10, num_docs=8, topic_sharpness=0.5, r=5.0, p=0.7)
    corpus, truth = synthesize_corpus(HyperParams(), spec, RandomSource(5))
    assert corpus.num_docs == 8
    assert truth.omega.shape == (1, 10)
    # every token comes from the single topic
    assert np.array_equal(truth.topic_counts.sum(axis=1), corpus.doc_lengths)


def test_synthesize_mean_doc_length():
    # mean length is k_true * r * p / (1 - p) = 5 * 5 * 1 = 25
    spec = SyntheticSpec(k_true=5, vocab_size=30, num_docs=50, topic_sharpness=0.05, r=5.0, p=0.5)
    corpus, _ = synthesize_corpus(HyperParams(), spec, RandomSource(6))
    assert abs(corpus.doc_lengths.mean() / 25.0 - 1) < 0.15


def test_synthesize_deterministic():
    spec = SyntheticSpec(k_true=3, vocab_size=12, num_docs=10, topic_sharpness=0.1)
    a, _ = synthesize_corpus(HyperParams(), spec, RandomSource(7))
    b, _ = synthesize_corpus(HyperParams(), spec, RandomSource(7))
    assert a.same_as(b)
    c, _ = synthesize_corpus(HyperParams(), spec, RandomSource(8))
    assert not a.same_as(c)


def test_synthesize_per_document_p():
    p_j = np.linspace(0.2, 0.8, 10)
    spec = SyntheticSpec(k_true=2, vocab_size=8, num_docs=10, topic_sharpness=0.2, r=4.0, p=p_j)
    _, truth = synthesize_corpus(HyperParams(), spec, RandomSource(9))
    assert np.array_equal(truth.p_j, p_j)


def test_synthesize_sharpness_falls_back_to_hyper_eta():
    spec = SyntheticSpec(k_true=2, vocab_size=8, num_docs=5)
    corpus, _ = synthesize_corpus(HyperParams(eta=0.5), spec, RandomSource(10))
    assert corpus.num_docs == 5


def test_synthesize_rejects_bad_settings():
    with pytest.raises(ValueError):
        synthesize_corpus(HyperParams(), SyntheticSpec(k_true=0, vocab_size=5, num_docs=5), RandomSource(0))
    with pytest.raises(ValueError):
        synthesize_corpus(
            HyperParams(), SyntheticSpec(k_true=1, vocab_size=5, num_docs=5, p=1.5), RandomSource(0)
        )


def test_synthesize_retry_cap_on_degenerate_settings():
    # r and p so small that documents are nearly always empty
    spec = SyntheticSpec(k_true=1, vocab_size=5, num_docs=3, topic_sharpness=0.5, r=1e-6, p=1e-6, max_retries=3)
    with pytest.raises(ValueError, match="empty"):
        synthesize_corpus(HyperParams(), spec, RandomSource(11))


def test_write_bag_of_words_matches_dense_counts(tmp_path):
    # an empty document, repeated terms, and a longer random document
    gen = RandomSource(31).generator
    corpus = make_corpus([[0, 0, 1], [], [2, 2, 2, 0], gen.integers(0, 40, size=300)], 40)
    write_bag_of_words(corpus, tmp_path / "docword.txt", tmp_path / "vocab.txt")
    # the reference: nonzero cells of the dense documents x terms counts, row-major
    counts = np.zeros((corpus.num_docs, corpus.vocab_size), dtype=np.int64)
    for j, tokens in enumerate(corpus.doc_tokens):
        counts[j] = np.bincount(tokens, minlength=corpus.vocab_size)
    docs, terms = np.nonzero(counts)
    lines = [str(corpus.num_docs), str(corpus.vocab_size), str(len(docs))]
    lines += [f"{j + 1} {v + 1} {counts[j, v]}" for j, v in zip(docs, terms)]
    assert (tmp_path / "docword.txt").read_bytes() == ("\n".join(lines) + "\n").encode()
