import re
from types import SimpleNamespace

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
    flatten_documents,
    load_bag_of_words,
    split_train_test,
    synthesize_corpus,
    write_bag_of_words,
)
from nbproc import _kernels


def write_files(tmp_path, docword, vocab):
    dw = tmp_path / "docword.txt"
    vf = tmp_path / "vocab.txt"
    dw.write_text(docword)
    vf.write_text(vocab)
    return dw, vf


def same_corpus(a, b):
    """Content equality: the same vocabulary, terms and document offsets."""
    return a.vocab == b.vocab and np.array_equal(a.offsets, b.offsets) and np.array_equal(a.terms, b.terms)


def make_corpus(doc_tokens, vocab_size):
    vocab = tuple(f"w{v}" for v in range(vocab_size))
    return Corpus(vocab, *flatten_documents(np.sort(np.asarray(t, dtype=np.int64)) for t in doc_tokens))


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


def reference_doc_tokens(docword_text):
    """The line-by-line loader the vectorized one replaced, kept as an oracle.

    It assumes well-formed input: the header, then NNZ valid data lines.
    """
    lines = docword_text.splitlines()
    num_docs = int(lines[0])
    per_doc = [[] for _ in range(num_docs)]
    for line in lines[3:]:
        if not line.strip():
            continue
        doc_id, word_id, count = (int(p) for p in line.split())
        per_doc[doc_id - 1].extend([word_id - 1] * count)
    return tuple(np.sort(np.asarray(tokens, dtype=np.int64)) for tokens in per_doc)


def random_docword(gen):
    """A valid docword text with the layouts the format allows.

    Duplicate (doc, term) lines, blank and whitespace-only lines, CRLF,
    tabs, ``+n`` fields, documents with no tokens and NNZ = 0 all occur.
    """
    num_docs, vocab_size = int(gen.integers(1, 8)), int(gen.integers(1, 10))
    nnz = int(gen.choice([0, gen.integers(1, 30)]))
    rows = []
    for _ in range(nnz):
        fields = [str(int(gen.integers(1, num_docs + 1))), str(int(gen.integers(1, vocab_size + 1))),
                  str(int(gen.integers(1, 5)))]
        fields = ["+" + f if gen.random() < 0.2 else f for f in fields]
        seps = [str(gen.choice([" ", "\t", "  ", " \t "])) for _ in range(2)]
        row = fields[0] + seps[0] + fields[1] + seps[1] + fields[2]
        rows.append(str(gen.choice(["", " ", "\t"])) + row + str(gen.choice(["", " ", "\t"])))
        if gen.random() < 0.15:
            rows.append(str(gen.choice(["", "   ", "\t"])))
    eol = str(gen.choice(["\n", "\r\n"]))
    text = eol.join([str(num_docs), str(vocab_size), str(nnz), *rows]) + eol
    vocab = "".join(f"t{v}{eol}" for v in range(vocab_size))
    return text, vocab


def test_load_matches_line_walk_on_random_corpora(tmp_path):
    gen = np.random.default_rng(2024)
    saw_duplicate = saw_empty_doc = saw_no_data = False
    for _ in range(300):
        text, vocab = random_docword(gen)
        (tmp_path / "docword.txt").write_bytes(text.encode())
        (tmp_path / "vocab.txt").write_bytes(vocab.encode())
        corpus = load_bag_of_words(tmp_path / "docword.txt", tmp_path / "vocab.txt")
        expected = reference_doc_tokens(text)
        assert corpus.vocab == tuple(vocab.split())
        assert len(corpus.doc_tokens) == len(expected)
        for got, want in zip(corpus.doc_tokens, expected):
            assert got.dtype == np.int64 and np.array_equal(got, want)
        cells = [tuple(line.split()[:2]) for line in text.splitlines()[3:] if line.strip()]
        saw_duplicate |= len({(int(d), int(w)) for d, w in cells}) < len(cells)
        saw_empty_doc |= any(len(t) == 0 for t in expected)
        saw_no_data |= not cells
    assert saw_duplicate and saw_empty_doc and saw_no_data


def test_load_sums_duplicate_cells(tmp_path):
    dw, vf = write_files(tmp_path, "2\n3\n3\n2 3 1\n1 2 2\n2 3 2\n", "a\nb\nc\n")
    corpus = load_bag_of_words(dw, vf)
    assert [list(t) for t in corpus.doc_tokens] == [[1, 1], [2, 2, 2]]


def test_load_sorted_and_shuffled_docword_give_the_same_corpus(tmp_path, monkeypatch):
    gen = np.random.default_rng(77)
    cells = sorted({(int(d), int(w)) for d, w in zip(gen.integers(1, 9, size=60), gen.integers(1, 15, size=60))})
    rows = [(d, w, int(gen.integers(1, 4))) for d, w in cells] + [(d, w, 2) for d, w in cells[::7]]
    vocab = "".join(f"t{v}\n" for v in range(14))
    argsort, sorts = np.argsort, []
    monkeypatch.setattr(np, "argsort", lambda *a, **k: sorts.append(None) or argsort(*a, **k))
    corpora = []
    # in (doc, term) order, as UCI files come, with each repeated cell's lines adjacent; then shuffled
    for order in (sorted(rows), [rows[i] for i in gen.permutation(len(rows))]):
        text = f"8\n14\n{len(order)}\n" + "".join(f"{d} {w} {n}\n" for d, w, n in order)
        corpora.append((load_bag_of_words(*write_files(tmp_path, text, vocab)), len(sorts)))
    (in_order, sorted_sorts), (shuffled, all_sorts) = corpora
    assert (sorted_sorts, all_sorts) == (0, 1)  # the sorted file skips the sort
    assert np.array_equal(in_order.terms, shuffled.terms) and np.array_equal(in_order.offsets, shuffled.offsets)
    expected = [sorted(w - 1 for d, w, n in rows for _ in range(n) if d == doc) for doc in range(1, 9)]
    assert [t.tolist() for t in in_order.doc_tokens] == expected  # the repeated cells' counts add up


def load_both_ways(monkeypatch, dw, vf):
    """The corpus arrays, or the ParseError message, as loaded and as np.loadtxt alone loads them.

    The second load takes a library whose ``read_docword`` declines every file.
    """
    outcomes, declining = [], SimpleNamespace(read_docword=lambda *args: None)
    for library in (_kernels.library, lambda: declining):
        with monkeypatch.context() as patch:
            patch.setattr(_kernels, "library", library)
            try:
                corpus = load_bag_of_words(dw, vf)
            except ParseError as exc:
                outcomes.append(str(exc))
            else:
                outcomes.append((corpus.vocab, corpus.terms.tolist(), corpus.offsets.tolist()))
    return outcomes


def test_plain_docword_lines_load_as_loadtxt_loads_them(tmp_path, monkeypatch, compiled_library):
    gen = np.random.default_rng(91)
    cells = sorted({(int(d), int(w)) for d, w in zip(gen.integers(1, 40, size=400), gen.integers(1, 60, size=400))})
    rows = [(d, w, int(gen.integers(1, 9))) for d, w in cells] + [(d, w, 3) for d, w in cells[::5]]
    vocab = "".join(f"t{v}\n" for v in range(60))
    for order in (sorted(rows), [rows[i] for i in gen.permutation(len(rows))]):  # repeated cells adjacent, then not
        text = f"40\n60\n{len(order)}\n" + "".join(f"{d} {w} {n}\n" for d, w, n in order)
        assert np.array_equal(compiled_library.read_docword(text.encode(), len(order), 40, 60), order)
        loaded, by_loadtxt = load_both_ways(monkeypatch, *write_files(tmp_path, text, vocab))
        assert loaded == by_loadtxt


@pytest.mark.parametrize(
    "text, plain",
    [
        ("2\n3\n3\n1 1 2\n2 3 1\n1 1 1\n", True),
        ("2\n3\n2\n001 01 0002\n2 3 1\n", True),
        ("2\n3\n0\n", True),
        ("2\r\n3\r\n2\r\n1 1 2\r\n2 3 1\r\n", False),
        ("2\r3\r2\r1 1 2\n2 3 1\n", False),
        ("2\n3\n2\n1\t1\t2\n2 3 1\n", False),
        ("2\n3\n2\n+1 1 +2\n2 3 1\n", False),
        ("2\n3\n2\n1 1 2\n2 3 1\n\n \n", False),
        ("2\n3\n2\n1 1 2\n2 3 1", False),
        ("2\n3\n2\n 1 1 2\n2  3 1 \n", False),
        ("2\n3\n2\n1 1 0000000000000000002\n2 3 1\n", False),
        ("2\n3\n2\n1 1 2\n2 3 0\n", False),
        ("2\n3\n2\n1 1 2\n3 3 1\n", False),
        ("2\n3\n2\n1 4 2\n2 3 1\n", False),
        ("2\n3\n3\n1 1 2\n2 3 1\n", False),
        ("2\n3\n1\n1 1 2\n2 3 1\n", False),
        ("2\n3\n2\n1 1 2\n2 3 -1\n", False),
        ("2\n3\n2\n1 1 2\n2 3 1\u00a0\n", False),
        ("2\n3\n2\n1 1 000000000000000002\n2 3 1\n", True),
        ("2\n3\n2\n2 3 5\n1 1 1\n", True),
        ("2\n3\n2\n0 1 2\n2 3 1\n", False),
        ("2\n3\n2\n1 0 2\n2 3 1\n", False),
        ("2\n3\n0\n1 1 2\n", False),
        ("2\n3\n2\n1 1 2 5\n2 3 1\n", False),
        ("2\n3\n2\n1  2\n2 3 1\n", False),
        ("2\n3\n2\n1 1 2\n2 3 1\r", False),
        ("2\r\n3\n2\n1 1 2\n2 3 1\n", False),
        ("2\n3\n2\n1 1 2\n2 3 1\nx\n", False),
    ],
    ids=[
        "repeated-cell", "leading-zeros", "no-data", "crlf", "cr-header", "tabs", "plus-signs", "trailing-blank-lines",
        "no-final-newline", "extra-spaces", "19-digit-field", "zero-count", "doc-out-of-range", "word-out-of-range",
        "fewer-than-nnz", "more-than-nnz", "negative-count", "non-ascii-space", "18-digit-field", "in-range-maxima",
        "doc-zero", "word-zero", "data-after-no-nnz", "four-fields", "empty-field", "final-cr", "one-crlf-header-line",
        "text-after-nnz-lines",
    ],
)
def test_docword_forms_load_as_loadtxt_loads_them(tmp_path, monkeypatch, compiled_library, text, plain):
    header = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")[:3]
    read = compiled_library.read_docword(text.encode(), int(header[2]), int(header[0]), int(header[1]))
    assert (read is not None) == plain
    (tmp_path / "docword.txt").write_bytes(text.encode())
    (tmp_path / "vocab.txt").write_bytes(b"a\nb\nc\n")
    loaded, by_loadtxt = load_both_ways(monkeypatch, tmp_path / "docword.txt", tmp_path / "vocab.txt")
    assert loaded == by_loadtxt


@pytest.mark.parametrize(
    "data, line, message",
    [
        ("1 1\n", 4, "expected 'docID wordID count', got '1 1'"),
        ("1 1 1\n1 2 1 1\n", 5, "expected 'docID wordID count', got '1 2 1 1'"),
        ("1 1 1\n1 x 1\n", 5, "non-integer field in '1 x 1'"),
        ("1 1 1.5\n", 4, "non-integer field in '1 1 1.5'"),
        ("# a comment\n1 1 1\n", 4, "non-integer field in '# a comment'"),
        ("1 1 1\n1 2 1\n1 3 1\n", 6, "more than NNZ=2 data lines"),
        ("1 1 1\n1 2 1_0\n", 5, "non-integer field in '1 2 1_0'"),
        ("1 1 1\n1 2 99999999999999999999\n", 5, "counts add up to 100000000000000000000 tokens, more than one array can hold"),
    ],
    ids=["two-fields", "four-fields", "non-integer", "float", "comment", "more-than-nnz", "underscore", "huge-count"],
)
def test_load_bad_data_line_names_it(tmp_path, data, line, message):
    nnz = 2 if "more than" in message else data.count("\n")
    dw, vf = write_files(tmp_path, f"2\n3\n{nnz}\n" + data, "a\nb\nc\n")
    with pytest.raises(ParseError) as exc:
        load_bag_of_words(dw, vf)
    assert str(exc.value) == f"{dw}: line {line}: {message}"


def test_load_header_takes_the_data_line_integers_only(tmp_path):
    dw, vf = write_files(tmp_path, "2\n1_0\n1\n1 1 1\n", "a\n")
    with pytest.raises(ParseError, match="line 2: W header is not an integer: '1_0'"):
        load_bag_of_words(dw, vf)


def test_load_vocab_lines_end_at_line_breaks_only(tmp_path):
    # U+0085 and U+2028 are line breaks to str.splitlines, not to a text file
    dw, vf = write_files(tmp_path, "1\n2\n1\n1 2 1\n", "a\x85b\r\nc\u2028d\r\n")
    assert load_bag_of_words(dw, vf).vocab == ("a\x85b", "c\u2028d")


@pytest.mark.parametrize(
    "header, line, message",
    [("0\n3\n0\n", 1, "D must be positive, got 0"), ("1\n0\n0\n", 2, "W must be positive, got 0")],
    ids=["no-documents", "no-terms"],
)
def test_load_zero_header_names_the_header_line(tmp_path, header, line, message):
    dw, vf = write_files(tmp_path, header, "a\nb\nc\n")
    with pytest.raises(ParseError) as exc:
        load_bag_of_words(dw, vf)
    assert str(exc.value) == f"{dw}: line {line}: {message}"


def test_load_header_too_large_for_an_index(tmp_path):
    dw, vf = write_files(tmp_path, "4000000000\n4000000000\n0\n", "a\n")
    with pytest.raises(ParseError, match="line 2: D x W"):
        load_bag_of_words(dw, vf)


@pytest.mark.parametrize("which", ["docword", "vocab"])
def test_load_non_utf8_names_file_and_line(tmp_path, which):
    docword, vocab = b"2\n3\n1\n1 1 1\n", b"a\nb\nc\n"
    if which == "docword":
        docword = b"2\n3\n1\n1 1 \xff\n"
    else:
        vocab = b"a\r\nb\xffc\r\nc\r\n"
    (tmp_path / "docword.txt").write_bytes(docword)
    (tmp_path / "vocab.txt").write_bytes(vocab)
    with pytest.raises(ParseError) as exc:
        load_bag_of_words(tmp_path / "docword.txt", tmp_path / "vocab.txt")
    line = 4 if which == "docword" else 2
    assert str(exc.value).startswith(f"{tmp_path / (which + '.txt')}: line {line}: not UTF-8 text")


def test_round_trip(tmp_path):
    corpus = make_corpus([[0, 0, 2], [1], [2, 2, 2, 0]], 3)
    dw, vf = tmp_path / "d.txt", tmp_path / "v.txt"
    write_bag_of_words(corpus, dw, vf)
    reloaded = load_bag_of_words(dw, vf)
    assert same_corpus(reloaded, corpus)


# ---------------------------------------------------------------------------
# filtering
# ---------------------------------------------------------------------------


def test_filter_identity_at_threshold_one():
    corpus = make_corpus([[0, 1], [1, 2]], 3)
    assert same_corpus(filter_vocabulary(corpus, 1), corpus)


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
    assert same_corpus(twice, once)


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
        combined = np.sort(np.concatenate([split.train_tokens[j], split.test_tokens[j]]))
        assert np.array_equal(combined, corpus.doc_tokens[j])
    assert split.total_train + split.total_test == corpus.total_tokens


def test_split_keeps_flat_terms_and_per_document_views():
    corpus = make_corpus([[0, 0, 1, 2, 2, 2], [4], [1, 1, 1, 3], [2, 2]], 5)
    split = split_train_test(corpus, 0.55, RandomSource(11))
    assert list(split.train_offsets) == [0, 3, 4, 6, 7] and list(split.test_offsets) == [0, 3, 3, 5, 6]
    for flat, offsets, docs in (
        (split.train_terms, split.train_offsets, split.train_tokens),
        (split.test_terms, split.test_offsets, split.test_tokens),
    ):
        assert flat.dtype == np.int64 and len(docs) == split.num_docs
        for j, doc in enumerate(docs):
            assert doc.base is flat  # a view, not a second copy
            assert np.array_equal(doc, flat[offsets[j] : offsets[j + 1]])
    assert list(split.train_counts) == [3, 1, 2, 1] and list(split.test_counts) == [3, 0, 2, 1]


def test_split_deterministic():
    corpus = make_corpus([[0, 1, 2, 0, 1, 2, 0], [1, 1, 2, 2]], 3)
    a = split_train_test(corpus, 0.6, RandomSource(9))
    b = split_train_test(corpus, 0.6, RandomSource(9))
    assert np.array_equal(a.train_terms, b.train_terms) and np.array_equal(a.test_terms, b.test_terms)
    c = split_train_test(corpus, 0.6, RandomSource(10))
    assert not np.array_equal(a.train_terms, c.train_terms)


def test_split_domain_errors():
    corpus = make_corpus([[0]], 1)
    for frac in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            split_train_test(corpus, frac, RandomSource(0))


def test_split_rejects_empty_document():
    corpus = make_corpus([[0], []], 1)
    with pytest.raises(EmptyCorpusError, match=re.escape("(docID 2)")):
        split_train_test(corpus, 0.5, RandomSource(0))
    # the first empty document is named, by its 1-based docID
    corpus = make_corpus([[0], [0, 0], [], [0], []], 1)
    with pytest.raises(EmptyCorpusError, match=re.escape("cannot split a document with no tokens (docID 3)")):
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
    assert same_corpus(a, b)
    c, _ = synthesize_corpus(HyperParams(), spec, RandomSource(8))
    assert not same_corpus(a, c)


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


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"num_docs": 0}, "num_docs must be positive"),
        ({"topic_sharpness": 0.0}, "topic_sharpness must be positive"),
        ({"r": np.array([1.0, 2.0])}, "r must be a number or a list of k_true = 3 values"),
        ({"r": np.array([1.0, -2.0, 1.0])}, "r must be positive"),
        ({"p": np.full(4, 0.5)}, "p must be a number or a list of num_docs = 5 values"),
        ({"p": 1.0}, "p must lie in (0, 1)"),
        ({"max_retries": -1}, "max_retries must be >= 0"),
    ],
)
def test_synthetic_spec_validate_names_the_setting(overrides, message):
    spec = SyntheticSpec(**{"k_true": 3, "vocab_size": 5, "num_docs": 5, **overrides})
    with pytest.raises(ValueError, match=re.escape(message)):
        spec.validate()
    with pytest.raises(ValueError, match=re.escape(message)):
        synthesize_corpus(HyperParams(), spec, RandomSource(0))


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


def reference_docword(corpus):
    """The per-document writer the flat one replaced, kept as an oracle: the docword text."""
    cells = []
    for j, tokens in enumerate(corpus.doc_tokens):
        terms, counts = np.unique(tokens, return_counts=True)
        cells.extend(f"{j + 1} {v + 1} {n}" for v, n in zip(terms, counts))
    return "\n".join([str(corpus.num_docs), str(corpus.vocab_size), str(len(cells)), *cells]) + "\n"


def reference_filter(corpus, min_doc_freq):
    """The per-document filter the flat one replaced, kept as an oracle.

    Returns the surviving vocabulary, the surviving documents' terms and
    the number of documents dropped; raises EmptyCorpusError as it did.
    """
    doc_freq = np.zeros(corpus.vocab_size, dtype=np.int64)
    for tokens in corpus.doc_tokens:
        doc_freq[np.unique(tokens)] += 1
    keep = doc_freq >= min_doc_freq
    if not keep.any():
        raise EmptyCorpusError("nothing left after filtering")
    remap = -np.ones(corpus.vocab_size, dtype=np.int64)
    remap[keep] = np.arange(int(keep.sum()))
    vocab = tuple(t for t, k in zip(corpus.vocab, keep) if k)
    docs = [np.sort(remap[tokens[keep[tokens]]]) for tokens in corpus.doc_tokens]
    return vocab, [d for d in docs if len(d)], sum(1 for d in docs if not len(d))


def random_corpus(gen):
    """A corpus with repeated terms, rare terms and, at times, empty documents."""
    num_docs, vocab_size = int(gen.integers(1, 9)), int(gen.integers(1, 16))
    weights = gen.dirichlet(np.full(vocab_size, 0.3))  # a few common terms, many rare ones
    lengths = gen.integers(0, 9, size=num_docs) * (gen.random(num_docs) > 0.1)
    return make_corpus([gen.choice(vocab_size, size=n, p=weights) for n in lengths], vocab_size)


@pytest.mark.parametrize("min_doc_freq", [1, 2])
def test_flat_writer_and_filter_match_per_document_loops(tmp_path, caplog, min_doc_freq):
    gen = np.random.default_rng(404 + min_doc_freq)
    dw, vf = tmp_path / "docword.txt", tmp_path / "vocab.txt"
    saw_repeat = saw_dropped = saw_emptied = saw_empty_result = False
    for _ in range(300):
        corpus = random_corpus(gen)
        write_bag_of_words(corpus, dw, vf)
        assert dw.read_bytes() == reference_docword(corpus).encode()
        saw_repeat |= any(len(np.unique(t)) < len(t) for t in corpus.doc_tokens)
        try:
            vocab, docs, dropped = reference_filter(corpus, min_doc_freq)
        except EmptyCorpusError:
            saw_empty_result = True
            with pytest.raises(EmptyCorpusError):
                filter_vocabulary(corpus, min_doc_freq)
            continue
        caplog.clear()
        with caplog.at_level("WARNING"):
            filtered = filter_vocabulary(corpus, min_doc_freq)
        assert filtered.vocab == vocab and filtered.num_docs == len(docs)
        assert filtered.terms.dtype == np.int64 and filtered.offsets.dtype == np.int64
        for got, want in zip(filtered.doc_tokens, docs):
            assert np.array_equal(got, want)
        warnings = [r.getMessage() for r in caplog.records if "dropped" in r.getMessage()]
        expected = [f"filter_vocabulary(min_doc_freq={min_doc_freq}) dropped {dropped} empty document(s)"]
        assert warnings == (expected if dropped else [])
        saw_dropped |= dropped > 0
        saw_emptied |= dropped > sum(len(t) == 0 for t in corpus.doc_tokens)  # not only empty before
        write_bag_of_words(filtered, dw, vf)
        assert dw.read_bytes() == reference_docword(filtered).encode()
    assert saw_repeat and saw_dropped
    if min_doc_freq > 1:  # documents emptied by the filter, and corpora it empties
        assert saw_emptied and saw_empty_result
