"""Bag-of-words corpora: loading, filtering, held-out splits, synthesis.

The interchange format is the UCI sparse bag-of-words layout: a docword
file whose first three lines give D (documents), W (vocabulary size) and
NNZ (number of nonzero doc/term cells), followed by NNZ lines of
``docID wordID count`` with 1-based ids, plus a vocabulary file with one
term per line.  Both files are UTF-8; a line ends at LF, CRLF or CR.

A corpus and a held-out split keep their term ids flat and document-major,
each document's terms ascending, with document offsets: document j is
``terms[offsets[j]:offsets[j + 1]]``.  Loading, writing, filtering and
splitting work on those arrays; ``doc_tokens`` and the like are views.

The data lines are read in one pass into an NNZ x 3 integer array,
checked, and expanded into the flat terms with one ``np.repeat``, so
loading takes memory in proportion to NNZ and the token count.  A file of
the plainest form, every data line ``digits SP digits SP digits LF`` and
in range, is read by a compiled loop (``_kernels``' ``read_docword``);
any other file by ``np.loadtxt``, which gives the same rows for the
files both read.  Blank lines are skipped, fields are separated by any
whitespace, and a (doc, term) cell given on several lines gets the sum
of their counts.  A field is an ASCII integer with an optional sign.  When a check fails, a
line-by-line walk finds the first bad line and the ``ParseError`` names
it.
"""

from __future__ import annotations

import functools
import logging
import math
import re
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .distributions import sample_dirichlet
from .rng import RandomSource

logger = logging.getLogger(__name__)

_INT64_MAX = int(np.iinfo(np.int64).max)
_MAX_TOKENS = _INT64_MAX // 8  # the most int64 entries one numpy array can hold
_INTEGER = re.compile(r"[+-]?[0-9]+")  # the integers np.loadtxt reads as int64; int() takes more
# docword lines formatted per write, so the text of a whole corpus never exists at once
_WRITE_CELLS = 1 << 14


class ParseError(ValueError):
    """Malformed bag-of-words input; the message names the line."""


class EmptyCorpusError(ValueError):
    """An operation produced a corpus with no terms or no documents."""


@dataclass(frozen=True)
class Corpus:
    """An immutable document collection over a fixed vocabulary.

    ``terms`` holds the term index of every token instance, flat and
    document-major, each document's terms sorted (token order carries no
    meaning); document j is ``terms[offsets[j]:offsets[j + 1]]``, and
    ``doc_tokens[j]`` is that slice as a view.
    """

    vocab: tuple[str, ...]
    terms: np.ndarray
    offsets: np.ndarray

    @functools.cached_property
    def doc_tokens(self) -> tuple[np.ndarray, ...]:
        return document_views(self.terms, self.offsets)

    @property
    def num_docs(self) -> int:
        return len(self.offsets) - 1

    @property
    def vocab_size(self) -> int:
        return len(self.vocab)

    @property
    def total_tokens(self) -> int:
        return len(self.terms)

    @property
    def doc_lengths(self) -> np.ndarray:
        return np.diff(self.offsets)


def _header(fh, path) -> tuple[int, int, int]:
    """Read the D, W and NNZ header lines."""
    values = []
    for lineno, (name, least) in enumerate((("D", 1), ("W", 1), ("NNZ", 0)), 1):
        line = fh.readline()
        if not line:
            raise ParseError(f"{path}: line {lineno}: missing {name} header line")
        line = line.rstrip("\n")
        if not _INTEGER.fullmatch(line.strip()):
            raise ParseError(f"{path}: line {lineno}: {name} header is not an integer: {line!r}")
        value = int(line)
        if value < least:
            raise ParseError(f"{path}: line {lineno}: {name} must be {'positive' if least else 'non-negative'}, got {value}")
        values.append(value)
    num_docs, vocab_size, nnz = values
    if num_docs * vocab_size > _INT64_MAX:
        raise ParseError(f"{path}: line 2: D x W = {num_docs * vocab_size} cells do not fit a 64-bit index")
    return num_docs, vocab_size, nnz


def _data_rows(fh, num_docs: int, vocab_size: int, nnz: int) -> np.ndarray | None:
    """The remaining lines as an (NNZ, 3) array of docID, wordID, count.

    Returns None if any line is malformed or out of range; ``_first_bad_line``
    then finds the line.
    """
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            rows = np.loadtxt(fh, dtype=np.int64, comments=None, ndmin=2)
    except ValueError:
        return None
    if rows.size == 0:
        rows = rows.reshape(0, 3)
    if rows.shape != (nnz, 3):
        return None
    high = rows.max(axis=0, initial=1)
    if rows.min(initial=1) < 1 or high[0] > num_docs or high[1] > vocab_size:
        return None
    return _within_one_array(rows)


def _within_one_array(rows: np.ndarray) -> np.ndarray | None:
    """``rows``, or None where their counts add up to more tokens than one array can hold."""
    return None if rows[:, 2].sum(dtype=np.float64) > _MAX_TOKENS else rows


def _plain_rows(path, num_docs: int, vocab_size: int, nnz: int) -> np.ndarray | None:
    """The checked data rows of a docword file of the plainest form, read by the compiled loop.

    Returns None where the file is of another form; ``_data_rows`` then
    reads it.
    """
    with open(path, "rb") as fh:
        rows = _kernels.library().read_docword(fh.read(), nnz, num_docs, vocab_size)
    return None if rows is None else _within_one_array(rows)


def _first_bad_line(path, num_docs: int, vocab_size: int, nnz: int) -> str:
    """Walk the data lines one by one and describe the first fault."""
    seen = tokens = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if lineno <= 3 or not line:
                continue
            where = f"{path}: line {lineno}"
            if seen >= nnz:
                return f"{where}: more than NNZ={nnz} data lines"
            parts = line.split()
            if len(parts) != 3:
                return f"{where}: expected 'docID wordID count', got {line!r}"
            if not all(_INTEGER.fullmatch(p) for p in parts):
                return f"{where}: non-integer field in {line!r}"
            doc_id, word_id, count = (int(p) for p in parts)
            if not 1 <= doc_id <= num_docs:
                return f"{where}: docID {doc_id} outside 1..{num_docs}"
            if not 1 <= word_id <= vocab_size:
                return f"{where}: wordID {word_id} outside 1..{vocab_size}"
            if count <= 0:
                return f"{where}: count must be positive, got {count}"
            tokens += count
            if tokens > _MAX_TOKENS:
                return f"{where}: counts add up to {tokens} tokens, more than one array can hold"
            seen += 1
    if seen != nnz:
        return f"{path}: expected NNZ={nnz} data lines, found {seen}"
    return f"{path}: data lines do not parse as 'docID wordID count'"


def _not_utf8(path) -> ParseError:
    """A ParseError naming the line of the first byte that is not UTF-8."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = 1 + len(re.findall(rb"\r\n?|\n", data[: exc.start]))
        return ParseError(f"{path}: line {lineno}: not UTF-8 text: {exc.reason} at byte {exc.start}")
    return ParseError(f"{path}: not UTF-8 text")


def _flat_terms(rows: np.ndarray, num_docs: int, vocab_size: int) -> tuple[np.ndarray, np.ndarray]:
    """The flat, per-document sorted terms and the offsets of checked docword rows."""
    doc, term, count = rows.T
    lengths = np.zeros(num_docs, dtype=np.int64)
    np.add.at(lengths, doc - 1, count)
    # document-major, terms ascending: the lines of a repeated (doc, term)
    # cell end up adjacent, so the repeat adds up their counts
    key = (doc - 1) * vocab_size + term
    if np.any(key[1:] < key[:-1]):  # UCI files come sorted, and a stable sort of a sorted key keeps its order
        order = np.argsort(key, kind="stable")
        term, count = term[order], count[order]
    return np.repeat(term - 1, count), offsets_from_lengths(lengths)


def load_bag_of_words(docword_path, vocab_path) -> Corpus:
    """Load a corpus from UCI-format docword and vocabulary files."""
    try:
        with open(docword_path, "r", encoding="utf-8") as fh:
            num_docs, vocab_size, nnz = _header(fh, docword_path)
            rows = _plain_rows(docword_path, num_docs, vocab_size, nnz)
            if rows is None:
                rows = _data_rows(fh, num_docs, vocab_size, nnz)
        if rows is None:
            raise ParseError(_first_bad_line(docword_path, num_docs, vocab_size, nnz))
    except UnicodeDecodeError:
        raise _not_utf8(docword_path) from None
    try:
        with open(vocab_path, "r", encoding="utf-8") as fh:
            vocab_lines = fh.read().split("\n")
    except UnicodeDecodeError:
        raise _not_utf8(vocab_path) from None
    while vocab_lines and not vocab_lines[-1].strip():
        vocab_lines.pop()
    vocab = tuple(line.strip() for line in vocab_lines)
    if len(vocab) != vocab_size:
        raise ParseError(
            f"{vocab_path}: expected {vocab_size} vocabulary lines to match the docword header, "
            f"found {len(vocab)}"
        )
    return Corpus(vocab, *_flat_terms(rows, num_docs, vocab_size))


def _cells(corpus: Corpus) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzero (document, term) cells in docword order, with their counts: the runs of a term in a document."""
    terms, offsets = corpus.terms, corpus.offsets
    new_cell = np.zeros(len(terms), dtype=bool)
    new_cell[1:] = terms[1:] != terms[:-1]
    new_cell[offsets[:-1][corpus.doc_lengths > 0]] = True  # each document's first token
    first = np.flatnonzero(new_cell)
    return np.searchsorted(offsets, first, side="right") - 1, terms[first], np.diff(first, append=len(terms))


def write_bag_of_words(corpus: Corpus, docword_path, vocab_path) -> None:
    """Write a corpus in the UCI docword/vocabulary format."""
    doc, term, count = _cells(corpus)
    with open(docword_path, "w", encoding="utf-8") as fh:
        fh.write(f"{corpus.num_docs}\n{corpus.vocab_size}\n{len(count)}\n")
        for start in range(0, len(count), _WRITE_CELLS):
            rows = (a[start : start + _WRITE_CELLS].tolist() for a in (doc + 1, term + 1, count))
            fh.write("".join(f"{d} {v} {n}\n" for d, v, n in zip(*rows)))
    with open(vocab_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(corpus.vocab) + "\n")


def filter_vocabulary(corpus: Corpus, min_doc_freq: int) -> Corpus:
    """Drop terms that appear in fewer than ``min_doc_freq`` documents.

    Surviving term indices are remapped densely; documents left with no
    tokens are dropped with a warning.
    """
    if min_doc_freq < 1:
        raise ValueError(f"min_doc_freq must be >= 1, got {min_doc_freq}")
    doc_freq = np.bincount(_cells(corpus)[1], minlength=corpus.vocab_size)
    keep = doc_freq >= min_doc_freq
    if not keep.any():
        raise EmptyCorpusError(
            f"no term appears in at least {min_doc_freq} documents; nothing left after filtering"
        )
    remap = np.cumsum(keep) - 1  # dense and ascending, so each document's terms stay sorted
    vocab = tuple(t for t, k in zip(corpus.vocab, keep) if k)
    kept = keep[corpus.terms]
    lengths = np.diff(offsets_from_lengths(kept)[corpus.offsets])  # kept tokens per document
    source = f"filter_vocabulary(min_doc_freq={min_doc_freq})"
    return _without_empty_documents(vocab, remap[corpus.terms[kept]], lengths, source)


def drop_empty_documents(corpus: Corpus) -> Corpus:
    """Drop the documents that hold no tokens, with a warning; the vocabulary is kept."""
    return _without_empty_documents(corpus.vocab, corpus.terms, corpus.doc_lengths, "drop_empty_documents")


def _without_empty_documents(vocab, terms: np.ndarray, lengths: np.ndarray, source: str) -> Corpus:
    """The corpus of ``terms`` in documents of ``lengths`` tokens, less those of none, which ``source`` warns about."""
    dropped = int(np.count_nonzero(lengths == 0))
    if dropped:
        logger.warning("%s dropped %d empty document(s)", source, dropped)
    return Corpus(vocab, terms, offsets_from_lengths(lengths[lengths > 0]))


def offsets_from_lengths(lengths) -> np.ndarray:
    """Document offsets of a flat layout: 0, then the running sum of ``lengths``."""
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


def flatten_documents(docs) -> tuple[np.ndarray, np.ndarray]:
    """One flat, document-major int64 array of per-document arrays, and its offsets."""
    docs = [np.asarray(d, dtype=np.int64) for d in docs]
    return np.concatenate([np.zeros(0, dtype=np.int64), *docs]), offsets_from_lengths([len(d) for d in docs])


def document_views(flat: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each document's slice of a flat array, as views: document j is ``flat[offsets[j]:offsets[j + 1]]``."""
    bounds = offsets.tolist()
    return tuple(flat[start:stop] for start, stop in zip(bounds, bounds[1:]))


@dataclass(frozen=True)
class HeldOutSplit:
    """Per-document partition of token instances into train and test.

    The term ids are kept flat and document-major, with document offsets:
    document j's training terms are
    ``train_terms[train_offsets[j]:train_offsets[j + 1]]``, and its test
    terms likewise.  ``train_tokens`` / ``test_tokens`` give the same terms
    as one view per document, not a copy.
    """

    train_fraction: float
    train_terms: np.ndarray
    train_offsets: np.ndarray
    test_terms: np.ndarray
    test_offsets: np.ndarray

    @functools.cached_property
    def train_tokens(self) -> tuple[np.ndarray, ...]:
        return document_views(self.train_terms, self.train_offsets)

    @functools.cached_property
    def test_tokens(self) -> tuple[np.ndarray, ...]:
        return document_views(self.test_terms, self.test_offsets)

    @property
    def num_docs(self) -> int:
        return len(self.train_offsets) - 1

    @property
    def train_counts(self) -> np.ndarray:
        return np.diff(self.train_offsets)

    @property
    def test_counts(self) -> np.ndarray:
        return np.diff(self.test_offsets)

    @property
    def total_train(self) -> int:
        return len(self.train_terms)

    @property
    def total_test(self) -> int:
        return len(self.test_terms)


def split_train_test(corpus: Corpus, frac: float, rng: RandomSource) -> HeldOutSplit:
    """Mark a uniform random subset of each document's tokens as training.

    The training set size is ``max(1, round(frac * N_j))`` with
    round-half-up; every document keeps at least one training token, so
    short documents may contribute no test tokens.
    """
    if not 0.0 < frac < 1.0:
        raise ValueError(f"frac must lie in the open unit interval, got {frac}")
    lengths = corpus.doc_lengths.tolist()
    if min(lengths, default=1) < 1:
        raise EmptyCorpusError(f"cannot split a document with no tokens (docID {lengths.index(0) + 1}); filter the corpus first")
    train_lengths = [max(1, int(math.floor(frac * n + 0.5))) for n in lengths]
    train_offsets = offsets_from_lengths(train_lengths)
    test_offsets = offsets_from_lengths([n - n_train for n, n_train in zip(lengths, train_lengths)])
    train_terms = np.empty(train_offsets[-1], dtype=np.int64)
    test_terms = np.empty(test_offsets[-1], dtype=np.int64)
    starts = zip(train_offsets.tolist(), test_offsets.tolist())
    for tokens, n_train, (train_start, test_start) in zip(corpus.doc_tokens, train_lengths, starts):
        perm = rng.generator.permutation(len(tokens))
        train_terms[train_start : train_start + n_train] = tokens[np.sort(perm[:n_train])]
        test_terms[test_start : test_start + len(tokens) - n_train] = tokens[np.sort(perm[n_train:])]
    return HeldOutSplit(
        train_fraction=float(frac),
        train_terms=train_terms,
        train_offsets=train_offsets,
        test_terms=test_terms,
        test_offsets=test_offsets,
    )


@dataclass
class SyntheticSpec:
    """Generative settings for a synthetic gamma-NB corpus.

    ``r`` may be a scalar (shared by all topics) or a length-``k_true``
    array; ``p`` a scalar or length-``num_docs`` array.  ``topic_sharpness``
    is the symmetric Dirichlet concentration of the topics; ``None``
    falls back to the model smoothing parameter supplied alongside.
    """

    k_true: int
    vocab_size: int
    num_docs: int
    topic_sharpness: float | None = None
    r: float | np.ndarray = 5.0
    p: float | np.ndarray = 0.5
    max_retries: int = 100

    def validate(self) -> None:
        """Reject an out-of-range setting, naming it."""
        for name in ("k_true", "vocab_size", "num_docs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.topic_sharpness is not None and not self.topic_sharpness > 0:
            raise ValueError(f"topic_sharpness must be positive, got {self.topic_sharpness}")
        for name, length, owner in (("r", self.k_true, "k_true"), ("p", self.num_docs, "num_docs")):
            values = np.asarray(getattr(self, name), dtype=np.float64)
            if values.ndim != 0 and values.shape != (length,):
                raise ValueError(f"{name} must be a number or a list of {owner} = {length} values, got shape {values.shape}")
        if not np.all(np.asarray(self.r, dtype=np.float64) > 0):
            raise ValueError(f"r must be positive, got {self.r}")
        p = np.asarray(self.p, dtype=np.float64)
        if not np.all((p > 0) & (p < 1)):
            raise ValueError(f"p must lie in (0, 1), got {self.p}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")


@dataclass
class SyntheticGroundTruth:
    """The latent state a synthetic corpus was generated from."""

    omega: np.ndarray  # k_true x V topic distributions
    r_k: np.ndarray  # k_true dispersions
    p_j: np.ndarray  # per-document probabilities
    topic_counts: np.ndarray = field(repr=False)  # J x k_true token counts


def synthesize_corpus(hyper, truth: SyntheticSpec, rng: RandomSource) -> tuple[Corpus, SyntheticGroundTruth]:
    """Forward-simulate a corpus from the gamma-NB generative process.

    Topics come from a symmetric Dirichlet; per-document topic counts
    are NB(r_k, p_j) via the gamma-Poisson augmentation; tokens are then
    drawn from the owning topic.  Documents that come out empty are
    resampled up to ``truth.max_retries`` times.
    """
    truth.validate()
    k_true, V, J = truth.k_true, truth.vocab_size, truth.num_docs
    sharpness = truth.topic_sharpness if truth.topic_sharpness is not None else hyper.eta
    r_k = np.broadcast_to(np.asarray(truth.r, dtype=np.float64), (k_true,)).copy()
    p_j = np.broadcast_to(np.asarray(truth.p, dtype=np.float64), (J,)).copy()

    gen = rng.generator
    omega = np.vstack([sample_dirichlet(np.full(V, sharpness), rng) for _ in range(k_true)])
    docs = []
    topic_counts = np.zeros((J, k_true), dtype=np.int64)
    for j in range(J):
        scale = p_j[j] / (1.0 - p_j[j])
        for attempt in range(truth.max_retries + 1):
            lam = gen.gamma(r_k, scale)
            n_jk = gen.poisson(lam)
            if n_jk.sum() > 0:
                break
        else:
            raise ValueError(
                f"document {j} came out empty after {truth.max_retries} retries; "
                "increase r or p in the synthetic settings"
            )
        tokens = [gen.choice(V, size=int(n), p=omega[k]) for k, n in enumerate(n_jk) if n > 0]
        docs.append(np.sort(np.concatenate(tokens).astype(np.int64)))
        topic_counts[j] = n_jk
    vocab = tuple(f"w{v:04d}" for v in range(V))
    corpus = Corpus(vocab, *flatten_documents(docs))
    return corpus, SyntheticGroundTruth(omega=omega, r_k=r_k, p_j=p_j, topic_counts=topic_counts)
