"""Bag-of-words corpora: loading, filtering, held-out splits, synthesis.

The interchange format is the UCI sparse bag-of-words layout: a docword
file whose first three lines give D (documents), W (vocabulary size) and
NNZ (number of nonzero doc/term cells), followed by NNZ lines of
``docID wordID count`` with 1-based ids, plus a vocabulary file with one
term per line.  LF and CRLF line endings are both accepted.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import sample_dirichlet
from .rng import RandomSource

logger = logging.getLogger(__name__)


class ParseError(ValueError):
    """Malformed bag-of-words input; the message names the line."""


class EmptyCorpusError(ValueError):
    """An operation produced a corpus with no terms or no documents."""


@dataclass(frozen=True)
class Corpus:
    """An immutable document collection over a fixed vocabulary.

    ``doc_tokens[j]`` holds the term index of every token instance in
    document j (sorted by term, since token order carries no meaning).
    """

    vocab: tuple[str, ...]
    doc_tokens: tuple[np.ndarray, ...]

    @property
    def num_docs(self) -> int:
        return len(self.doc_tokens)

    @property
    def vocab_size(self) -> int:
        return len(self.vocab)

    @property
    def total_tokens(self) -> int:
        return int(sum(len(t) for t in self.doc_tokens))

    @property
    def doc_lengths(self) -> np.ndarray:
        return np.array([len(t) for t in self.doc_tokens], dtype=np.int64)

    def same_as(self, other: "Corpus") -> bool:
        """Content equality: identical vocabulary and token counts."""
        return (
            self.vocab == other.vocab
            and self.num_docs == other.num_docs
            and all(np.array_equal(np.sort(a), np.sort(b)) for a, b in zip(self.doc_tokens, other.doc_tokens))
        )


def _tokens_from_counts(num_docs: int, vocab_size: int, cells: dict[tuple[int, int], int]) -> tuple[np.ndarray, ...]:
    per_doc: list[list[int]] = [[] for _ in range(num_docs)]
    for (doc, term), count in cells.items():
        per_doc[doc].extend([term] * count)
    return tuple(np.sort(np.asarray(tokens, dtype=np.int64)) for tokens in per_doc)


def load_bag_of_words(docword_path, vocab_path) -> Corpus:
    """Load a corpus from UCI-format docword and vocabulary files."""
    with open(docword_path, "r", encoding="utf-8") as fh:
        raw_lines = fh.read().splitlines()

    def _header_int(idx: int, name: str) -> int:
        if idx >= len(raw_lines):
            raise ParseError(f"{docword_path}: line {idx + 1}: missing {name} header line")
        try:
            value = int(raw_lines[idx].strip())
        except ValueError:
            raise ParseError(
                f"{docword_path}: line {idx + 1}: {name} header is not an integer: {raw_lines[idx]!r}"
            ) from None
        if value < 0:
            raise ParseError(f"{docword_path}: line {idx + 1}: {name} must be non-negative, got {value}")
        return value

    num_docs = _header_int(0, "D")
    vocab_size = _header_int(1, "W")
    nnz = _header_int(2, "NNZ")

    cells: dict[tuple[int, int], int] = {}
    seen = 0
    for idx in range(3, len(raw_lines)):
        line = raw_lines[idx].strip()
        if not line:
            continue
        if seen >= nnz:
            raise ParseError(f"{docword_path}: line {idx + 1}: more than NNZ={nnz} data lines")
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"{docword_path}: line {idx + 1}: expected 'docID wordID count', got {line!r}")
        try:
            doc_id, word_id, count = (int(p) for p in parts)
        except ValueError:
            raise ParseError(f"{docword_path}: line {idx + 1}: non-integer field in {line!r}") from None
        if not 1 <= doc_id <= num_docs:
            raise ParseError(f"{docword_path}: line {idx + 1}: docID {doc_id} outside 1..{num_docs}")
        if not 1 <= word_id <= vocab_size:
            raise ParseError(f"{docword_path}: line {idx + 1}: wordID {word_id} outside 1..{vocab_size}")
        if count <= 0:
            raise ParseError(f"{docword_path}: line {idx + 1}: count must be positive, got {count}")
        key = (doc_id - 1, word_id - 1)
        cells[key] = cells.get(key, 0) + count
        seen += 1
    if seen != nnz:
        raise ParseError(f"{docword_path}: expected NNZ={nnz} data lines, found {seen}")

    with open(vocab_path, "r", encoding="utf-8") as fh:
        vocab_lines = fh.read().splitlines()
    while vocab_lines and not vocab_lines[-1].strip():
        vocab_lines.pop()
    vocab = tuple(line.strip() for line in vocab_lines)
    if len(vocab) != vocab_size:
        raise ParseError(
            f"{vocab_path}: expected {vocab_size} vocabulary lines to match the docword header, "
            f"found {len(vocab)}"
        )
    return Corpus(vocab=vocab, doc_tokens=_tokens_from_counts(num_docs, vocab_size, cells))


def write_bag_of_words(corpus: Corpus, docword_path, vocab_path) -> None:
    """Write a corpus in the UCI docword/vocabulary format."""
    cells = []  # document-major, terms ascending within a document
    for j, tokens in enumerate(corpus.doc_tokens):
        terms, counts = np.unique(tokens, return_counts=True)
        cells.extend(f"{j + 1} {v + 1} {n}" for v, n in zip(terms, counts))
    lines = [str(corpus.num_docs), str(corpus.vocab_size), str(len(cells)), *cells]
    with open(docword_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(vocab_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(corpus.vocab) + "\n")


def filter_vocabulary(corpus: Corpus, min_doc_freq: int) -> Corpus:
    """Drop terms that appear in fewer than ``min_doc_freq`` documents.

    Surviving term indices are remapped densely; documents left with no
    tokens are dropped with a warning.
    """
    if min_doc_freq < 1:
        raise ValueError(f"min_doc_freq must be >= 1, got {min_doc_freq}")
    doc_freq = np.zeros(corpus.vocab_size, dtype=np.int64)
    for tokens in corpus.doc_tokens:
        doc_freq[np.unique(tokens)] += 1
    keep = doc_freq >= min_doc_freq
    if not keep.any():
        raise EmptyCorpusError(
            f"no term appears in at least {min_doc_freq} documents; nothing left after filtering"
        )
    remap = -np.ones(corpus.vocab_size, dtype=np.int64)
    remap[keep] = np.arange(int(keep.sum()))
    vocab = tuple(t for t, k in zip(corpus.vocab, keep) if k)
    docs = []
    dropped = 0
    for j, tokens in enumerate(corpus.doc_tokens):
        kept = tokens[keep[tokens]]
        if len(kept) == 0:
            dropped += 1
            continue
        docs.append(np.sort(remap[kept]))
    if dropped:
        logger.warning("filter_vocabulary(min_doc_freq=%d) dropped %d empty document(s)", min_doc_freq, dropped)
    if not docs:
        raise EmptyCorpusError("all documents became empty after vocabulary filtering")
    return Corpus(vocab=vocab, doc_tokens=tuple(docs))


@dataclass(frozen=True)
class HeldOutSplit:
    """Per-document partition of token instances into train and test.

    ``train_positions[j]`` / ``test_positions[j]`` index into
    ``corpus.doc_tokens[j]``; together they recover every token exactly
    once.  ``train_tokens`` / ``test_tokens`` carry the corresponding
    term ids for convenience.
    """

    train_fraction: float
    train_positions: tuple[np.ndarray, ...]
    test_positions: tuple[np.ndarray, ...]
    train_tokens: tuple[np.ndarray, ...]
    test_tokens: tuple[np.ndarray, ...]

    @property
    def num_docs(self) -> int:
        return len(self.train_tokens)

    @property
    def train_counts(self) -> np.ndarray:
        return np.array([len(t) for t in self.train_tokens], dtype=np.int64)

    @property
    def test_counts(self) -> np.ndarray:
        return np.array([len(t) for t in self.test_tokens], dtype=np.int64)

    @property
    def total_train(self) -> int:
        return int(self.train_counts.sum())

    @property
    def total_test(self) -> int:
        return int(self.test_counts.sum())


def split_train_test(corpus: Corpus, frac: float, rng: RandomSource) -> HeldOutSplit:
    """Mark a uniform random subset of each document's tokens as training.

    The training set size is ``max(1, round(frac * N_j))`` with
    round-half-up; every document keeps at least one training token, so
    short documents may contribute no test tokens.
    """
    if not 0.0 < frac < 1.0:
        raise ValueError(f"frac must lie in the open unit interval, got {frac}")
    train_pos, test_pos, train_tok, test_tok = [], [], [], []
    for tokens in corpus.doc_tokens:
        n = len(tokens)
        if n < 1:
            raise EmptyCorpusError("cannot split a document with no tokens; filter the corpus first")
        n_train = max(1, int(math.floor(frac * n + 0.5)))
        perm = rng.generator.permutation(n)
        tr = np.sort(perm[:n_train])
        te = np.sort(perm[n_train:])
        train_pos.append(tr)
        test_pos.append(te)
        train_tok.append(tokens[tr])
        test_tok.append(tokens[te])
    return HeldOutSplit(
        train_fraction=float(frac),
        train_positions=tuple(train_pos),
        test_positions=tuple(test_pos),
        train_tokens=tuple(train_tok),
        test_tokens=tuple(test_tok),
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
    k_true, V, J = truth.k_true, truth.vocab_size, truth.num_docs
    if min(k_true, V, J) < 1:
        raise ValueError("k_true, vocab_size and num_docs must all be positive")
    sharpness = truth.topic_sharpness if truth.topic_sharpness is not None else hyper.eta
    if sharpness <= 0:
        raise ValueError(f"topic sharpness must be positive, got {sharpness}")
    r_k = np.broadcast_to(np.asarray(truth.r, dtype=np.float64), (k_true,)).copy()
    p_j = np.broadcast_to(np.asarray(truth.p, dtype=np.float64), (J,)).copy()
    if np.any(r_k <= 0) or np.any(p_j <= 0) or np.any(p_j >= 1):
        raise ValueError("r must be positive and p inside the open unit interval")

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
    corpus = Corpus(vocab=vocab, doc_tokens=tuple(docs))
    return corpus, SyntheticGroundTruth(omega=omega, r_k=r_k, p_j=p_j, topic_counts=topic_counts)
