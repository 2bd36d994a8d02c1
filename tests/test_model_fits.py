"""Fit-quality checks that run short chains on small synthetic corpora."""

import numpy as np
import pytest
from scipy.stats import ks_2samp

from nbproc import (
    HyperParams,
    ModelKind,
    RandomSource,
    gibbs_sweep,
    initialize,
    split_train_test,
)
from nbproc.corpus import Corpus, flatten_documents


def make_corpus(doc_tokens, vocab_size):
    vocab = tuple(f"w{v}" for v in range(vocab_size))
    return Corpus(vocab, *flatten_documents(np.sort(np.asarray(t, dtype=np.int64)) for t in doc_tokens))


def run_chain(kind, corpus, hyper, seed, sweeps, warmup, collect, frac=0.8, thin=1):
    """Initialize and sweep, collecting ``collect(state)`` after warm-up."""
    root = RandomSource(seed)
    split = split_train_test(corpus, frac, root.child(2))
    state = initialize(kind, corpus, split, hyper, root.child(0))
    source = root.child(1)
    rows = []
    for it in range(sweeps):
        gibbs_sweep(state, hyper, source)
        if it >= warmup and (it - warmup) % thin == 0:
            rows.append(collect(state))
    return rows, state, split


def test_nb_lda_single_document_rate_recovery():
    # J = K = 1 reduces to fitting one NB(r, p) to the token count; the
    # posterior mean of r p / (1 - p) must track the observed count.
    # A uniform Beta(1, 1) prior on p keeps that mean finite (under the
    # fully diffuse default prior E[p/(1-p)] diverges whenever r <= 1,
    # so only the median tracks there).
    gen = RandomSource(100).generator
    tokens = gen.integers(0, 5, size=250).astype(np.int64)
    corpus = make_corpus([list(tokens)], 5)
    hyper = HyperParams(K=1, eta=0.3, a0=1.0, b0=1.0, iters=2, burnin=0, init_iters=5)
    rows, _, split = run_chain(
        ModelKind.NB_LDA,
        corpus,
        hyper,
        seed=101,
        sweeps=3000,
        warmup=500,
        collect=lambda s: s.r[0] * s.p[0] / (1 - s.p[0]),
    )
    n_train = split.train_counts[0]
    assert n_train == 200  # 0.8 * 250
    assert abs(np.mean(rows) / n_train - 1) < 0.20
    assert abs(np.median(rows) / n_train - 1) < 0.20


def test_nb_lda_identical_documents_exchangeable():
    # two identical documents must produce exchangeable r_j chains
    gen = RandomSource(102).generator
    doc = list(gen.integers(0, 6, size=60).astype(np.int64))
    corpus = make_corpus([doc, list(doc)], 6)
    hyper = HyperParams(K=4, eta=0.3, iters=2, burnin=0, init_iters=5)
    rows, _, _ = run_chain(
        ModelKind.NB_LDA,
        corpus,
        hyper,
        seed=103,
        sweeps=21_000,
        warmup=1000,
        thin=5,
        collect=lambda s: (s.r[0], s.r[1]),
    )
    r1 = np.array([r[0] for r in rows])
    r2 = np.array([r[1] for r in rows])
    assert ks_2samp(r1, r2).statistic < 0.05


def test_beta_nb_probability_transition_is_sharp():
    # fitted per-topic probabilities split between ~1 (active topics)
    # and ~0 (inactive topics)
    gen = RandomSource(104).generator
    docs = []
    for _ in range(30):
        half = gen.integers(0, 2)
        terms = gen.integers(10 * half, 10 * half + 10, size=25)
        docs.append(list(terms.astype(np.int64)))
    corpus = make_corpus(docs, 20)
    hyper = HyperParams(K=10, c=1.0, eta=0.1, iters=2, burnin=0, init_iters=10)
    rows, _, _ = run_chain(
        ModelKind.BETA_NB,
        corpus,
        hyper,
        seed=105,
        sweeps=400,
        warmup=200,
        collect=lambda s: (s.p.copy(), s.n_jk.sum(axis=0) > 0),
    )
    p_mean = np.mean([r[0] for r in rows], axis=0)
    used_frac = np.mean([r[1] for r in rows], axis=0)
    assert p_mean[used_frac > 0.9].min() > 0.8  # consistently used topics saturate
    assert p_mean[used_frac < 0.1].max() < 0.2  # unused topics collapse
    assert used_frac.max() > 0.9 and used_frac.min() < 0.1


def test_marked_beta_nb_recovers_both_dispersion_regimes():
    # one topic with large mean and small overdispersion (large r, small p),
    # one with large mean and large overdispersion (small r, large p);
    # the fitted dominant topics must reproduce the opposite orderings
    gen = RandomSource(106).generator
    J, V = 60, 20
    docs = []
    for _ in range(J):
        lam_a = gen.gamma(30.0, 0.25 / 0.75)  # topic A: r=30, p=0.25 on terms 0..9
        lam_b = gen.gamma(0.6, 0.9 / 0.1)  # topic B: r=0.6, p=0.9 on terms 10..19
        n_a, n_b = gen.poisson(lam_a), gen.poisson(lam_b)
        terms = np.concatenate([gen.integers(0, 10, size=n_a), gen.integers(10, 20, size=n_b)])
        if len(terms) == 0:
            terms = np.array([0])
        docs.append(list(terms.astype(np.int64)))
    corpus = make_corpus(docs, V)
    hyper = HyperParams(K=8, c=1.0, eta=0.1, iters=2, burnin=0, init_iters=10)
    rows, _, _ = run_chain(
        ModelKind.MARKED_BETA_NB,
        corpus,
        hyper,
        seed=107,
        sweeps=600,
        warmup=300,
        collect=lambda s: (s.r.copy(), s.p.copy(), s.n_jk.sum(axis=0), (s.omega[:, :10].sum(axis=1))),
    )
    r_mean = np.mean([r[0] for r in rows], axis=0)
    p_mean = np.mean([r[1] for r in rows], axis=0)
    usage = np.mean([r[2] for r in rows], axis=0)
    low_half_mass = np.mean([r[3] for r in rows], axis=0)
    top_two = np.argsort(-usage)[:2]
    a_like = top_two[np.argmax(low_half_mass[top_two])]  # aligned with terms 0..9
    b_like = top_two[np.argmin(low_half_mass[top_two])]
    assert low_half_mass[a_like] > 0.7 and low_half_mass[b_like] < 0.3
    assert r_mean[a_like] > r_mean[b_like]
    assert p_mean[a_like] < p_mean[b_like]


def test_nb_ftm_sparse_topic_gets_small_pi():
    # a topic used by every document gets a large sparsity weight; a
    # topic used by a fifth of them gets a small one (and large r is
    # compatible with heavy use when open)
    gen = RandomSource(108).generator
    J, V = 40, 12
    docs = []
    for j in range(J):
        terms = list(gen.integers(0, 6, size=20).astype(np.int64))
        if j % 5 == 0:  # sparse topic lives on terms 6..11
            terms += list(gen.integers(6, 12, size=20).astype(np.int64))
        docs.append(terms)
    corpus = make_corpus(docs, V)
    hyper = HyperParams(K=6, c=1.0, eta=0.1, iters=2, burnin=0, init_iters=10)
    rows, _, _ = run_chain(
        ModelKind.NB_FTM,
        corpus,
        hyper,
        seed=109,
        sweeps=500,
        warmup=250,
        collect=lambda s: (s.pi_k.copy(), s.omega[:, 6:].sum(axis=1), s.n_jk.sum(axis=0)),
    )
    pi_mean = np.mean([r[0] for r in rows], axis=0)
    sparse_mass = np.mean([r[1] for r in rows], axis=0)
    usage = np.mean([r[2] for r in rows], axis=0)
    meaningful = usage > 20  # topics that actually hold tokens
    assert meaningful.sum() >= 2
    sparse_topic = np.argmax(np.where(meaningful, sparse_mass, -1.0))
    dense_topic = np.argmax(np.where(sparse_mass < 0.4, usage, -1.0))
    assert sparse_mass[sparse_topic] > 0.6 and sparse_mass[dense_topic] < 0.4
    assert pi_mean[sparse_topic] < pi_mean[dense_topic]


def test_single_topic_corpus_concentrates_fit():
    # a one-topic corpus should leave nearly all truncation atoms unused
    from nbproc import SyntheticSpec, count_active_topics, synthesize_corpus
    from nbproc.cli import run_experiment

    spec = SyntheticSpec(k_true=1, vocab_size=20, num_docs=30, topic_sharpness=0.3, r=8.0, p=0.7)
    corpus, _ = synthesize_corpus(HyperParams(), spec, RandomSource(110))
    # a broad smoothing prior: duplicated atoms of one broad topic merge
    hyper = HyperParams(K=5, eta=1.0, iters=300, burnin=150, init_iters=20, seed=2)
    split = split_train_test(corpus, 0.7, RandomSource(111))
    state, _, trace = run_experiment(ModelKind.GAMMA_NB, corpus, split, hyper)
    assert trace.final["active_topics"] <= 2
