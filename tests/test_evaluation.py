import numpy as np
import pytest

from nbproc import (
    EvaluationError,
    HyperParams,
    ModelKind,
    RandomSource,
    SampleAccumulator,
    accumulate,
    default_geweke_settings,
    doc_term_probability,
    geweke_check,
    heldout_perplexity,
    merged,
    split_train_test,
    summarize_parameters,
)
from nbproc.corpus import Corpus
from nbproc.models import blank_state

MICRO = HyperParams(c=1.0, eta=0.3, a0=3.0, b0=3.0, e0=1.0, f0=1.0, K=2, iters=2, burnin=0, init_iters=0)


def make_corpus(doc_tokens, vocab_size):
    vocab = tuple(f"w{v}" for v in range(vocab_size))
    return Corpus(vocab=vocab, doc_tokens=tuple(np.sort(np.asarray(t, dtype=np.int64)) for t in doc_tokens))


def make_state(kind, J, K, V, omega, lam):
    state = blank_state(kind, [np.zeros(0, dtype=np.int64)] * J, V, K, 0.3)
    state.omega = np.asarray(omega, dtype=float)
    if kind.uses_normalized_weights:
        state.lam_tilde = np.asarray(lam, dtype=float)
    else:
        state.lam = np.asarray(lam, dtype=float)
    return state


# ---------------------------------------------------------------------------
# accumulator
# ---------------------------------------------------------------------------


def test_single_topic_weight_cancels():
    unigram = np.array([[0.5, 0.3, 0.2]])
    state = make_state(ModelKind.GAMMA_NB, 2, 1, 3, unigram, [[3.0], [0.7]])
    acc = SampleAccumulator.empty(2, 3)
    accumulate(acc, state)
    f = doc_term_probability(acc)
    assert np.allclose(f, np.vstack([unigram, unigram]), atol=1e-12)


def test_identical_samples_leave_ratio_unchanged():
    omega = np.array([[0.6, 0.4], [0.1, 0.9]])
    lam = np.array([[1.0, 2.0]])
    state = make_state(ModelKind.GAMMA_NB, 1, 2, 2, omega, lam)
    acc1 = accumulate(SampleAccumulator.empty(1, 2), state)
    f1 = doc_term_probability(acc1).copy()
    acc2 = accumulate(accumulate(SampleAccumulator.empty(1, 2), state), state)
    assert np.allclose(doc_term_probability(acc2), f1, atol=1e-12)


def test_disjoint_topic_blend_matches_direct_formula():
    # two samples with disjoint topic supports; the pooled prediction is
    # the weight-proportional blend, computed here straight from the sums
    omega_a = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    omega_b = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    lam_a = np.array([[2.0, 0.0]])
    lam_b = np.array([[0.0, 1.0]])
    acc = SampleAccumulator.empty(1, 3)
    accumulate(acc, make_state(ModelKind.GAMMA_NB, 1, 2, 3, omega_a, lam_a))
    accumulate(acc, make_state(ModelKind.GAMMA_NB, 1, 2, 3, omega_b, lam_b))
    expected_mass = lam_a @ omega_a + lam_b @ omega_b  # direct evaluation
    expected = expected_mass / expected_mass.sum()
    assert np.allclose(doc_term_probability(acc), expected, atol=1e-12)


def test_accumulator_totals_consistent():
    gen = RandomSource(1).generator
    acc = SampleAccumulator.empty(4, 6)
    for seed in range(5):
        omega = gen.dirichlet(np.full(6, 0.4), size=3)
        lam = gen.gamma(1.0, 1.0, size=(4, 3))
        accumulate(acc, make_state(ModelKind.GAMMA_NB, 4, 3, 6, omega, lam))
    assert acc.num_samples == 5
    assert np.allclose(acc.doc_totals, acc.weighted_term_mass.sum(axis=1), rtol=1e-8)


def test_merge_equals_sequential_accumulation():
    gen = RandomSource(2).generator
    states = [
        make_state(
            ModelKind.GAMMA_NB, 2, 2, 4, gen.dirichlet(np.full(4, 0.5), size=2), gen.gamma(1.0, 1.0, size=(2, 2))
        )
        for _ in range(4)
    ]
    sequential = SampleAccumulator.empty(2, 4)
    for s in states:
        accumulate(sequential, s)
    left = SampleAccumulator.empty(2, 4)
    right = SampleAccumulator.empty(2, 4)
    for s in states[:2]:
        accumulate(left, s)
    for s in states[2:]:
        accumulate(right, s)
    combined = merged(left, right)
    assert combined.num_samples == sequential.num_samples
    assert np.allclose(combined.weighted_term_mass, sequential.weighted_term_mass, rtol=1e-10)
    assert np.allclose(combined.doc_totals, sequential.doc_totals, rtol=1e-10)


def test_accumulate_shape_mismatch():
    state = make_state(ModelKind.GAMMA_NB, 2, 1, 3, np.full((1, 3), 1 / 3), np.ones((2, 1)))
    with pytest.raises(ValueError):
        accumulate(SampleAccumulator.empty(3, 3), state)


# ---------------------------------------------------------------------------
# perplexity
# ---------------------------------------------------------------------------


def uniform_accumulator(J, V):
    acc = SampleAccumulator.empty(J, V)
    state = make_state(ModelKind.GAMMA_NB, J, 1, V, np.full((1, V), 1.0 / V), np.ones((J, 1)))
    return accumulate(acc, state)


def test_uniform_predictor_perplexity_is_vocab_size():
    corpus = make_corpus([[0, 1, 2, 3, 0], [2, 2, 4]], 5)
    split = split_train_test(corpus, 0.6, RandomSource(3))
    acc = uniform_accumulator(2, 5)
    assert heldout_perplexity(acc, split) == pytest.approx(5.0, rel=1e-12)


def test_uniform_perplexity_at_reference_vocab_size():
    V = 2566
    corpus = make_corpus([list(range(0, V, 7)) * 2], V)
    split = split_train_test(corpus, 0.5, RandomSource(4))
    acc = uniform_accumulator(1, V)
    assert heldout_perplexity(acc, split) == pytest.approx(V, rel=1e-9)


def test_perplexity_invariant_to_per_document_weight_scale():
    corpus = make_corpus([[0, 1, 2, 0, 1], [2, 3, 3, 1]], 4)
    split = split_train_test(corpus, 0.5, RandomSource(5))
    gen = RandomSource(6).generator
    omega = gen.dirichlet(np.full(4, 0.5), size=3)
    lam = gen.gamma(2.0, 1.0, size=(2, 3))
    acc1 = accumulate(SampleAccumulator.empty(2, 4), make_state(ModelKind.GAMMA_NB, 2, 3, 4, omega, lam))
    scaled = lam * np.array([[17.0], [0.003]])
    acc2 = accumulate(SampleAccumulator.empty(2, 4), make_state(ModelKind.GAMMA_NB, 2, 3, 4, omega, scaled))
    p1 = heldout_perplexity(acc1, split)
    p2 = heldout_perplexity(acc2, split)
    assert p1 == pytest.approx(p2, rel=1e-12)


def test_perfect_predictor_approaches_one():
    corpus = make_corpus([[2, 2, 2, 2]], 3)
    split = split_train_test(corpus, 0.5, RandomSource(7))
    onehot = np.zeros((1, 3))
    onehot[0, 2] = 1.0
    acc = accumulate(SampleAccumulator.empty(1, 3), make_state(ModelKind.GAMMA_NB, 1, 1, 3, onehot, np.ones((1, 1))))
    assert heldout_perplexity(acc, split) == pytest.approx(1.0, rel=1e-12)


def test_perplexity_preconditions():
    corpus = make_corpus([[0, 1]], 2)
    split = split_train_test(corpus, 0.5, RandomSource(8))
    with pytest.raises(EvaluationError):
        heldout_perplexity(SampleAccumulator.empty(1, 2), split)
    single = make_corpus([[0]], 2)
    degenerate = split_train_test(single, 0.5, RandomSource(9))
    assert degenerate.total_test == 0
    with pytest.raises(EvaluationError):
        heldout_perplexity(uniform_accumulator(1, 2), degenerate)


def test_zero_mass_on_test_token_is_an_error():
    corpus = make_corpus([[0, 1, 1, 1]], 2)
    split = split_train_test(corpus, 0.75, RandomSource(21))
    held_out = {int(t) for t in split.test_tokens[0]}
    assert held_out  # one token held out
    onehot = np.zeros((1, 2))
    other = 1 - next(iter(held_out))
    onehot[0, other] = 1.0
    acc = accumulate(SampleAccumulator.empty(1, 2), make_state(ModelKind.GAMMA_NB, 1, 1, 2, onehot, np.ones((1, 1))))
    with pytest.raises(EvaluationError):
        heldout_perplexity(acc, split)


# ---------------------------------------------------------------------------
# parameter summaries
# ---------------------------------------------------------------------------


def test_summary_single_topic():
    state = make_state(ModelKind.GAMMA_NB, 1, 1, 3, np.full((1, 3), 1 / 3), np.ones((1, 1)))
    state.n_jk = np.array([[4]])
    summary = summarize_parameters(state)
    assert len(summary["topics"]) == 1
    assert summary["topics"][0]["tokens"] == 4


def test_summary_orders_by_token_count():
    state = make_state(ModelKind.GAMMA_NB, 2, 2, 3, np.full((2, 3), 1 / 3), np.ones((2, 2)))
    state.n_jk = np.array([[2, 5], [3, 5]])
    summary = summarize_parameters(state)
    assert [row["index"] for row in summary["topics"]] == [1, 0]
    assert [row["tokens"] for row in summary["topics"]] == [10, 5]
    assert [row["index"] for row in summary["documents"]] == [1, 0]


def test_summary_reports_applicable_parameters():
    state = make_state(ModelKind.BETA_NB, 2, 2, 3, np.full((2, 3), 1 / 3), np.ones((2, 2)))
    state.n_jk = np.array([[1, 0], [0, 2]])
    state.p_k = np.array([0.1, 0.9])
    state.r_j = np.array([2.0, 3.0])
    summary = summarize_parameters(state)
    top = summary["topics"][0]  # topic 1 holds 2 tokens, ranks first
    assert top["index"] == 1
    assert top["p"] == pytest.approx(0.9)
    assert top["log10_p"] == pytest.approx(np.log10(0.9))
    assert top["r"] is None  # beta-nb has no per-topic dispersion
    doc = summary["documents"][0]
    assert doc["r"] == pytest.approx(3.0)
    assert doc["p"] is None  # beta-nb has no per-document probability


# ---------------------------------------------------------------------------
# geweke harness plumbing (full-scale runs live in the acceptance suite)
# ---------------------------------------------------------------------------


def test_geweke_preconditions():
    settings = default_geweke_settings(ModelKind.GAMMA_NB)
    with pytest.raises(ValueError):
        geweke_check(ModelKind.GAMMA_NB, settings, 0, 100, RandomSource(10))
    with pytest.raises(ValueError):
        geweke_check(ModelKind.GAMMA_NB, settings, 100, 0, RandomSource(10))


def test_geweke_passes_at_reduced_scale():
    settings = default_geweke_settings(ModelKind.GAMMA_NB)
    report = geweke_check(ModelKind.GAMMA_NB, settings, 4000, 4000, RandomSource(11))
    assert report.passed(4.0)
    assert set(report.z_scores) == {"n_total", "r_mean", "r_sq_mean", "p_mean", "p_sq_mean", "gamma0", "gamma0_sq"}


def test_geweke_detects_corrupted_kernel():
    settings = default_geweke_settings(ModelKind.GAMMA_NB)
    report = geweke_check(ModelKind.GAMMA_NB, settings, 8000, 8000, RandomSource(12), fault="r-shape")
    assert report.max_abs_z > 6.0


def test_geweke_detects_corrupted_shared_kernel_for_nb_lda():
    settings = default_geweke_settings(ModelKind.NB_LDA)
    report = geweke_check(ModelKind.NB_LDA, settings, 8000, 8000, RandomSource(12), fault="r-shape")
    assert not report.passed(4.0)


def test_geweke_fault_rejected_for_other_kernels():
    settings = default_geweke_settings(ModelKind.NB_FTM)
    with pytest.raises(ValueError):
        geweke_check(ModelKind.NB_FTM, settings, 10, 10, RandomSource(13), fault="r-shape")


def test_accumulate_uses_normalized_weights_for_crf():
    omega = np.array([[0.7, 0.3], [0.2, 0.8]])
    lam_tilde = np.array([[0.25, 0.75]])
    state = make_state(ModelKind.CRF_HDP, 1, 2, 2, omega, lam_tilde)
    acc = accumulate(SampleAccumulator.empty(1, 2), state)
    expected = lam_tilde @ omega
    assert np.allclose(doc_term_probability(acc), expected / expected.sum(), atol=1e-12)
