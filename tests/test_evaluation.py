import dataclasses
import math

import numpy as np
import pytest

from nbproc import (
    EvaluationError,
    HeldOutSplit,
    HyperParams,
    ModelKind,
    RandomSource,
    SampleAccumulator,
    accumulate,
    default_geweke_settings,
    geweke_check,
    heldout_perplexity,
    split_train_test,
    summarize_parameters,
)
from nbproc import models
from nbproc.cli import _GEWEKE_KINDS
from nbproc.corpus import Corpus, document_views, flatten_documents
from nbproc.evaluation import _monitored_stats
from nbproc.models import BETA_PROCESS, E0F0, GAMMA0, GAMMA0_K, blank_state, forward_draw, set_topics

MICRO = HyperParams(c=1.0, eta=0.3, a0=3.0, b0=3.0, e0=1.0, f0=1.0, K=2, iters=2, burnin=0, init_iters=0)


def make_corpus(doc_tokens, vocab_size):
    vocab = tuple(f"w{v}" for v in range(vocab_size))
    return Corpus(vocab, *flatten_documents(np.sort(np.asarray(t, dtype=np.int64)) for t in doc_tokens))


def make_state(kind, J, K, V, omega, lam):
    no_tokens = np.zeros(0, dtype=np.int64)
    state = blank_state(kind, no_tokens, np.zeros(J + 1, dtype=np.int64), no_tokens, V, K, 0.3)
    set_topics(state, np.asarray(omega, dtype=float))
    state.lam = np.asarray(lam, dtype=float)
    return state


# ---------------------------------------------------------------------------
# accumulator
# ---------------------------------------------------------------------------


def held_out(*test_tokens):
    """A split whose held-out term ids are given per document (no training tokens)."""
    none = [()] * len(test_tokens)
    return HeldOutSplit(0.5, *flatten_documents(none), *flatten_documents(test_tokens))


def doc_mass(acc):
    """Each document's held-out mass, as views of the accumulator's flat array."""
    return document_views(acc.test_mass, acc.test_offsets)


def predicted(acc):
    """f[j, v] at each document's held-out terms, read off the accumulator."""
    return [mass / total for mass, total in zip(doc_mass(acc), acc.doc_totals)]


def test_single_topic_weight_cancels():
    unigram = np.array([[0.5, 0.3, 0.2]])
    state = make_state(ModelKind.GAMMA_NB, 2, 1, 3, unigram, [[3.0], [0.7]])
    split = held_out([0, 1, 2], [2, 2, 0])
    acc = accumulate(SampleAccumulator.empty(split, 3), state)
    for f, terms in zip(predicted(acc), split.test_tokens):
        assert np.allclose(f, unigram[0, terms], atol=1e-12)


def test_identical_samples_leave_ratio_unchanged():
    omega = np.array([[0.6, 0.4], [0.1, 0.9]])
    lam = np.array([[1.0, 2.0]])
    state = make_state(ModelKind.GAMMA_NB, 1, 2, 2, omega, lam)
    split = held_out([0, 1, 1])
    acc1 = accumulate(SampleAccumulator.empty(split, 2), state)
    acc2 = accumulate(accumulate(SampleAccumulator.empty(split, 2), state), state)
    assert np.allclose(predicted(acc2)[0], predicted(acc1)[0], atol=1e-12)
    assert heldout_perplexity(acc2) == pytest.approx(heldout_perplexity(acc1), rel=1e-12)


def test_disjoint_topic_blend_matches_direct_formula():
    # two samples with disjoint topic supports; the pooled prediction is
    # the weight-proportional blend, computed here straight from the sums
    omega_a = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    omega_b = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    lam_a = np.array([[2.0, 0.0]])
    lam_b = np.array([[0.0, 1.0]])
    split = held_out([0, 1, 2, 1])
    acc = SampleAccumulator.empty(split, 3)
    accumulate(acc, make_state(ModelKind.GAMMA_NB, 1, 2, 3, omega_a, lam_a))
    accumulate(acc, make_state(ModelKind.GAMMA_NB, 1, 2, 3, omega_b, lam_b))
    expected_mass = lam_a @ omega_a + lam_b @ omega_b  # direct evaluation
    expected = expected_mass / expected_mass.sum()
    assert np.allclose(predicted(acc)[0], expected[0, split.test_tokens[0]], atol=1e-12)


def test_accumulator_totals_consistent():
    # every document holds out each term once, so its held-out mass is its whole row
    gen = RandomSource(1).generator
    acc = SampleAccumulator.empty(held_out(*[np.arange(6)] * 4), 6)
    for seed in range(5):
        omega = gen.dirichlet(np.full(6, 0.4), size=3)
        lam = gen.gamma(1.0, 1.0, size=(4, 3))
        accumulate(acc, make_state(ModelKind.GAMMA_NB, 4, 3, 6, omega, lam))
    assert acc.num_samples == 5
    assert np.allclose(acc.doc_totals, [mass.sum() for mass in doc_mass(acc)], rtol=1e-8)


def test_accumulate_shape_mismatch():
    state = make_state(ModelKind.GAMMA_NB, 2, 1, 3, np.full((1, 3), 1 / 3), np.ones((2, 1)))
    with pytest.raises(ValueError):
        accumulate(SampleAccumulator.empty(held_out([0], [1], [2]), 3), state)
    with pytest.raises(ValueError):
        accumulate(SampleAccumulator.empty(held_out([0], [1]), 4), state)
    state.lam = np.ones((2, 3))  # more topics than omega has
    with pytest.raises(ValueError, match="omega_t has shape"):
        accumulate(SampleAccumulator.empty(held_out([0], [1]), 3), state)


def test_accumulator_footprint_scales_with_held_out_tokens():
    J, V = 50, 200_000
    gen = RandomSource(14).generator
    corpus = make_corpus([gen.integers(0, V, size=12) for _ in range(J)], V)
    split = split_train_test(corpus, 0.5, RandomSource(15))
    acc = SampleAccumulator.empty(split, V)
    accumulate(acc, make_state(ModelKind.GAMMA_NB, J, 2, V, gen.dirichlet(np.ones(V), size=2), np.ones((J, 2))))
    # shared with the split, not copied
    assert acc.test_terms is split.test_terms and acc.test_offsets is split.test_offsets
    held = [getattr(acc, f.name) for f in dataclasses.fields(acc) if f.name not in ("test_terms", "test_offsets")]
    assert sum(a.nbytes for a in held if isinstance(a, np.ndarray)) <= 8 * (split.total_test + J) + 64


# ---------------------------------------------------------------------------
# perplexity
# ---------------------------------------------------------------------------


def uniform_accumulator(split, V):
    J = split.num_docs
    acc = SampleAccumulator.empty(split, V)
    state = make_state(ModelKind.GAMMA_NB, J, 1, V, np.full((1, V), 1.0 / V), np.ones((J, 1)))
    return accumulate(acc, state)


def test_uniform_predictor_perplexity_is_vocab_size():
    corpus = make_corpus([[0, 1, 2, 3, 0], [2, 2, 4]], 5)
    split = split_train_test(corpus, 0.6, RandomSource(3))
    assert heldout_perplexity(uniform_accumulator(split, 5)) == pytest.approx(5.0, rel=1e-12)


def test_uniform_perplexity_at_reference_vocab_size():
    V = 2566
    corpus = make_corpus([list(range(0, V, 7)) * 2], V)
    split = split_train_test(corpus, 0.5, RandomSource(4))
    assert heldout_perplexity(uniform_accumulator(split, V)) == pytest.approx(V, rel=1e-9)


def test_perplexity_invariant_to_per_document_weight_scale():
    corpus = make_corpus([[0, 1, 2, 0, 1], [2, 3, 3, 1]], 4)
    split = split_train_test(corpus, 0.5, RandomSource(5))
    gen = RandomSource(6).generator
    omega = gen.dirichlet(np.full(4, 0.5), size=3)
    lam = gen.gamma(2.0, 1.0, size=(2, 3))
    acc1 = accumulate(SampleAccumulator.empty(split, 4), make_state(ModelKind.GAMMA_NB, 2, 3, 4, omega, lam))
    scaled = lam * np.array([[17.0], [0.003]])
    acc2 = accumulate(SampleAccumulator.empty(split, 4), make_state(ModelKind.GAMMA_NB, 2, 3, 4, omega, scaled))
    assert heldout_perplexity(acc1) == pytest.approx(heldout_perplexity(acc2), rel=1e-12)


@pytest.mark.parametrize("kind", [ModelKind.GAMMA_NB, ModelKind.CRF_HDP])
def test_perplexity_matches_dense_reference(kind):
    # the reference is the dense documents x vocabulary evaluation: the sum
    # over samples of w_s @ omega_s, its row sums, and a gather at the
    # held-out terms
    V, K = 9, 4
    corpus = make_corpus([[0, 1, 2, 3, 4, 5, 6, 7], [5], [3, 3, 3, 3, 3, 3], [8, 1, 8, 0, 2]], V)
    split = split_train_test(corpus, 0.5, RandomSource(16))
    J = corpus.num_docs
    assert len(split.test_tokens[1]) == 0  # a document with no held-out tokens
    assert list(split.test_tokens[2]) == [3, 3, 3]  # a held-out term repeated within a document
    gen = RandomSource(17).generator
    acc = SampleAccumulator.empty(split, V)
    dense = np.zeros((J, V))
    for _ in range(3):
        omega = gen.gamma(0.7, 1.0, size=(K, V))  # rows need not sum to one
        if not kind.models_counts:
            weights = gen.dirichlet(np.full(K, 0.5), size=J)  # crf-hdp's normalized lam
        else:
            weights = gen.gamma(1.5, 2.0, size=(J, K))
        accumulate(acc, make_state(kind, J, K, V, omega, weights))
        dense += weights @ omega
    f = dense / dense.sum(axis=1)[:, None]
    log_total = sum(float(np.log(f[j, terms]).sum()) for j, terms in enumerate(split.test_tokens))
    expected = np.exp(-log_total / split.total_test)
    assert heldout_perplexity(acc) == pytest.approx(expected, rel=1e-12)
    for j, (mass, terms) in enumerate(zip(doc_mass(acc), split.test_tokens)):
        assert np.allclose(mass, dense[j, terms], rtol=1e-12, atol=0.0)


def test_perfect_predictor_approaches_one():
    corpus = make_corpus([[2, 2, 2, 2]], 3)
    split = split_train_test(corpus, 0.5, RandomSource(7))
    onehot = np.zeros((1, 3))
    onehot[0, 2] = 1.0
    state = make_state(ModelKind.GAMMA_NB, 1, 1, 3, onehot, np.ones((1, 1)))
    acc = accumulate(SampleAccumulator.empty(split, 3), state)
    assert heldout_perplexity(acc) == pytest.approx(1.0, rel=1e-12)


def test_perplexity_preconditions():
    corpus = make_corpus([[0, 1]], 2)
    split = split_train_test(corpus, 0.5, RandomSource(8))
    with pytest.raises(EvaluationError, match="no samples collected yet"):
        heldout_perplexity(SampleAccumulator.empty(split, 2))
    single = make_corpus([[0]], 2)
    degenerate = split_train_test(single, 0.5, RandomSource(9))
    assert degenerate.total_test == 0
    with pytest.raises(EvaluationError, match="holds out no tokens"):
        heldout_perplexity(uniform_accumulator(degenerate, 2))


def test_zero_mass_on_test_token_is_an_error():
    corpus = make_corpus([[0, 1, 1, 1]], 2)
    split = split_train_test(corpus, 0.75, RandomSource(21))
    held_out_terms = {int(t) for t in split.test_tokens[0]}
    assert held_out_terms  # one token held out
    onehot = np.zeros((1, 2))
    other = 1 - next(iter(held_out_terms))
    onehot[0, other] = 1.0
    state = make_state(ModelKind.GAMMA_NB, 1, 1, 2, onehot, np.ones((1, 1)))
    acc = accumulate(SampleAccumulator.empty(split, 2), state)
    with pytest.raises(EvaluationError, match="document 0"):
        heldout_perplexity(acc)


# ---------------------------------------------------------------------------
# the compiled held-out loops
# ---------------------------------------------------------------------------

# every lane tail: K mod 4 = 1, 2, 3, 1, 0
HELDOUT_K = [1, 2, 3, 5, 400]


def heldout_case(K, lengths=(0, 7, 30, 0, 1, 12, 0)):
    """Ragged held-out documents, some with no tokens, and a sample with exact zeros in omega and lam."""
    V, J = 40, len(lengths)
    gen = RandomSource(31).generator
    split = held_out(*[gen.integers(0, V, size=n) for n in lengths])
    omega = gen.dirichlet(np.full(V, 0.3), size=K)
    omega[1:][gen.random((K - 1, V)) < 0.3] = 0.0
    lam = gen.gamma(0.5, 2.0, size=(J, K))
    lam[:, 1:][gen.random((J, K - 1)) < 0.3] = 0.0
    return split, make_state(ModelKind.GAMMA_NB, J, K, V, omega, lam)


def lane_sum(products):
    """The four-lane sum of one row of products, in Python floats."""
    lanes = [0.0] * 4
    for k, product in enumerate(products.tolist()):
        lanes[k % 4] += product
    return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])


def reference_perplexity(acc):
    log_total = 0.0
    for mass, total in zip(doc_mass(acc), acc.doc_totals.tolist()):
        log_sum = 0.0
        for value in mass.tolist():
            log_sum += math.log(value / total)
        log_total += log_sum
    return math.exp(-log_total / len(acc.test_terms))


@pytest.mark.parametrize("K", HELDOUT_K)
def test_heldout_loops_add_lane_sums_and_token_order_logs(compiled_library, K):
    split, state = heldout_case(K)
    J = split.num_docs
    topic_mass = state.omega.sum(axis=1)
    gen = RandomSource(32).generator
    start_mass, start_totals = gen.random(split.total_test), gen.random(J)  # the loops add to what is there
    mass, totals, log_sums = start_mass.copy(), start_totals.copy(), np.full(J, np.nan)
    loops = compiled_library
    loops.heldout_mass(state.omega_t, state.lam, split.test_terms, split.test_offsets, topic_mass, mass, totals)
    assert loops.heldout_log_sums(mass, totals, split.test_offsets, log_sums) == -1
    # the lane sums and token-order log sums, written out in Python
    terms = document_views(split.test_terms, split.test_offsets)
    one = [lane_sum(state.omega_t[v] * state.lam[j]) for j in range(J) for v in terms[j]]
    assert mass.tolist() == [start + x for start, x in zip(start_mass.tolist(), one)]
    assert totals.tolist() == [start_totals[j] + lane_sum(state.lam[j] * topic_mass) for j in range(J)]
    expected_logs = []
    for j, doc in enumerate(document_views(mass, split.test_offsets)):
        log_sum = 0.0
        for value in doc.tolist():
            log_sum += math.log(value / totals[j])
        expected_logs.append(log_sum)
    assert log_sums.tolist() == expected_logs
    assert log_sums[0] == 0.0 and log_sums[3] == 0.0  # documents with no held-out tokens


@pytest.mark.parametrize("K", HELDOUT_K)
def test_accumulate_and_perplexity_match_the_lane_reference(K):
    split, state = heldout_case(K)
    acc = SampleAccumulator.empty(split, state.vocab_size)
    for _ in range(2):
        accumulate(acc, state)
    topic_mass = np.ascontiguousarray(state.omega).sum(axis=1)  # the row sums, as the topic draw makes them
    terms = document_views(split.test_terms, split.test_offsets)
    one = [lane_sum(state.omega_t[v] * state.lam[j]) for j in range(split.num_docs) for v in terms[j]]
    assert acc.test_mass.tolist() == [x + x for x in one]
    assert acc.doc_totals.tolist() == [2 * lane_sum(state.lam[j] * topic_mass) for j in range(split.num_docs)]
    assert heldout_perplexity(acc) == reference_perplexity(acc)


@pytest.mark.parametrize("cores", [2, 3])
def test_heldout_evaluation_is_the_same_in_one_part_and_several(monkeypatch, cores):
    K = 64
    split, state = heldout_case(K, lengths=(5000, 0, 40, 6000, 0, 0, 3000, 3000))
    assert split.total_test * K >= models.THREADED_CELLS
    results = []
    for parts in (1, cores):
        monkeypatch.setattr(models, "_available_cores", lambda: parts)
        assert len(models._document_parts(split.test_offsets, K)) == parts
        acc = SampleAccumulator.empty(split, state.vocab_size)
        accumulate(accumulate(acc, state), state)
        results.append((acc.test_mass, acc.doc_totals, heldout_perplexity(acc)))
    (mass, totals, perplexity), several = results
    assert np.array_equal(several[0], mass) and np.array_equal(several[1], totals)
    assert several[2] == perplexity


@pytest.mark.parametrize(
    "mass, first",
    [
        ([0.5, 0.2, 0.3, 0.0, 0.4, 0.0], 2),  # document 1 is empty; documents 2 and 3 hold a zero
        ([0.0, 0.2, 0.3, 0.1, 0.4, 0.6], 0),
        ([0.5, 0.2, 0.3, 0.1, 0.4, 0.0], 3),
        ([0.5, 0.2, 0.3, 0.1, -0.4, 0.6], 3),
    ],
    ids=["after-an-empty-document", "first-token", "last-token", "negative-mass"],
)
def test_zero_mass_names_the_first_document(compiled_library, mass, first):
    offsets = np.array([0, 2, 2, 4, 6])
    sums = np.full(4, np.nan)
    assert compiled_library.heldout_log_sums(np.array(mass), np.ones(4), offsets, sums) == first
    assert sums[:first].tolist() == [sum(math.log(x) for x in mass[a:b]) for a, b in zip(offsets[:first], offsets[1:])]


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
    state.p = np.array([0.1, 0.9])
    state.r = np.array([2.0, 3.0])
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


def test_geweke_detects_corrupted_shared_kernel_for_nb_ftm():
    settings = default_geweke_settings(ModelKind.NB_FTM)
    report = geweke_check(ModelKind.NB_FTM, settings, 8000, 8000, RandomSource(12), fault="r-shape")
    assert not report.passed(4.0)


def test_geweke_fault_rejected_for_other_kernels():
    settings = default_geweke_settings(ModelKind.CRF_HDP)
    with pytest.raises(ValueError):
        geweke_check(ModelKind.CRF_HDP, settings, 10, 10, RandomSource(13), fault="r-shape")


def prior_means(kind, hyper, num_docs):
    """Closed-form prior means of the forward draws' monitored statistics."""
    spec = kind.spec
    if spec.normalized:  # crf-hdp: alpha ~ Gamma(a0, 1/b0), gamma0 fixed at 1
        return {"alpha": hyper.a0 / hyper.b0}
    K = hyper.K
    gamma0 = hyper.e0 / hyper.f0
    r = {GAMMA0_K: gamma0 / (K * hyper.c), GAMMA0: gamma0 / hyper.c, E0F0: hyper.e0 / hyper.f0}[spec.r_prior]
    means = {"r_mean": r}
    if spec.samples_gamma0:
        means["gamma0"] = gamma0
    odds = 1.0  # p/(1-p) at the fixed p = 0.5
    if spec.learns_p:
        a, b = (hyper.c / K, hyper.c * (1 - 1 / K)) if spec.p_prior == BETA_PROCESS else (hyper.a0, hyper.b0)
        means["p_mean"] = a / (a + b)
        odds = a / (b - 1)  # E[p/(1-p)] under Beta(a, b)
    gate = 1 / K if spec.gated else 1.0  # E[b_jk] = E[pi_k] under Beta(c/K, c(1-1/K))
    # n_jk ~ Pois(lam_jk), lam_jk ~ Gamma(r b_jk, p/(1-p)), with r, b and p independent a priori
    means["n_total"] = num_docs * K * r * gate * odds
    return means


@pytest.mark.parametrize("kind", _GEWEKE_KINDS, ids=lambda k: k.value)
def test_forward_draws_match_closed_form_prior_means(kind):
    settings = default_geweke_settings(kind)
    J = settings.num_docs
    doc_lengths = None if kind.models_counts else np.full(J, settings.doc_length)
    rng = RandomSource(18)
    draws = [
        _monitored_stats(forward_draw(kind, settings.hyper, J, settings.vocab_size, rng, doc_lengths=doc_lengths))
        for _ in range(4000)
    ]
    expected = prior_means(kind, settings.hyper, J)
    for name, mean in expected.items():
        values = np.array([draw[name] for draw in draws])
        z = (values.mean() - mean) / (values.std(ddof=1) / np.sqrt(len(values)))
        assert abs(z) < 4, f"{kind.value} {name}: forward mean {values.mean():.4f}, prior mean {mean:.4f}, z = {z:.2f}"


def test_accumulate_uses_normalized_weights_for_crf():
    omega = np.array([[0.7, 0.3], [0.2, 0.8]])
    lam = np.array([[0.25, 0.75]])
    state = make_state(ModelKind.CRF_HDP, 1, 2, 2, omega, lam)
    split = held_out([0, 1])
    acc = accumulate(SampleAccumulator.empty(split, 2), state)
    expected = lam @ omega
    assert np.allclose(predicted(acc)[0], expected[0] / expected.sum(), atol=1e-12)
