import copy
import dataclasses
import math
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import gammaln

from nbproc import (
    HyperParams,
    IterationError,
    ModelKind,
    RandomSource,
    count_active_topics,
    crf_alpha_step,
    forward_draw,
    gibbs_sweep,
    initialize,
    sample_topic_assignments,
    simulate_data,
    set_topics,
    split_train_test,
    update_topics,
    validate_state,
)
from nbproc import _kernels, models
from nbproc.cli import run_experiment
from nbproc.corpus import (
    Corpus,
    SyntheticSpec,
    document_views,
    flatten_documents,
    offsets_from_lengths,
    synthesize_corpus,
)
from nbproc.models import BLOCKED_CELLS, ROW_BLOCKS, TINY, _dirichlet_rows, blank_state, count_sweep

MICRO = HyperParams(c=1.0, eta=0.3, a0=3.0, b0=3.0, e0=1.0, f0=1.0, K=2, iters=2, burnin=0, init_iters=0)


def make_corpus(doc_tokens, vocab_size):
    vocab = tuple(f"w{v}" for v in range(vocab_size))
    return Corpus(vocab, *flatten_documents(np.sort(np.asarray(t, dtype=np.int64)) for t in doc_tokens))


def state_with_tokens(kind, tokens, vocab_size, num_topics, eta=0.3, seed=0):
    """A structurally valid state with given tokens and random z."""
    gen = RandomSource(seed).generator
    z = np.concatenate([gen.integers(0, num_topics, size=len(t)).astype(np.int64) for t in tokens])
    state = blank_state(kind, *flatten_documents(tokens), z, vocab_size, num_topics, eta)
    K = num_topics
    state.n_jk = np.vstack([np.bincount(z, minlength=K) for z in document_views(state.z, state.offsets)])
    return state


def conditional_draws(base_state, hyper, num, seed, extract, fault=None):
    """Repeated one-sweep transitions from a frozen starting state."""
    source = RandomSource(seed)
    rows = []
    for _ in range(num):
        s = copy.deepcopy(base_state)
        gibbs_sweep(s, hyper, source, fault=fault)
        rows.append(extract(s))
    return rows


# ---------------------------------------------------------------------------
# topic assignments
# ---------------------------------------------------------------------------


def test_assignments_single_topic():
    state = state_with_tokens(ModelKind.GAMMA_NB, [[0, 1, 2], [2, 2]], 3, 1)
    sample_topic_assignments(state, RandomSource(0))
    assert np.array_equal(state.n_jk[:, 0], [3, 2])


def test_assignments_follow_likelihood_zeros():
    # omega rows are point masses; a document of only term 0 must land on topic 0
    state = state_with_tokens(ModelKind.GAMMA_NB, [[0, 0, 0, 0]], 2, 2)
    set_topics(state, np.array([[1.0, 0.0], [0.0, 1.0]]))
    state.lam = np.array([[0.01, 100.0]])  # weights cannot rescue a zero likelihood
    sample_topic_assignments(state, RandomSource(1))
    assert np.array_equal(state.z, np.zeros(4, dtype=np.int64))


def test_assignments_symmetric_topics_split_evenly():
    tokens = [np.zeros(20_000, dtype=np.int64)]
    state = state_with_tokens(ModelKind.GAMMA_NB, tokens, 1, 2)
    set_topics(state, np.ones((2, 1)))
    state.lam = np.array([[2.5, 2.5]])
    sample_topic_assignments(state, RandomSource(2))
    share = state.n_jk[0, 0] / 20_000
    assert abs(share - 0.5) < 0.02


def test_assignments_all_zero_weights_error():
    state = state_with_tokens(ModelKind.GAMMA_NB, [[0, 1]], 2, 2)
    state.lam = np.zeros((1, 2))
    with pytest.raises(IterationError):
        sample_topic_assignments(state, RandomSource(3))


def test_assignments_counts_always_match_lengths():
    state = forward_draw(ModelKind.GAMMA_NB, MICRO, 4, 5, RandomSource(4))
    sample_topic_assignments(state, RandomSource(5))
    assert np.array_equal(state.n_jk.sum(axis=1), state.train_counts)


@pytest.mark.parametrize("cores", [1, 2, 3])
@pytest.mark.parametrize("K", [1, 2, 3, 4, 5, 7, 400])
def test_assign_matches_reference_expression(monkeypatch, K, cores):
    # every length 0-9, so the kernel's four-token groups leave each remainder mod 4; empty
    # documents first, in the middle and last, and the longest neither first nor last
    lengths = (0, 5, 40, 0, 173, 12, 1, 0, 2, 3, 4, 6, 7, 8, 9, 0)
    V = 30
    gen = RandomSource(14).generator
    tokens = [gen.integers(0, V, size=n) for n in lengths]
    state = state_with_tokens(ModelKind.NB_FTM, tokens, V, K, seed=15)
    omega = gen.dirichlet(np.full(V, 0.3), size=K)
    state.lam = gen.gamma(0.5, 2.0, size=(len(tokens), K))
    # exact zeros past topic 0, which keeps every total positive: topic-term cells and closed gates
    omega[1:][gen.random((K - 1, V)) < 0.3] = 0.0
    set_topics(state, omega)
    state.lam[:, 1:][gen.random((len(tokens), K - 1)) < 0.3] = 0.0

    expected_gen = RandomSource(16).generator
    z, n_jk = replay_assign(state, state.lam, expected_gen)
    expected_next = expected_gen.random()
    monkeypatch.setattr(models, "THREADED_CELLS", 1)  # token-balanced parts at this size
    library, shared = _kernels.library(), []

    def assign_in_place(omega_t, lam, terms, offsets, u, z, counts):
        shared.append(u.ctypes.data == z.ctypes.data and u.nbytes == z.nbytes)  # the uniforms live in z's buffer
        return library.assign_topics(omega_t, lam, terms, offsets, u, z, counts)

    patched = SimpleNamespace(**{**vars(library), "assign_topics": assign_in_place})
    monkeypatch.setattr(_kernels, "library", lambda: patched)
    monkeypatch.setattr(models, "_available_cores", lambda: cores)
    drawn = copy.deepcopy(state)
    drawn.n_jk = counts = np.full_like(state.n_jk, -1)
    actual_gen = RandomSource(16)
    sample_topic_assignments(drawn, actual_gen)
    assert len(shared) == len(models._document_parts(state.offsets, K)) == min(cores, len(lengths))
    assert all(shared)
    assert np.array_equal(drawn.z, np.concatenate(z))
    assert drawn.n_jk is counts and np.array_equal(counts, n_jk)  # counted by the kernel
    assert actual_gen.generator.random() == expected_next  # same number of uniforms consumed


def test_assign_ties_take_the_first_topic_whose_running_sum_reaches_the_threshold():
    # dyadic weights with exact zeros: runs of equal running sums, which thresholds hit exactly
    omega_t = np.array([[0.25, 0.0, 0.25, 0.0, 0.5], [0.0, 0.0, 0.5, 0.5, 0.0]])  # terms x topics
    lam = np.array([[1.0, 1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 0.0, 1.0, 1.0]])
    # running sums: term 0 [.25 .25 .5 .5 1] and term 1 [0 0 .5 1 1] in document 0,
    # term 0 [.25 .25 .25 .25 .75] and term 1 [0 0 0 .5 .5] in document 1
    terms = np.array([0, 0, 0, 0, 1, 1, 0, 1, 1, 1, 1, 0])
    u = np.array([0.25, 0.5, 0.0, 0.75, 0.5, 0.0, 0.5, 0.5, 0.0, 0.5, 0.5, 0.5])
    offsets = np.array([0, 7, 12])
    z, counts = np.empty(12, dtype=np.int64), np.full((2, 5), -1)
    assert _kernels.library().assign_topics(omega_t, lam, terms, offsets, u, z, counts) == -1
    assert z.tolist() == [0, 2, 0, 4, 2, 0, 2, 3, 0, 3, 3, 4]
    assert counts.tolist() == [[3, 0, 3, 0, 1], [1, 0, 0, 3, 1]]


@pytest.mark.parametrize("cores", [1, 3])
def test_failed_assignment_keeps_z_and_its_counts(monkeypatch, cores):
    monkeypatch.setattr(models, "_available_cores", lambda: cores)
    state = threaded_state([3000] * 6)
    state.lam[[1, 2, 5]] = 0.0  # at three cores, a part fails after writing a row, and one before
    z = state.z.copy()
    with pytest.raises(IterationError, match="document 1 has no admissible topic"):
        sample_topic_assignments(state, RandomSource(95))
    assert np.array_equal(state.z, z)
    recount = np.vstack([np.bincount(doc_z, minlength=THREADED_K) for doc_z in document_views(z, state.offsets)])
    assert np.array_equal(state.n_jk, recount)


def test_assign_names_the_first_document_without_admissible_topic():
    state = state_with_tokens(ModelKind.GAMMA_NB, [[0, 1], [1, 2], [0]], 3, 2)
    state.lam = np.array([[1.0, 2.0], [0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(IterationError, match="document 1 has no admissible topic"):
        sample_topic_assignments(state, RandomSource(3))


@pytest.mark.parametrize("term", [-1, 3])
def test_assign_rejects_term_outside_vocabulary(term):
    state = state_with_tokens(ModelKind.GAMMA_NB, [[0, 1], [2, term]], 3, 2)
    z_before = state.z.copy()
    rng = RandomSource(4)
    with pytest.raises(ValueError, match=f"document 1 holds term id {term}, outside the vocabulary"):
        sample_topic_assignments(state, rng)
    # raised before any uniform was drawn, so before the kernel ran
    assert rng.generator.random() == RandomSource(4).generator.random()
    assert np.array_equal(state.z, z_before)


@pytest.mark.parametrize("term", [-1, 3])
def test_topic_update_rejects_term_outside_vocabulary(term):
    state = state_with_tokens(ModelKind.GAMMA_NB, [[0, 1], [2, term]], 3, 2)
    omega_t = state.omega_t.copy()
    with pytest.raises(ValueError, match=f"document 1 holds term id {term}, outside the vocabulary"):
        update_topics(state, RandomSource(4))
    assert np.array_equal(state.omega_t, omega_t)  # rejected before the counting loop indexed a row with it


@pytest.mark.parametrize("name", ["omega", "lam"])
def test_assign_rejects_negative_weights(name):
    state = state_with_tokens(ModelKind.GAMMA_NB, [[0, 1], [2]], 3, 2)
    weights = {"omega": np.full((2, 3), 1.0 / 3), "lam": np.ones((2, 2))}
    weights[name][1, 0] = -0.5  # every total stays positive
    set_topics(state, weights["omega"])
    state.lam = weights["lam"]
    rng = RandomSource(5)
    with pytest.raises(ValueError, match=f"{name} has a negative entry"):
        sample_topic_assignments(state, rng)
    assert rng.generator.random() == RandomSource(5).generator.random()


# Above THREADED_CELLS the documents are drawn in token-balanced parts, one per core.
THREADED_K = 64
THREADED_SHAPES = {
    # at 3 cores the parts are documents [0, 3), [3, 6) and [6, 9): empty documents end and start them
    "empty-documents-at-split-points": [5000, 0, 0, 5000, 0, 5000, 0, 0, 5000],
    "one-document-holds-most-tokens": [40, 14000, 300, 0, 3000],
    "one-document": [17000],
}


def threaded_state(lengths, seed=93):
    V = 50
    gen = RandomSource(seed).generator
    state = state_with_tokens(ModelKind.GAMMA_NB, [gen.integers(0, V, size=n) for n in lengths], V, THREADED_K)
    set_topics(state, gen.dirichlet(np.full(V, 0.3), size=THREADED_K))
    state.lam = gen.gamma(0.5, 2.0, size=(len(lengths), THREADED_K))
    assert state.tokens.size * THREADED_K >= models.THREADED_CELLS
    return state


def test_threaded_parts_split_at_the_documents_the_cases_name(monkeypatch):
    monkeypatch.setattr(models, "_available_cores", lambda: 3)
    parts = {name: models._document_parts(threaded_state(n).offsets, THREADED_K) for name, n in THREADED_SHAPES.items()}
    assert parts == {
        "empty-documents-at-split-points": [(0, 3), (3, 6), (6, 9)],
        "one-document-holds-most-tokens": [(0, 1), (1, 2), (2, 5)],
        "one-document": [(0, 1)],
    }
    below = np.array([0, 8000, 16000])  # 16 000 tokens x 64 topics lie below the threshold
    assert models._document_parts(below, THREADED_K) == [(0, 2)]


@pytest.mark.parametrize("cores", [1, 2, 3])
@pytest.mark.parametrize("shape", sorted(THREADED_SHAPES))
def test_threaded_assignment_matches_replay_at_any_core_count(monkeypatch, shape, cores):
    state = threaded_state(THREADED_SHAPES[shape])
    z, counts = replay_assign(state, state.lam, RandomSource(94).generator)
    monkeypatch.setattr(models, "_available_cores", lambda: cores)
    drawn = sample_topic_assignments(copy.deepcopy(state), RandomSource(94))
    assert np.array_equal(drawn.z, np.concatenate(z))
    assert np.array_equal(drawn.n_jk, counts)


@pytest.mark.parametrize(
    "bad, first",
    [([1, 2, 5], 1), ([0, 2, 4], 0), ([3, 4], 3), ([5], 5)],
    ids=["one-in-each-part", "each-part-s-first", "middle-part-s-last", "last-part-s-last"],
)
def test_threaded_assignment_names_the_lowest_bad_document(monkeypatch, bad, first):
    monkeypatch.setattr(models, "_available_cores", lambda: 3)
    state = threaded_state([3000] * 6)
    assert models._document_parts(state.offsets, THREADED_K) == [(0, 2), (2, 4), (4, 6)]
    state.lam[bad] = 0.0
    with pytest.raises(IterationError, match=f"document {first} has no admissible topic"):
        sample_topic_assignments(state, RandomSource(95))


def test_small_sweeps_start_no_thread(monkeypatch):
    def no_thread(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(models, "_available_cores", lambda: 2)
    monkeypatch.setattr(threading.Thread, "start", no_thread)
    hyper = MICRO.replace(K=2)
    for kind in (ModelKind.GAMMA_NB, ModelKind.NB_FTM):  # a Geweke-sized sweep
        gibbs_sweep(forward_draw(kind, hyper, 3, 5, RandomSource(96)), hyper, RandomSource(97))
    gen = RandomSource(98).generator
    tokens = [gen.integers(0, 15, size=n) for n in (30, 0, 25, 12)]  # the golden traces' shape at K = 5
    sample_topic_assignments(state_with_tokens(ModelKind.GAMMA_NB, tokens, 15, 5), RandomSource(99))
    with pytest.raises(AssertionError, match="a thread was started"):  # the same check sees a threaded draw
        sample_topic_assignments(threaded_state([8000, 9000]), RandomSource(99))


@pytest.mark.parametrize("kind", [ModelKind.GAMMA_NB, ModelKind.CRF_HDP], ids=lambda k: k.value)
def test_threaded_run_traces_match_at_one_and_two_cores(monkeypatch, kind):
    spec = SyntheticSpec(k_true=5, vocab_size=200, num_docs=150, r=5.0, p=0.9)
    corpus, _ = synthesize_corpus(MICRO, spec, RandomSource(100))
    split = split_train_test(corpus, 0.6, RandomSource(101))
    assert split.total_train * THREADED_K >= models.THREADED_CELLS
    hyper = MICRO.replace(K=THREADED_K, iters=3, burnin=1, init_iters=1, seed=102)
    runs = []
    for cores in (1, 2):
        monkeypatch.setattr(models, "_available_cores", lambda: cores)
        assert len(models._document_parts(split.train_offsets, THREADED_K)) == cores
        state, _, trace = run_experiment(kind, corpus, split, hyper)
        runs.append((repr(trace.records), state.z))
    assert runs[0][0] == runs[1][0]
    assert np.array_equal(runs[0][1], runs[1][1])


# ---------------------------------------------------------------------------
# topic updates
# ---------------------------------------------------------------------------

BLOCKED = (8, 65_536)  # 2**19 cells: the smallest draw that is split into row blocks


def test_blocked_dirichlet_bytes_depend_on_seed_alone():
    assert BLOCKED[0] * BLOCKED[1] == BLOCKED_CELLS
    conc = np.full(BLOCKED, 0.05)
    one = _dirichlet_rows(RandomSource(21).generator, conc, _workers=1)
    assert one is conc  # drawn in place
    two = _dirichlet_rows(RandomSource(21).generator, np.full(BLOCKED, 0.05), _workers=2)
    again = _dirichlet_rows(RandomSource(21).generator, np.full(BLOCKED, 0.05), _workers=2)
    assert one.tobytes() == two.tobytes() == again.tobytes()


def test_blocked_dirichlet_rows_use_distinct_streams():
    draw = _dirichlet_rows(RandomSource(22).generator, np.full(BLOCKED, 0.05), _workers=2)
    assert len(np.unique(draw, axis=0)) == BLOCKED[0]  # a stream reused by two blocks repeats their rows


def test_blocked_dirichlet_main_stream_use_ignores_values():
    small, large = RandomSource(23).generator, RandomSource(23).generator
    _dirichlet_rows(small, np.full(BLOCKED, 0.05))
    _dirichlet_rows(large, np.full(BLOCKED, 3.0))
    assert small.bytes(64) == large.bytes(64)  # the same state after the draw


def test_blocked_dirichlet_row_mass_matches_beta_mean():
    a, b = 0.05, 1.0  # the two gamma algorithms: shape below and above 1
    half = BLOCKED[1] // 2
    conc = np.hstack([np.full((BLOCKED[0], half), a), np.full((BLOCKED[0], half), b)])
    mass = _dirichlet_rows(RandomSource(24).generator, conc, _workers=2)[:, :half].sum(axis=1)
    # each row's mass on the a-half is Beta(a * half, b * half)
    total = (a + b) * half
    mean = a / (a + b)
    sd = math.sqrt(mean * (1 - mean) / (total + 1))
    assert np.all(np.abs(mass - mean) < 5 * sd)


def test_small_dirichlet_matches_unblocked_oracle():
    shape = (8, 65_535)  # one cell short of a blocked draw
    conc = RandomSource(25).generator.gamma(0.5, 1.0, size=shape) + 0.05
    oracle_gen, gen = RandomSource(26).generator, RandomSource(26).generator
    expected = np.maximum(oracle_gen.gamma(conc, 1.0), TINY)
    expected /= expected.sum(axis=1, keepdims=True)
    assert _dirichlet_rows(gen, conc.copy()).tobytes() == expected.tobytes()
    assert gen.bytes(64) == oracle_gen.bytes(64)  # the same variates consumed


def test_blocked_dirichlet_accepts_read_only_input():
    row = np.linspace(0.05, 2.0, BLOCKED[1])
    frozen = np.full(BLOCKED, 0.5)
    frozen.flags.writeable = False
    for conc in (np.broadcast_to(row, BLOCKED), frozen):
        draw = _dirichlet_rows(RandomSource(27).generator, conc)
        assert not np.shares_memory(draw, conc)
        assert np.allclose(draw.sum(axis=1), 1.0)
    assert np.array_equal(row, np.linspace(0.05, 2.0, BLOCKED[1])) and np.all(frozen == 0.5)



def test_update_topics_draws_into_omega_t_and_replaces_a_read_only_one():
    state = state_with_tokens(ModelKind.GAMMA_NB, [[0, 1, 1]], 3, 2)
    omega_t = state.omega_t
    update_topics(state, RandomSource(10))
    assert state.omega_t is omega_t
    frozen = omega_t.copy()
    frozen.flags.writeable = False
    state.omega_t = frozen
    update_topics(state, RandomSource(11))
    assert state.omega_t is not frozen
    validate_state(state, after_sweep=False)  # normalized topics, and their mass
    # omega is a read-only view of the one topic matrix
    assert np.shares_memory(state.omega, state.omega_t) and not state.omega.flags.writeable
    with pytest.raises(AttributeError):
        state.omega = frozen.T


def _unusable(array, how):
    """A stand-in for ``array`` that a sweep must not write into, and the array that holds its memory."""
    J, K = array.shape
    if how == "read-only":
        bad = array.copy()
        bad.flags.writeable = False
        return bad, bad
    if how == "strided":
        owner = np.zeros((J, 2 * K), dtype=array.dtype)
        return owner[:, ::2], owner
    bad = np.zeros((J + 1, K), dtype=array.dtype) if how == "wrong-shape" else np.zeros((J, K), dtype=np.int32)
    return bad, bad


@pytest.mark.parametrize("how", ["read-only", "wrong-shape", "strided", "wrong-dtype"])
@pytest.mark.parametrize("kind", [ModelKind.GAMMA_NB, ModelKind.CRF_HDP], ids=lambda k: k.value)
def test_sweep_writes_counts_and_weights_in_place_and_replaces_unusable_arrays(kind, how):
    hyper = MICRO.replace(K=3)
    state = forward_draw(kind, hyper, 6, 5, RandomSource(30), doc_lengths=[4, 0, 7, 3, 5, 9])
    buffers = {name: getattr(state, name) for name in ("n_jk", "lam", "l_jk")}
    gibbs_sweep(state, hyper, RandomSource(31))
    assert all(getattr(state, name) is buffer for name, buffer in buffers.items())
    block = count_sweep if kind.models_counts else models.crf_hdp_sweep
    steps = {
        "n_jk": lambda s: sample_topic_assignments(s, RandomSource(32)),
        "lam": lambda s: block(s, hyper, RandomSource(33)),
        "l_jk": lambda s: block(s, hyper, RandomSource(33)),
    }
    for name, step in steps.items():
        expected, swept = copy.deepcopy(state), copy.deepcopy(state)
        step(expected)
        bad, owner = _unusable(getattr(state, name), how)
        held = owner.copy()
        setattr(swept, name, bad)
        step(swept)
        assert getattr(swept, name) is not bad, name
        assert np.array_equal(owner, held), f"{name} was written"
        for field in steps:
            assert np.array_equal(getattr(swept, field), getattr(expected, field)), f"{name}: {field} differs"


def reference_topics(state, gen, prior=False, workers=None):
    """The topic draw as one topics x vocabulary Dirichlet draw of eta + the counts, and its row sums."""
    K, V = state.num_topics, state.vocab_size
    counts = np.zeros((K, V)) if prior else np.bincount(state.z * V + state.tokens, minlength=K * V).reshape(K, V)
    omega = _dirichlet_rows(gen, state.eta + counts, _workers=workers)
    return np.ascontiguousarray(omega.T), omega.sum(axis=1)


# K, V, workers, and the chunks of the whole draw
TOPIC_DRAWS = {
    "unblocked": (5, 300, None, 1),
    "blocked-one-worker": (16, 2**16, 1, ROW_BLOCKS),
    "blocked-two-workers": (16, 2**16, 2, ROW_BLOCKS),
    "blocked-a-worker-per-block": (16, 2**16, ROW_BLOCKS, ROW_BLOCKS),  # more threads than most test machines' cores
    "fewer-topics-than-blocks-one-worker": (3, 2**19, 1, 3),
    "fewer-topics-than-blocks-two-workers": (3, 2**19, 2, 3),
    "two-chunks-per-block-one-worker": (128, 2**14, 1, 2 * ROW_BLOCKS),  # blocks of 16 rows, chunks of 8
    "uneven-chunks-two-workers": (200, 2**13, 2, 2 * ROW_BLOCKS),  # blocks of 25 rows, chunks of 16 and 9
}


@pytest.mark.parametrize("case", sorted(TOPIC_DRAWS))
def test_topic_draw_is_the_transposed_dirichlet_rows_draw(monkeypatch, case):
    K, V, workers, chunks = TOPIC_DRAWS[case]
    assert (K * V >= BLOCKED_CELLS) == (workers is not None)
    normalized_gammas, drawn = models._normalized_gammas, []

    def counted(stream, rows):
        drawn.append(len(rows))
        normalized_gammas(stream, rows)

    monkeypatch.setattr(models, "_normalized_gammas", counted)
    gen = RandomSource(40).generator
    docs = [gen.integers(0, V, size=n) for n in (300, 0, 41, 1200)]
    state = state_with_tokens(ModelKind.GAMMA_NB, docs, V, K, eta=0.05, seed=41)
    for prior, seed in ((True, 42), (False, 43)):
        expected_gen, gen = RandomSource(seed).generator, RandomSource(seed).generator
        omega_t, topic_mass = reference_topics(state, expected_gen, prior, workers)
        drawn.clear()
        models._sample_topics(state, gen, prior, _workers=workers)
        assert len(drawn) == chunks and sum(drawn) == K
        assert max(drawn) * V <= max(models.CHUNK_CELLS, 8 * V) or chunks == 1
        assert state.omega_t.tobytes() == omega_t.tobytes()
        assert state.topic_mass.tobytes() == topic_mass.tobytes()
        assert gen.bytes(64) == expected_gen.bytes(64)  # the same variates consumed
    if workers is None:  # the sweep's own entry point
        omega_t, topic_mass = reference_topics(state, RandomSource(44).generator)
        update_topics(state, RandomSource(44))
        assert state.omega_t.tobytes() == omega_t.tobytes()
        assert state.topic_mass.tobytes() == topic_mass.tobytes()


def test_update_topics_prior_only():
    state = state_with_tokens(ModelKind.GAMMA_NB, [[0]], 5, 2, eta=0.3)
    state.z = np.zeros(1, dtype=np.int64)
    state.n_jk = np.array([[1, 0]])
    draws = []
    source = RandomSource(6)
    for _ in range(4000):
        s = copy.deepcopy(state)
        update_topics(s, source)
        draws.append(s.omega[1])  # topic 1 has no tokens
    mean = np.mean(draws, axis=0)
    assert np.abs(mean - 0.2).max() < 0.02 * 1.0  # 1/V with V=5


def test_update_topics_concentration():
    tokens = [np.full(1000, 7, dtype=np.int64)]
    state = state_with_tokens(ModelKind.GAMMA_NB, tokens, 10, 1, eta=0.05)
    state.z = np.zeros(1000, dtype=np.int64)
    state.n_jk = np.array([[1000]])
    source = RandomSource(7)
    draws = []
    for _ in range(200):
        s = copy.deepcopy(state)
        update_topics(s, source)
        draws.append(s.omega[0, 7])
    assert np.mean(draws) > 0.99


def test_update_topics_posterior_mean_formula():
    gen = RandomSource(8).generator
    tokens = [gen.integers(0, 6, size=300).astype(np.int64)]
    state = state_with_tokens(ModelKind.GAMMA_NB, tokens, 6, 1, eta=0.4)
    state.z = np.zeros(300, dtype=np.int64)
    state.n_jk = np.array([[300]])
    counts = np.bincount(tokens[0], minlength=6)
    expected = (0.4 + counts) / (6 * 0.4 + 300)
    source = RandomSource(9)
    draws = []
    for _ in range(4000):
        s = copy.deepcopy(state)
        update_topics(s, source)
        draws.append(s.omega[0])
    assert np.abs(np.mean(draws, axis=0) / expected - 1).max() < 0.02


# ---------------------------------------------------------------------------
# exact replay of the shared-dispersion kernel (update order and
# conditional shapes/scales re-derived independently here)
# ---------------------------------------------------------------------------

TINY = float(np.finfo(np.float64).tiny)


def replay_crt(m, r, gen):
    m = np.asarray(m, dtype=np.int64)
    r = np.broadcast_to(np.asarray(r, dtype=np.float64), m.shape)
    out = np.zeros(m.shape, dtype=np.int64)
    mask = m > 0
    if not mask.any():
        return out
    mv, rv = m[mask], r[mask]
    total = int(mv.sum())
    cell = np.repeat(np.arange(mv.size), mv)
    starts = np.concatenate(([0], np.cumsum(mv)[:-1]))
    pos = np.arange(total) - np.repeat(starts, mv)
    rr = np.repeat(rv, mv)
    hits = gen.random(total) < rr / (pos + rr)
    out[mask] = np.bincount(cell, weights=hits, minlength=mv.size).astype(np.int64)
    return out


def replay_assign(state, weights, gen):
    z = []
    for j, terms in enumerate(document_views(state.tokens, state.offsets)):
        n = len(terms)
        if n == 0:
            z.append(np.zeros(0, dtype=np.int64))
            continue
        w = state.omega[:, terms].T * weights[j]
        cum = np.cumsum(w, axis=1)
        u = gen.random(n) * cum[:, -1]
        z.append((cum < u[:, None]).sum(axis=1).astype(np.int64))
    K = state.num_topics
    n_jk = np.vstack([np.bincount(zz, minlength=K) for zz in z]).astype(np.int64)
    return z, n_jk


def replay_topics(z, tokens, eta, K, V, gen):
    all_z = np.concatenate(z)
    counts = np.bincount(all_z * V + tokens, minlength=K * V).reshape(K, V)
    g = np.maximum(gen.gamma(eta + counts, 1.0), TINY)
    return g / g.sum(axis=1, keepdims=True)


def test_gamma_nb_sweep_exact_replay():
    hyper = MICRO.replace(K=2)
    base = forward_draw(ModelKind.GAMMA_NB, hyper, 3, 4, RandomSource(10))
    assert base.n_jk.sum() > 0

    swept = copy.deepcopy(base)
    gibbs_sweep(swept, hyper, RandomSource(11))

    state = copy.deepcopy(base)
    gen = RandomSource(11).generator
    K, V = 2, 4
    z, n_jk = replay_assign(state, state.lam, gen)
    N = np.diff(state.offsets)
    p_j = np.clip(gen.beta(hyper.a0 + N, hyper.b0 + state.r.sum()), 1e-12, 1 - 1e-12)
    S = float(np.log1p(-p_j).sum())
    p_prime = -S / (hyper.c - S)
    l_jk = replay_crt(n_jk, state.r[None, :], gen)
    tables = l_jk.sum(axis=0)
    l_prime = replay_crt(tables, state.gamma0 / K, gen)
    gamma0 = float(max(gen.gamma(hyper.e0 + l_prime.sum(), 1.0 / (hyper.f0 - math.log1p(-p_prime))), TINY))
    r_k = np.maximum(gen.gamma(gamma0 / K + tables, 1.0 / (hyper.c - S)), TINY)
    lam = np.maximum(gen.gamma(r_k[None, :] + n_jk, p_j[:, None]), TINY)
    omega = replay_topics(z, state.tokens, hyper.eta, K, V, gen)

    assert np.array_equal(swept.z, np.concatenate(z))
    assert np.array_equal(swept.n_jk, n_jk)
    assert np.array_equal(swept.p, p_j)
    assert swept.p_prime == p_prime
    assert np.array_equal(swept.l_jk, l_jk)
    assert np.array_equal(swept.l_k_prime, l_prime)
    assert swept.gamma0 == gamma0
    assert np.array_equal(swept.r, r_k)
    assert np.array_equal(swept.lam, lam)
    assert np.array_equal(swept.omega, omega)


def test_nb_lda_sweep_exact_replay():
    hyper = MICRO.replace(K=2)
    base = forward_draw(ModelKind.NB_LDA, hyper, 3, 4, RandomSource(12))
    assert base.n_jk.sum() > 0

    swept = copy.deepcopy(base)
    gibbs_sweep(swept, hyper, RandomSource(13))

    state = copy.deepcopy(base)
    gen = RandomSource(13).generator
    K, V = 2, 4
    z, n_jk = replay_assign(state, state.lam, gen)
    N = np.diff(state.offsets)
    p_j = np.clip(gen.beta(hyper.a0 + N, hyper.b0 + K * state.r), 1e-12, 1 - 1e-12)
    log1mp = np.log1p(-p_j)
    p_prime_j = (-K * log1mp) / (hyper.c - K * log1mp)
    l_jk = replay_crt(n_jk, state.r[:, None], gen)
    tables = l_jk.sum(axis=1)
    l_prime_j = replay_crt(tables, state.gamma0, gen)
    gamma0 = float(
        max(gen.gamma(hyper.e0 + l_prime_j.sum(), 1.0 / (hyper.f0 - float(np.log1p(-p_prime_j).sum()))), TINY)
    )
    r_j = np.maximum(gen.gamma(gamma0 + tables, 1.0 / (hyper.c - K * log1mp)), TINY)
    lam = np.maximum(gen.gamma(r_j[:, None] + n_jk, p_j[:, None]), TINY)
    omega = replay_topics(z, state.tokens, hyper.eta, K, V, gen)

    assert np.array_equal(swept.n_jk, n_jk)
    assert np.array_equal(swept.p, p_j)
    assert np.array_equal(swept.l_jk, l_jk)
    assert swept.gamma0 == gamma0
    assert np.array_equal(swept.r, r_j)
    assert np.array_equal(swept.lam, lam)
    assert np.array_equal(swept.omega, omega)


class _GammaSnapshots:
    """A generator that keeps its bit generator's state from before each ``standard_gamma`` call."""

    def __init__(self, gen):
        self._gen, self.states = gen, []

    def __getattr__(self, name):
        return getattr(self._gen, name)

    def standard_gamma(self, *args, **kwargs):
        self.states.append(copy.deepcopy(self._gen.bit_generator.state))
        return self._gen.standard_gamma(*args, **kwargs)


@pytest.mark.parametrize("kind", [ModelKind.GAMMA_NB, ModelKind.NB_FTM], ids=lambda k: k.value)
def test_count_sweep_lam_is_the_clamped_gamma_of_the_open_cells(kind):
    hyper = MICRO.replace(K=4)
    state = forward_draw(kind, hyper, 40, 6, RandomSource(17))
    rng = RandomSource(18)
    rng.generator = snapshots = _GammaSnapshots(rng.generator)
    count_sweep(state, hyper, rng)
    assert len(snapshots.states) == 1  # lam's draw is the only one
    gen = np.random.Generator(np.random.Philox())
    gen.bit_generator.state = snapshots.states[0]
    # the draw as it was written before lam got one buffer
    shape = state.r[None, :] + state.n_jk if state.b_jk is None else state.r[None, :] * state.b_jk + state.n_jk
    is_open = shape > 0
    lam = np.where(is_open, np.maximum(gen.gamma(np.where(is_open, shape, 1.0), state.p[:, None]), TINY), 0.0)
    assert state.lam.tobytes() == lam.tobytes()
    assert gen.bytes(64) == snapshots.bytes(64)  # the same variates consumed
    if kind is ModelKind.NB_FTM:
        assert 0 < np.count_nonzero(~is_open) < is_open.size  # closed gates, and open ones


def counted_state(kind, n_jk):
    """A state over three terms whose document j holds n_jk[j, k] tokens of topic k, every one of term 0."""
    J, K = n_jk.shape
    z = np.repeat(np.tile(np.arange(K), J), n_jk.ravel())
    state = blank_state(kind, np.zeros(len(z), np.int64), offsets_from_lengths(n_jk.sum(axis=1)), z, 3, K, 0.05)
    models._recount(state)
    return state


def every_fourth_cell(J, K):
    """Documents x topics counts: 4 tokens in every fourth cell, none elsewhere."""
    j, k = np.indices((J, K))
    return np.where((j + k) % 4 == 0, 4, 0)


LAM_K = 128  # with BLOCKED_CELLS // LAM_K documents, lam is the smallest blocked draw


@pytest.mark.parametrize("step", ["count_sweep", "initialize"])
def test_blocked_lam_bytes_do_not_depend_on_the_core_count(monkeypatch, step):
    J, K = BLOCKED_CELLS // LAM_K, LAM_K
    hyper = MICRO.replace(K=K, eta=0.05, init_iters=1)
    base = counted_state(ModelKind.GAMMA_NB, every_fourth_cell(J, K))
    split = SimpleNamespace(train_terms=base.tokens, train_offsets=base.offsets)
    in_row_blocks, calls = models._in_row_blocks, []

    def recorded(gen, num_rows, cells, draw, workers=None):
        calls.append((num_rows, cells))
        in_row_blocks(gen, num_rows, cells, draw, workers)

    monkeypatch.setattr(models, "_in_row_blocks", recorded)
    drawn = []
    for cores in (1, 2):
        monkeypatch.setattr(models, "_available_cores", lambda: cores)
        if step == "count_sweep":
            state = copy.deepcopy(base)
            rng = RandomSource(120)
            rng.generator = snapshots = _GammaSnapshots(rng.generator)
            count_sweep(state, hyper, rng)
            assert snapshots.states == []  # no lam gamma from the chain's own stream
        else:
            state = initialize(ModelKind.GAMMA_NB, SimpleNamespace(vocab_size=3), split, hyper, RandomSource(121))
        drawn.append(state.lam.tobytes())
    assert (J, J * K) in calls  # lam was drawn in row blocks
    assert drawn[0] == drawn[1]


def test_blocked_gamma_main_stream_use_ignores_values():
    small, large = RandomSource(122).generator, RandomSource(122).generator
    models._standard_gammas(small, np.full(BLOCKED, 0.05))
    models._standard_gammas(large, np.full(BLOCKED, 3.0))
    assert small.bytes(64) == large.bytes(64)  # the same state after the draw


def test_blocked_lam_means_match_their_shapes():
    J, K = BLOCKED_CELLS // LAM_K, LAM_K
    state = counted_state(ModelKind.GAMMA_NB, every_fourth_cell(J, K))
    count_sweep(state, MICRO.replace(K=K), RandomSource(123))
    gammas = state.lam / state.p[:, None]  # Gamma(r_k + n_jk, 1) draws, within rounding
    # numpy draws shapes below 1 and above 1 with two algorithms: each topic's
    # empty cells have shape r_k < 1, and its cells of 4 tokens r_k + 4
    assert state.r.max() < 1
    for k, r in enumerate(state.r):
        for shape, cells in ((r, state.n_jk[:, k] == 0), (r + 4, state.n_jk[:, k] == 4)):
            draws = gammas[cells, k]
            assert len(draws) >= J // 4
            assert abs(draws.mean() - shape) < 5 * math.sqrt(shape / len(draws)), (k, shape)


def test_lam_one_row_short_of_blocking_is_the_single_stream_draw():
    J, K = BLOCKED_CELLS // LAM_K - 1, LAM_K
    state = counted_state(ModelKind.GAMMA_NB, every_fourth_cell(J, K))
    rng = RandomSource(124)
    rng.generator = snapshots = _GammaSnapshots(rng.generator)
    count_sweep(state, MICRO.replace(K=K), rng)
    assert len(snapshots.states) == 1  # lam's draw, on the chain's stream
    gen = np.random.Generator(np.random.Philox())
    gen.bit_generator.state = snapshots.states[0]
    lam = np.maximum(gen.gamma(state.r[None, :] + state.n_jk, state.p[:, None]), TINY)
    assert state.lam.tobytes() == lam.tobytes()
    assert gen.bytes(64) == snapshots.bytes(64)  # the same variates consumed


# ---------------------------------------------------------------------------
# memory: one topics x vocabulary array, chunked topic draws, and a sweep drawn in place
# ---------------------------------------------------------------------------


def _traced_peak(call):
    """``call()``'s result, and the bytes tracemalloc sees it hold at its peak beyond what was held before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def _initialize_and_sweep_peaks(monkeypatch, cores, J, K, V, kind=ModelKind.GAMMA_NB):
    """tracemalloc peaks of an ``initialize`` and one ``count_sweep`` on ``cores`` threads."""
    monkeypatch.setattr(models, "_available_cores", lambda: cores)
    assert K * V >= BLOCKED_CELLS
    gen = RandomSource(19).generator
    corpus = make_corpus([gen.integers(0, V, size=12) for _ in range(J)], V)
    split = split_train_test(corpus, 0.8, RandomSource(20))
    hyper = MICRO.replace(K=K, eta=0.05, init_iters=1)
    state, initialize_peak = _traced_peak(lambda: initialize(kind, corpus, split, hyper, RandomSource(21)))
    topic_matrices = [f.name for f in dataclasses.fields(state) if np.size(getattr(state, f.name)) >= K * V]
    assert topic_matrices == ["omega_t"]
    _, sweep_peak = _traced_peak(lambda: count_sweep(state, hyper, RandomSource(22)))
    return initialize_peak, sweep_peak


def test_initialize_holds_one_topic_matrix_and_count_sweep_one_lam_buffer(monkeypatch):
    # two threads, as on a two-core machine, each drawing a block of one chunk
    J, K, V = 300, 64, 2**14
    initialize_peak, sweep_peak = _initialize_and_sweep_peaks(monkeypatch, 2, J, K, V)
    assert initialize_peak < 2 * K * V * 8
    assert sweep_peak < 1 * J * K * 8  # lam, l_jk and n_jk are written in place


def test_gated_count_sweep_holds_one_lam_buffer(monkeypatch):
    J, K, V = 300, 64, 2**14
    _, sweep_peak = _initialize_and_sweep_peaks(monkeypatch, 2, J, K, V, ModelKind.NB_FTM)
    assert sweep_peak < 1 * J * K * 8  # the gates' uniforms and the CRT rates take lam's buffer


def test_topic_draw_memory_does_not_grow_with_the_core_count(monkeypatch):
    # eight threads at once, each drawing a block of four chunks
    J, K, V = 300, 256, 2**14
    assert K // models.ROW_BLOCKS >= 4 * (models.CHUNK_CELLS // V)
    initialize_peak, sweep_peak = _initialize_and_sweep_peaks(monkeypatch, 8, J, K, V)
    assert initialize_peak < 1.5 * K * V * 8  # the topic matrix, and one chunk buffer per thread
    assert sweep_peak < 1 * J * K * 8


TOKEN_LENGTH_KINDS = [ModelKind.GAMMA_NB, ModelKind.NB_FTM, ModelKind.CRF_HDP, ModelKind.LDA]


@pytest.mark.parametrize("kind", TOKEN_LENGTH_KINDS, ids=lambda k: k.value)
def test_sweep_holds_no_token_length_array_but_the_new_z(kind):
    J, K, V, N = 128, 8, 500, 2**21
    assert N * 8 >= 16 * max(J * K * 8, K * V * 8, models.CHUNK_CELLS * 8)
    gen = RandomSource(110).generator
    terms = gen.integers(0, V, size=N)
    state = blank_state(kind, terms, offsets_from_lengths(np.full(J, N // J)), gen.integers(0, K, size=N), V, K, 0.05)
    models._recount(state)
    hyper = MICRO.replace(K=K, eta=0.05)
    gibbs_sweep(state, hyper, RandomSource(111))  # the sweep's own arrays, which later sweeps overwrite
    _, peak = _traced_peak(lambda: gibbs_sweep(state, hyper, RandomSource(112)))
    assert peak < 1.25 * N * 8  # the new z, and what the other arrays need


@pytest.mark.parametrize("init_iters", [0, 1])
def test_initialize_holds_no_token_length_array_but_z_and_a_sweeps(init_iters):
    J, K, V, N = 128, 8, 500, int(0.6 * 2**21) // 128 * 128
    gen = RandomSource(113).generator
    split = SimpleNamespace(train_terms=gen.integers(0, V, size=N), train_offsets=offsets_from_lengths(np.full(J, N // J)))
    hyper = MICRO.replace(K=K, eta=0.05, init_iters=init_iters)
    tracemalloc.start()
    try:
        state = initialize(ModelKind.GAMMA_NB, SimpleNamespace(vocab_size=V), split, hyper, RandomSource(114))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert state.z.nbytes == N * 8
    assert peak - held < 1.25 * N * 8  # a warm-up sweep's new z, and what the other arrays need


# ---------------------------------------------------------------------------
# conditional-law spot checks
# ---------------------------------------------------------------------------


def test_gamma_nb_unused_topic_prior_shrinkage():
    # a topic with no counts keeps l = 0 everywhere and its dispersion
    # draw reduces to the prior-driven shape gamma0/K: checked via the
    # paired conditional mean E[r] = E[(gamma0/K) * scale] on sweeps
    # where the topic stayed empty
    hyper = MICRO.replace(K=2)
    base = state_with_tokens(ModelKind.GAMMA_NB, [[0, 0, 1], [1, 0]], 3, 2, seed=14)
    # topic 1 lives on term 2, which the documents never use
    omega = np.array([[0.5, 0.5 - 1e-9, 1e-9], [1e-9, 1e-9, 1.0 - 2e-9]])
    set_topics(base, omega / omega.sum(axis=1, keepdims=True))
    base.lam = np.array([[5.0, 1e-9], [5.0, 1e-9]])
    rows = conditional_draws(
        base,
        hyper,
        20_000,
        15,
        lambda s: (
            s.n_jk[:, 1].sum(),
            int(np.array_equal(s.l_jk == 0, s.n_jk == 0)),
            s.r[1],
            s.gamma0 / 2 / (hyper.c - float(np.log1p(-s.p).sum())),
        ),
    )
    assert all(r[1] == 1 for r in rows)  # l vanishes exactly with n
    empty = [(r[2], r[3]) for r in rows if r[0] == 0]
    assert len(empty) > 18_000
    r_mean = np.mean([e[0] for e in empty])
    paired_mean = np.mean([e[1] for e in empty])
    assert abs(r_mean / paired_mean - 1) < 0.02


def test_gamma_nb_lambda_conjugacy_single_doc():
    # E[lam] must equal E[(r + n) p] across one-sweep transitions
    hyper = MICRO.replace(K=1)
    base = state_with_tokens(ModelKind.GAMMA_NB, [np.zeros(12, dtype=np.int64)], 1, 1, seed=17)
    set_topics(base, np.ones((1, 1)))
    rows = conditional_draws(base, hyper, 20_000, 18, lambda s: (s.lam[0, 0], (s.r[0] + 12) * s.p[0]))
    lam_mean = np.mean([r[0] for r in rows])
    paired_mean = np.mean([r[1] for r in rows])
    assert abs(lam_mean / paired_mean - 1) < 0.02


def test_gamma_nb_gamma0_conditional_mean():
    # E[gamma0] = E[(e0 + sum l'_k) / (f0 - log(1 - p'))] over transitions
    hyper = MICRO.replace(K=2)
    seed = 19
    base = forward_draw(ModelKind.GAMMA_NB, hyper, 3, 4, RandomSource(seed))
    while base.n_jk.sum() < 5:
        seed += 1
        base = forward_draw(ModelKind.GAMMA_NB, hyper, 3, 4, RandomSource(seed))
    rows = conditional_draws(
        base,
        hyper,
        20_000,
        20,
        lambda s: (s.gamma0, (hyper.e0 + s.l_k_prime.sum()) / (hyper.f0 - math.log1p(-s.p_prime))),
    )
    assert abs(np.mean([r[0] for r in rows]) / np.mean([r[1] for r in rows]) - 1) < 0.02


def test_marked_gamma_nb_gamma0_pooled_shape():
    hyper = MICRO.replace(K=2)
    base = forward_draw(ModelKind.MARKED_GAMMA_NB, hyper, 3, 4, RandomSource(21))
    attempts = 0
    while base.n_jk.sum() < 5 and attempts < 50:
        base = forward_draw(ModelKind.MARKED_GAMMA_NB, hyper, 3, 4, RandomSource(21 + attempts))
        attempts += 1

    def extract(s):
        log_term = float(np.log1p(-((-3 * np.log1p(-s.p)) / (hyper.c - 3 * np.log1p(-s.p)))).sum())
        return s.gamma0, (hyper.e0 + s.l_k_prime.sum()) / (hyper.f0 - log_term / hyper.K)

    rows = conditional_draws(base, hyper, 20_000, 22, extract)
    assert abs(np.mean([r[0] for r in rows]) / np.mean([r[1] for r in rows]) - 1) < 0.02


def test_beta_nb_unused_topic_probability_mean():
    # p for a topic with zero counts is Beta(c/K, c(1-1/K) + sum r_j):
    # its conditional mean is (c/K) / (c + sum r_j)
    hyper = HyperParams(c=6.0, eta=0.3, a0=3.0, b0=3.0, e0=1.0, f0=1.0, K=2, iters=2, burnin=0, init_iters=0)
    base = state_with_tokens(ModelKind.BETA_NB, [[0, 0], [0, 1]], 3, 2, seed=23)
    omega = np.array([[0.6, 0.4 - 1e-9, 1e-9], [1e-9, 1e-9, 1.0 - 2e-9]])
    set_topics(base, omega / omega.sum(axis=1, keepdims=True))
    base.lam = np.array([[3.0, 1e-8], [3.0, 1e-8]])
    base.r = np.array([1.5, 2.5])
    rows = conditional_draws(base, hyper, 20_000, 24, lambda s: (s.p[1], s.n_jk[:, 1].sum()))
    used = [p for p, n1 in rows if n1 == 0]
    assert len(used) > 18_000  # topic 1 has ~zero likelihood for terms 0,1
    expected = (hyper.c / 2) / (hyper.c + base.r.sum())
    assert abs(np.mean(used) / expected - 1) < 0.02


def test_beta_nb_forward_topic_mass():
    # E[sum_j n_jk] = p_k/(1-p_k) * sum_j r_j under the generative law
    gen = RandomSource(25).generator
    r_j = np.full(10, 2.0)
    p_k = 0.6
    totals = []
    for _ in range(20_000):
        lam = gen.gamma(r_j, p_k / (1 - p_k))
        totals.append(gen.poisson(lam).sum())
    expected = p_k / (1 - p_k) * r_j.sum()
    assert abs(np.mean(totals) / expected - 1) < 0.15


def test_marked_beta_nb_degenerate_grid_posterior():
    # K = 1, J = 1: p | n, r is Beta(c + n, r); compare the kernel's
    # one-step draws against a brute-force grid evaluation of the
    # unnormalized posterior p^{c+n-1} (1-p)^{r-1}
    hyper = HyperParams(c=1.0, eta=0.3, a0=3.0, b0=3.0, e0=1.0, f0=1.0, K=1, iters=2, burnin=0, init_iters=0)
    n_tokens = 7
    base = state_with_tokens(ModelKind.MARKED_BETA_NB, [np.zeros(n_tokens, dtype=np.int64)], 1, 1, seed=26)
    set_topics(base, np.ones((1, 1)))
    base.r = np.array([2.3])
    rows = conditional_draws(base, hyper, 20_000, 27, lambda s: s.p[0])
    grid = np.linspace(1e-6, 1 - 1e-6, 200_001)
    log_post = (hyper.c + n_tokens - 1) * np.log(grid) + (base.r[0] - 1) * np.log1p(-grid)
    post = np.exp(log_post - log_post.max())
    grid_mean = float((grid * post).sum() / post.sum())
    assert abs(np.mean(rows) / grid_mean - 1) < 0.02


def test_marked_beta_nb_unused_topic_reverts_to_prior():
    hyper = HyperParams(c=6.0, eta=0.3, a0=3.0, b0=3.0, e0=1.0, f0=1.0, K=2, iters=2, burnin=0, init_iters=0)
    base = state_with_tokens(ModelKind.MARKED_BETA_NB, [[0], [0, 0]], 2, 2, seed=28)
    set_topics(base, np.array([[1.0 - 1e-9, 1e-9], [1e-9, 1.0 - 1e-9]]))
    base.lam = np.array([[2.0, 1e-9], [2.0, 1e-9]])
    rows = conditional_draws(
        base, hyper, 20_000, 29, lambda s: (s.l_jk[:, 1].sum(), s.r[1], 1.0 / (hyper.f0 - 2 * math.log1p(-s.p[1])))
    )
    assert all(r[0] == 0 for r in rows)  # unused topic never opens a table
    r_mean = np.mean([r[1] for r in rows])
    paired = hyper.e0 * np.mean([r[2] for r in rows])  # shape is exactly e0
    assert abs(r_mean / paired - 1) < 0.02


def test_crf_alpha_auxiliary_matches_grid_posterior():
    # with table counts and document sizes held fixed, the w/s auxiliary
    # chain must target p(alpha) ~ Gamma(a0, 1/b0) prod_j alpha^{t_j}
    # Gamma(alpha) / Gamma(alpha + N_j); oracle by grid integration
    a0, b0 = 2.0, 1.0
    doc_sizes = np.array([10.0, 15.0])
    tables = 6
    gen = RandomSource(30).generator
    alpha = 1.0
    warm, keep = 2000, 60_000
    draws = []
    for i in range(warm + keep):
        alpha = crf_alpha_step(alpha, tables, doc_sizes, a0, b0, gen)
        if i >= warm:
            draws.append(alpha)
    grid = np.linspace(1e-4, 40.0, 400_000)
    log_post = (a0 - 1) * np.log(grid) - b0 * grid + tables * np.log(grid)
    for n in doc_sizes:
        log_post += gammaln(grid) - gammaln(grid + n)
    post = np.exp(log_post - log_post.max())
    grid_mean = float((grid * post).sum() / post.sum())
    assert abs(np.mean(draws) / grid_mean - 1) < 0.05


def test_crf_hdp_weights_normalized_every_sweep():
    hyper = MICRO.replace(K=2)
    dl = np.full(3, 15)
    state = forward_draw(ModelKind.CRF_HDP, hyper, 3, 5, RandomSource(31), doc_lengths=dl)
    source = RandomSource(32)
    for _ in range(30):
        gibbs_sweep(state, hyper, source)
        assert np.abs(state.lam.sum(axis=1) - 1.0).max() < 1e-10
        assert abs(state.r_tilde.sum() - 1.0) < 1e-10
        assert state.gamma0 == 1.0


def test_crf_hdp_single_topic_degenerates():
    hyper = MICRO.replace(K=1)
    state = state_with_tokens(ModelKind.CRF_HDP, [[0, 1, 1], [2, 0]], 3, 1, seed=33)
    gibbs_sweep(state, hyper, RandomSource(34))
    assert np.array_equal(state.r_tilde, [1.0])
    assert np.array_equal(state.lam, np.ones((2, 1)))


def test_nb_hdp_probability_pinned():
    corpus = make_corpus([[0, 1, 2, 0], [1, 1, 2], [0, 2, 2, 2, 1]], 3)
    split = split_train_test(corpus, 0.8, RandomSource(35))
    hyper = MICRO.replace(K=2, init_iters=2)
    state = initialize(ModelKind.NB_HDP, corpus, split, hyper, RandomSource(36))
    source = RandomSource(37)
    for _ in range(50):
        gibbs_sweep(state, hyper, source)
        assert np.all(state.p == 0.5)


def test_nb_hdp_vmr_of_fitted_counts():
    # counts simulated from the fitted state must show variance/mean = 2
    corpus = make_corpus([list(np.arange(30) % 5) for _ in range(10)], 5)
    split = split_train_test(corpus, 0.8, RandomSource(38))
    hyper = MICRO.replace(K=2, init_iters=2)
    state = initialize(ModelKind.NB_HDP, corpus, split, hyper, RandomSource(39))
    source = RandomSource(40)
    for _ in range(100):
        gibbs_sweep(state, hyper, source)
    gen = RandomSource(41).generator
    r = max(state.r.max(), 0.5)
    draws = gen.poisson(gen.gamma(r, 1.0, size=200_000))  # NB(r, 1/2)
    vmr = draws.var() / draws.mean()
    assert abs(vmr - 2.0) < 0.2


def test_nb_hdp_chain_differs_from_gamma_nb():
    corpus = make_corpus([[0, 1, 2, 0], [1, 1, 2], [0, 2, 2, 2, 1]], 3)
    split = split_train_test(corpus, 0.8, RandomSource(42))
    hyper = MICRO.replace(K=2, init_iters=2)
    r_sums = {}
    for kind in (ModelKind.NB_HDP, ModelKind.GAMMA_NB):
        state = initialize(kind, corpus, split, hyper, RandomSource(43))
        source = RandomSource(44)
        trace = []
        for _ in range(20):
            gibbs_sweep(state, hyper, source)
            trace.append(state.r.sum())
        r_sums[kind] = trace
    assert r_sums[ModelKind.NB_HDP] != r_sums[ModelKind.GAMMA_NB]


def test_nb_ftm_gates():
    hyper = MICRO.replace(K=2)
    base = forward_draw(ModelKind.NB_FTM, hyper, 4, 5, RandomSource(45))
    attempts = 0
    while base.n_jk.sum() < 4 and attempts < 50:
        base = forward_draw(ModelKind.NB_FTM, hyper, 4, 5, RandomSource(45 + attempts))
        attempts += 1
    source = RandomSource(46)
    saw_closed = False
    for _ in range(200):
        s = copy.deepcopy(base)
        gibbs_sweep(s, hyper, source)
        assert np.all(s.b_jk[s.n_jk > 0] == 1)  # counts force gates open
        assert np.all(s.lam[s.b_jk == 0] == 0.0)  # closed gates pin weights to 0
        assert np.all(s.lam[s.b_jk == 1] > 0.0)
        saw_closed = saw_closed or bool(np.any(s.b_jk == 0))
        assert np.all(s.p == 0.5)
    assert saw_closed


def test_nb_ftm_sparsity_prior_mean():
    # pi ~ Beta(c/K, c(1-1/K)) has mean 1/K
    from nbproc import sample_beta

    c, K = 2.0, 4
    draws = sample_beta(np.full(100_000, c / K), np.full(100_000, c * (1 - 1 / K)), RandomSource(47))
    assert abs(draws.mean() / (1 / K) - 1) < 0.02


# ---------------------------------------------------------------------------
# lda / dir-pfa
# ---------------------------------------------------------------------------


def test_lda_prior_only_document():
    hyper = MICRO.replace(K=4)
    base = state_with_tokens(ModelKind.LDA, [np.zeros(0, dtype=np.int64), [0, 1]], 3, 4, seed=48)
    rows = conditional_draws(base, hyper, 8000, 49, lambda s: s.lam[0].copy())
    mean = np.mean(rows, axis=0)
    assert np.abs(mean - 0.25).max() < 0.02 * 0.25 + 0.005


def test_lda_single_topic():
    hyper = MICRO.replace(K=1)
    state = state_with_tokens(ModelKind.LDA, [[0, 1], [1]], 2, 1, seed=50)
    gibbs_sweep(state, hyper, RandomSource(51))
    assert np.array_equal(state.lam, np.ones((2, 1)))


def test_lda_collapsed_posterior_mean():
    # E[lam_k] = E[(50/K + n_k) / (50 + N)] across transitions
    hyper = MICRO.replace(K=2)
    gen = RandomSource(52).generator
    tokens = [gen.integers(0, 3, size=30).astype(np.int64)]
    base = state_with_tokens(ModelKind.LDA, tokens, 3, 2, seed=53)
    smoothing = hyper.lda_alpha_total / 2
    rows = conditional_draws(
        base, hyper, 20_000, 54, lambda s: (s.lam[0, 0], (smoothing + s.n_jk[0, 0]) / (hyper.lda_alpha_total + 30))
    )
    assert abs(np.mean([r[0] for r in rows]) / np.mean([r[1] for r in rows]) - 1) < 0.02


def test_dir_pfa_uses_lda_kernel():
    hyper = MICRO.replace(K=2)
    a = state_with_tokens(ModelKind.DIR_PFA, [[0, 1, 2], [2, 2]], 3, 2, seed=55)
    b = state_with_tokens(ModelKind.LDA, [[0, 1, 2], [2, 2]], 3, 2, seed=55)
    gibbs_sweep(a, hyper, RandomSource(56))
    gibbs_sweep(b, hyper, RandomSource(56))
    assert np.array_equal(a.lam, b.lam)
    assert np.array_equal(a.omega, b.omega)


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------


def test_initialize_single_topic():
    corpus = make_corpus([list(np.arange(50) % 7) for _ in range(6)], 7)
    split = split_train_test(corpus, 0.9, RandomSource(57))
    hyper = HyperParams(K=1, eta=0.05, iters=2, burnin=0, init_iters=3)
    state = initialize(ModelKind.GAMMA_NB, corpus, split, hyper, RandomSource(58))
    assert np.all(state.z == 0)
    counts = np.zeros(7)
    for t in split.train_tokens:
        counts += np.bincount(t, minlength=7)
    smoothed = (0.05 + counts) / (7 * 0.05 + counts.sum())
    assert np.abs(state.omega[0] - smoothed).max() < 0.05


def test_initialize_lda_normalized_weights():
    corpus = make_corpus([[0, 1, 2, 1], [2, 2, 0]], 3)
    split = split_train_test(corpus, 0.8, RandomSource(59))
    hyper = MICRO.replace(K=3, init_iters=2)
    state = initialize(ModelKind.LDA, corpus, split, hyper, RandomSource(60))
    assert np.abs(state.lam.sum(axis=1) - 1.0).max() < 1e-12
    validate_state(state, after_sweep=False)


def test_initialize_deterministic():
    corpus = make_corpus([[0, 1, 2, 1], [2, 2, 0], [0, 0, 1]], 3)
    split = split_train_test(corpus, 0.8, RandomSource(61))
    hyper = MICRO.replace(K=2, init_iters=4)
    for kind in ModelKind:
        a = initialize(kind, corpus, split, hyper, RandomSource(62))
        b = initialize(kind, corpus, split, hyper, RandomSource(62))
        assert np.array_equal(a.lam, b.lam) and np.array_equal(a.omega, b.omega)
        assert np.array_equal(a.z, b.z)


# ---------------------------------------------------------------------------
# active topics, invariants, update footprints
# ---------------------------------------------------------------------------


def test_count_active_topics():
    state = state_with_tokens(ModelKind.GAMMA_NB, [[0, 0], [0]], 1, 3, seed=63)
    state.z = np.zeros(3, dtype=np.int64)
    state.n_jk = np.array([[2, 0, 0], [1, 0, 0]])
    assert count_active_topics(state) == 1
    empty = state_with_tokens(ModelKind.GAMMA_NB, [np.zeros(0, dtype=np.int64)], 1, 3)
    assert count_active_topics(empty) == 0


ALL_KINDS = list(ModelKind)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_invariants_hold_across_sweeps(kind):
    gen = RandomSource(64).generator
    docs = [gen.integers(0, 6, size=gen.integers(5, 15)).astype(np.int64) for _ in range(5)]
    corpus = make_corpus([list(d) for d in docs], 6)
    split = split_train_test(corpus, 0.7, RandomSource(65))
    hyper = MICRO.replace(K=3, init_iters=2, c=6.0 if kind in (ModelKind.BETA_NB, ModelKind.MARKED_BETA_NB) else 1.0)
    state = initialize(kind, corpus, split, hyper, RandomSource(66))
    source = RandomSource(67)
    for _ in range(10):
        gibbs_sweep(state, hyper, source)
        validate_state(state)
        assert np.array_equal(state.n_jk.sum(axis=1), split.train_counts)


def _set(name, index, value):
    def corrupt(state):
        getattr(state, name)[index] = value

    return corrupt


def _shorten_z(state):
    state.z = state.z[:-1]


def _misshapen_topics(state):
    state.omega_t = np.ascontiguousarray(state.omega_t[:, :-1])  # one topic short


def _topics_short_of_a_term(state):
    state.omega_t = np.ascontiguousarray(state.omega_t[:-1])


def _stale_topic_mass(state):
    state.topic_mass[0] = np.nextafter(state.topic_mass[0], 2.0)  # one bit, set without set_topics


BROKEN_LAYOUTS = {
    "offsets-start-past-0": (_set("offsets", 0, 1), "offsets must start at 0"),
    "offsets-decrease": (_set("offsets", 1, 4), "never decrease"),
    "offsets-end-short": (_set("offsets", -1, 4), "offsets end at 4, but there are 5 tokens"),
    "z-shorter-than-tokens": (_shorten_z, "5 tokens and 4 topics in z"),
    "z-negative": (_set("z", 0, -1), r"z holds a topic outside \[0, 3\)"),
    "z-past-last-topic": (_set("z", 4, 3), r"z holds a topic outside \[0, 3\)"),
    "omega-t-misshapen": (_misshapen_topics, r"omega_t has shape \(5, 2\), expected \(vocabulary, topics\) with 3"),
    "omega-t-short-of-a-term": (_topics_short_of_a_term, "omega_t's columns, the topics, are not normalized"),
    "topic-mass-stale": (_stale_topic_mass, "topic_mass is not the topics' sums over the vocabulary"),
}


@pytest.mark.parametrize("broken", sorted(BROKEN_LAYOUTS))
def test_validate_state_rejects_a_broken_flat_layout(broken):
    corpus = make_corpus([[0, 1, 2], [3, 3], [1, 4, 2, 0]], 5)
    split = split_train_test(corpus, 0.6, RandomSource(103))
    state = initialize(ModelKind.GAMMA_NB, corpus, split, MICRO.replace(K=3, init_iters=1), RandomSource(104))
    state.offsets = state.offsets.copy()  # the split's own offsets stay intact
    validate_state(state, after_sweep=False)
    assert list(state.offsets) == [0, 2, 3, 5]
    corrupt, message = BROKEN_LAYOUTS[broken]
    corrupt(state)
    with pytest.raises(ValueError, match=message):
        validate_state(state, after_sweep=False)


# which continuous fields every kernel must update, and which integer
# fields it may touch; everything else has to stay bit-identical
CONTINUOUS_CHANGED = {
    ModelKind.LDA: {"omega", "lam"},
    ModelKind.DIR_PFA: {"omega", "lam"},
    ModelKind.CRF_HDP: {"omega", "lam", "alpha", "r_tilde"},
    ModelKind.GAMMA_NB: {"omega", "lam", "p", "p_prime", "gamma0", "r"},
    ModelKind.NB_HDP: {"omega", "lam", "p_prime", "gamma0", "r"},
    ModelKind.NB_LDA: {"omega", "lam", "p", "gamma0", "r"},
    ModelKind.NB_FTM: {"omega", "lam", "pi_k", "gamma0", "r"},
    ModelKind.BETA_NB: {"omega", "lam", "p", "r"},
    ModelKind.MARKED_BETA_NB: {"omega", "lam", "p", "r"},
    ModelKind.MARKED_GAMMA_NB: {"omega", "lam", "p", "gamma0", "r"},
}
INTEGER_MAY_CHANGE = {
    ModelKind.LDA: {"z", "n_jk"},
    ModelKind.DIR_PFA: {"z", "n_jk"},
    ModelKind.CRF_HDP: {"z", "n_jk", "l_jk"},
    ModelKind.GAMMA_NB: {"z", "n_jk", "l_jk", "l_k_prime"},
    ModelKind.NB_HDP: {"z", "n_jk", "l_jk", "l_k_prime"},
    ModelKind.NB_LDA: {"z", "n_jk", "l_jk"},
    ModelKind.NB_FTM: {"z", "n_jk", "l_jk", "l_k_prime", "b_jk"},
    ModelKind.BETA_NB: {"z", "n_jk", "l_jk"},
    ModelKind.MARKED_BETA_NB: {"z", "n_jk", "l_jk"},
    ModelKind.MARKED_GAMMA_NB: {"z", "n_jk", "l_jk", "l_k_prime"},
}
STATE_FIELDS = (
    "z",
    "n_jk",
    "omega",
    "lam",
    "r",
    "p",
    "pi_k",
    "b_jk",
    "gamma0",
    "alpha",
    "l_jk",
    "l_k_prime",
    "p_prime",
    "r_tilde",
)


def _field_equal(a, b):
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_sweep_touches_exactly_its_parameters(kind):
    gen = RandomSource(68).generator
    docs = [gen.integers(0, 6, size=20).astype(np.int64) for _ in range(6)]
    corpus = make_corpus([list(d) for d in docs], 6)
    split = split_train_test(corpus, 0.7, RandomSource(69))
    hyper = MICRO.replace(K=3, init_iters=2, c=6.0 if kind in (ModelKind.BETA_NB, ModelKind.MARKED_BETA_NB) else 1.0)
    state = initialize(kind, corpus, split, hyper, RandomSource(70))
    before = copy.deepcopy(state)
    gibbs_sweep(state, hyper, RandomSource(71))
    for name in STATE_FIELDS:
        same = _field_equal(getattr(before, name), getattr(state, name))
        if name in CONTINUOUS_CHANGED[kind]:
            assert not same, f"{kind.value}: expected {name} to be resampled"
        elif name not in INTEGER_MAY_CHANGE[kind]:
            assert same, f"{kind.value}: {name} must stay fixed but changed"


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_state_holds_only_the_documents_by_topics_arrays_its_kind_reads(kind):
    # one weight matrix for every kind, and gates only where the kind is gated
    gen = RandomSource(89).generator
    J, K, V = 5, 3, 7
    docs = [gen.integers(0, V, size=12).astype(np.int64) for _ in range(J)]
    corpus = make_corpus([list(d) for d in docs], V)
    split = split_train_test(corpus, 0.7, RandomSource(90))
    hyper = MICRO.replace(K=K, init_iters=2, c=6.0 if kind in (ModelKind.BETA_NB, ModelKind.MARKED_BETA_NB) else 1.0)
    expected = {"n_jk", "lam", "l_jk"} | ({"b_jk"} if kind is ModelKind.NB_FTM else set())

    def documents_by_topics(state):
        return {
            f.name
            for f in dataclasses.fields(state)
            if isinstance(getattr(state, f.name), np.ndarray) and getattr(state, f.name).shape == (J, K)
        }

    state = initialize(kind, corpus, split, hyper, RandomSource(91))
    assert documents_by_topics(state) == expected
    gibbs_sweep(state, hyper, RandomSource(92))
    assert documents_by_topics(state) == expected
    if kind is not ModelKind.NB_FTM:
        assert state.b_jk is None and state.pi_k is None


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_clone_is_equal_and_shares_no_array(kind):
    # the tests draw from deep copies of one state and compare them field by field
    state = state_with_tokens(kind, [np.array([0, 1, 1, 4]), np.array([2, 3])], 5, 3)
    twin = copy.deepcopy(state)
    assert twin.kind is state.kind
    for f in dataclasses.fields(state):
        a, b = getattr(state, f.name), getattr(twin, f.name)
        if isinstance(a, np.ndarray):
            a, b = [a], [b]
        if isinstance(a, (list, tuple)):
            assert type(a) is type(b) and len(a) == len(b), f.name
            for x, y in zip(a, b):
                assert x.dtype == y.dtype and np.array_equal(x, y), f.name
                assert not np.shares_memory(x, y), f"{f.name} is shared with the original"
        else:
            assert a == b, f.name


# ---------------------------------------------------------------------------
# reductions and identities
# ---------------------------------------------------------------------------


def test_normalized_weights_match_dirichlet_moments():
    # normalizing per-document weights from the shared-dispersion forward
    # model gives Dirichlet(r) rows: first and second moments within 2%
    r = np.array([1.0, 2.0, 3.0])
    gen = RandomSource(72).generator
    p = 0.35
    lam = np.maximum(gen.gamma(r, p / (1 - p), size=(100_000, 3)), TINY)
    x = lam / lam.sum(axis=1, keepdims=True)
    total = r.sum()
    mean_expected = r / total
    second_expected = r * (r + 1) / (total * (total + 1))
    assert np.abs(x.mean(axis=0) / mean_expected - 1).max() < 0.02
    assert np.abs((x**2).mean(axis=0) / second_expected - 1).max() < 0.02


def test_predictive_mixture_weights_identity():
    # marginalizing the document weights reproduces predictive weights
    # (r_k + n_k^{-i}) / (sumr + N - 1) for the next token
    r = np.array([1.0, 2.0, 3.0])
    n_minus = np.array([2, 0, 1])
    p = 0.6
    gen = RandomSource(73).generator
    lam = np.maximum(gen.gamma(r + n_minus, p, size=(200_000, 3)), TINY)
    x = lam / lam.sum(axis=1, keepdims=True)
    expected = (r + n_minus) / (r.sum() + n_minus.sum())
    assert np.abs(x.mean(axis=0) / expected - 1).max() < 0.02


def test_sweep_determinism():
    corpus = make_corpus([[0, 1, 2, 0], [1, 1, 2]], 3)
    split = split_train_test(corpus, 0.8, RandomSource(74))
    hyper = MICRO.replace(K=2, init_iters=2)
    results = []
    for _ in range(2):
        state = initialize(ModelKind.GAMMA_NB, corpus, split, hyper, RandomSource(75))
        source = RandomSource(76)
        for _ in range(5):
            gibbs_sweep(state, hyper, source)
        results.append(state)
    a, b = results
    for name in STATE_FIELDS:
        assert _field_equal(getattr(a, name), getattr(b, name))


def test_simulate_data_preserves_lengths_for_normalized_kinds():
    hyper = MICRO.replace(K=2)
    dl = np.array([7, 3, 12])
    state = forward_draw(ModelKind.CRF_HDP, hyper, 3, 5, RandomSource(77), doc_lengths=dl)
    assert np.array_equal(state.train_counts, dl)
    simulate_data(state, RandomSource(78), doc_lengths=dl)
    assert np.array_equal(state.train_counts, dl)
    assert np.array_equal(state.n_jk.sum(axis=1), dl)


def test_forward_draw_rejects_normalized_without_lengths():
    with pytest.raises(ValueError):
        forward_draw(ModelKind.CRF_HDP, MICRO, 3, 5, RandomSource(79))
    with pytest.raises(ValueError):
        forward_draw(ModelKind.LDA, MICRO, 3, 5, RandomSource(80))


@pytest.mark.parametrize("kind", [ModelKind.BETA_NB, ModelKind.MARKED_BETA_NB, ModelKind.NB_FTM])
def test_forward_draw_rejects_beta_process_at_one_topic(kind):
    with pytest.raises(ValueError, match=r"needs K >= 2, got K = 1"):
        forward_draw(kind, MICRO.replace(K=1), 3, 5, RandomSource(81))


def test_crf_hdp_sweep_survives_underflowing_table_rate():
    # a tiny prior draw of alpha times an r_tilde entry clamped at TINY
    # underflows to 0 on an occupied topic; the CRT rate is floored at
    # TINY, whose law is the r -> 0 limit of one table per occupied cell
    hyper = MICRO.replace(K=2)
    state = state_with_tokens(ModelKind.CRF_HDP, [[0, 1, 2, 0], [1, 1, 2]], 3, 2, seed=82)
    state.alpha = 1e-20
    state.r_tilde = np.array([TINY, 1.0])
    state.lam = np.array([[1.0, TINY], [1.0, TINY]])  # every token goes to topic 0
    assert state.alpha * state.r_tilde[0] == 0.0
    gibbs_sweep(state, hyper, RandomSource(83))
    validate_state(state)
    assert np.array_equal(state.l_jk[:, 0], [1, 1])


def test_marked_gamma_nb_single_doc_per_topic_structure():
    # at J = 1 each topic's dispersion update has the shared-dispersion
    # form per topic: shape gamma0/K + l_k, scale 1/(c - log(1 - p_k))
    hyper = MICRO.replace(K=2)
    seed = 86
    base = forward_draw(ModelKind.MARKED_GAMMA_NB, hyper, 1, 4, RandomSource(seed))
    while base.n_jk.sum() < 3:
        seed += 1
        base = forward_draw(ModelKind.MARKED_GAMMA_NB, hyper, 1, 4, RandomSource(seed))
    rows = conditional_draws(
        base,
        hyper,
        20_000,
        87,
        lambda s: (
            s.r[0],
            (s.gamma0 / 2 + s.l_jk[:, 0].sum()) / (hyper.c - math.log1p(-s.p[0])),
        ),
    )
    assert abs(np.mean([r[0] for r in rows]) / np.mean([r[1] for r in rows]) - 1) < 0.02


def test_marked_gamma_nb_forward_topic_mass():
    # E[sum_j n_jk] = J r_k p_k / (1 - p_k) under the generative law
    gen = RandomSource(88).generator
    J, r_k, p_k = 12, 1.7, 0.55
    totals = []
    for _ in range(20_000):
        lam = gen.gamma(np.full(J, r_k), p_k / (1 - p_k))
        totals.append(gen.poisson(lam).sum())
    expected = J * r_k * p_k / (1 - p_k)
    assert abs(np.mean(totals) / expected - 1) < 0.15
