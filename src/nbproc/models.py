"""Model state, initialization, and one-iteration block Gibbs kernels.

Each model variant couples per-document topic weights ``lam[j, k]``
(probability-vector rows for the normalized kinds) with topic
distributions ``omega[k]`` over the vocabulary.  The count kinds are one
negative-binomial process that differs only in where the dispersion r
and the probability p live (one value per document j or per topic k) and
which priors they take; ``KIND_SPECS`` holds one ``KindSpec`` row per
kind:

================  =====  ========  =====  ===============  ==========================
kind              r on   r prior   p on   p prior          other
================  =====  ========  =====  ===============  ==========================
lda / dir-pfa     -      -         -      -                lam ~ Dir(50/K)
crf-hdp           -      -         -      -                lam ~ Dir(alpha r~)
nb-lda            j      gamma0    j      (a0, b0)
nb-hdp            k      gamma0/K  j      fixed 0.5
nb-ftm            k      gamma0    j      fixed 0.5        gates b_jk ~ Bernoulli(pi_k)
beta-nb           j      (e0, f0)  k      (c/K, c(1-1/K))
gamma-nb          k      gamma0/K  j      (a0, b0)
marked-beta-nb    k      (e0, f0)  k      (c/K, c(1-1/K))
marked-gamma-nb   k      gamma0/K  k      (a0, b0)
================  =====  ========  =====  ===============  ==========================

An r prior of gamma0/K or gamma0 means r ~ Gamma(gamma0/K, 1/c) or
Gamma(gamma0, 1/c) with gamma0 ~ Gamma(e0, 1/f0) resampled; (e0, f0)
means r ~ Gamma(e0, 1/f0).  A p prior is Beta(a0, b0) or the beta
process Beta(c/K, c(1 - 1/K)).  The 50/K smoothing is
``lda_alpha_total / K``; crf-hdp learns alpha ~ Gamma(a0, 1/b0) and
r~ ~ Dir(gamma0/K) with gamma0 fixed at 1.

``gibbs_sweep`` states the sweep order once for every kind: topic
assignments, the kind's parameter block, topic distributions.  CRT
table-count augmentation makes every conditional a gamma, beta, or
Dirichlet draw.  One block, ``count_sweep``, serves all seven count
kinds: nb-ftm is the gamma-NB process with beta-Bernoulli gates on the
same draws; the other kinds have no gates.

A state keeps its tokens and their topics as flat, document-major arrays
with document offsets, so a sweep never joins per-document pieces.  The
topics live in one vocabulary-major matrix, ``omega_t``, the layout the
assignment kernel and held-out evaluation read: the topic update draws
each row block of the Dirichlet a chunk of rows at a time through one
small buffer, counts the chunk's tokens straight into it, and writes each
chunk into its columns, with each topic's sum over the vocabulary in
``topic_mass``.  Given omega and lam every token's topic is independent
of the others', so a large assignment is drawn in token-balanced parts on
all cores with the same z, from uniforms drawn into the new z's own
buffer, and the kernel writes each document's counts into its row of
``n_jk`` as it goes.  A sweep overwrites ``omega_t``, ``n_jk``, ``lam``,
``l_jk`` and ``b_jk`` in place wherever they are writable C-contiguous
arrays of their shape and dtype, so its working set stays the same from
sweep to sweep, and the new z is its only token-length array.

Every gamma array of at least ``BLOCKED_CELLS`` cells (the topic
Dirichlet, and lam's draw in every kind and in the warm-up) is drawn in
``ROW_BLOCKS`` row blocks on all cores, each block from an SFC64 stream
keyed by one draw from the chain's Philox stream (see
``_in_row_blocks``).  Smaller draws take their variates from the chain's
stream itself, so their bits do not depend on the blocking.
"""

from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from enum import Enum

import numpy as np

from . import _kernels
from .corpus import offsets_from_lengths
from .distributions import (
    PROB_CEIL,
    PROB_FLOOR,
    TINY,
    sample_crt_array,
    sample_dirichlet,
    sample_gamma,
    writable_as,
)
from .rng import RandomSource

# Gamma draws of at least this many cells run in row blocks on streams of
# their own (see _in_row_blocks); the block count is a constant so that the
# output never depends on the core count.  A plain Gamma(0.125) draw of 2^18
# cells took 11.7 ms on one Philox stream against 7.6 ms in 8 SFC64 blocks on
# two threads, and one of 2^19 cells 36.5 ms against 14.5 ms: 2^19 is the
# smallest power of two at which blocking more than doubles the speed, which
# leaves room for the pass over the tokens that each block of a topic draw
# adds (blocking desk's 200 000-cell topic draw at 2^17 took it from 9.1 to
# 12.6 ms).
BLOCKED_CELLS = 2**19
ROW_BLOCKS = 8
# Each row block of a blocked topic draw is drawn a chunk of rows at a time
# through one buffer of about this many cells (1 MB), in chunks of a
# multiple of eight rows (see _sample_topics).
CHUNK_CELLS = 2**17
# Topic assignment of at least this many token x topic cells runs in one
# token-balanced part per available core (see sample_topic_assignments);
# each token's z depends only on its own uniform, so the parts never
# change it.  Smaller sweeps, Geweke-sized ones included, start no thread.
THREADED_CELLS = 2**20


class IterationError(RuntimeError):
    """A Gibbs update produced a non-finite value; names the variable."""

    def __init__(self, variable: str, detail: str = ""):
        self.variable = variable
        msg = f"non-finite value in update of '{variable}'"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class ModelKind(Enum):
    LDA = "lda"
    DIR_PFA = "dir-pfa"
    NB_LDA = "nb-lda"
    NB_HDP = "nb-hdp"
    NB_FTM = "nb-ftm"
    BETA_NB = "beta-nb"
    GAMMA_NB = "gamma-nb"
    MARKED_BETA_NB = "marked-beta-nb"
    MARKED_GAMMA_NB = "marked-gamma-nb"
    CRF_HDP = "crf-hdp"

    @classmethod
    def from_name(cls, name: str) -> "ModelKind":
        normalized = name.strip().lower().replace("_", "-")
        for kind in cls:
            if kind.value == normalized:
                return kind
        raise ValueError(f"unknown model kind {name!r}; choose from {[k.value for k in cls]}")

    @property
    def spec(self) -> "KindSpec":
        return KIND_SPECS[self]

    @property
    def models_counts(self) -> bool:
        """True when document lengths are themselves generated (Poisson).

        The other kinds' topic weights are probability vectors.
        """
        return self.spec.normalized is None


# Axes a count parameter lives on: one value per document j or per topic k.
DOC, TOPIC = "j", "k"
# r priors: Gamma(gamma0/K, 1/c) or Gamma(gamma0, 1/c) with gamma0 ~
# Gamma(e0, 1/f0) learned, or Gamma(e0, 1/f0).
GAMMA0_K, GAMMA0, E0F0 = "gamma0/K", "gamma0", "(e0, f0)"
# p priors: Beta(a0, b0), the beta process Beta(c/K, c(1 - 1/K)), or p fixed.
A0B0, BETA_PROCESS, HALF = "(a0, b0)", "(c/K, c(1-1/K))", "0.5"
# Normalized weights: Dir(lda_alpha_total/K), or Dir(alpha r_tilde) (franchise).
SMOOTHED, FRANCHISE = "lda_alpha_total/K", "alpha*r_tilde"


@dataclass(frozen=True)
class KindSpec:
    """Where one kind keeps its NB dispersion r and probability p.

    ``r_axis``/``p_axis`` are DOC or TOPIC, ``r_prior`` one of GAMMA0_K,
    GAMMA0, E0F0 and ``p_prior`` one of A0B0, BETA_PROCESS, HALF; all four
    are None for the normalized kinds, whose ``normalized`` names the
    Dirichlet prior of their weights.  ``gated`` adds nb-ftm's binary
    gates b_jk with sparsity pi_k.
    """

    r_axis: str | None = None
    r_prior: str | None = None
    p_axis: str | None = None
    p_prior: str | None = None
    gated: bool = False
    normalized: str | None = None

    @property
    def samples_gamma0(self) -> bool:
        """True when r's prior has a learned total mass gamma0."""
        return self.r_prior in (GAMMA0_K, GAMMA0)

    @property
    def learns_p(self) -> bool:
        return self.p_prior in (A0B0, BETA_PROCESS)


KIND_SPECS = {
    ModelKind.LDA: KindSpec(normalized=SMOOTHED),
    ModelKind.DIR_PFA: KindSpec(normalized=SMOOTHED),
    ModelKind.CRF_HDP: KindSpec(normalized=FRANCHISE),
    ModelKind.NB_LDA: KindSpec(DOC, GAMMA0, DOC, A0B0),
    ModelKind.NB_HDP: KindSpec(TOPIC, GAMMA0_K, DOC, HALF),
    ModelKind.NB_FTM: KindSpec(TOPIC, GAMMA0, DOC, HALF, gated=True),
    ModelKind.BETA_NB: KindSpec(DOC, E0F0, TOPIC, BETA_PROCESS),
    ModelKind.GAMMA_NB: KindSpec(TOPIC, GAMMA0_K, DOC, A0B0),
    ModelKind.MARKED_BETA_NB: KindSpec(TOPIC, E0F0, TOPIC, BETA_PROCESS),
    ModelKind.MARKED_GAMMA_NB: KindSpec(TOPIC, GAMMA0_K, TOPIC, A0B0),
}


def check_number(name: str, value, integral: bool = False) -> None:
    """Reject a setting that is not a number (an integer if ``integral``), naming it.

    Settings read from JSON can hold any type; a bool is not a number here.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral if integral else numbers.Real):
        raise ValueError(f"{name} must be {'an integer' if integral else 'a number'}, got {value!r}")


@dataclass
class HyperParams:
    """Fixed scalars of the model family and the sampling schedule.

    Defaults follow the standard protocol: c = 1, eta = 0.05,
    a0 = b0 = e0 = f0 = 0.01, truncation K = 400, 2500 sweeps with the
    last 1500 collected, and 50 warm-up sweeps with dispersion frozen at
    50/K and p at 0.5.  ``lda_alpha_total / K`` is the Dirichlet
    smoothing of normalized topic weights.
    """

    c: float = 1.0
    eta: float = 0.05
    a0: float = 0.01
    b0: float = 0.01
    e0: float = 0.01
    f0: float = 0.01
    K: int = 400
    lda_alpha_total: float = 50.0
    iters: int = 2500
    burnin: int = 1000
    collect_every: int = 1
    init_iters: int = 50
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):  # a JSON config can hold any type
            check_number(f.name, getattr(self, f.name), integral=f.type == "int")
        for name in ("c", "eta", "a0", "b0", "e0", "f0", "lda_alpha_total"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.K < 1:
            raise ValueError(f"K must be >= 1, got {self.K}")
        if self.iters < 1:
            raise ValueError(f"iters must be >= 1, got {self.iters}")
        if not 0 <= self.burnin < self.iters:
            raise ValueError(f"need 0 <= burnin < iters, got burnin={self.burnin}, iters={self.iters}")
        if self.collect_every < 1:
            raise ValueError(f"collect_every must be >= 1, got {self.collect_every}")
        if self.init_iters < 0:
            raise ValueError(f"init_iters must be >= 0, got {self.init_iters}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")

    def replace(self, **overrides) -> "HyperParams":
        return replace(self, **overrides)


@dataclass
class ModelState:
    """Truncated random-measure realization plus token assignments.

    Fields a given kind never updates stay at their initial values; the
    training tokens travel with the state so a kernel sweep is
    self-contained.  Tokens and their topics are flat and document-major:
    document j's terms are ``tokens[offsets[j]:offsets[j + 1]]`` and ``z``
    is aligned with ``tokens``.  The topics are the columns of the
    vocabulary x topics ``omega_t``, and ``topic_mass`` holds each one's
    sum over the vocabulary; ``omega`` is the topics x vocabulary view of
    the same buffer, for reading.  Set topics with ``set_topics`` so that
    the two fields agree.  ``lam`` holds the topic weights: rows that sum
    to one for lda/dir-pfa/crf-hdp.  ``pi_k`` and ``b_jk`` are None except
    for the gated kind, nb-ftm.
    """

    kind: ModelKind
    eta: float
    tokens: np.ndarray  # training term ids, flat
    offsets: np.ndarray  # documents + 1 offsets into tokens and z
    z: np.ndarray  # topic of each token, aligned with tokens
    n_jk: np.ndarray  # documents x topics counts derived from z
    omega_t: np.ndarray  # vocabulary x topics distributions
    topic_mass: np.ndarray  # each topic's sum over the vocabulary (its column sum)
    lam: np.ndarray  # documents x topics weights
    r: np.ndarray  # NB dispersion, one entry per spec.r_axis (none for normalized kinds)
    p: np.ndarray  # NB probability, one entry per spec.p_axis (likewise)
    pi_k: np.ndarray | None  # gate sparsity (nb-ftm)
    b_jk: np.ndarray | None  # binary gates (nb-ftm)
    gamma0: float
    alpha: float
    l_jk: np.ndarray  # CRT table counts
    l_k_prime: np.ndarray
    p_prime: float
    r_tilde: np.ndarray

    @property
    def num_docs(self) -> int:
        return len(self.offsets) - 1

    @property
    def omega(self) -> np.ndarray:
        """The topics x vocabulary distributions: a read-only view of ``omega_t``."""
        view = self.omega_t.T
        view.flags.writeable = False
        return view

    @property
    def num_topics(self) -> int:
        return self.omega_t.shape[1]

    @property
    def vocab_size(self) -> int:
        return self.omega_t.shape[0]

    @property
    def train_counts(self) -> np.ndarray:
        return np.diff(self.offsets)


def _check_finite(name: str, value) -> None:
    arr = np.asarray(value)
    if not np.all(np.isfinite(arr)):
        raise IterationError(name)


def _gamma_clamped(gen: np.random.Generator, shape, scale) -> np.ndarray:
    return np.maximum(gen.gamma(shape, scale), TINY)


def _beta_clamped(gen: np.random.Generator, a, b) -> np.ndarray:
    return np.clip(gen.beta(a, b), PROB_FLOOR, PROB_CEIL)


def _dirichlet_rows(gen: np.random.Generator, concentration, *, _workers: int | None = None) -> np.ndarray:
    """Draw every row of a rows x columns concentration from its Dirichlet.

    The draw is made in place: a writable C-contiguous float64
    ``concentration`` is overwritten and returned, and any other input
    (read-only, strided or of another dtype) is copied first.  The rows are
    drawn in the blocks, streams and threads of ``_in_row_blocks``, so the
    output depends only on ``gen``'s state and the shape of the draw, never
    on the thread count, and ``gen`` advances by the same keys whatever the
    concentration values.
    """
    rows = np.require(concentration, np.float64, ["C", "W"])

    def draw(stream: np.random.Generator, start: int, stop: int) -> None:
        _normalized_gammas(stream, rows[start:stop])

    _in_row_blocks(gen, len(rows), rows.size, draw, _workers)
    return rows


def _standard_gammas(gen: np.random.Generator, shapes: np.ndarray) -> None:
    """Overwrite each entry of a writable C-contiguous float64 rows x columns array with a Gamma(entry, 1) draw.

    The rows are drawn in the blocks, streams and threads of
    ``_in_row_blocks``: below ``BLOCKED_CELLS`` cells this is
    ``gen.standard_gamma(shapes, out=shapes)``, the variates of
    ``gen.gamma(shapes, 1.0)``.
    """

    def draw(stream: np.random.Generator, start: int, stop: int) -> None:
        stream.standard_gamma(shapes[start:stop], out=shapes[start:stop])

    _in_row_blocks(gen, len(shapes), shapes.size, draw)


def _in_row_blocks(gen: np.random.Generator, num_rows: int, cells: int, draw, workers: int | None = None) -> None:
    """Call ``draw(stream, start, stop)`` on each row block of a draw of ``cells`` cells in ``num_rows`` rows.

    Below ``BLOCKED_CELLS`` cells there is one block, [0, num_rows), drawn
    from ``gen``.  Otherwise the rows split as ``np.array_split`` splits
    them into ``min(ROW_BLOCKS, num_rows)`` blocks, each drawn from a
    stream of its own, on ``workers`` threads (default: up to one per
    available core).  A block's stream is an SFC64 generator keyed by its
    entry of one ``gen.integers(2**63, size=blocks)`` draw: numpy's
    ``standard_gamma`` takes 22-31 % less time per variate on SFC64 than
    on Philox at shapes 0.05-0.125, and the chain itself keeps its
    counter-based stream.  Blocks and streams depend only on ``gen``'s
    state and the shape, never on the thread count or the values drawn.
    """
    if cells < BLOCKED_CELLS:
        draw(gen, 0, num_rows)
        return
    count = min(ROW_BLOCKS, num_rows)
    size, extra = divmod(num_rows, count)
    bounds = [block * size + min(block, extra) for block in range(count + 1)]
    keys = gen.integers(2**63, size=count)
    streams = [np.random.Generator(np.random.SFC64(int(key))) for key in keys]
    workers = workers or min(count, _available_cores())
    if workers == 1:
        for stream, start, stop in zip(streams, bounds, bounds[1:]):
            draw(stream, start, stop)
    else:  # numpy's array gamma releases the GIL
        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(draw, streams, bounds, bounds[1:]))


def _normalized_gammas(gen: np.random.Generator, rows: np.ndarray) -> None:
    """Replace each row's concentrations by Gamma(., 1) draws clamped at TINY, normalized."""
    gen.standard_gamma(rows, out=rows)
    np.maximum(rows, TINY, out=rows)
    rows /= rows.sum(axis=1, keepdims=True)


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _libm(function, values: np.ndarray) -> np.ndarray:
    """``function`` (``math.log``, ``math.exp``, ...) of each entry of a vector.

    These are the C library's scalar routines: numpy's vector ``log``,
    ``log1p`` and ``exp`` round some values differently on CPUs with other
    SIMD extensions, which would make a chain depend on the CPU.
    """
    return np.array([function(value) for value in values.tolist()], dtype=np.float64)


def _along(axis: str, values: np.ndarray) -> np.ndarray:
    """A per-document or per-topic vector shaped to broadcast over documents x topics."""
    return values[:, None] if axis == DOC else values[None, :]


def _per(axis: str, matrix: np.ndarray) -> np.ndarray:
    """Sum a documents x topics matrix to one value per document or per topic."""
    return matrix.sum(axis=1 if axis == DOC else 0)


def _beta_prior(prior: str, hyper: HyperParams, K: int) -> tuple[float, float]:
    """The two shapes of an A0B0 or BETA_PROCESS beta prior."""
    if prior == BETA_PROCESS:
        return hyper.c / K, hyper.c * (1.0 - 1.0 / K)
    return hyper.a0, hyper.b0


def _check_beta_process(kind: ModelKind, hyper: HyperParams) -> None:
    """Reject a truncation at which the kind's beta-process prior is improper.

    Beta(c/K, c(1 - 1/K)) has a zero second shape at K = 1; it is the
    prior of p for beta-nb and marked-beta-nb and of the gates' pi_k for
    nb-ftm.
    """
    spec = kind.spec
    if hyper.K < 2 and (spec.p_prior == BETA_PROCESS or spec.gated):
        a, b = _beta_prior(BETA_PROCESS, hyper, hyper.K)
        raise ValueError(
            f"{kind.value} needs K >= 2, got K = {hyper.K}: its beta-process prior "
            f"Beta(c/K, c(1-1/K)) = Beta({a:g}, {b:g}) has a zero shape"
        )


def _gamma0_share(spec: KindSpec, K: int) -> int:
    """The divisor of gamma0 in the shape of each entry of r."""
    return K if spec.r_prior == GAMMA0_K else 1


def _gated(state: ModelState, values: np.ndarray) -> np.ndarray:
    """Documents x topics ``values`` times the gates b_jk; kinds without gates keep them as they are."""
    return values if state.b_jk is None else values * state.b_jk


def blank_state(kind: ModelKind, tokens, offsets, z, vocab_size: int, num_topics: int, eta: float) -> ModelState:
    """A state with neutral parameter values: tokens, their topics, and zero counts.

    ``tokens`` is the flat, document-major term array that ``offsets``
    index, and ``z`` their topics; each is kept, not copied, when it is
    int64.  ``_recount`` sets ``n_jk`` from z.
    """
    tokens, offsets, z = (np.asarray(a, dtype=np.int64) for a in (tokens, offsets, z))
    J, K, V = len(offsets) - 1, num_topics, vocab_size
    size = {DOC: J, TOPIC: K, None: 0}
    return ModelState(
        kind=kind,
        eta=float(eta),
        tokens=tokens,
        offsets=offsets,
        z=z,
        n_jk=np.zeros((J, K), dtype=np.int64),
        omega_t=np.full((V, K), 1.0 / V),
        topic_mass=np.full(K, np.full(V, 1.0 / V).sum()),  # each uniform topic's row sum
        lam=np.full((J, K), 1.0 if kind.models_counts else 1.0 / K),
        r=np.ones(size[kind.spec.r_axis]),
        p=np.full(size[kind.spec.p_axis], 0.5),
        pi_k=np.full(K, 0.5) if kind.spec.gated else None,
        b_jk=np.ones((J, K), dtype=np.int64) if kind.spec.gated else None,
        gamma0=1.0,
        alpha=1.0,
        l_jk=np.zeros((J, K), dtype=np.int64),
        l_k_prime=np.zeros(K, dtype=np.int64),
        p_prime=0.5,
        r_tilde=np.full(K, 1.0 / K),
    )


def set_topics(state: ModelState, omega: np.ndarray) -> None:
    """Make the rows of a topics x vocabulary ``omega`` the state's topics.

    Writes the transpose into ``state.omega_t``, reusing that buffer where a
    sweep would, and the row sums into ``state.topic_mass``.
    """
    omega = np.ascontiguousarray(omega, dtype=np.float64)
    K, V = omega.shape
    state.omega_t = _reusable(state.omega_t, (V, K), np.float64)
    np.copyto(state.omega_t, omega.T)
    state.topic_mass = omega.sum(axis=1)


def _reusable(array: np.ndarray, shape: tuple[int, ...], dtype) -> np.ndarray:
    """``array`` where a sweep may overwrite it (see ``writable_as``), else a new one, leaving it as it is."""
    return array if writable_as(array, shape, dtype) else np.empty(shape, dtype=dtype)


def _recount(state: ModelState) -> None:
    """Set ``state.n_jk`` to each document's token count on each topic, in one pass over z."""
    n_jk = np.empty((state.num_docs, state.num_topics), dtype=np.int64)
    z = np.ascontiguousarray(state.z, dtype=np.int64)
    bad = _kernels.library().count_documents(z, state.offsets, n_jk)
    if bad >= 0:
        raise ValueError(f"token {bad} has topic {z[bad]}, outside [0, {state.num_topics})")
    state.n_jk = n_jk


def _document_parts(offsets: np.ndarray, num_topics: int) -> list[tuple[int, int]]:
    """Runs of documents [start, stop) holding about equal token counts, one per core.

    A single run covers every document below ``THREADED_CELLS`` token x
    topic cells or on one core.
    """
    J, N = len(offsets) - 1, int(offsets[-1])
    parts = _available_cores() if N * num_topics >= THREADED_CELLS else 1
    if parts < 2:
        return [(0, J)]
    shares = N * np.arange(1, parts) / parts
    after = np.searchsorted(offsets, shares)  # the document boundaries on either side of each share
    cuts = np.where(offsets[after] - shares <= shares - offsets[after - 1], after, after - 1)
    bounds = np.unique(np.concatenate(([0], cuts, [J]))).tolist()
    return list(zip(bounds, bounds[1:]))


def _run_parts(work, parts: list[tuple[int, int]]) -> list:
    """``work(start, stop)`` for every part, in part order.

    The first part runs on this thread and the others on threads of their
    own meanwhile: the compiled loops release the GIL.
    """
    first, *rest = parts
    if not rest:
        return [work(*first)]
    with ThreadPoolExecutor(len(rest)) as pool:
        others = pool.map(work, *zip(*rest))
        return [work(*first), *others]


def sample_topic_assignments(state: ModelState, rng: RandomSource) -> ModelState:
    """Resample z for every training token and write its counts into n_jk; see ``_draw_topics``.

    The kernel counts as it draws, into ``state.n_jk`` where that is a
    writable C-contiguous int64 documents x topics array.  A failed draw
    keeps the old z and recounts n_jk from it.
    """
    n_jk = _reusable(state.n_jk, (state.num_docs, state.num_topics), np.int64)
    try:
        state.z = _draw_topics(state, rng, n_jk)
    except IterationError:
        _recount(state)  # the kernel wrote some rows of the new counts
        raise
    state.n_jk = n_jk
    return state


def _check_terms(terms: np.ndarray, offsets: np.ndarray, V: int) -> None:
    """Reject a term id outside [0, V), naming its document: the compiled loops index rows of V entries with them."""
    if terms.size and (terms.min() < 0 or terms.max() >= V):
        first = int(np.flatnonzero((terms < 0) | (terms >= V))[0])
        doc = int(np.searchsorted(offsets, first, side="right")) - 1
        raise ValueError(f"document {doc} holds term id {terms[first]}, outside the vocabulary [0, {V})")


def _draw_topics(state: ModelState, rng: RandomSource, n_jk: np.ndarray) -> np.ndarray:
    """A new topic for every training token; each document's topic counts go into its row of ``n_jk``.

    Probability of topic k for a token with term v is proportional to
    omega[k, v] times the document's weight lam[j, k].  One uniform per
    token is drawn, in document order, into the new z's own buffer; the
    compiled kernel reads each token's uniform before it writes its
    topic.  Above ``THREADED_CELLS`` the documents are split into
    token-balanced parts drawn on one thread each; a token's z depends
    only on its own uniform, so z never depends on the number of parts,
    and a document with no admissible topic is named as the lowest such
    one.  Parts hold whole documents, so no two threads write one row of
    ``n_jk`` or one token's entry of z.
    """
    omega_t = np.ascontiguousarray(state.omega_t, dtype=np.float64)  # vocabulary x topics
    V, K = omega_t.shape
    lam = np.ascontiguousarray(state.lam, dtype=np.float64)
    J = state.num_docs
    if lam.shape != (J, K):
        raise ValueError(f"lam has shape {lam.shape}, expected (documents, topics) = {(J, K)}")
    terms, offsets = state.tokens, state.offsets
    _check_terms(terms, offsets, V)
    for name, weights in (("omega", omega_t), ("lam", lam)):
        if weights.min(initial=0.0) < 0:  # the compiled kernel bisects nondecreasing running sums
            raise ValueError(f"{name} has a negative entry; topic weights must be non-negative")
    z = np.empty(len(terms), dtype=np.int64)
    u = z.view(np.float64)  # each token reads its uniform before its topic overwrites it
    rng.generator.random(out=u)
    assign = _kernels.library().assign_topics

    def assign_part(start: int, stop: int) -> int:
        bad = assign(omega_t, lam[start:stop], terms, offsets[start : stop + 1], u, z, n_jk[start:stop])
        return bad if bad < 0 else start + bad

    found = _run_parts(assign_part, _document_parts(offsets, K))
    bad = next((j for j in found if j >= 0), -1)  # parts are in document order
    if bad >= 0:
        raise IterationError("z-weights", f"document {bad} has no admissible topic")
    return z


def update_topics(state: ModelState, rng: RandomSource) -> ModelState:
    """Resample every topic from its Dirichlet posterior Dir(eta + its term counts); see ``_sample_topics``."""
    _sample_topics(state, rng.generator)
    return state


def _sample_topics(state: ModelState, gen: np.random.Generator, prior: bool = False, _workers: int | None = None):
    """Draw each topic from Dir(eta + the counts of its tokens' terms), or from Dir(eta) if ``prior``.

    The draw has the bits of ``_dirichlet_rows(gen, eta + counts).T``, with
    its row blocks, streams and threads, but makes no topics x vocabulary
    array.  Below ``BLOCKED_CELLS`` it is one chunk.  A row block of a
    larger draw takes its rows in order, a chunk of ``CHUNK_CELLS // V``
    rows at a time rounded down to a multiple of eight (at least eight),
    through one buffer; its stream draws the gammas cell by cell in C order
    and each row is clamped and normalized on its own, so the chunks keep
    the bits.  The compiled loops count a chunk's tokens straight into the
    buffer: a block of one chunk in one pass over the tokens, a block of
    several from one pass that lists its own tokens' cells topic by topic.  A
    chunk's row sums are its topics' ``state.topic_mass``, and the chunk is
    written into its columns of ``state.omega_t``, which is overwritten
    when it is a writable C-contiguous float64 array, and replaced
    otherwise.
    """
    V, K = state.omega_t.shape
    omega_t = _reusable(state.omega_t, (V, K), np.float64)
    z, tokens = (state.z[:0], state.tokens[:0]) if prior else (state.z, state.tokens)
    _check_terms(tokens, state.offsets, V)
    topic_mass = np.empty(K)
    # eight rows or more per write: narrower transposed writes into omega_t cost more
    height = K if K * V < BLOCKED_CELLS else max(8, CHUNK_CELLS // V // 8 * 8)
    loops = _kernels.library()
    per_topic = np.bincount(z, minlength=K) if height < K else None  # sizes a block's list of its cells

    def draw(stream: np.random.Generator, start: int, stop: int) -> None:
        rows = min(height, stop - start)
        firsts = range(start, stop, rows)
        cells = None
        if len(firsts) > 1:  # the block's cells, topic by topic, so each chunk's are one run
            sizes = per_topic[start:stop]
            starts = np.cumsum(sizes) - sizes
            cells = np.empty(int(sizes.sum()), dtype=np.int64)
            loops.gather_cells(z, tokens, start, stop, V, starts.copy(), cells)
            edges = [*starts[::rows].tolist(), len(cells)]
        buffer = np.empty(rows * V)
        for index, first in enumerate(firsts):
            last = min(first + rows, stop)
            chunk = buffer[: (last - first) * V].reshape(last - first, V)
            chunk.fill(0.0)
            # eta plus the exact float counts: the same bits as eta + np.bincount(...)
            if cells is None:
                loops.count_topics(z, tokens, first, last, chunk)
            else:
                loops.add_cells(cells[edges[index] : edges[index + 1]], (first - start) * V, chunk)
            chunk += state.eta
            _normalized_gammas(stream, chunk)
            topic_mass[first:last] = chunk.sum(axis=1)
            omega_t[:, first:last] = chunk.T

    _in_row_blocks(gen, K, K * V, draw, _workers)
    state.omega_t, state.topic_mass = omega_t, topic_mass


# ---------------------------------------------------------------------------
# Block Gibbs kernels: one sweep order, and a parameter block per weight law.
# ---------------------------------------------------------------------------


def count_sweep(state, hyper, rng, fault=None):
    """Parameter block of a count kind, whose r and p each live on one axis.

    Order: p ~ Beta(prior + tokens on p's axis, prior + the r mass those
    tokens meet) unless p is fixed; gates b_jk and sparsity pi_k if gated;
    tables l_jk ~ CRT(n_jk, r b_jk); for a gamma0 prior, the mixed
    probability p', l' ~ CRT(tables, gamma0/K or gamma0) and the total
    mass gamma0; r given its tables; lam_jk ~ Gamma(r b_jk + n_jk, p), and
    exactly 0 where both vanish; kinds without gates take b_jk = 1.
    lam's gammas are drawn in place, in the row blocks of
    ``_in_row_blocks`` at ``BLOCKED_CELLS`` cells and above, and from the
    chain's stream below that.  Only the gated kind looks for closed
    cells: elsewhere r >= TINY, so every shape is positive.
    ``fault="r-shape"`` adds 1 to r's shape, a deliberate corruption for
    harness self-checks.
    """
    spec = state.kind.spec
    gen = rng.generator
    J, K = state.n_jk.shape
    span = J if spec.r_axis == TOPIC else K  # cells one entry of r covers
    same_axis = spec.p_axis == spec.r_axis
    r = state.r
    if spec.learns_p:
        a, b = _beta_prior(spec.p_prior, hyper, K)
        state.p = _beta_clamped(gen, a + _per(spec.p_axis, state.n_jk), b + (span * r if same_axis else r.sum()))
        _check_finite("p", state.p)
    p = state.p
    # lam is drawn last, in one buffer, state.lam where it can be overwritten;
    # until then the gated kind draws its gates' uniforms into it
    lam = _reusable(state.lam, (J, K), np.float64)
    if spec.gated:  # p is fixed at 0.5
        log_half = math.log(0.5)
        # gate: off cells compete pi_k * 0.5^{r_k} against (1 - pi_k); n_jk > 0 forces it open
        on_mass = state.pi_k * _libm(math.exp, r * log_half)
        gate_prob = on_mass / (on_mass + (1.0 - state.pi_k))
        gen.random(out=lam)  # the uniforms of gen.random((J, K))
        b_jk = _reusable(state.b_jk, (J, K), np.int64)
        np.less(lam, gate_prob, out=b_jk)
        np.copyto(b_jk, 1, where=state.n_jk > 0)
        state.b_jk = b_jk
        gates_per_topic = b_jk.sum(axis=0)
        a, b = _beta_prior(BETA_PROCESS, hyper, K)
        state.pi_k = _beta_clamped(gen, a + gates_per_topic, b + J - gates_per_topic)
        _check_finite("pi_k", state.pi_k)
        log1mp = gates_per_topic * log_half  # over the open cells of each topic
    else:
        # sum of log(1 - p) over the cells each entry of r covers
        log1mp = span * _libm(math.log1p, -p) if same_axis else float(_libm(math.log1p, -p).sum())
    l_jk = _reusable(state.l_jk, (J, K), np.int64)
    # the rate r b_jk is read only where n_jk > 0, where every gate is open
    state.l_jk = sample_crt_array(state.n_jk, _along(spec.r_axis, r), rng, l_jk)
    tables = _per(spec.r_axis, state.l_jk)
    if spec.samples_gamma0:
        share = _gamma0_share(spec, K)
        # with r integrated out, each entry's tables are NB(gamma0 / share, p')
        p_prime = -log1mp / (hyper.c - log1mp)
        _check_finite("p_prime", p_prime)
        l_prime = sample_crt_array(tables, state.gamma0 / share, rng)
        if spec.r_axis == TOPIC:
            state.l_k_prime = l_prime
        if same_axis or spec.gated:
            gamma0_rate = hyper.f0 - float(_libm(math.log1p, -p_prime).sum()) / share
        else:  # every entry of r shares one p'
            state.p_prime = p_prime
            gamma0_rate = hyper.f0 - math.log1p(-p_prime) * (r.size / share)
        state.gamma0 = float(_gamma_clamped(gen, hyper.e0 + l_prime.sum(), 1.0 / gamma0_rate))
        _check_finite("gamma0", state.gamma0)
        r_shape, r_rate = state.gamma0 / share + tables, hyper.c - log1mp
    else:
        r_shape, r_rate = hyper.e0 + tables, hyper.f0 - log1mp
    if fault == "r-shape":
        r_shape = r_shape + 1.0
    state.r = _gamma_clamped(gen, r_shape, 1.0 / r_rate)
    _check_finite("r", state.r)
    # lam's shape, then Gamma(shape, 1) draws, which times p are the
    # Gamma(shape, p) draws of the same variates
    np.copyto(lam, state.n_jk)  # cast in place, where np.add would cast through a buffer
    r_jk = _along(spec.r_axis, state.r)
    if spec.gated:
        # the shape n_jk + r b_jk: b_jk is 0 or 1, so r is added where the gate is open
        np.add(lam, r_jk, out=lam, where=state.b_jk == 1)
        closed = lam <= 0  # a closed gate with no tokens pins lam_jk to 0
        lam[closed] = 1.0  # but still takes its variate
    else:  # r >= TINY, so every shape is positive
        lam += r_jk
    _standard_gammas(gen, lam)
    lam *= _along(spec.p_axis, p)
    np.maximum(lam, TINY, out=lam)
    if spec.gated:
        lam[closed] = 0.0
    state.lam = lam
    _check_finite("lam", state.lam)


def crf_hdp_sweep(state, hyper, rng):
    """Parameter block of the normalized (franchise) model's direct-assignment sweep.

    Table counts l_jk ~ CRT(n_jk, alpha * r_tilde_k) feed the
    concentration update through the usual beta/Bernoulli auxiliaries
    (w_j, s_j, transient here); gamma0 stays fixed at 1 because its
    finite-truncation sampler is biased.  Where alpha * r_tilde_k
    underflows to 0 the CRT rate is floored at ``TINY``: CRT(m, r) tends
    to one table as r -> 0, so this is the limiting law.
    """
    gen = rng.generator
    J, K = state.n_jk.shape
    l_jk = _reusable(state.l_jk, (J, K), np.int64)
    state.l_jk = sample_crt_array(state.n_jk, np.maximum(state.alpha * state.r_tilde, TINY)[None, :], rng, l_jk)
    state.alpha = crf_alpha_step(
        state.alpha, int(state.l_jk.sum()), state.train_counts, hyper.a0, hyper.b0, gen
    )
    _check_finite("alpha", state.alpha)
    tilde_conc = state.gamma0 / K + state.l_jk.sum(axis=0)
    state.r_tilde = _dirichlet_rows(gen, tilde_conc[None, :])[0]
    _check_finite("r_tilde", state.r_tilde)
    lam = _reusable(state.lam, (J, K), np.float64)
    state.lam = _dirichlet_rows(gen, np.add(state.alpha * state.r_tilde[None, :], state.n_jk, out=lam))
    _check_finite("lam", state.lam)


def crf_alpha_step(alpha: float, total_tables: int, doc_sizes: np.ndarray, a0: float, b0: float, gen) -> float:
    """One auxiliary-variable update of the franchise concentration.

    Given the current total table count and per-document sizes, draws
    the beta/Bernoulli auxiliaries (w_j, s_j) and then alpha from its
    resulting gamma conditional.  Empty documents contribute nothing.
    """
    doc_sizes = np.asarray(doc_sizes, dtype=np.float64)
    has_tokens = doc_sizes > 0
    w = _beta_clamped(gen, alpha + 1.0, np.maximum(doc_sizes, 1.0))
    w = np.where(has_tokens, w, 1.0)
    s = np.where(has_tokens, gen.random(len(doc_sizes)) < doc_sizes / (doc_sizes + alpha), False)
    shape = a0 + total_tables - s.sum()
    rate = b0 - float(_libm(math.log, w).sum())
    return float(_gamma_clamped(gen, shape, 1.0 / rate))


def lda_sweep(state, hyper, rng):
    """Parameter block of the normalized sweep with fixed smoothing; also serves dir-pfa."""
    smoothing = hyper.lda_alpha_total / state.num_topics
    lam = _reusable(state.lam, state.n_jk.shape, np.float64)
    state.lam = _dirichlet_rows(rng.generator, np.add(smoothing, state.n_jk, out=lam))
    _check_finite("lam", state.lam)


def gibbs_sweep(state, hyper, rng, fault=None):
    """Run one full block Gibbs sweep for the state's model kind.

    Every kind runs the same order: topic assignments z, the kind's
    parameter block, then the topic distributions.  ``fault`` is passed
    to ``count_sweep``; the normalized kinds reject it before any draw.
    """
    kind = state.kind
    if fault is not None and not kind.models_counts:
        raise ValueError(f"fault injection is only wired into the count kernel, not {kind.value}")
    sample_topic_assignments(state, rng)
    if kind.models_counts:
        count_sweep(state, hyper, rng, fault=fault)
    elif kind.spec.normalized == FRANCHISE:
        crf_hdp_sweep(state, hyper, rng)
    else:
        lda_sweep(state, hyper, rng)
    update_topics(state, rng)
    return state


def count_active_topics(state: ModelState) -> int:
    """Number of topics with at least one assigned training token."""
    return int(np.count_nonzero(state.n_jk.sum(axis=0)))


# ---------------------------------------------------------------------------
# Initialization and forward simulation.
# ---------------------------------------------------------------------------


def _draw_count_params(state: ModelState, hyper: HyperParams, rng: RandomSource) -> None:
    """Draw the kind-specific count parameters from their priors."""
    spec = state.kind.spec
    gen = rng.generator
    K = state.num_topics
    size = {DOC: state.num_docs, TOPIC: K}
    if spec.samples_gamma0:
        state.gamma0 = float(sample_gamma(hyper.e0, 1.0 / hyper.f0, rng))
        r_shape = state.gamma0 / _gamma0_share(spec, K)
        state.r = _gamma_clamped(gen, np.full(size[spec.r_axis], r_shape), 1.0 / hyper.c)
    elif spec.r_prior == E0F0:
        state.r = _gamma_clamped(gen, np.full(size[spec.r_axis], hyper.e0), 1.0 / hyper.f0)
    if spec.gated:
        a, b = _beta_prior(BETA_PROCESS, hyper, K)
        state.pi_k = _beta_clamped(gen, np.full(K, a), np.full(K, b))
    if spec.normalized == FRANCHISE:
        state.gamma0 = 1.0
        state.r_tilde = sample_dirichlet(np.full(K, state.gamma0 / K), rng)
        state.alpha = float(sample_gamma(hyper.a0, 1.0 / hyper.b0, rng))
    if spec.learns_p:  # a fixed p keeps the 0.5 of ``blank_state``
        a, b = _beta_prior(spec.p_prior, hyper, K)
        n = size[spec.p_axis]
        state.p = _beta_clamped(gen, np.full(n, a), np.full(n, b))


def initialize(kind: ModelKind, corpus, split, hyper: HyperParams, rng: RandomSource) -> ModelState:
    """Build a starting state from the training half of a held-out split.

    Tokens are assigned to topics uniformly at random, weights and
    topics drawn from their priors, and ``hyper.init_iters`` warm-up
    sweeps are run with dispersion frozen at ``lda_alpha_total / K`` and
    p at 0.5 (only z, lam, omega move).  The resulting (z, omega, lam)
    seed the target kind, whose remaining parameters come from their
    priors; gates start fully open.  Each warm-up lam is drawn in place
    as ``count_sweep`` draws lam, in row blocks at ``BLOCKED_CELLS`` cells
    and above.
    """
    _check_beta_process(kind, hyper)
    gen = rng.generator
    K, offsets = hyper.K, split.train_offsets
    z = np.empty(offsets[-1], dtype=np.int64)
    bounds = offsets.tolist()
    for start, stop in zip(bounds, bounds[1:]):
        # one draw per document: how integers() splits its 64-bit words depends on the draw sizes
        z[start:stop] = gen.integers(0, K, size=stop - start)
    state = blank_state(kind, split.train_terms, offsets, z, corpus.vocab_size, K, hyper.eta)
    _recount(state)
    _sample_topics(state, gen, prior=True)
    warm_r = hyper.lda_alpha_total / K

    def warm_lam(counts, scale: float) -> None:
        """Gamma(warm_r + counts, scale) clamped at TINY, drawn in ``state.lam``: gen.gamma(shape,
        scale) is scale times the standard_gamma(shape) of the same variate."""
        np.add(counts, warm_r, out=state.lam)
        _standard_gammas(gen, state.lam)
        state.lam *= scale
        np.maximum(state.lam, TINY, out=state.lam)

    warm_lam(0, 1.0)
    for _ in range(hyper.init_iters):
        sample_topic_assignments(state, rng)
        warm_lam(state.n_jk, 0.5)
        update_topics(state, rng)
    _draw_count_params(state, hyper, rng)
    if not kind.models_counts:
        state.lam /= state.lam.sum(axis=1, keepdims=True)
    return state


def simulate_data(state: ModelState, rng: RandomSource, doc_lengths=None) -> ModelState:
    """Redraw the training tokens from the model given current parameters.

    Count models draw n_jk ~ Pois(lam_jk) and then n_jk terms from
    topic k; normalized models keep document lengths fixed (``doc_lengths``
    or the current ones) and draw each token's topic from lam's rows.
    Used by forward simulation and the Geweke harness.
    """
    gen = rng.generator
    J, K = state.num_docs, state.num_topics
    V = state.vocab_size
    if state.kind.models_counts:
        n_jk = gen.poisson(state.lam)
        lengths = n_jk.sum(axis=1)
    else:
        lengths = state.train_counts if doc_lengths is None else np.asarray(doc_lengths, dtype=np.int64)
    offsets = offsets_from_lengths(lengths)
    tokens = np.empty(offsets[-1], dtype=np.int64)
    z = np.empty(offsets[-1], dtype=np.int64)
    for j, (start, stop) in enumerate(zip(offsets[:-1].tolist(), offsets[1:].tolist())):
        doc_z, doc_terms = z[start:stop], tokens[start:stop]
        if state.kind.models_counts:
            doc_z[:] = np.repeat(np.arange(K), n_jk[j])
        else:  # the document's uniforms come before its terms
            cum = np.cumsum(state.lam[j])
            doc_z[:] = np.minimum(np.searchsorted(cum, gen.random(stop - start) * cum[-1], side="right"), K - 1)
        for k in np.unique(doc_z):  # ascending topics, the order of the draws
            idx = np.nonzero(doc_z == k)[0]
            doc_terms[idx] = gen.choice(V, size=len(idx), p=state.omega[k])
    state.tokens, state.offsets, state.z = tokens, offsets, z
    _recount(state)
    return state


def forward_draw(
    kind: ModelKind,
    hyper: HyperParams,
    num_docs: int,
    vocab_size: int,
    rng: RandomSource,
    doc_lengths=None,
) -> ModelState:
    """Draw (parameters, data) jointly from the generative model.

    The marginal-conditional side of the Geweke harness; also handy for
    forward-model property checks.  ``doc_lengths`` is required for the
    normalized kinds, whose document lengths are not generated.
    """
    spec = kind.spec
    if spec.normalized == SMOOTHED:
        raise ValueError(f"forward simulation is not defined for {kind.value}")
    if spec.normalized and doc_lengths is None:
        raise ValueError(f"{kind.value} needs explicit doc_lengths for forward simulation")
    _check_beta_process(kind, hyper)
    no_tokens, offsets = np.zeros(0, dtype=np.int64), np.zeros(num_docs + 1, dtype=np.int64)
    state = blank_state(kind, no_tokens, offsets, no_tokens, vocab_size, hyper.K, hyper.eta)
    gen = rng.generator
    _draw_count_params(state, hyper, rng)
    _sample_topics(state, gen, prior=True)
    J, K = num_docs, hyper.K
    if spec.normalized:
        state.lam = _dirichlet_rows(gen, np.broadcast_to(state.alpha * state.r_tilde, (J, K)))
    else:
        if spec.gated:
            state.b_jk = (gen.random((J, K)) < state.pi_k[None, :]).astype(np.int64)
        shape = np.broadcast_to(_along(spec.r_axis, state.r), (J, K))
        scale = np.broadcast_to(_along(spec.p_axis, state.p / (1 - state.p)), (J, K))
        state.lam = _gated(state, _gamma_clamped(gen, shape, scale))
    simulate_data(state, rng, doc_lengths=doc_lengths)
    return state


def validate_state(state: ModelState, after_sweep: bool = True) -> None:
    """Raise if a structural invariant is broken (debug/test helper).

    The table-count zero-pattern check only holds once a sweep has run,
    so pass ``after_sweep=False`` for freshly initialized states.
    """
    offsets = state.offsets
    if len(offsets) < 1 or offsets[0] != 0 or np.any(np.diff(offsets) < 0):
        raise ValueError("offsets must start at 0 and never decrease")
    if not offsets[-1] == len(state.tokens) == len(state.z):
        raise ValueError(
            f"offsets end at {offsets[-1]}, but there are {len(state.tokens)} tokens and {len(state.z)} topics in z"
        )
    K = state.n_jk.shape[1]
    if state.z.size and (state.z.min() < 0 or state.z.max() >= K):
        raise ValueError(f"z holds a topic outside [0, {K})")
    if state.omega_t.ndim != 2 or state.omega_t.shape[1] != K:
        raise ValueError(f"omega_t has shape {state.omega_t.shape}, expected (vocabulary, topics) with {K} topics")
    if np.abs(state.omega_t.sum(axis=0) - 1.0).max() > 1e-10:
        raise ValueError("omega_t's columns, the topics, are not normalized")
    if not np.array_equal(state.topic_mass, np.ascontiguousarray(state.omega).sum(axis=1)):
        raise ValueError("topic_mass is not the topics' sums over the vocabulary; set topics with set_topics")
    train_n = state.train_counts
    if not np.array_equal(state.n_jk.sum(axis=1), train_n):
        raise ValueError("n_jk rows do not sum to the document training counts")
    for name, arr in (("p", state.p), ("pi_k", state.pi_k)):
        if arr is not None and (np.any(arr <= 0) or np.any(arr >= 1)):
            raise ValueError(f"{name} has entries outside the open unit interval")
    if np.any(state.r_tilde <= 0) or abs(state.r_tilde.sum() - 1.0) > 1e-10:
        raise ValueError("r_tilde is not a positive probability vector")
    if not state.kind.models_counts:
        if np.abs(state.lam.sum(axis=1) - 1.0).max() > 1e-10:
            raise ValueError("lam rows are not normalized")
    spec = state.kind.spec
    if after_sweep and spec.normalized != SMOOTHED:
        if np.any(state.l_jk > state.n_jk):
            raise ValueError("l_jk exceeds n_jk somewhere")
        if not np.array_equal(state.l_jk == 0, _gated(state, state.n_jk) == 0):
            raise ValueError("l_jk zero-pattern does not match gated counts")
    if np.any(state.r <= 0):
        raise ValueError("r has non-positive entries")
    if state.gamma0 <= 0 or state.alpha <= 0:
        raise ValueError("gamma0 and alpha must stay positive")
