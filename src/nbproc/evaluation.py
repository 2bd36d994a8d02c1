"""Held-out evaluation, trace records, and the Geweke correctness harness.

The held-out predictive probability of term v in document j is the
ratio of accumulated omega-times-weight products

    f[j, v] = sum_s sum_k w[j, k] * omega[k, v]  /  sum_s sum_k w[j, k] * sum_v omega[k, v]

over collected samples s, with w the document's topic weights lam
(probability vectors for normalized models; the per-document scale
cancels in the ratio anyway).  Per-word perplexity is exp of the
negative mean log f over held-out tokens, so the accumulator keeps the
numerator only at the held-out (j, v) cells and the denominator once per
document: its memory grows with the held-out tokens, never with
documents x vocabulary.  The held-out terms and their mass are flat,
document-major arrays that share the split's document offsets.  The mass
is read from the state's vocabulary-major ``omega_t``, and the
denominator's sum over v of omega[k, v] is the state's ``topic_mass``,
which the topic draw keeps, so evaluation makes no pass over the topics
of its own.

Both sums run in the package's compiled library (``nbproc._kernels``):
each token's mass and each document's total is a sum over topics in four
fixed lanes, made in the token-balanced document parts of the topic
assignment, and the perplexity's logs come from the C library's ``log``,
summed in token order and then in document order.  No step calls BLAS
or numpy's SIMD ``log``, so the perplexity has the same bits on any
x86-64 CPU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .corpus import HeldOutSplit
from .models import (
    BETA_PROCESS,
    DOC,
    FRANCHISE,
    TOPIC,
    HyperParams,
    ModelKind,
    ModelState,
    _document_parts,
    _run_parts,
    count_active_topics,
    forward_draw,
    gibbs_sweep,
    simulate_data,
)
from .rng import RandomSource


class EvaluationError(ValueError):
    """Held-out evaluation hit an impossible value (e.g. zero mass)."""


class HarnessError(RuntimeError):
    """The correctness harness produced a non-finite statistic."""


@dataclass
class SampleAccumulator:
    """Running sums of omega-weight products at the held-out tokens across collected samples.

    Document j's held-out terms and their mass are
    ``test_terms[test_offsets[j]:test_offsets[j + 1]]`` and the same slice
    of ``test_mass``; the terms and offsets are the split's own arrays.
    """

    num_samples: int
    test_terms: np.ndarray  # the split's held-out term ids, flat
    test_offsets: np.ndarray  # the split's documents + 1 offsets into test_terms
    test_mass: np.ndarray  # aligned with test_terms
    doc_totals: np.ndarray  # per-document denominators
    vocab_size: int

    @classmethod
    def empty(cls, split: HeldOutSplit, vocab_size: int) -> "SampleAccumulator":
        return cls(
            num_samples=0,
            test_terms=split.test_terms,
            test_offsets=split.test_offsets,
            test_mass=np.zeros(len(split.test_terms)),
            doc_totals=np.zeros(split.num_docs),
            vocab_size=vocab_size,
        )

    def clear(self) -> None:
        """Empty the sums in place: the next sample folded in gives the bits of a fresh accumulator's."""
        self.num_samples = 0
        self.test_mass.fill(0.0)
        self.doc_totals.fill(0.0)


def accumulate(acc: SampleAccumulator, state: ModelState) -> SampleAccumulator:
    """Fold one collected sample's omega-weight products into the sums.

    Each held-out token's mass and each document's total is a sum over
    topics in four fixed lanes (``heldout_mass`` in ``_kernels.c``),
    computed by the compiled library in the token-balanced document parts
    of the topic assignment; the results never depend on the number of
    parts.
    """
    lam = np.ascontiguousarray(state.lam, dtype=np.float64)
    if lam.shape[0] != acc.doc_totals.shape[0] or state.vocab_size != acc.vocab_size:
        raise ValueError(
            f"accumulator shape ({acc.doc_totals.shape[0]}, {acc.vocab_size}) does not match "
            f"state ({lam.shape[0]}, {state.vocab_size})"
        )
    terms, offsets = acc.test_terms, acc.test_offsets
    if terms.size and (terms.min() < 0 or terms.max() >= acc.vocab_size):
        raise ValueError(f"held-out term ids must lie in [0, {acc.vocab_size})")
    omega_t = np.ascontiguousarray(state.omega_t, dtype=np.float64)
    topic_mass = np.ascontiguousarray(state.topic_mass, dtype=np.float64)
    expected = (acc.vocab_size, lam.shape[1])
    if omega_t.shape != expected:  # the compiled loop reads lam's K entries from each row
        raise ValueError(f"omega_t has shape {omega_t.shape}, expected (vocabulary, topics) = {expected}")
    if topic_mass.shape != expected[1:]:  # and K entries of topic_mass
        raise ValueError(f"topic_mass has shape {topic_mass.shape}, expected (topics,) = {expected[1:]}")
    heldout_mass = _kernels.library().heldout_mass

    def mass_part(start: int, stop: int) -> None:
        bounds = offsets[start : stop + 1]
        heldout_mass(omega_t, lam[start:stop], terms, bounds, topic_mass, acc.test_mass, acc.doc_totals[start:stop])

    _run_parts(mass_part, _document_parts(offsets, lam.shape[1]))
    acc.num_samples += 1
    return acc


def heldout_perplexity(acc: SampleAccumulator) -> float:
    """Per-word perplexity of the held-out tokens under the accumulator.

    Documents without test tokens contribute nothing.  Uniform f gives
    exactly the vocabulary size; a perfect predictor approaches 1.  Each
    document's log predictive mass is summed in token order with the C
    library's ``log``, and the sums are added in document order, which
    fixes the rounding.
    """
    if acc.num_samples < 1:
        raise EvaluationError("no samples collected yet")
    total_test = len(acc.test_terms)
    if total_test < 1:
        raise EvaluationError("the split holds out no tokens")
    log_sums = np.empty(len(acc.doc_totals))
    bad = _kernels.library().heldout_log_sums(acc.test_mass, acc.doc_totals, acc.test_offsets, log_sums)
    if bad >= 0:
        raise EvaluationError(f"zero predictive mass for a held-out token of document {bad}")
    log_total = 0.0
    for log_sum in log_sums.tolist():
        log_total += log_sum
    return float(math.exp(-log_total / total_test))


@dataclass
class TraceReport:
    """Per-iteration scalar diagnostics plus the final summary."""

    records: list[dict] = field(default_factory=list)
    final: dict = field(default_factory=dict)

    COLUMNS = ("iteration", "perplexity", "active_topics", "r_sum", "mean_p", "gamma0", "alpha")

    def append(self, **record) -> None:
        self.records.append({c: record.get(c) for c in self.COLUMNS})


def trace_scalars(state: ModelState) -> dict:
    """The per-iteration scalar summaries of a state."""
    spec = state.kind.spec
    nan = float("nan")
    return {
        "active_topics": count_active_topics(state),
        "r_sum": float(state.r.sum()) if spec.r_axis else nan,
        "mean_p": float(state.p.mean()) if spec.p_axis else nan,
        "gamma0": float(state.gamma0) if spec.samples_gamma0 else nan,
        "alpha": float(state.alpha) if spec.normalized == FRANCHISE else nan,
    }


# ---------------------------------------------------------------------------
# Parameter summaries.
# ---------------------------------------------------------------------------


def summarize_parameters(state: ModelState) -> dict:
    """Ordered dump of per-topic and per-document parameters.

    Topics and documents are sorted by their assigned token counts,
    descending; each applicable parameter is reported in linear and
    log10 scale.  Returns {"topics": [...], "documents": [...]} where
    each entry is a flat dict ready for CSV emission.
    """
    spec = state.kind.spec

    def _with_log(row: dict, name: str, value: float | None) -> None:
        if value is None:
            row[name] = row[f"log10_{name}"] = None
        else:
            row[name] = float(value)
            row[f"log10_{name}"] = float(np.log10(value)) if value > 0 else None

    def _rows(axis: str, tokens: np.ndarray, **extra) -> list[dict]:
        columns = {
            "r": state.r if spec.r_axis == axis else None,
            "p": state.p if spec.p_axis == axis else None,
            **extra,
        }
        rows = []
        for rank, i in enumerate(np.argsort(-tokens, kind="stable")):
            row = {"rank": rank, "index": int(i), "tokens": int(tokens[i])}
            for name, values in columns.items():
                _with_log(row, name, None if values is None else values[i])
            rows.append(row)
        return rows

    return {
        "topics": _rows(TOPIC, state.n_jk.sum(axis=0), pi=state.pi_k if spec.gated else None),
        "documents": _rows(DOC, state.n_jk.sum(axis=1)),
    }


# ---------------------------------------------------------------------------
# Geweke joint-distribution harness.
# ---------------------------------------------------------------------------


@dataclass
class GewekeSettings:
    """Micro-scale configuration for the joint-distribution check.

    Kept deliberately tiny (a few documents, two topics, a handful of
    terms) so tens of thousands of sweeps are affordable.  The priors
    are tightened relative to the experiment defaults so every
    monitored statistic has finite variance; heavy-tailed priors would
    make the z-scores meaningless.
    """

    hyper: HyperParams
    num_docs: int = 3
    vocab_size: int = 5
    doc_length: int = 15  # only used by normalized kinds


def default_geweke_settings(kind: ModelKind) -> GewekeSettings:
    # Beta(3, 3) probability priors keep second moments of the counts
    # finite; the beta-process kinds get c = 6 so c/K = c(1-1/K) = 3.
    c = 6.0 if kind.spec.p_prior == BETA_PROCESS else 1.0
    hyper = HyperParams(c=c, eta=0.3, a0=3.0, b0=3.0, e0=1.0, f0=1.0, K=2, iters=2, burnin=0, init_iters=0)
    return GewekeSettings(hyper=hyper)


def _monitored_stats(state: ModelState) -> dict[str, float]:
    spec = state.kind.spec
    stats: dict[str, float] = {}
    if state.kind.models_counts:
        stats["n_total"] = float(state.n_jk.sum())
    if spec.r_axis:
        stats["r_mean"] = float(state.r.mean())
        stats["r_sq_mean"] = float((state.r**2).mean())
    if spec.learns_p:
        stats["p_mean"] = float(state.p.mean())
        stats["p_sq_mean"] = float((state.p**2).mean())
    if spec.samples_gamma0:
        stats["gamma0"] = float(state.gamma0)
        stats["gamma0_sq"] = float(state.gamma0**2)
    if spec.gated:
        stats["pi_mean"] = float(state.pi_k.mean())
        stats["pi_sq_mean"] = float((state.pi_k**2).mean())
        stats["gate_mean"] = float(state.b_jk.mean())
    if spec.normalized == FRANCHISE:
        stats["alpha"] = float(state.alpha)
        stats["alpha_sq"] = float(state.alpha**2)
        stats["rtilde_sq_mean"] = float((state.r_tilde**2).mean())
        stats["ltilde_sq_mean"] = float((state.lam**2).mean())  # old name: pinned digests hash it
        stats["n_sq_mean"] = float((state.n_jk.astype(float) ** 2).mean())
    return stats


def _batch_se(chain: np.ndarray) -> float:
    """Standard error of a correlated chain mean via sqrt-size batches."""
    n = len(chain)
    batch = max(1, int(math.sqrt(n)))
    num_batches = n // batch
    means = chain[: num_batches * batch].reshape(num_batches, batch).mean(axis=1)
    if num_batches < 2:
        return float(chain.std(ddof=1) / math.sqrt(n)) if n > 1 else float("inf")
    return float(means.std(ddof=1) / math.sqrt(num_batches))


@dataclass
class GewekeReport:
    kind: ModelKind
    num_forward: int
    num_gibbs: int
    z_scores: dict[str, float]
    forward_means: dict[str, float]
    chain_means: dict[str, float]

    @property
    def max_abs_z(self) -> float:
        return max(abs(z) for z in self.z_scores.values())

    def passed(self, threshold: float = 4.0) -> bool:
        return self.max_abs_z < threshold


def geweke_check(
    kind: ModelKind,
    settings: GewekeSettings,
    num_forward: int,
    num_gibbs: int,
    rng: RandomSource,
    fault: str | None = None,
) -> GewekeReport:
    """Compare forward draws against the Gibbs kernel's stationary law.

    Marginal-conditional side: ``num_forward`` independent draws of
    (parameters, data).  Successive-conditional side: a chain of
    ``num_gibbs`` steps alternating one kernel sweep with a re-draw of
    the data given the new parameters.  If the kernel targets the right
    conditionals, every monitored statistic agrees between the two sides
    up to Monte Carlo error; the returned z-scores quantify that.

    ``fault`` injects a named kernel corruption (e.g. ``"r-shape"``) so
    the harness can demonstrate it catches broken updates.
    """
    if num_forward < 1 or num_gibbs < 1:
        raise ValueError("num_forward and num_gibbs must both be at least 1")
    hyper = settings.hyper
    doc_lengths = None if kind.models_counts else np.full(settings.num_docs, settings.doc_length)

    forward_rows = []
    for _ in range(num_forward):
        state = forward_draw(kind, hyper, settings.num_docs, settings.vocab_size, rng, doc_lengths=doc_lengths)
        forward_rows.append(_monitored_stats(state))

    state = forward_draw(kind, hyper, settings.num_docs, settings.vocab_size, rng, doc_lengths=doc_lengths)
    chain_rows = []
    for _ in range(num_gibbs):
        gibbs_sweep(state, hyper, rng, fault=fault)
        simulate_data(state, rng, doc_lengths=doc_lengths)
        chain_rows.append(_monitored_stats(state))

    names = sorted(forward_rows[0])
    z_scores, f_means, c_means = {}, {}, {}
    for name in names:
        f = np.array([row[name] for row in forward_rows])
        c = np.array([row[name] for row in chain_rows])
        if not (np.all(np.isfinite(f)) and np.all(np.isfinite(c))):
            raise HarnessError(f"non-finite values for monitored statistic {name!r}")
        se_f = float(f.std(ddof=1) / math.sqrt(len(f))) if len(f) > 1 else float("inf")
        se_c = _batch_se(c)
        denom = math.sqrt(se_f**2 + se_c**2)
        z = (f.mean() - c.mean()) / denom if denom > 0 else 0.0
        if not math.isfinite(z):
            raise HarnessError(f"non-finite z-score for monitored statistic {name!r}")
        z_scores[name] = float(z)
        f_means[name] = float(f.mean())
        c_means[name] = float(c.mean())
    return GewekeReport(
        kind=kind,
        num_forward=num_forward,
        num_gibbs=num_gibbs,
        z_scores=z_scores,
        forward_means=f_means,
        chain_means=c_means,
    )
