"""Experiment runner: reproducible batch runs, self-checks, synthesis.

Subcommands::

    nbproc run      fit one model on a corpus, write trace/params/report
    nbproc validate run the distribution-identity and kernel self-checks
    nbproc synth    write a synthetic corpus in the UCI layout

Exit codes: 0 success, 1 check/validation failure, 2 usage error,
3 I/O error.

Every artifact embeds the hash of the resolved configuration (corpus
content, model, hyperparameters, seed) so runs can be matched to their
inputs; the output directory itself is excluded from the hash,
making reruns byte-comparable.  While a run is in progress the output
directory holds a ``.incomplete`` sentinel; it is removed on success.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import _kernels
from . import distributions as dist
from .corpus import (
    Corpus,
    EmptyCorpusError,
    ParseError,
    SyntheticSpec,
    drop_empty_documents,
    filter_vocabulary,
    load_bag_of_words,
    split_train_test,
    synthesize_corpus,
    write_bag_of_words,
)
from .evaluation import (
    EvaluationError,
    SampleAccumulator,
    TraceReport,
    accumulate,
    default_geweke_settings,
    geweke_check,
    heldout_perplexity,
    summarize_parameters,
    trace_scalars,
)
from .models import (
    SMOOTHED,
    HyperParams,
    IterationError,
    ModelKind,
    _dirichlet_rows,
    check_number,
    count_active_topics,
    gibbs_sweep,
    initialize,
)
from .rng import RandomSource

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3

_HYPER_FIELDS = tuple(f.name for f in dataclasses.fields(HyperParams))
# a synth settings file holds SyntheticSpec fields plus the corpus seed
_SYNTH_FIELDS = dataclasses.fields(SyntheticSpec)
_SYNTH_KEYS = {f.name for f in _SYNTH_FIELDS} | {"seed"}
_SYNTH_REQUIRED = {f.name for f in _SYNTH_FIELDS if f.default is dataclasses.MISSING}
_SYNTH_INTEGERS = {f.name for f in _SYNTH_FIELDS if f.type == "int"} | {"seed"}
_HASH_BLOCK = 1 << 20  # corpus files are hashed in 1 MiB reads, not read whole


def _json_object(name: str, value) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object, got {type(value).__name__}")
    return value


@dataclass
class RunConfig:
    """Fully resolved settings for one `nbproc run` invocation."""

    model: str
    output_dir: str
    docword: str | None = None
    vocab: str | None = None
    synth: dict | None = None
    train_frac: float = 0.6
    min_doc_freq: int = 1
    hyper: HyperParams = field(default_factory=HyperParams)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        data = dict(data)
        hyper_data = _json_object("hyper", data.pop("hyper", {}))
        unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        required = {f.name for f in dataclasses.fields(cls) if f.default is f.default_factory is dataclasses.MISSING}
        missing = required - set(data)
        if missing:
            raise ValueError(f"missing config keys: {sorted(missing)}")
        unknown_hyper = set(hyper_data) - set(_HYPER_FIELDS)
        if unknown_hyper:
            raise ValueError(f"unknown hyper keys: {sorted(unknown_hyper)}")
        data["hyper"] = HyperParams(**hyper_data)
        config = cls(**data)
        config.validate()
        return config

    def validate(self) -> None:
        # a JSON config can hold any type; check types before any comparison
        for name in ("model", "output_dir", "docword", "vocab"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise ValueError(f"{name} must be a string, got {value!r}")
        check_number("train_frac", self.train_frac)
        check_number("min_doc_freq", self.min_doc_freq, integral=True)
        ModelKind.from_name(self.model)
        if not 0.0 < self.train_frac < 1.0:
            raise ValueError(f"train_frac must lie in (0, 1), got {self.train_frac}")
        if self.min_doc_freq < 1:
            raise ValueError(f"min_doc_freq must be >= 1, got {self.min_doc_freq}")
        has_files = self.docword is not None and self.vocab is not None
        if has_files == (self.synth is not None):
            raise ValueError("provide either --docword/--vocab or --synth, not both or neither")
        if self.synth is not None:
            unknown_synth = set(_json_object("synth", self.synth)) - _SYNTH_KEYS
            if unknown_synth:
                raise ValueError(f"unknown synth keys: {sorted(unknown_synth)}")
            missing_synth = _SYNTH_REQUIRED - set(self.synth)
            if missing_synth:
                raise ValueError(f"missing synth keys: {sorted(missing_synth)}")
            for name, value in self.synth.items():
                if name == "topic_sharpness" and value is None:
                    continue  # falls back to eta
                # r and p also take a list: one value per topic or per document
                entries = value if name in ("r", "p") and isinstance(value, list) else [value]
                for entry in entries:
                    check_number(name, entry, integral=name in _SYNTH_INTEGERS)
            spec, synth_seed = _synth_spec(self.synth)
            spec.validate()
            if not 0 <= synth_seed < 2**64:
                raise ValueError(f"seed must be a 64-bit unsigned integer, got {synth_seed}")

    def corpus_fingerprint(self) -> str:
        digest = hashlib.sha256()
        if self.synth is not None:
            digest.update(json.dumps(self.synth, sort_keys=True).encode())
        else:
            for path in (self.docword, self.vocab):
                with open(path, "rb") as fh:
                    while block := fh.read(_HASH_BLOCK):
                        digest.update(block)
        return digest.hexdigest()

    def config_hash(self) -> str:
        payload = {
            "model": self.model,
            "train_frac": self.train_frac,
            "min_doc_freq": self.min_doc_freq,
            "hyper": dataclasses.asdict(self.hyper),
            "corpus": self.corpus_fingerprint(),
        }
        return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _commit_identifier() -> str:
    env = os.environ.get("NBPROC_COMMIT")
    if env:
        return env
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):  # no git, or one that does not answer in time
        pass
    return "unknown"


def run_experiment(kind: ModelKind, corpus: Corpus | SimpleNamespace, split, hyper: HyperParams):
    """Initialize, sweep, collect; returns (state, accumulator, trace).

    Of the corpus only its ``vocab_size`` is read: the split holds the
    tokens.  The whole chain consumes one random stream, child 0 of the
    seed, in a fixed order, so a run is bit-reproducible for a given seed
    and numpy version.  One accumulator serves the whole run: before
    burn-in ends it holds only the latest sample, which the trace's
    perplexity reads, and it is emptied once more when collection starts.
    """
    rng = RandomSource(hyper.seed).child(0)
    state = initialize(kind, corpus, split, hyper, rng)
    acc = SampleAccumulator.empty(split, corpus.vocab_size)
    trace = TraceReport()
    started = time.perf_counter()
    for it in range(hyper.iters):
        gibbs_sweep(state, hyper, rng)
        if it <= hyper.burnin:  # the latest sample alone, or the first collected one
            acc.clear()
        if it < hyper.burnin or (it - hyper.burnin) % hyper.collect_every == 0:
            accumulate(acc, state)
        trace.append(iteration=it, perplexity=heldout_perplexity(acc), **trace_scalars(state))
    trace.final = {
        "perplexity": heldout_perplexity(acc),
        "active_topics": count_active_topics(state),
        "wall_time_seconds": time.perf_counter() - started,
    }
    return state, acc, trace


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return repr(value)
    return str(value)


def _write_csv(path: Path, header, rows, config_hash: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# config_hash={config_hash}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(v) for v in row])


def _synth_spec(synth: dict) -> tuple[SyntheticSpec, int]:
    """The corpus settings and the corpus seed of a synth settings object."""
    spec_data = dict(synth)
    synth_seed = spec_data.pop("seed", 0)
    return SyntheticSpec(**spec_data), synth_seed


def _load_run_corpus(config: RunConfig):
    if config.synth is not None:
        spec, synth_seed = _synth_spec(config.synth)
        corpus, _ = synthesize_corpus(config.hyper, spec, RandomSource(synth_seed))
    else:
        corpus = load_bag_of_words(config.docword, config.vocab)
    if config.min_doc_freq > 1:
        return filter_vocabulary(corpus, config.min_doc_freq)
    return drop_empty_documents(corpus)


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path} must hold a JSON object, got {type(data).__name__}")
    return data


def cmd_run(args) -> int:
    overrides = {name: getattr(args, name) for name in _HYPER_FIELDS if getattr(args, name) is not None}
    config_data = {}
    if args.config:
        config_data = _load_json(args.config)
    hyper_data = dict(_json_object("hyper", config_data.pop("hyper", {})))
    hyper_data.update(overrides)
    config_data["hyper"] = hyper_data
    for name in ("model", "output_dir", "docword", "vocab", "train_frac", "min_doc_freq"):
        if getattr(args, name) is not None:
            config_data[name] = getattr(args, name)
    if args.synth:
        config_data["synth"] = _load_json(args.synth)
    config = RunConfig.from_dict(config_data)
    report = run(config)
    print(
        f"{config.model}: perplexity={report['perplexity']:.3f} "
        f"active_topics={report['active_topics']} -> {config.output_dir}"
    )
    return EXIT_OK


def run(config: RunConfig) -> dict:
    """Execute one fully resolved run and write its artifacts.

    Writes trace.csv, params.csv, report.json and a resolved-config echo
    into the output directory and returns the report.  A `.incomplete`
    sentinel flags partial output until the run finishes.  The corpus is
    read and split, and the compiled library loaded, before anything is
    written, so a bad corpus, a split that holds out no tokens, or a
    library that cannot be built leaves no output behind.
    """
    config_hash = config.config_hash()
    kind = ModelKind.from_name(config.model)
    corpus = _load_run_corpus(config)
    split = split_train_test(corpus, config.train_frac, RandomSource(config.hyper.seed).child(2))
    sizes = SimpleNamespace(num_docs=corpus.num_docs, vocab_size=corpus.vocab_size, total_tokens=corpus.total_tokens)
    del corpus  # the split holds every token the fit reads, and the report needs only the sizes
    if split.total_test < 1:
        raise EvaluationError("the split holds out no tokens")
    _kernels.library()

    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    sentinel = out_dir / ".incomplete"
    sentinel.write_text("run in progress or aborted\n")
    commit = _commit_identifier()
    resolved = {**dataclasses.asdict(config), "output_dir": str(out_dir), "config_hash": config_hash, "commit": commit}
    with open(out_dir / "config.json", "w", encoding="utf-8") as fh:
        json.dump(resolved, fh, indent=2, sort_keys=True)
        fh.write("\n")

    state, acc, trace = run_experiment(kind, sizes, split, config.hyper)

    _write_csv(
        out_dir / "trace.csv",
        TraceReport.COLUMNS,
        [[rec[c] for c in TraceReport.COLUMNS] for rec in trace.records],
        config_hash,
    )
    summary = summarize_parameters(state)
    param_cols = ("entity", "rank", "index", "tokens", "r", "log10_r", "p", "log10_p", "pi", "log10_pi")
    param_rows = []
    for entity in ("topics", "documents"):
        for row in summary[entity]:
            param_rows.append([entity[:-1]] + [row.get(c) for c in param_cols[1:]])
    _write_csv(out_dir / "params.csv", param_cols, param_rows, config_hash)

    report = {
        "model": config.model,
        "seed": config.hyper.seed,
        "hyper": dataclasses.asdict(config.hyper),
        "train_frac": config.train_frac,
        "perplexity": trace.final["perplexity"],
        "active_topics": trace.final["active_topics"],
        "runtime_seconds": trace.final["wall_time_seconds"],
        "corpus": vars(sizes),
        "config_hash": config_hash,
        "commit": commit,
    }
    with open(out_dir / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")

    sentinel.unlink()
    return report


# ---------------------------------------------------------------------------
# validate: distribution identities and kernel micro-checks.
# ---------------------------------------------------------------------------


def _tv_distance(a: np.ndarray, b: np.ndarray) -> float:
    width = max(len(a), len(b))
    pa = np.zeros(width)
    pb = np.zeros(width)
    pa[: len(a)] = a
    pb[: len(b)] = b
    return 0.5 * float(np.abs(pa - pb).sum())


def _empirical_pmf(draws: np.ndarray) -> np.ndarray:
    counts = np.bincount(draws)
    return counts / counts.sum()


def _check_crt_normalization(rng, quick, fault):
    worst = 0.0
    for m in range(0, 51, 1 if not quick else 5):
        for r in (0.1, 0.5, 1.0, 2.0, 10.0):
            worst = max(worst, abs(dist.crt_pmf(m, r).sum() - 1.0))
    return worst < 1e-9, f"max |sum-1| = {worst:.2e} (tolerance 1e-9)"


def _check_stirling_identity(rng, quick, fault):
    tri = dist.default_stirling_triangle()
    worst = 0.0
    for m in range(1, 51):
        row = tri.log_row(m)
        for r in (0.1, 0.5, 1.0, 2.0, 10.0):
            terms = row + np.arange(m + 1) * math.log(r)
            top = terms.max()
            lhs = top + math.log(np.exp(terms - top).sum())
            rhs = math.lgamma(m + r) - math.lgamma(r)
            worst = max(worst, abs(lhs - rhs))
    return worst < 1e-9, f"max log-space error = {worst:.2e} (tolerance 1e-9)"


def _check_crt_sampler(rng, quick, fault):
    draws = 20_000 if quick else 100_000
    tol = 0.03 if quick else 0.01
    worst = 0.0
    detail = []
    for m, r in ((5, 1.0), (20, 0.5), (50, 10.0)):
        r_used = r + 1.0 if fault == "crt-shape" else r
        sample = dist.sample_crt_array(np.full(draws, m), r_used, rng)
        tv = _tv_distance(_empirical_pmf(sample), dist.crt_pmf(m, r))
        worst = max(worst, tv)
        detail.append(f"TV(m={m},r={r})={tv:.4f}")
    return worst < tol, "; ".join(detail) + f" (tolerance {tol})"


def _check_nb_equivalence(rng, quick, fault):
    draws = 20_000 if quick else 100_000
    tol = 0.025 if quick else 0.01
    worst = 0.0
    detail = []
    for r, p in ((2.0, 0.5), (0.5, 0.8)):
        direct = dist.sample_nb_direct(r, p, rng, size=draws)
        compound = dist.sample_nb_compound(r, p, rng, size=draws)
        tv = _tv_distance(_empirical_pmf(direct), _empirical_pmf(compound))
        worst = max(worst, tv)
        detail.append(f"TV(r={r},p={p})={tv:.4f}")
    return worst < tol, "; ".join(detail) + f" (tolerance {tol})"


def _check_nesting(rng, quick, fault):
    draws = 20_000 if quick else 100_000
    tol = 0.035 if quick else 0.015
    r1, c1, p = 1.0, 1.0, 0.5
    r = dist.sample_gamma(np.full(draws, r1), 1.0 / c1, rng)
    two_level = rng.generator.poisson(rng.generator.gamma(r, p / (1 - p)))
    p_prime = -math.log1p(-p) / (c1 - math.log1p(-p))
    outer = dist.sample_nb_compound(r1, p_prime, rng, size=draws)
    total_logs = int(outer.sum())
    increments = dist.sample_logarithmic(p, rng, size=total_logs) if total_logs else np.zeros(0)
    owner = np.repeat(np.arange(draws), outer)
    three_level = np.bincount(owner, weights=increments, minlength=draws).astype(np.int64)
    tv = _tv_distance(_empirical_pmf(two_level), _empirical_pmf(three_level))
    return tv < tol, f"TV={tv:.4f} (tolerance {tol})"


def _check_poisson_multinomial(rng, quick, fault):
    draws = 30_000 if quick else 200_000
    tol = 0.05 if quick else 0.02
    rates = np.array([1.0, 2.0, 3.0])
    cap = 20
    gen = rng.generator
    # closed-form joint of independent Poisson cells on total <= cap
    support = np.arange(cap + 1)
    log_factorials = np.array([math.lgamma(k + 1) for k in support])
    marginals = [np.exp(support * math.log(rate) - rate - log_factorials) for rate in rates]
    exact = np.einsum("a,b,c->abc", *marginals)
    a, b, c = np.meshgrid(support, support, support, indexing="ij")
    exact[a + b + c > cap] = 0.0
    exact = exact.ravel()
    base = cap + 1
    weights = np.array([base**2, base, 1])
    independent = gen.poisson(rates, size=(draws, 3))
    totals = gen.poisson(rates.sum(), size=draws)
    partitioned = gen.multinomial(totals, rates / rates.sum())
    worst = 0.0
    for sample in (independent, partitioned):
        kept = sample[sample.sum(axis=1) <= cap]
        codes = (kept * weights).sum(axis=1)
        empirical = np.bincount(codes, minlength=base**3) / draws
        worst = max(worst, 0.5 * float(np.abs(empirical - exact).sum()))
    return worst < tol, f"joint TV vs closed form = {worst:.4f} (tolerance {tol})"


def _check_normalized_gamma_dirichlet(rng, quick, fault):
    draws = 20_000 if quick else 100_000
    tol = 0.04 if quick else 0.02
    conc = np.array([0.5, 1.0, 2.5])
    x = _dirichlet_rows(rng.generator, np.tile(conc, (draws, 1)))
    mean_expected = conc / conc.sum()
    second_expected = conc * (conc + 1) / (conc.sum() * (conc.sum() + 1))
    err_mean = float(np.abs(x.mean(axis=0) / mean_expected - 1).max())
    err_second = float(np.abs((x**2).mean(axis=0) / second_expected - 1).max())
    worst = max(err_mean, err_second)
    return worst < tol, f"max relative moment error = {worst:.4f} (tolerance {tol})"


def _check_weight_normalization(rng, quick, fault):
    draws = 20_000 if quick else 100_000
    tol = 0.04 if quick else 0.02
    r = np.array([1.0, 2.0, 3.0])
    gen = rng.generator
    p = float(gen.beta(3, 3))
    lam = np.maximum(gen.gamma(r, p / (1 - p), size=(draws, 3)), dist.TINY)
    x = lam / lam.sum(axis=1, keepdims=True)
    total = r.sum()
    mean_expected = r / total
    second_expected = r * (r + 1) / (total * (total + 1))
    err = max(
        float(np.abs(x.mean(axis=0) / mean_expected - 1).max()),
        float(np.abs((x**2).mean(axis=0) / second_expected - 1).max()),
    )
    return err < tol, f"max relative moment error = {err:.4f} (tolerance {tol})"


# every kind with a forward simulation, i.e. all but the fixed-smoothing ones
_GEWEKE_KINDS = tuple(kind for kind in ModelKind if kind.spec.normalized != SMOOTHED)


def _make_geweke_check(kind: ModelKind):
    def check(rng, quick, fault):
        draws = 4_000 if quick else 50_000
        kernel_fault = fault if (fault == "r-shape" and kind.models_counts) else None
        report = geweke_check(kind, default_geweke_settings(kind), draws, draws, rng, fault=kernel_fault)
        return report.passed(4.0), f"max |z| = {report.max_abs_z:.2f} over {len(report.z_scores)} stats (threshold 4)"

    return check


def cmd_validate(args) -> int:
    _kernels.library()  # fail before the first check prints its line
    checks = [
        ("crt-pmf-normalization", _check_crt_normalization),
        ("stirling-normalizer-identity", _check_stirling_identity),
        ("crt-sampler-vs-pmf", _check_crt_sampler),
        ("nb-direct-vs-compound", _check_nb_equivalence),
        ("nb-gamma-mixture-nesting", _check_nesting),
        ("poisson-multinomial-equivalence", _check_poisson_multinomial),
        ("normalized-gamma-dirichlet", _check_normalized_gamma_dirichlet),
        ("gamma-nb-weight-normalization", _check_weight_normalization),
    ]
    checks += [(f"geweke-{kind.value}", _make_geweke_check(kind)) for kind in _GEWEKE_KINDS]
    failures = []
    for name, check in checks:
        name_key = int(hashlib.sha256(name.encode()).hexdigest()[:8], 16)
        rng = RandomSource(args.seed).child(name_key)
        ok, detail = check(rng, args.quick, args.fault_inject)
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        if not ok:
            failures.append(name)
    if failures:
        print(f"{len(failures)} check(s) failed: {', '.join(failures)}")
        return EXIT_CHECK_FAILED
    print(f"all {len(checks)} checks passed")
    return EXIT_OK


def cmd_synth(args) -> int:
    settings = {
        name: getattr(args, name)
        for name in ("k_true", "vocab_size", "num_docs", "seed", "topic_sharpness", "r", "p", "p_beta")
    }
    spec = SyntheticSpec(**{f.name: settings[f.name] for f in _SYNTH_FIELDS if f.name in settings})
    rng = RandomSource(args.seed)
    if args.p_beta is not None:
        a, b = args.p_beta
        spec.p = np.asarray(dist.sample_beta(np.full(args.num_docs, a), np.full(args.num_docs, b), rng.child(1)))
    corpus, truth = synthesize_corpus(HyperParams(), spec, rng.child(0))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_bag_of_words(corpus, out_dir / "docword.txt", out_dir / "vocab.txt")
    truth_record = {
        **settings,
        "config_hash": hashlib.sha256(json.dumps(settings, sort_keys=True).encode()).hexdigest(),
        "r_k": truth.r_k.tolist(),
        "p_j": truth.p_j.tolist(),
        "omega": truth.omega.tolist(),
    }
    with open(out_dir / "truth.json", "w", encoding="utf-8") as fh:
        json.dump(truth_record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"synthetic corpus: {corpus.num_docs} docs, {corpus.vocab_size} terms, {corpus.total_tokens} tokens -> {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nbproc", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="fit one model and write artifacts")
    run.add_argument("--model", help="model kind, e.g. gamma-nb, nb-hdp, lda")
    run.add_argument("--docword", help="UCI docword file")
    run.add_argument("--vocab", help="vocabulary file, one term per line")
    run.add_argument("--synth", help="JSON file with synthetic-corpus settings")
    run.add_argument("--config", help="JSON run configuration (flags override)")
    run.add_argument("--train-frac", dest="train_frac", type=float, default=None)
    run.add_argument("--min-doc-freq", dest="min_doc_freq", type=int, default=None)
    run.add_argument("--out", dest="output_dir", metavar="OUT", help="output directory")
    for f in dataclasses.fields(HyperParams):
        run.add_argument("--" + f.name.replace("_", "-"), dest=f.name, type=int if f.type == "int" else float)
    run.set_defaults(func=cmd_run)

    validate = sub.add_parser("validate", help="run the correctness self-checks")
    validate.add_argument("--quick", action="store_true", help="reduced draw counts, runs in well under a minute")
    validate.add_argument("--seed", type=int, default=0)
    validate.add_argument(
        "--fault-inject",
        dest="fault_inject",
        choices=("crt-shape", "r-shape"),
        default=None,
        help="corrupt a kernel on purpose; the affected check must fail",
    )
    validate.set_defaults(func=cmd_validate)

    synth = sub.add_parser("synth", help="write a synthetic corpus")
    synth.add_argument("--k-true", dest="k_true", type=int, required=True)
    synth.add_argument("--docs", dest="num_docs", type=int, required=True)
    synth.add_argument("--vocab-size", dest="vocab_size", type=int, required=True)
    synth.add_argument("--r", type=float, default=5.0)
    synth.add_argument("--p", type=float, default=0.5)
    synth.add_argument(
        "--p-beta",
        dest="p_beta",
        type=float,
        nargs=2,
        metavar=("A", "B"),
        default=None,
        help="draw per-document p from Beta(A, B) instead of a constant",
    )
    synth.add_argument("--sharpness", dest="topic_sharpness", type=float, default=0.05)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out", required=True)
    synth.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run" and not args.config:  # a --config file may set the model and output_dir keys
        missing = [flag for flag, value in (("--model", args.model), ("--out", args.output_dir)) if value is None]
        if missing:
            parser.error(f"the following arguments are required without --config: {', '.join(missing)}")
    try:
        return args.func(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, EmptyCorpusError, IterationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
