"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Every tolerance is pinned here; seeds are frozen
so each criterion is a deterministic check.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import gammaln, logsumexp
from scipy.stats import poisson as pois_dist

from nbproc import (
    HyperParams,
    ModelKind,
    RandomSource,
    StirlingTriangle,
    SyntheticSpec,
    crt_pmf,
    default_geweke_settings,
    geweke_check,
    sample_beta,
    sample_crt,
    sample_gamma,
    sample_logarithmic,
    sample_nb_compound,
    sample_nb_direct,
    split_train_test,
    synthesize_corpus,
)
from nbproc.cli import main, run_experiment


def report(num, name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}")


def tv_distance(a, b):
    width = max(len(a), len(b))
    pa, pb = np.zeros(width), np.zeros(width)
    pa[: len(a)] = a
    pb[: len(b)] = b
    return 0.5 * float(np.abs(pa - pb).sum())


def empirical_pmf(draws):
    counts = np.bincount(np.asarray(draws))
    return counts / counts.sum()


R_GRID = (0.1, 0.5, 1.0, 2.0, 10.0)


def test_criterion_1_crt_exact_identities():
    started = time.perf_counter()
    tri = StirlingTriangle(m_max=50)
    worst_sum, worst_identity = 0.0, 0.0
    for m in range(0, 51):
        for r in R_GRID:
            worst_sum = max(worst_sum, abs(crt_pmf(m, r, tri).sum() - 1.0))
            if m >= 1:
                lhs = logsumexp(tri.log_row(m) + np.arange(m + 1) * math.log(r))
                rhs = gammaln(m + r) - gammaln(r)
                worst_identity = max(worst_identity, abs(lhs - rhs))
    elapsed = time.perf_counter() - started
    ok = worst_sum < 1e-9 and worst_identity < 1e-9 and elapsed < 5.0
    report(1, "CRT exact identities", ok, f"max|sum-1|={worst_sum:.2e}, max identity err={worst_identity:.2e}, {elapsed:.2f}s")
    assert worst_sum < 1e-9
    assert worst_identity < 1e-9
    assert elapsed < 5.0


def test_criterion_2_crt_sampler_agreement():
    started = time.perf_counter()
    source = RandomSource(202)
    worst = 0.0
    details = []
    for m, r in ((5, 1.0), (20, 0.5), (50, 10.0)):
        draws = [sample_crt(m, r, source) for _ in range(100_000)]
        tv = tv_distance(empirical_pmf(draws), crt_pmf(m, r))
        worst = max(worst, tv)
        details.append(f"TV(m={m},r={r})={tv:.4f}")
    elapsed = time.perf_counter() - started
    ok = worst < 0.01 and elapsed < 10.0
    report(2, "CRT sampler agreement", ok, "; ".join(details) + f", {elapsed:.2f}s")
    assert worst < 0.01
    assert elapsed < 10.0


def test_criterion_3_nb_augmentation_equivalence():
    started = time.perf_counter()
    source = RandomSource(203)
    details = []
    worst_pair = 0.0
    for r, p in ((2.0, 0.5), (0.5, 0.8)):
        direct = sample_nb_direct(r, p, source, size=100_000)
        compound = sample_nb_compound(r, p, source, size=100_000)
        tv = tv_distance(empirical_pmf(direct), empirical_pmf(compound))
        worst_pair = max(worst_pair, tv)
        details.append(f"TV(r={r},p={p})={tv:.4f}")

    # three-level mixture construction at r1 = c1 = 1, p = 0.5
    r1, c1, p = 1.0, 1.0, 0.5
    n = 100_000
    r = sample_gamma(np.full(n, r1), 1.0 / c1, source)
    two_level = source.generator.poisson(source.generator.gamma(r, p / (1 - p)))
    p_prime = -math.log1p(-p) / (c1 - math.log1p(-p))
    outer = sample_nb_compound(r1, p_prime, source, size=n)
    total = int(outer.sum())
    increments = sample_logarithmic(p, source, size=total)
    owner = np.repeat(np.arange(n), outer)
    three_level = np.bincount(owner, weights=increments, minlength=n).astype(np.int64)
    tv_nest = tv_distance(empirical_pmf(two_level), empirical_pmf(three_level))
    details.append(f"nesting TV={tv_nest:.4f}")
    elapsed = time.perf_counter() - started
    ok = worst_pair < 0.01 and tv_nest < 0.015 and elapsed < 20.0
    report(3, "NB augmentation equivalence", ok, "; ".join(details) + f", {elapsed:.2f}s")
    assert worst_pair < 0.01
    assert tv_nest < 0.015
    assert elapsed < 20.0


def test_criterion_4_poisson_multinomial_equivalence():
    started = time.perf_counter()
    rates = np.array([1.0, 2.0, 3.0])
    n, cap = 100_000, 20
    gen = RandomSource(3).generator
    support = np.arange(cap + 1)
    marginals = [pois_dist.pmf(support, rate) for rate in rates]
    exact = np.einsum("a,b,c->abc", *marginals)
    a, b, c = np.meshgrid(support, support, support, indexing="ij")
    exact[a + b + c > cap] = 0.0
    exact = exact.ravel()
    base = cap + 1
    weights = np.array([base**2, base, 1])
    independent = gen.poisson(rates, size=(n, 3))
    totals = gen.poisson(rates.sum(), size=n)
    partitioned = gen.multinomial(totals, rates / rates.sum())
    tvs = []
    for sample in (independent, partitioned):
        kept = sample[sample.sum(axis=1) <= cap]
        codes = (kept * weights).sum(axis=1)
        empirical = np.bincount(codes, minlength=base**3) / n
        tvs.append(0.5 * float(np.abs(empirical - exact).sum()))
    elapsed = time.perf_counter() - started
    ok = max(tvs) < 0.02 and elapsed < 10.0
    report(4, "Poisson-multinomial equivalence", ok, f"joint TVs vs exact={tvs[0]:.4f}/{tvs[1]:.4f}, {elapsed:.2f}s")
    assert max(tvs) < 0.02
    assert elapsed < 10.0


def test_criterion_5_weight_normalization_reduction():
    started = time.perf_counter()
    r = np.array([1.0, 2.0, 3.0])
    n = 100_000
    source = RandomSource(205)
    gen = source.generator
    # per-document probabilities differ; they must cancel in the ratio
    p_j = np.asarray(sample_beta(np.full(n, 3.0), np.full(n, 3.0), source))
    lam = np.maximum(gen.gamma(r[None, :], (p_j / (1 - p_j))[:, None]), np.finfo(float).tiny)
    x = lam / lam.sum(axis=1, keepdims=True)
    total = r.sum()
    mean_expected = r / total
    second_expected = r * (r + 1) / (total * (total + 1))
    err_mean = float(np.abs(x.mean(axis=0) / mean_expected - 1).max())
    err_second = float(np.abs((x**2).mean(axis=0) / second_expected - 1).max())
    elapsed = time.perf_counter() - started
    ok = err_mean < 0.02 and err_second < 0.02 and elapsed < 10.0
    report(5, "shared-dispersion to Dirichlet reduction", ok, f"moment errors={err_mean:.4f}/{err_second:.4f}, {elapsed:.2f}s")
    assert err_mean < 0.02
    assert err_second < 0.02
    assert elapsed < 10.0


GEWEKE_KINDS = (
    ModelKind.GAMMA_NB,
    ModelKind.NB_HDP,
    ModelKind.NB_LDA,
    ModelKind.BETA_NB,
    ModelKind.MARKED_BETA_NB,
    ModelKind.MARKED_GAMMA_NB,
    ModelKind.NB_FTM,
    ModelKind.CRF_HDP,
)
_geweke_elapsed: dict[str, float] = {}


@pytest.mark.parametrize("kind", GEWEKE_KINDS, ids=lambda k: k.value)
def test_criterion_6_geweke_correctness(kind):
    started = time.perf_counter()
    report_obj = geweke_check(kind, default_geweke_settings(kind), 50_000, 50_000, RandomSource(2026))
    elapsed = time.perf_counter() - started
    _geweke_elapsed[kind.value] = elapsed
    worst = max(report_obj.z_scores.items(), key=lambda kv: abs(kv[1]))
    ok = report_obj.passed(4.0)
    report(6, f"geweke {kind.value}", ok, f"max|z|={report_obj.max_abs_z:.2f} ({worst[0]}), {elapsed:.1f}s")
    assert report_obj.passed(4.0)


def test_criterion_6_fault_injected_kernel_fails():
    started = time.perf_counter()
    settings = default_geweke_settings(ModelKind.GAMMA_NB)
    report_obj = geweke_check(ModelKind.GAMMA_NB, settings, 20_000, 20_000, RandomSource(2026), fault="r-shape")
    elapsed = time.perf_counter() - started
    _geweke_elapsed["fault"] = elapsed
    total = sum(_geweke_elapsed.values())
    detected = not report_obj.passed(4.0)
    ok = detected and total < 600.0
    report(6, "geweke fault injection", ok, f"corrupted kernel max|z|={report_obj.max_abs_z:.1f}, total geweke time {total:.0f}s")
    assert detected
    assert total < 600.0


def test_criterion_7_synthetic_recovery():
    started = time.perf_counter()
    passing = 0
    details = []
    for seed in range(5):
        spec = SyntheticSpec(k_true=5, vocab_size=30, num_docs=50, topic_sharpness=0.05, r=5.0, p=0.8)
        corpus, _ = synthesize_corpus(HyperParams(), spec, RandomSource(1000 + seed))
        hyper = HyperParams(K=20, eta=0.25, iters=500, burnin=250, init_iters=50, seed=seed)
        split = split_train_test(corpus, 0.6, RandomSource(seed).child(2))
        _, _, trace = run_experiment(ModelKind.GAMMA_NB, corpus, split, hyper)
        k_plus = trace.final["active_topics"]
        perplexity = trace.final["perplexity"]
        good = 4 <= k_plus <= 10 and perplexity < 0.7 * 30
        passing += good
        details.append(f"s{seed}:K+={k_plus},perp={perplexity:.1f}")
    elapsed = time.perf_counter() - started
    ok = passing >= 4 and elapsed < 300.0
    report(7, "synthetic recovery", ok, f"{passing}/5 seeds ({'; '.join(details)}), {elapsed:.0f}s")
    assert passing >= 4
    assert elapsed < 300.0


def test_criterion_8_directional_model_ordering():
    started = time.perf_counter()
    names = ("gamma-nb", "nb-hdp", "marked-beta-nb", "beta-nb")
    perplexities = {name: [] for name in names}
    for seed in range(5):
        root = RandomSource(5000 + seed)
        p_j = np.asarray(sample_beta(np.full(50, 2.0), np.full(50, 2.0), root.child(0)))
        spec = SyntheticSpec(k_true=5, vocab_size=30, num_docs=50, topic_sharpness=0.05, r=5.0, p=p_j)
        corpus, _ = synthesize_corpus(HyperParams(), spec, root.child(1))
        split = split_train_test(corpus, 0.4, RandomSource(seed).child(2))
        for name in names:
            hyper = HyperParams(K=20, eta=0.25, iters=500, burnin=250, init_iters=50, seed=seed)
            _, _, trace = run_experiment(ModelKind.from_name(name), corpus, split, hyper)
            perplexities[name].append(trace.final["perplexity"])
    means = {name: float(np.mean(values)) for name, values in perplexities.items()}
    ratio_gamma = means["gamma-nb"] / means["nb-hdp"]
    ratio_marked = means["marked-beta-nb"] / means["beta-nb"]
    elapsed = time.perf_counter() - started
    ok = ratio_gamma <= 1.01 and ratio_marked <= 1.02 and elapsed < 900.0
    report(
        8,
        "directional model ordering",
        ok,
        f"gamma-nb/nb-hdp={ratio_gamma:.4f} (<=1.01), marked-beta-nb/beta-nb={ratio_marked:.4f} (<=1.02), {elapsed:.0f}s",
    )
    assert ratio_gamma <= 1.01
    assert ratio_marked <= 1.02
    assert elapsed < 900.0


def test_criterion_9_reproducibility(tmp_path):
    started = time.perf_counter()
    import json

    spec = tmp_path / "synth.json"
    spec.write_text(json.dumps({"k_true": 3, "vocab_size": 15, "num_docs": 12, "r": 5.0, "p": 0.6, "seed": 9}))
    traces = []
    for name in ("r1", "r2"):
        args = [
            "run",
            "--model",
            "gamma-nb",
            "--synth",
            str(spec),
            "--train-frac",
            "0.6",
            "--seed",
            "11",
            "--K",
            "5",
            "--iters",
            "40",
            "--burnin",
            "15",
            "--init-iters",
            "5",
            "--out",
            str(tmp_path / name),
        ]
        assert main(args) == 0
        traces.append((tmp_path / name / "trace.csv").read_bytes())
    elapsed = time.perf_counter() - started
    identical = traces[0] == traces[1]
    ok = identical and elapsed < 60.0
    report(9, "reproducibility", ok, f"trace.csv byte-identical={identical}, {elapsed:.1f}s")
    assert identical
    assert elapsed < 60.0
