import math

import numpy as np
import pytest
from scipy.special import gammaln, logsumexp
from scipy.stats import nbinom

from nbproc import distributions
from nbproc import (
    CapacityError,
    ParameterError,
    RandomSource,
    StirlingTriangle,
    crt_pmf,
    sample_beta,
    sample_crt,
    sample_crt_array,
    sample_dirichlet,
    sample_gamma,
    sample_logarithmic,
    sample_nb_compound,
    sample_nb_direct,
)


def rng(seed=0):
    return RandomSource(seed)


# A categorical and a Poisson sampler in the library's argument checks; nbproc
# itself draws through neither, so they live with their tests.
def sample_discrete(weights, rng: RandomSource, size=None):
    """Draw index k with probability ``weights[k] / sum(weights)``."""
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise ParameterError(f"weights must be a non-empty vector, got {weights!r}")
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        raise ParameterError(f"weights must be finite and non-negative, got {weights!r}")
    cum = np.cumsum(w)
    total = cum[-1]
    if total <= 0:
        raise ParameterError("weights must have at least one positive entry")
    u = rng.generator.random(size) * total
    draws = np.searchsorted(cum, u, side="right")
    if size is None:
        return int(draws)
    return draws.astype(np.int64)


def sample_poisson(rate, rng: RandomSource, size=None):
    """Draw from Poisson(rate); a zero rate always yields 0."""
    arr = np.asarray(rate, dtype=np.float64)
    if arr.size == 0 or not np.all(np.isfinite(arr)) or np.any(arr < 0):
        raise ParameterError(f"rate must be non-negative and finite, got {rate!r}")
    draws = rng.generator.poisson(arr, size=size)
    if size is None and np.ndim(draws) == 0:
        return int(draws)
    return draws


def tv_distance(a, b):
    width = max(len(a), len(b))
    pa, pb = np.zeros(width), np.zeros(width)
    pa[: len(a)] = a
    pb[: len(b)] = b
    return 0.5 * np.abs(pa - pb).sum()


def empirical_pmf(draws):
    counts = np.bincount(draws)
    return counts / counts.sum()


# ---------------------------------------------------------------------------
# gamma
# ---------------------------------------------------------------------------


def test_gamma_exponential_special_case():
    draws = sample_gamma(1.0, 1.0, rng(1), size=100_000)
    assert 0.98 <= draws.mean() <= 1.02


def test_gamma_moments():
    draws = sample_gamma(2.0, 3.0, rng(2), size=100_000)
    assert abs(draws.mean() / 6.0 - 1) < 0.02
    assert abs(draws.var() / 18.0 - 1) < 0.05


def test_gamma_tiny_shape_strictly_positive():
    draws = sample_gamma(1e-4, 1.0, rng(3), size=10_000)
    assert np.all(draws > 0) and np.all(np.isfinite(draws))


def test_gamma_domain_errors():
    for shape, scale in ((0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (math.nan, 1.0), (1.0, math.inf)):
        with pytest.raises(ParameterError):
            sample_gamma(shape, scale, rng())


# ---------------------------------------------------------------------------
# beta
# ---------------------------------------------------------------------------


def test_beta_uniform_special_case():
    draws = sample_beta(1.0, 1.0, rng(4), size=100_000)
    assert 0.497 <= draws.mean() <= 0.503


def test_beta_moments():
    draws = sample_beta(2.0, 2.0, rng(5), size=100_000)
    assert abs(draws.mean() / 0.5 - 1) < 0.01
    assert abs(draws.var() / 0.05 - 1) < 0.05


def test_beta_extreme_parameters_stay_in_open_interval():
    draws = sample_beta(0.01, 100.0, rng(6), size=50_000)
    assert np.all(draws > 0.0) and np.all(draws < 1.0)


def test_beta_domain_errors():
    with pytest.raises(ParameterError):
        sample_beta(0.0, 1.0, rng())
    with pytest.raises(ParameterError):
        sample_beta(1.0, -2.0, rng())


# ---------------------------------------------------------------------------
# dirichlet
# ---------------------------------------------------------------------------


def test_dirichlet_degenerate_simplex():
    assert np.array_equal(sample_dirichlet([1.0], rng(7)), np.array([1.0]))


def test_dirichlet_marginal_is_beta():
    source = rng(8)
    draws = np.array([sample_dirichlet([5.0, 5.0], source)[0] for _ in range(100_000)])
    assert abs(draws.mean() / 0.5 - 1) < 0.01


def test_dirichlet_sparse_concentration():
    source = rng(9)
    for _ in range(200):
        x = sample_dirichlet(np.full(10, 0.05), source)
        assert np.all(x > 0)
        assert abs(x.sum() - 1.0) < 1e-12


def test_dirichlet_domain_errors():
    with pytest.raises(ParameterError):
        sample_dirichlet([], rng())
    with pytest.raises(ParameterError):
        sample_dirichlet([1.0, 0.0], rng())


# ---------------------------------------------------------------------------
# discrete
# ---------------------------------------------------------------------------


def test_discrete_single_support_point():
    source = rng(10)
    assert all(sample_discrete([0.0, 3.0, 0.0], source) == 1 for _ in range(100))


def test_discrete_uniform_frequencies():
    draws = sample_discrete([1.0, 1.0, 1.0, 1.0], rng(11), size=1_000_000)
    freqs = np.bincount(draws, minlength=4) / 1_000_000
    assert np.abs(freqs - 0.25).max() < 0.01


def test_discrete_matches_weights():
    weights = [0.2, 0.3, 0.5]
    draws = sample_discrete(weights, rng(12), size=1_000_000)
    freqs = np.bincount(draws, minlength=3) / 1_000_000
    assert np.abs(freqs - weights).max() < 0.01


def test_discrete_domain_errors():
    with pytest.raises(ParameterError):
        sample_discrete([0.0, 0.0], rng())
    with pytest.raises(ParameterError):
        sample_discrete([1.0, -0.5], rng())
    with pytest.raises(ParameterError):
        sample_discrete([1.0, math.inf], rng())


# ---------------------------------------------------------------------------
# poisson
# ---------------------------------------------------------------------------


def test_poisson_zero_rate():
    source = rng(13)
    assert all(sample_poisson(0.0, source) == 0 for _ in range(50))


def test_poisson_moments():
    draws = sample_poisson(4.0, rng(14), size=100_000)
    assert abs(draws.mean() / 4.0 - 1) < 0.01
    assert abs(draws.var() / 4.0 - 1) < 0.03


def test_poisson_small_rate_mass_at_zero():
    draws = sample_poisson(0.01, rng(15), size=100_000)
    assert abs((draws == 0).mean() - math.exp(-0.01)) < 0.002


def test_poisson_domain_errors():
    with pytest.raises(ParameterError):
        sample_poisson(-0.1, rng())
    with pytest.raises(ParameterError):
        sample_poisson(math.inf, rng())


# ---------------------------------------------------------------------------
# logarithmic
# ---------------------------------------------------------------------------


def test_logarithmic_mass_concentrates_at_one_for_tiny_p():
    draws = sample_logarithmic(1e-6, rng(16), size=100_000)
    assert (draws == 1).mean() > 0.999


def test_logarithmic_pmf_at_one():
    draws = sample_logarithmic(0.5, rng(17), size=100_000)
    expected = 0.5 / math.log(2)  # p / (-ln(1-p)) at u = 1
    assert abs((draws == 1).mean() - expected) < 0.005


def test_logarithmic_mean():
    draws = sample_logarithmic(0.9, rng(18), size=100_000)
    expected = -0.9 / (0.1 * math.log(0.1))  # p / ((p-1) ln(1-p))
    assert abs(draws.mean() / expected - 1) < 0.02


def test_logarithmic_domain_errors():
    for p in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ParameterError):
            sample_logarithmic(p, rng())


# ---------------------------------------------------------------------------
# Stirling triangle and CRT
# ---------------------------------------------------------------------------


def exact_stirling_rows(m_max):
    """Integer-exact unsigned first-kind Stirling numbers, for oracles."""
    rows = [[1]]
    for m in range(1, m_max + 1):
        prev = rows[-1]
        row = [0] * (m + 1)
        for j in range(1, m + 1):
            row[j] = (m - 1) * (prev[j] if j < m else 0) + prev[j - 1]
        rows.append(row)
    return rows


def test_stirling_triangle_matches_exact_integers():
    tri = StirlingTriangle(m_max=25)
    exact = exact_stirling_rows(25)
    for m in range(0, 26):
        log_row = tri.log_row(m)
        assert log_row[m] == 0.0  # |s(m, m)| = 1
        if m >= 1:
            assert log_row[0] == -math.inf  # |s(m, 0)| = 0
        for j in range(1, m + 1):
            expected = math.log(exact[m][j])
            if expected == 0.0:
                assert abs(log_row[j]) <= 1e-12
            else:
                assert abs(log_row[j] / expected - 1) <= 1e-12


def test_stirling_capacity_error():
    tri = StirlingTriangle(m_max=10)
    tri.log_row(10)
    with pytest.raises(CapacityError):
        tri.log_row(11)


def test_stirling_normalizer_identity():
    # sum_j |s(m, j)| r^j == Gamma(m + r) / Gamma(r), in log space
    tri = StirlingTriangle(m_max=50)
    for m in range(1, 51):
        row = tri.log_row(m)
        for r in (0.1, 0.5, 1.0, 2.0, 10.0):
            lhs = logsumexp(row + np.arange(m + 1) * math.log(r))
            rhs = gammaln(m + r) - gammaln(r)
            assert abs(lhs - rhs) < 1e-9


def test_crt_pmf_empty():
    assert np.array_equal(crt_pmf(0, 2.5), np.array([1.0]))


def test_crt_pmf_single_customer():
    for r in (0.1, 1.0, 7.0):
        pmf = crt_pmf(1, r)
        assert pmf[0] == 0.0
        assert pmf[1] == pytest.approx(1.0, abs=1e-12)


def test_crt_pmf_two_customers_unit_rate():
    # |s(2,1)| = |s(2,2)| = 1 and Gamma(3)/Gamma(1) = 2 -> [0, 1/2, 1/2];
    # cross-checked below against brute-force Bernoulli-sum simulation.
    pmf = crt_pmf(2, 1.0)
    assert np.allclose(pmf, [0.0, 0.5, 0.5], atol=1e-12)
    source = rng(19)
    draws = np.array([sample_crt(2, 1.0, source) for _ in range(100_000)])
    assert abs((draws == 1).mean() - 0.5) < 0.01


def test_crt_pmf_sums_to_one():
    for m in range(0, 51):
        for r in (0.1, 0.5, 1.0, 2.0, 10.0):
            assert abs(crt_pmf(m, r).sum() - 1.0) < 1e-9


def test_crt_pmf_domain_errors():
    with pytest.raises(ParameterError):
        crt_pmf(5, 0.0)
    with pytest.raises(ParameterError):
        crt_pmf(-1, 1.0)


def test_sample_crt_edges():
    source = rng(20)
    assert sample_crt(0, 3.0, source) == 0
    assert all(sample_crt(1, r, source) == 1 for r in (0.01, 1.0, 50.0))
    draws = [sample_crt(10, 2.0, source) for _ in range(500)]
    assert all(1 <= d <= 10 for d in draws)


def test_sample_crt_matches_pmf():
    source = rng(21)
    draws = np.array([sample_crt(20, 2.0, source) for _ in range(100_000)])
    assert tv_distance(empirical_pmf(draws), crt_pmf(20, 2.0)) < 0.01


def test_sample_crt_array_agrees_with_scalar_distribution():
    source = rng(22)
    m = np.array([[0, 5], [20, 1]])
    r = np.array([2.0, 0.7])
    draws = np.stack([sample_crt_array(m, r[None, :], source) for _ in range(30_000)])
    assert np.all(draws[:, 0, 0] == 0)
    assert np.all(draws[:, 1, 1] == 1)
    assert tv_distance(empirical_pmf(draws[:, 1, 0]), crt_pmf(20, 2.0)) < 0.02
    assert tv_distance(empirical_pmf(draws[:, 0, 1]), crt_pmf(5, 0.7)) < 0.02


def test_sample_crt_array_gated_zero_rate():
    # r = 0 is fine where m = 0 (gated cells), an error where m > 0
    out = sample_crt_array(np.array([0, 0]), np.array([0.0, 0.0]), rng(23))
    assert np.array_equal(out, [0, 0])
    with pytest.raises(ParameterError):
        sample_crt_array(np.array([1]), np.array([0.0]), rng(23))


def _crt_cases():
    """Counts m, some zero, and a rate array broadcast against them, per case name."""
    gen = np.random.default_rng(24)
    m = gen.poisson(3.0, size=(6, 7))
    m[gen.random(m.shape) < 0.3] = 0
    rates = gen.gamma(0.7, 2.0, size=(6, 7))
    return {
        "r-along-documents": (m, rates[:, :1]),
        "r-along-topics": (m, rates[:1, :]),
        "r-zero-where-m-zero": (m, np.where(m > 0, rates, 0.0)),
        "r-reversed-view": (m, rates[::-1, ::-1]),
        "scalar-r-vector-m": (m[0], 1.5),
        "m-all-zero": (np.zeros((3, 4), dtype=np.int64), 0.0),
        "three-axes": (m.reshape(3, 2, 7), rates[:1, :]),
        "int32-counts": (m.astype(np.int32), rates[:, :1]),
    }


CRT_CASES = _crt_cases()


@pytest.mark.parametrize("case", sorted(CRT_CASES))
def test_sample_crt_array_counts_one_uniform_per_trial(case):
    m, r = CRT_CASES[case]
    source = rng(26)
    drawn = sample_crt_array(m, r, source)
    # the reference: r / (k + r) against the stream's next m.sum() uniforms, cell after cell in C order
    gen = rng(26).generator
    expected = np.zeros(m.shape, dtype=np.int64)
    rates = np.broadcast_to(np.asarray(r, dtype=np.float64), m.shape)
    for cell in np.ndindex(m.shape):
        n = int(m[cell])
        if n:
            expected[cell] = np.count_nonzero(gen.random(n) < rates[cell] / (np.arange(n) + rates[cell]))
    assert drawn.shape == m.shape and drawn.dtype == np.int64
    assert np.array_equal(drawn, expected)
    assert np.all(drawn[m == 0] == 0) and np.all((drawn >= 1) == (m >= 1)) and np.all(drawn <= m)
    assert source.generator.random() == gen.random()  # the same number of uniforms consumed


@pytest.mark.parametrize("case", sorted(CRT_CASES))
def test_crt_tables_count_the_uniforms_below_each_trial_s_rate(compiled_library, case):
    m, r = CRT_CASES[case]
    m = np.ascontiguousarray(m, dtype=np.int64)
    r = np.broadcast_to(np.asarray(r, dtype=np.float64), m.shape)  # zero strides where r is broadcast
    u = np.random.default_rng(25).random(int(m.sum()))
    tables = np.full(m.shape, -1)  # every cell is written, the empty ones too
    assert compiled_library.crt_tables(m, r, u, tables) == -1
    expected, used = np.zeros(m.shape, dtype=np.int64), 0
    for cell in np.ndindex(m.shape):  # the uniforms in C order of the cells, one per trial
        n = int(m[cell])
        expected[cell] = np.count_nonzero(u[used : used + n] < r[cell] / (np.arange(n) + r[cell]))
        used += n
    assert np.array_equal(tables, expected)


@pytest.mark.parametrize("case", sorted(CRT_CASES))
def test_sample_crt_array_into_out_gives_the_tables_of_a_fresh_array(case):
    m, r = CRT_CASES[case]
    fresh_source, source = rng(29), rng(29)
    fresh = sample_crt_array(m, r, fresh_source)
    out = np.full(np.shape(m), -1, dtype=np.int64)  # every cell is written, the empty ones too
    assert sample_crt_array(m, r, source, out) is out
    assert np.array_equal(out, fresh)
    assert source.generator.random() == fresh_source.generator.random()


class _RandomSizes:
    """A generator that records the size of each ``random`` draw."""

    def __init__(self, gen):
        self.gen, self.sizes = gen, []

    def random(self, size=None, **kwargs):
        self.sizes.append(size)
        return self.gen.random(size, **kwargs)

    def __getattr__(self, name):
        return getattr(self.gen, name)


@pytest.mark.parametrize("case", sorted(CRT_CASES))
def test_sample_crt_array_in_row_chunks_gives_the_tables_of_one_draw(monkeypatch, case):
    m, r = CRT_CASES[case]
    whole_source = rng(33)
    whole = sample_crt_array(m, r, whole_source)
    next_uniform = whole_source.generator.random()
    rows = np.reshape(m, (-1, np.shape(m)[-1] if np.ndim(m) > 1 else 1)).sum(axis=1)  # trials per row of chunking
    for trials in (1, 5, 16):
        monkeypatch.setattr(distributions, "CRT_CHUNK_TRIALS", trials)
        source = rng(33)
        source.generator = sizes = _RandomSizes(source.generator)
        assert np.array_equal(sample_crt_array(m, r, source), whole), trials
        assert source.generator.random() == next_uniform  # the same uniforms, in the same order
        drawn = sizes.sizes[:-1]
        assert sum(drawn) == np.sum(m) and max(drawn, default=0) <= max(trials, rows.max(initial=0))
        assert len(drawn) > 1 or np.sum(m) <= trials or len(rows) == 1


def test_sample_crt_array_rejects_an_unusable_out():
    m = np.array([[2, 0, 1], [0, 3, 1]])
    read_only = np.zeros((2, 3), dtype=np.int64)
    read_only.flags.writeable = False
    unusable = {
        "wrong-shape": np.zeros((3, 2), dtype=np.int64),
        "wrong-dtype": np.zeros((2, 3), dtype=np.int32),
        "strided": np.zeros((2, 6), dtype=np.int64)[:, ::2],
        "read-only": read_only,
        "list": [[0, 0, 0], [0, 0, 0]],
    }
    for name, out in unusable.items():
        with pytest.raises(ParameterError, match="out must be a writable C-contiguous int64 array of shape"):
            sample_crt_array(m, 1.0, rng(30), out)
        assert np.all(np.asarray(out) == 0), name


@pytest.mark.parametrize("rate", [0.0, -1.0, np.nan, np.inf])
def test_crt_tables_name_the_first_bad_cell(compiled_library, rate):
    m = np.array([[2, 0, 1], [0, 3, 1]])
    r = np.array([[1.0, rate, 1.0], [1.0, rate, rate]])  # cell (0, 1) has m = 0; (1, 1) is the first bad one
    u = np.random.default_rng(27).random(int(m.sum()))
    assert compiled_library.crt_tables(m, r, u, np.empty_like(m)) == 4
    with pytest.raises(ParameterError, match="r must be positive and finite wherever m > 0"):
        sample_crt_array(m, r, rng(28))


# ---------------------------------------------------------------------------
# negative binomial constructions
# ---------------------------------------------------------------------------


def test_nb_direct_geometric_mass_at_zero():
    draws = sample_nb_direct(1.0, 0.5, rng(24), size=100_000)
    assert abs((draws == 0).mean() - 0.5) < 0.005


def test_nb_direct_vanishing_p():
    draws = sample_nb_direct(1.0, 1e-6, rng(25), size=50_000)
    assert (draws == 0).mean() > 0.999


def test_nb_direct_moments():
    draws = sample_nb_direct(2.0, 0.5, rng(26), size=100_000)
    assert abs(draws.mean() / 2.0 - 1) < 0.02  # r p / (1-p)
    assert abs(draws.var() / 4.0 - 1) < 0.05  # r p / (1-p)^2


def test_nb_compound_empty_sum():
    # with a vanishing Poisson rate nearly every draw has zero increments
    draws = sample_nb_compound(1.0, 1e-8, rng(27), size=20_000)
    assert np.all(draws >= 0) and (draws == 0).mean() > 0.999


def test_nb_constructions_agree():
    source = rng(28)
    for r, p in ((2.0, 0.5), (0.5, 0.8)):
        direct = sample_nb_direct(r, p, source, size=100_000)
        compound = sample_nb_compound(r, p, source, size=100_000)
        assert tv_distance(empirical_pmf(direct), empirical_pmf(compound)) < 0.01


def test_nb_direct_matches_reference_pmf():
    # scipy's nbinom(r, 1-p) counts successes with failure prob p
    draws = sample_nb_direct(2.0, 0.5, rng(29), size=100_000)
    support = np.arange(draws.max() + 1)
    reference = nbinom.pmf(support, 2.0, 0.5)
    assert tv_distance(empirical_pmf(draws), reference) < 0.01


def test_nb_compound_small_r_large_p_mean():
    draws = sample_nb_compound(0.1, 0.9, rng(30), size=100_000)
    assert abs(draws.mean() / 0.9 - 1) < 0.05


def test_nb_domain_errors():
    for r, p in ((0.0, 0.5), (1.0, 0.0), (1.0, 1.0), (-2.0, 0.3)):
        with pytest.raises(ParameterError):
            sample_nb_direct(r, p, rng())
        with pytest.raises(ParameterError):
            sample_nb_compound(r, p, rng())


# ---------------------------------------------------------------------------
# cross-construction identities
# ---------------------------------------------------------------------------


def test_gamma_mixture_nesting():
    # r ~ Gamma(r1, 1/c1), m ~ NB(r, p)  equals the three-level chain
    # m = sum Log(p) over l, l = sum Log(p') over l', l' ~ Pois(-r1 ln(1-p'))
    r1, c1, p = 1.0, 1.0, 0.5
    n = 100_000
    source = rng(31)
    r = sample_gamma(np.full(n, r1), 1.0 / c1, source)
    two_level = source.generator.poisson(source.generator.gamma(r, p / (1 - p)))

    p_prime = -math.log1p(-p) / (c1 - math.log1p(-p))
    outer = sample_nb_compound(r1, p_prime, source, size=n)
    total = int(outer.sum())
    increments = sample_logarithmic(p, source, size=total)
    owner = np.repeat(np.arange(n), outer)
    three_level = np.bincount(owner, weights=increments, minlength=n).astype(np.int64)
    assert tv_distance(empirical_pmf(two_level), empirical_pmf(three_level)) < 0.015


def exact_truncated_poisson_joint(rates, cap):
    """Closed-form joint of independent Poisson cells, total <= cap."""
    from scipy.stats import poisson as pois

    support = np.arange(cap + 1)
    marginals = [pois.pmf(support, rate) for rate in rates]
    joint = np.einsum("a,b,c->abc", *marginals)
    a, b, c = np.meshgrid(support, support, support, indexing="ij")
    joint[a + b + c > cap] = 0.0
    return joint.ravel()


def test_poisson_multinomial_equivalence():
    # Both constructions must reproduce the same joint law, which is
    # available in closed form as a product of Poissons; each empirical
    # joint is compared against it on the truncated support.
    rates = np.array([1.0, 2.0, 3.0])
    n, cap = 100_000, 20
    gen = rng(3).generator
    exact = exact_truncated_poisson_joint(rates, cap)
    base = cap + 1
    weights = np.array([base**2, base, 1])

    independent = gen.poisson(rates, size=(n, 3))
    totals = gen.poisson(rates.sum(), size=n)
    partitioned = gen.multinomial(totals, rates / rates.sum())
    for draws in (independent, partitioned):
        kept = draws[draws.sum(axis=1) <= cap]
        codes = (kept * weights).sum(axis=1)
        empirical = np.bincount(codes, minlength=base**3) / n
        assert 0.5 * np.abs(empirical - exact).sum() < 0.02


def test_normalized_gamma_is_dirichlet():
    conc = np.array([0.5, 1.0, 2.5])
    n = 100_000
    gen = rng(33).generator
    g = np.maximum(gen.gamma(conc, 1.0, size=(n, 3)), np.finfo(float).tiny)
    x = g / g.sum(axis=1, keepdims=True)
    mean_expected = conc / conc.sum()
    second_expected = conc * (conc + 1) / (conc.sum() * (conc.sum() + 1))
    assert np.abs(x.mean(axis=0) / mean_expected - 1).max() < 0.02
    assert np.abs((x**2).mean(axis=0) / second_expected - 1).max() < 0.02


def test_determinism_across_samplers():
    def draw_sequence(seed):
        source = rng(seed)
        return (
            sample_gamma(2.0, 1.5, source),
            sample_beta(1.0, 3.0, source),
            tuple(sample_dirichlet([0.2, 0.7], source)),
            sample_discrete([0.4, 0.6], source),
            sample_poisson(3.0, source),
            sample_logarithmic(0.6, source),
            sample_crt(12, 1.5, source),
            sample_nb_direct(2.0, 0.4, source),
            sample_nb_compound(2.0, 0.4, source),
        )

    assert draw_sequence(99) == draw_sequence(99)
    assert draw_sequence(99) != draw_sequence(100)
