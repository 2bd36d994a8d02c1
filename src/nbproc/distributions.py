"""Random-variate generation and exact PMFs for the Gibbs kernels.

Covers the standard conjugate families (gamma, beta, Dirichlet), the
logarithmic distribution, the Chinese
restaurant table (CRT) distribution, and the two equivalent
constructions of the negative binomial: the gamma-Poisson mixture and
the compound-Poisson sum of logarithmic variates.

All samplers accept either scalars or arrays for their parameters and
an optional ``size``; scalar parameters with ``size=None`` return a
scalar.  Probability draws are clamped to the open unit interval and
gamma draws to the smallest positive normal float so that downstream
``log`` / normalization steps never see an exact 0 or 1.
"""

from __future__ import annotations

import math

import numpy as np

from . import _kernels
from .rng import RandomSource

# Smallest positive normal double; gamma draws never fall below this.
TINY = float(np.finfo(np.float64).tiny)
# Clamp bounds for probability parameters (keeps -log1p(-p) finite).
PROB_FLOOR = 1e-12
PROB_CEIL = 1.0 - 1e-12

DEFAULT_STIRLING_CAPACITY = 10_000
# sample_crt_array draws its uniforms in runs of rows of about this many
# trials (512 kB), so they never take memory in proportion to the tokens
CRT_CHUNK_TRIALS = 2**16


class ParameterError(ValueError):
    """A distribution parameter is outside its domain."""


class CapacityError(ValueError):
    """A request exceeded the configured Stirling triangle capacity."""


def _validate_positive(name: str, value) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if arr.size == 0 or not np.all(np.isfinite(arr)) or not np.all(arr > 0):
        raise ParameterError(f"{name} must be positive and finite, got {value!r}")
    return arr


def _scalarize(draws: np.ndarray, size) -> float | np.ndarray:
    if size is None and draws.ndim == 0:
        return float(draws)
    return draws


def sample_gamma(shape, scale, rng: RandomSource, size=None):
    """Draw from Gamma(shape, scale) with mean ``shape * scale``.

    Draws that underflow to zero (tiny shapes) are clamped to the
    smallest positive normal float, so results are strictly positive.
    """
    shape = _validate_positive("shape", shape)
    scale = _validate_positive("scale", scale)
    draws = rng.generator.gamma(shape, scale, size=size)
    return _scalarize(np.maximum(draws, TINY), size)


def sample_beta(a, b, rng: RandomSource, size=None):
    """Draw from Beta(a, b), clamped inside the open unit interval."""
    a = _validate_positive("a", a)
    b = _validate_positive("b", b)
    draws = rng.generator.beta(a, b, size=size)
    return _scalarize(np.clip(draws, PROB_FLOOR, PROB_CEIL), size)


def sample_dirichlet(concentration, rng: RandomSource) -> np.ndarray:
    """Draw a probability vector from Dirichlet(concentration).

    Implemented as normalized gamma draws; entries are strictly positive
    and sum to 1 up to float rounding even for very sparse
    concentrations where numpy's own dirichlet can emit exact zeros.
    """
    conc = np.asarray(concentration, dtype=np.float64)
    if conc.ndim != 1 or conc.size == 0:
        raise ParameterError(f"concentration must be a non-empty vector, got {concentration!r}")
    if not np.all(np.isfinite(conc)) or not np.all(conc > 0):
        raise ParameterError(f"concentration entries must be positive and finite, got {concentration!r}")
    g = np.maximum(rng.generator.gamma(conc, 1.0), TINY)
    return g / g.sum()


def _log_series_cumulative(p: float, u_max: float) -> np.ndarray:
    """Partial sums of the Log(p) PMF, grown until they cover ``u_max``."""
    denom = -math.log1p(-p)
    pmf = p / denom  # P(u = 1)
    cum = [pmf]
    k = 1
    while cum[-1] < u_max:
        pmf *= p * k / (k + 1)
        if pmf <= 0.0:  # underflow: remaining tail is numerically invisible
            break
        cum.append(cum[-1] + pmf)
        k += 1
    return np.asarray(cum)


def sample_logarithmic(p, rng: RandomSource, size=None):
    """Draw from the logarithmic distribution Log(p) on {1, 2, ...}.

    PMF p^u / (-u ln(1-p)).  Uses inversion against chop-down partial
    sums of the PMF; if the partial sums underflow before covering the
    uniform draw, the last reachable support point is returned.
    """
    p = float(p)
    if not (0.0 < p < 1.0) or not math.isfinite(p):
        raise ParameterError(f"p must lie in the open unit interval, got {p!r}")
    u = rng.generator.random(size)
    u_max = float(np.max(u)) if size is not None else float(u)
    cum = _log_series_cumulative(p, u_max)
    draws = np.searchsorted(cum, u, side="right") + 1
    draws = np.minimum(draws, len(cum))  # cumulative tail fallback
    if size is None:
        return int(draws)
    return draws.astype(np.int64)


class StirlingTriangle:
    """Log magnitudes of unsigned Stirling numbers of the first kind.

    ``log_row(m)[j]`` is ``log |s(m, j)|`` for j = 0..m.  Rows are built
    on demand from the recurrence |s(m+1, j)| = m |s(m, j)| + |s(m, j-1)|
    (carried out in log space, since the magnitudes overflow doubles
    near m = 170) and cached up to the configured capacity.
    """

    def __init__(self, m_max: int = DEFAULT_STIRLING_CAPACITY):
        if m_max < 0:
            raise ParameterError(f"m_max must be non-negative, got {m_max}")
        self.m_max = int(m_max)
        self._rows: list[np.ndarray] = [np.zeros(1)]  # |s(0,0)| = 1

    def log_row(self, m: int) -> np.ndarray:
        m = int(m)
        if m < 0:
            raise ParameterError(f"m must be non-negative, got {m}")
        if m > self.m_max:
            raise CapacityError(
                f"m={m} exceeds Stirling triangle capacity m_max={self.m_max}; "
                "use the Bernoulli-sum CRT sampler for larger m"
            )
        while len(self._rows) <= m:
            prev = self._rows[-1]
            n = len(self._rows)  # building row n from row n-1
            row = np.full(n + 1, -np.inf)
            row[n] = prev[n - 1]
            if n > 1:
                with np.errstate(divide="ignore"):
                    row[1:n] = np.logaddexp(math.log(n - 1) + prev[1:n], prev[0 : n - 1])
            self._rows.append(row)
        return self._rows[m]


_default_triangle: StirlingTriangle | None = None


def default_stirling_triangle() -> StirlingTriangle:
    global _default_triangle
    if _default_triangle is None:
        _default_triangle = StirlingTriangle()
    return _default_triangle


def crt_pmf(m: int, r, triangle: StirlingTriangle | None = None) -> np.ndarray:
    """Exact PMF of the CRT(m, r) table count over j = 0..m.

    Entry j equals Gamma(r)/Gamma(m+r) * |s(m, j)| * r^j, evaluated in
    log space.  Intended as a reference/oracle; the samplers never need
    it (``sample_crt`` is exact on its own).
    """
    m = int(m)
    if m < 0:
        raise ParameterError(f"m must be non-negative, got {m}")
    r = float(_validate_positive("r", r))
    if m == 0:
        return np.array([1.0])
    tri = triangle if triangle is not None else default_stirling_triangle()
    log_s = tri.log_row(m)
    j = np.arange(m + 1)
    with np.errstate(invalid="ignore"):
        log_pmf = math.lgamma(r) - math.lgamma(m + r) + log_s + j * math.log(r)
    log_pmf[0] = -np.inf  # |s(m,0)| = 0 for m >= 1
    return np.exp(log_pmf)


def sample_crt(m: int, r, rng: RandomSource) -> int:
    """Draw a CRT(m, r) table count as a sum of independent Bernoullis.

    l = sum_{n=1..m} Bernoulli(r / (n - 1 + r)); exact for any m, no
    Stirling table required.  m = 0 gives 0; m >= 1 gives at least 1.
    """
    m = int(m)
    if m < 0:
        raise ParameterError(f"m must be non-negative, got {m}")
    r = float(_validate_positive("r", r))
    if m == 0:
        return 0
    probs = r / (np.arange(m) + r)
    return int(np.count_nonzero(rng.generator.random(m) < probs))


def writable_as(array, shape: tuple[int, ...], dtype) -> bool:
    """True when ``array`` is a writable, C-contiguous ndarray of this shape and dtype."""
    return (
        isinstance(array, np.ndarray)
        and array.shape == shape
        and array.dtype == dtype
        and array.flags.c_contiguous
        and array.flags.writeable
    )


def sample_crt_array(m, r, rng: RandomSource, out=None) -> np.ndarray:
    """Elementwise CRT draws for an array of counts ``m`` and rates ``r``.

    ``r`` is broadcast against ``m``; it must be positive wherever
    m > 0 (cells with m = 0 yield 0 regardless of r, which lets gated
    models pass r = 0 for switched-off cells).  One uniform is drawn per
    Bernoulli trial, m.sum() in all, cell after cell in C order, and the
    compiled loop counts each cell's successes.  The uniforms are drawn
    for a run of rows of m (its cells, for a vector) at a time, about
    ``CRT_CHUNK_TRIALS`` trials or one row; the stream gives the same
    values as one draw of them all.  The tables are written into
    ``out`` when given, a writable C-contiguous int64 array of m's shape,
    and returned.
    """
    m = np.asarray(m)
    if not np.issubdtype(m.dtype, np.integer):
        raise ParameterError(f"m must be an integer array, got dtype {m.dtype}")
    if np.any(m < 0):
        raise ParameterError("m entries must be non-negative")
    r = np.broadcast_to(np.asarray(r, dtype=np.float64), m.shape)
    m = np.ascontiguousarray(m, dtype=np.int64)
    if out is None:
        out = np.empty(m.shape, dtype=np.int64)
    elif not writable_as(out, m.shape, np.int64):
        raise ParameterError(f"out must be a writable C-contiguous int64 array of shape {m.shape}")
    if not m.any():
        out.fill(0)
        return out
    cols = m.shape[-1] if m.ndim > 1 else 1
    m, r, tables = m.reshape(-1, cols), r.reshape(-1, cols), out.reshape(-1, cols)
    ends = np.cumsum(m.sum(axis=1))  # the trials up to the end of each row
    crt_tables = _kernels.library().crt_tables
    start, drawn = 0, 0
    while start < len(m):
        stop = max(start + 1, int(np.searchsorted(ends, drawn + CRT_CHUNK_TRIALS, side="right")))
        u = rng.generator.random(int(ends[stop - 1]) - drawn)
        if crt_tables(m[start:stop], r[start:stop], u, tables[start:stop]) >= 0:
            raise ParameterError("r must be positive and finite wherever m > 0")
        start, drawn = stop, int(ends[stop - 1])
    return out


def _validate_nb_params(r, p) -> tuple[np.ndarray, np.ndarray]:
    r = _validate_positive("r", r)
    p = np.asarray(p, dtype=np.float64)
    if p.size == 0 or not np.all(np.isfinite(p)) or np.any(p <= 0) or np.any(p >= 1):
        raise ParameterError(f"p must lie in the open unit interval, got {p!r}")
    return r, p


def sample_nb_direct(r, p, rng: RandomSource, size=None):
    """NB(r, p) draw via the gamma-Poisson mixture.

    m ~ Pois(lam), lam ~ Gamma(r, p/(1-p)); mean r p / (1 - p).
    """
    r, p = _validate_nb_params(r, p)
    lam = rng.generator.gamma(r, p / (1.0 - p), size=size)
    draws = rng.generator.poisson(lam)
    if size is None and np.ndim(draws) == 0:
        return int(draws)
    return draws


def sample_nb_compound(r, p, rng: RandomSource, size=None):
    """NB(r, p) draw via the compound-Poisson construction.

    m = sum of l iid Log(p) variates with l ~ Pois(-r ln(1-p));
    identical in distribution to :func:`sample_nb_direct`.
    """
    r, p = _validate_nb_params(r, p)
    if size is None:
        if r.ndim != 0 or p.ndim != 0:
            raise ParameterError("scalar parameters required when size is None")
        count = int(rng.generator.poisson(-float(r) * math.log1p(-float(p))))
        if count == 0:
            return 0
        return int(np.sum(sample_logarithmic(float(p), rng, size=count)))
    if p.ndim != 0:
        raise ParameterError("vectorized compound draws require scalar p")
    counts = rng.generator.poisson(np.broadcast_to(-r * math.log1p(-float(p)), (size,)))
    total = int(counts.sum())
    out = np.zeros(size, dtype=np.int64)
    if total == 0:
        return out
    increments = sample_logarithmic(float(p), rng, size=total)
    owner = np.repeat(np.arange(size), counts)
    out += np.bincount(owner, weights=increments, minlength=size).astype(np.int64)
    return out
