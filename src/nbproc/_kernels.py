"""The package's one compiled library and the numpy loops it replaces.

``_kernels.c`` holds the per-token loops of a sweep and of held-out
evaluation: topic assignment, the documents' topic counts, the topics'
token counts (one counting pass, or a pass that lists a row block's cells
topic by topic and a count of each chunk's), CRT table counts and the
held-out mass and log sums.  It is compiled with the C compiler Python was
built with into ``__pycache__/`` beside it, under a name that carries the
machine and a sha256 of the source, the flags and the compiler command,
so a process loads the library a past one built and compiles only when
the source, the flags or the compiler change.  It is loaded with
``ctypes``.  ``loops()`` returns its functions, or, where it cannot be
built, the numpy functions below after one warning.  Each numpy function
gives the same results as its compiled form bit for bit and is the tests'
reference for it; both take the same arguments, and the compiled ones
release the GIL.  The library also reads docword data lines
(``read_docword``), which has no numpy form: ``nbproc.corpus`` reads them
with ``np.loadtxt`` where the library is missing or declines a file.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import math
import os
import platform
import shlex
import subprocess
import sysconfig
import tempfile
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np

# The flags keep the library's arithmetic that of the numpy loops (see the
# build contract in _kernels.c).
SOURCE = Path(__file__).with_name("_kernels.c")
CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
# The numpy held-out loop takes its tokens in blocks of about this many
# token x topic products (512 kB), which stay in a core's L2 cache.
HELDOUT_BLOCK_CELLS = 2**16


def assign_topics(omega_t, lam, terms, offsets, u, z, counts) -> int:
    """Write each token's topic into ``z`` and each document's topic counts into ``counts``.

    Token i of document j with term v takes the number of topics k whose
    running sum of omega_t[v, :k+1] * lam[j, :k+1] lies below u[i] times
    the total, and row j of the documents x topics ``counts`` becomes the
    number of document j's tokens on each topic.  ``lam`` and ``counts``
    may be a run of documents' rows: ``offsets`` then holds that run's
    len(lam) + 1 entries, which index the whole ``terms``, ``u`` and ``z``.
    Returns -1, or the first document of the run whose totals are not all
    positive and finite.

    ``u`` may be ``z``'s own buffer viewed as float64: each document's
    uniforms are read before its topics are written, and a run of
    documents touches only its own tokens' entries.
    """
    K = lam.shape[1]
    for j in range(len(lam)):
        start, stop = offsets[j], offsets[j + 1]
        cum = omega_t[terms[start:stop]]  # tokens x topics
        cum *= lam[j]
        np.cumsum(cum, axis=1, out=cum)
        totals = cum[:, -1]
        if not np.all(np.isfinite(totals)) or not np.all(totals > 0):
            return j
        z[start:stop] = (cum < (u[start:stop] * totals)[:, None]).sum(axis=1)
        counts[j] = np.bincount(z[start:stop], minlength=K)
    return -1


def count_documents(z, offsets, counts) -> int:
    """Write into row j of ``counts`` the number of document j's tokens on each topic.

    Document j's topics are ``z[offsets[j]:offsets[j + 1]]``.  Returns -1,
    or the first token whose topic lies outside [0, K).
    """
    K = counts.shape[1]
    for j in range(len(counts)):
        topics = z[offsets[j] : offsets[j + 1]]
        bad = np.flatnonzero((topics < 0) | (topics >= K))
        if bad.size:
            return int(offsets[j] + bad[0])
        counts[j] = np.bincount(topics, minlength=K)
    return -1


def count_topics(z, terms, first, last, counts) -> None:
    """Add 1.0 to ``counts[k - first, v]`` for each token of topic k in [first, last) and term v.

    The counts stay exact integers, so they never depend on the order of
    the adds.
    """
    mine = (z >= first) & (z < last)
    np.add.at(counts.reshape(-1), (z[mine] - first) * counts.shape[1] + terms[mine], 1.0)


def gather_cells(z, terms, start, stop, V, next, cells) -> None:
    """List the cell (k - start) * V + v of each token of topic k in [start, stop) and term v, topic by topic.

    Topic k's cells go, in token order, from ``cells[next[k - start]]`` on,
    and ``next[k - start]`` ends past them.
    """
    mine = np.flatnonzero((z >= start) & (z < stop))
    topics = z[mine] - start
    for k in range(stop - start):
        ours = mine[topics == k]
        cells[next[k] : next[k] + len(ours)] = k * V + terms[ours]
        next[k] += len(ours)


def add_cells(cells, base, counts) -> None:
    """Add 1.0 to ``counts`` at each flat index ``cells - base``."""
    np.add.at(counts.reshape(-1), cells - base, 1.0)


def crt_tables(m, r, u, tables) -> int:
    """Write into ``tables`` the CRT(m, r) table count of every cell of ``m``.

    ``m`` is a C-contiguous int64 array of non-negative counts, ``r`` a
    float64 array broadcast to its shape, and ``u`` holds m.sum()
    uniforms: cell after cell in C order, each takes its next m of them,
    and its count is the number of k = 0..m-1 with u < r / (k + r).
    Returns -1, or the flat index of the first cell with m > 0 whose rate
    is not positive and finite.
    """
    mask = m > 0
    mv = m[mask]
    rv = r[mask]
    bad = ~(np.isfinite(rv) & (rv > 0))
    if bad.any():
        return int(np.flatnonzero(mask.reshape(-1))[np.argmax(bad)])
    cell = np.repeat(np.arange(mv.size), mv)
    pos = np.arange(len(u))
    pos -= np.repeat(np.cumsum(mv) - mv, mv)  # 0..m_i-1 within each cell
    r_rep = rv[cell]
    # r / (pos + r), computed in place: every per-trial array is as long as the
    # token count, so each temporary alive at once adds to the sweep's peak memory
    prob = pos + r_rep
    del pos
    np.divide(r_rep, prob, out=prob)
    del r_rep
    tables.fill(0)
    tables[mask] = np.bincount(cell, weights=u < prob, minlength=mv.size).astype(np.int64)
    return -1


def lane_sums(products: np.ndarray) -> np.ndarray:
    """Each row's sum in four lanes: lane l adds the columns k = l (mod 4) in
    increasing k, and the lanes are added as (l0 + l1) + (l2 + l3).

    The columns are added as contiguous rows of the transpose, four at a
    time, each lane's in increasing k.
    """
    K = products.shape[1]
    columns = np.ascontiguousarray(products.T)
    lanes = np.zeros((4, len(products)))
    lanes[: min(K, 4)] = columns[:4]
    for k in range(4, K, 4):
        lanes[: K - k] += columns[k : k + 4]
    return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])


def heldout_mass(omega_t, lam, terms, offsets, topic_mass, mass, totals) -> None:
    """Add each held-out token's mass and each document's total.

    Token i of document j with term v adds the lane sum of
    omega_t[v, k] * lam[j, k] to ``mass[i]``; document j adds the lane sum
    of lam[j, k] * topic_mass[k] to ``totals[j]``.  ``lam`` and ``totals``
    may be a run of documents, indexed as in ``assign_topics``.  Tokens are
    taken across documents in blocks of ``HELDOUT_BLOCK_CELLS`` products.
    """
    first, count = int(offsets[0]), int(offsets[-1] - offsets[0])
    docs = np.repeat(np.arange(len(lam)), np.diff(offsets))  # each token's row of lam
    step = max(1, HELDOUT_BLOCK_CELLS // lam.shape[1])
    for start in range(0, count, step):
        stop = min(start + step, count)
        products = omega_t[terms[first + start : first + stop]]
        products *= lam[docs[start:stop]]
        mass[first + start : first + stop] += lane_sums(products)
    totals += lane_sums(lam * topic_mass)


def heldout_log_sums(mass, totals, offsets, sums) -> int:
    """Write into ``sums[j]`` the token-order sum of log(mass[i] / totals[j])
    over document j's held-out tokens, 0 for a document with none.

    Runs of documents are indexed as in ``assign_topics``.  Returns -1, or
    the first document holding a ratio <= 0.
    """
    for j in range(len(totals)):
        total, log_sum = float(totals[j]), 0.0
        for value in mass[offsets[j] : offsets[j + 1]].tolist():
            ratio = value / total
            if ratio <= 0.0:
                return j
            log_sum += math.log(ratio)
        sums[j] = log_sum
    return -1


NUMPY = SimpleNamespace(
    assign_topics=assign_topics,
    count_documents=count_documents,
    count_topics=count_topics,
    gather_cells=gather_cells,
    add_cells=add_cells,
    crt_tables=crt_tables,
    heldout_mass=heldout_mass,
    heldout_log_sums=heldout_log_sums,
)


def _build_library() -> SimpleNamespace:
    """Load ``_kernels.c``'s library, compiling it where no cached build loads; its functions take the numpy loops' arguments."""
    compiler = shlex.split(sysconfig.get_config_var("CC") or "cc")
    source = SOURCE.read_bytes()
    key = hashlib.sha256(repr((source, CFLAGS, compiler)).encode()).hexdigest()
    cached = SOURCE.parent / "__pycache__" / f"_kernels.{platform.machine()}.{key}.so"
    try:
        library = ctypes.CDLL(str(cached))
    except OSError:  # not built yet, or a file that does not load: build it once more
        library = _compile(compiler, source, cached)
    doubles = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    integers = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
    size, address = ctypes.c_int64, ctypes.c_void_p

    def declare(name, restype, *argtypes):
        function = getattr(library, name)
        function.argtypes, function.restype = argtypes, restype
        return function

    assign_c = declare(
        "assign_topics", size, doubles, doubles, size, integers, integers, size, doubles, integers, integers, doubles
    )
    count_documents_c = declare("count_documents", size, integers, integers, size, size, integers)
    count_c = declare("count_topics", None, integers, integers, size, size, size, size, doubles)
    gather_c = declare("gather_cells", None, integers, integers, size, size, size, size, integers, integers)
    add_c = declare("add_cells", None, integers, size, size, doubles)
    crt_c = declare("crt_tables", size, integers, size, size, address, size, size, doubles, integers)
    mass_c = declare("heldout_mass", None, doubles, doubles, size, integers, integers, size, doubles, doubles, doubles)
    log_sums_c = declare("heldout_log_sums", size, doubles, doubles, integers, size, doubles)
    docword_c = declare("read_docword", size, ctypes.c_char_p, size, size, size, size, integers)

    def assign(omega_t, lam, terms, offsets, u, z, counts) -> int:
        K = omega_t.shape[1]
        return assign_c(omega_t, lam, K, terms, offsets, len(lam), u, z, counts, np.empty(4 * K))

    def count_docs(z, offsets, counts) -> int:
        return count_documents_c(z, offsets, *counts.shape, counts)

    def count(z, terms, first, last, counts) -> None:
        count_c(z, terms, len(z), first, last, counts.shape[1], counts)

    def gather(z, terms, start, stop, V, next, cells) -> None:
        gather_c(z, terms, len(z), start, stop, V, next, cells)

    def add(cells, base, counts) -> None:
        add_c(cells, len(cells), base, counts)

    def crt(m, r, u, tables) -> int:
        cols = m.shape[-1] if m.ndim else 1
        rows = m.size // cols if cols else 0
        r = r.reshape(rows, cols)  # a view of r's broadcast axes where numpy can make one
        r_row, r_col = (stride // r.itemsize for stride in r.strides)
        return crt_c(m, rows, cols, r.ctypes.data, r_row, r_col, u, tables)

    def heldout(omega_t, lam, terms, offsets, topic_mass, mass, totals) -> None:
        mass_c(omega_t, lam, omega_t.shape[1], terms, offsets, len(lam), topic_mass, mass, totals)

    def log_sums(mass, totals, offsets, sums) -> int:
        return log_sums_c(mass, totals, offsets, len(totals), sums)

    def docword(text: bytes, nnz: int, num_docs: int, vocab_size: int) -> np.ndarray | None:
        """The (nnz, 3) docID, wordID and count rows of the docword file ``text``, or None where
        it is not of the plainest form (see ``read_docword`` in ``_kernels.c``)."""
        if nnz > len(text) // 6:  # a data line takes at least six bytes
            return None
        rows = np.empty((nnz, 3), dtype=np.int64)
        return rows if docword_c(text, len(text), nnz, num_docs, vocab_size, rows) else None

    return SimpleNamespace(
        assign_topics=assign,
        count_documents=count_docs,
        count_topics=count,
        gather_cells=gather,
        add_cells=add,
        crt_tables=crt,
        heldout_mass=heldout,
        heldout_log_sums=log_sums,
        read_docword=docword,
    )


def _compile(compiler: list[str], source: bytes, cached: Path) -> ctypes.CDLL:
    """Compile ``source`` into the library file ``cached`` and load it.

    The build goes to a temporary directory beside ``cached`` and is then
    renamed into place, so a process never loads a half-written file.
    Where that directory cannot be made, the library is built in a
    temporary directory elsewhere and not kept.
    """
    try:
        cached.parent.mkdir(exist_ok=True)
        build = tempfile.TemporaryDirectory(dir=cached.parent, ignore_cleanup_errors=True)
    except OSError:
        build, cached = tempfile.TemporaryDirectory(ignore_cleanup_errors=True), None
    with build as directory:
        path = os.path.join(directory, "_kernels.so")
        command = [*compiler, *CFLAGS, "-x", "c", "-", "-o", path, "-lm"]  # the very bytes the key names
        subprocess.run(command, input=source, check=True, capture_output=True)
        if cached is None:
            return ctypes.CDLL(path)  # the loaded library outlives its file
        os.replace(path, cached)
    return ctypes.CDLL(str(cached))


@functools.cache
def library() -> SimpleNamespace | None:
    """The compiled library, or None, after one warning, where it cannot be built or loaded."""
    try:
        return _build_library()
    except (OSError, subprocess.CalledProcessError) as exc:
        reason = exc.stderr.decode(errors="replace").strip() if isinstance(exc, subprocess.CalledProcessError) else exc
        warnings.warn(
            f"nbproc: cannot build the compiled loops ({reason}); "
            "running the same loops in numpy, with the same results",
            RuntimeWarning,
            stacklevel=3,
        )
        return None


def loops() -> SimpleNamespace:
    """The compiled loops, or the numpy ones where the library cannot be built."""
    return library() or NUMPY
