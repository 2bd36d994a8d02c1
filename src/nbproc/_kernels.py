"""The package's one compiled library, which runs the per-token loops.

``_kernels.c`` holds the per-token loops of a sweep and of held-out
evaluation: topic assignment, the documents' topic counts, the topics'
token counts (one counting pass, or a pass that lists a row block's cells
topic by topic and a count of each chunk's), CRT table counts and the
held-out mass and log sums.  It is compiled with the C compiler Python was
built with (``sysconfig``'s ``CC``, else ``cc``) into ``__pycache__/``
beside it, under a name that carries the machine and a sha256 of the
source, the flags and the compiler command, so a process loads the
library a past one built and compiles only when the source, the flags or
the compiler change.  It is loaded with ``ctypes``, and its loops release
the GIL.  Where it cannot be built, ``library()`` raises an ``OSError``
that names the compiler command and its error: nbproc has no other way to
run these loops.  The library also reads docword data lines
(``read_docword``); ``nbproc.corpus`` reads a file it declines with
``np.loadtxt``.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import platform
import shlex
import subprocess
import sysconfig
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np

SOURCE = Path(__file__).with_name("_kernels.c")
CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")  # see the build contract in _kernels.c


def _compiler() -> list[str]:
    """The command of the C compiler Python was built with, else ``cc``."""
    return shlex.split(sysconfig.get_config_var("CC") or "cc")


def _build_library() -> SimpleNamespace:
    """Load ``_kernels.c``'s library, compiling it where no cached build loads, and declare its functions."""
    compiler = _compiler()
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
    crt_c = declare("crt_tables", size, integers, size, size, address, size, size, doubles, integers, size, size)
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

    def crt(m, r, u, tables, axis=None) -> int:
        """Add m's tables into ``tables``: one entry per cell, or, with ``axis``, a 2-D m's summed over it."""
        cols = m.shape[-1] if m.ndim else 1
        rows = m.size // cols if cols else 0
        r = r.reshape(rows, cols)  # a view of r's broadcast axes where numpy can make one
        r_row, r_col = (stride // r.itemsize for stride in r.strides)
        t_row, t_col = {None: (cols, 1), 0: (0, 1), 1: (1, 0)}[axis]
        if tables.size != {None: m.size, 0: cols, 1: rows}[axis]:  # the loop writes through these strides
            raise ValueError(f"tables has {tables.size} entries, not one per {'cell' if axis is None else 'sum'}")
        return crt_c(m, rows, cols, r.ctypes.data, r_row, r_col, u, tables, t_row, t_col)

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
def library() -> SimpleNamespace:
    """The compiled library; an ``OSError`` naming the compiler command where it cannot be built or loaded."""
    try:
        return _build_library()
    except (OSError, subprocess.CalledProcessError) as exc:
        reason = exc.stderr.decode(errors="replace").strip() if isinstance(exc, subprocess.CalledProcessError) else exc
        raise OSError(f"cannot build nbproc's compiled loops with {shlex.join(_compiler())}: {reason}") from exc
