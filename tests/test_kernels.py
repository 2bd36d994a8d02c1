"""The compiled library's build and its topic-count loops against their numpy forms."""

import shlex
import shutil
import subprocess
import sysconfig

import numpy as np
import pytest

from nbproc import _kernels


def test_library_compiles_without_warnings(tmp_path):
    compiler = shlex.split(sysconfig.get_config_var("CC") or "cc")
    if shutil.which(compiler[0]) is None:
        pytest.skip("no C compiler")
    flags = [*_kernels.CFLAGS, "-Wall", "-Wextra", "-Werror"]
    path = tmp_path / "_kernels.so"
    out = subprocess.run([*compiler, *flags, str(_kernels.SOURCE), "-o", str(path), "-lm"], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


def _tokens(N=5000, K=23, V=40, seed=31):
    gen = np.random.default_rng(seed)
    return gen.integers(0, K, size=N), gen.integers(0, V, size=N), K, V


@pytest.mark.parametrize("first, last", [(0, 23), (0, 8), (8, 16), (16, 23), (5, 6), (7, 7)])
def test_count_topics_compiled_matches_numpy_reference(compiled_library, first, last):
    z, terms, _, V = _tokens()
    expected = np.zeros((last - first, V))
    mine = (z >= first) & (z < last)
    np.add.at(expected, (z[mine] - first, terms[mine]), 1.0)
    for loops in (_kernels.NUMPY, compiled_library):
        counts = np.zeros((last - first, V))
        loops.count_topics(z, terms, first, last, counts)
        assert counts.tobytes() == expected.tobytes()


@pytest.mark.parametrize("start, stop, rows", [(0, 23, 8), (3, 20, 5), (0, 23, 23), (10, 11, 8), (22, 23, 1)])
def test_gathered_cells_count_each_chunk_as_one_pass_does(compiled_library, start, stop, rows):
    z, terms, K, V = _tokens()
    sizes = np.bincount(z, minlength=K)[start:stop]
    starts = np.cumsum(sizes) - sizes
    mine = np.flatnonzero((z >= start) & (z < stop))
    expected = ((z[mine] - start) * V + terms[mine])[np.argsort(z[mine], kind="stable")]  # topic by topic, in token order
    for loops in (_kernels.NUMPY, compiled_library):
        cells, next = np.full(sizes.sum(), -1), starts.copy()
        loops.gather_cells(z, terms, start, stop, V, next, cells)
        assert np.array_equal(cells, expected)
        assert np.array_equal(next, starts + sizes)  # each cursor ends past its topic
        edges = [*starts[::rows].tolist(), len(cells)]
        for index, first in enumerate(range(start, stop, rows)):
            last = min(first + rows, stop)
            counts, one_pass = np.zeros((last - first, V)), np.zeros((last - first, V))
            loops.add_cells(cells[edges[index] : edges[index + 1]], (first - start) * V, counts)
            loops.count_topics(z, terms, first, last, one_pass)
            assert counts.tobytes() == one_pass.tobytes()
