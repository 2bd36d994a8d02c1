"""The compiled library's build and cache, and its count loops against their numpy forms."""

import os
import platform
import re
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest

from nbproc import _kernels

SRC = Path(__file__).resolve().parent.parent / "src"


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


def test_count_documents_compiled_matches_numpy_reference(compiled_library):
    z, _, K, _ = _tokens()
    offsets = np.array([0, 0, 7, 1000, 1000, 4999, 5000])  # empty documents too
    expected = np.array([np.bincount(z[a:b], minlength=K) for a, b in zip(offsets, offsets[1:])])
    for loops in (_kernels.NUMPY, compiled_library):
        counts = np.full((len(offsets) - 1, K), -1)
        assert loops.count_documents(z, offsets, counts) == -1
        assert np.array_equal(counts, expected)
        bad = z.copy()
        bad[[1500, 2000]] = K, -1
        assert loops.count_documents(bad, offsets, counts) == 1500  # the first token off [0, K)


# The library cache: each test points SOURCE at a copy of the source in a
# directory of its own, so it starts with no cached build.


@pytest.fixture
def source_copy(tmp_path, monkeypatch, compiled_library):
    source = tmp_path / "package" / "_kernels.c"
    source.parent.mkdir()
    shutil.copyfile(_kernels.SOURCE, source)
    monkeypatch.setattr(_kernels, "SOURCE", source)
    return source


def _compiler_calls(monkeypatch) -> list:
    calls, run = [], subprocess.run
    monkeypatch.setattr(subprocess, "run", lambda *args, **kwargs: calls.append(args[0]) or run(*args, **kwargs))
    return calls


def _cached_files(source) -> list:
    return sorted(path.name for path in (source.parent / "__pycache__").iterdir())


def _counts_documents(library) -> bool:
    counts = np.zeros((2, 3), dtype=np.int64)
    return library.count_documents(np.array([2, 0, 2]), np.array([0, 1, 3]), counts) == -1 and counts.tolist() == [
        [0, 0, 1],
        [1, 0, 1],
    ]


def test_another_process_loads_the_cached_library_without_the_compiler(source_copy):
    _kernels._build_library()
    (name,) = _cached_files(source_copy)
    assert re.fullmatch(rf"_kernels\.{re.escape(platform.machine())}\.[0-9a-f]{{64}}\.so", name)
    code = (
        "import pathlib, subprocess, sys; from nbproc import _kernels;"
        "subprocess.run = lambda *a, **k: sys.exit('the compiler ran');"
        f"_kernels.SOURCE = pathlib.Path({str(source_copy)!r});"
        "print(_kernels._build_library().count_documents is not None)"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (out.returncode, out.stdout.strip()) == (0, "True"), out.stderr
    assert _cached_files(source_copy) == [name]


def test_a_cached_file_that_does_not_load_is_rebuilt(tmp_path, source_copy, monkeypatch):
    _kernels._build_library()
    (name,) = _cached_files(source_copy)
    garbled = tmp_path / "garbled" / "_kernels.c"  # the same source, so the same name, in a new directory
    (garbled.parent / "__pycache__").mkdir(parents=True)
    shutil.copyfile(source_copy, garbled)
    (garbled.parent / "__pycache__" / name).write_bytes(b"not a library\n")
    monkeypatch.setattr(_kernels, "SOURCE", garbled)
    calls = _compiler_calls(monkeypatch)
    assert _counts_documents(_kernels._build_library())
    assert len(calls) == 1 and _cached_files(garbled) == [name]
    assert (garbled.parent / "__pycache__" / name).read_bytes()[:4] == b"\x7fELF"


def test_a_changed_source_or_flag_builds_a_new_file(source_copy, monkeypatch):
    _kernels._build_library()
    text = source_copy.read_bytes()
    source_copy.write_bytes(text.replace(b"compiled:", b"compiled;", 1))  # one byte of a comment
    _kernels._build_library()
    monkeypatch.setattr(_kernels, "CFLAGS", (*_kernels.CFLAGS, "-DNBPROC_UNUSED"))
    _kernels._build_library()
    assert len(_cached_files(source_copy)) == 3


def test_the_library_builds_where_no_cache_directory_can_be(source_copy):
    (source_copy.parent / "__pycache__").write_text("a file, not a directory\n")
    assert _counts_documents(_kernels._build_library())
    assert (source_copy.parent / "__pycache__").read_text() == "a file, not a directory\n"
