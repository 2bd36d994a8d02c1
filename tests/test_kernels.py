"""The compiled library's build and cache, and its count loops against counts written out in numpy."""

import os
import platform
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nbproc import _kernels

SRC = Path(__file__).resolve().parent.parent / "src"


def test_library_compiles_without_warnings(tmp_path):
    flags = [*_kernels.CFLAGS, "-Wall", "-Wextra", "-Werror"]
    path = tmp_path / "_kernels.so"
    command = [*_kernels._compiler(), *flags, str(_kernels.SOURCE), "-o", str(path), "-lm"]
    out = subprocess.run(command, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


def _tokens(N=5000, K=23, V=40, seed=31):
    gen = np.random.default_rng(seed)
    return gen.integers(0, K, size=N), gen.integers(0, V, size=N), K, V


@pytest.mark.parametrize("first, last", [(0, 23), (0, 8), (8, 16), (16, 23), (5, 6), (7, 7), (22, 23)])
def test_count_topics_counts_the_tokens_of_its_topics(compiled_library, first, last):
    z, terms, _, V = _tokens()
    expected = np.zeros((last - first, V))
    mine = (z >= first) & (z < last)
    np.add.at(expected, (z[mine] - first, terms[mine]), 1.0)
    counts = np.zeros((last - first, V))
    compiled_library.count_topics(z, terms, first, last, counts)
    assert counts.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "start, stop, rows", [(0, 23, 8), (3, 20, 5), (0, 23, 23), (10, 11, 8), (22, 23, 1), (0, 23, 1)]
)
def test_gathered_cells_count_each_chunk_as_one_pass_does(compiled_library, start, stop, rows):
    z, terms, K, V = _tokens()
    sizes = np.bincount(z, minlength=K)[start:stop]
    starts = np.cumsum(sizes) - sizes
    mine = np.flatnonzero((z >= start) & (z < stop))
    expected = ((z[mine] - start) * V + terms[mine])[np.argsort(z[mine], kind="stable")]  # topic by topic, in token order
    cells, next = np.full(sizes.sum(), -1), starts.copy()
    compiled_library.gather_cells(z, terms, start, stop, V, next, cells)
    assert np.array_equal(cells, expected)
    assert np.array_equal(next, starts + sizes)  # each cursor ends past its topic
    edges = [*starts[::rows].tolist(), len(cells)]
    for index, first in enumerate(range(start, stop, rows)):
        last = min(first + rows, stop)
        counts, one_pass = np.zeros((last - first, V)), np.zeros((last - first, V))
        compiled_library.add_cells(cells[edges[index] : edges[index + 1]], (first - start) * V, counts)
        compiled_library.count_topics(z, terms, first, last, one_pass)
        assert counts.tobytes() == one_pass.tobytes()


DOCUMENT_OFFSETS = np.array([0, 0, 7, 1000, 1000, 4999, 5000])  # empty documents too


def test_count_documents_counts_each_document_s_topics(compiled_library):
    z, _, K, _ = _tokens()
    expected = np.array([np.bincount(z[a:b], minlength=K) for a, b in zip(DOCUMENT_OFFSETS, DOCUMENT_OFFSETS[1:])])
    counts = np.full((len(DOCUMENT_OFFSETS) - 1, K), -1)
    assert compiled_library.count_documents(z, DOCUMENT_OFFSETS, counts) == -1
    assert np.array_equal(counts, expected)


@pytest.mark.parametrize(
    "tokens, topics, first",
    [
        ([1500, 2000], [23, -1], 1500),
        ([0], [-1], 0),
        ([6, 7], [23, -1], 6),
        ([4999], [23], 4999),
        ([3000], [-(2**62)], 3000),
    ],
    ids=["two-bad-tokens", "first-token", "a-document-s-last-token", "last-token", "far-below-zero"],
)
def test_count_documents_names_the_first_token_off_the_topics(compiled_library, tokens, topics, first):
    z, _, K, _ = _tokens()
    assert K == 23
    z[tokens] = topics
    counts = np.full((len(DOCUMENT_OFFSETS) - 1, K), -1)
    assert compiled_library.count_documents(z, DOCUMENT_OFFSETS, counts) == first


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


def test_a_missing_compiler_is_named_in_the_error(source_copy, monkeypatch):
    monkeypatch.setattr(_kernels, "_compiler", lambda: ["nbproc-no-such-cc", "-pipe"])
    _kernels.library.cache_clear()
    expected = r"^cannot build nbproc's compiled loops with nbproc-no-such-cc -pipe: \[Errno 2\] "
    with pytest.raises(OSError, match=expected):
        _kernels.library()


def test_a_failed_build_is_not_cached(source_copy):
    text = source_copy.read_bytes()
    source_copy.write_bytes(b"this is not C\n")
    _kernels.library.cache_clear()
    with pytest.raises(OSError):
        _kernels.library()
    source_copy.write_bytes(text)
    assert _counts_documents(_kernels.library())  # the next call builds once more
    _kernels.library.cache_clear()


def test_a_failed_compile_is_named_with_the_compiler_s_stderr(source_copy):
    source_copy.write_bytes(b"this is not C\n")
    _kernels.library.cache_clear()
    with pytest.raises(OSError) as raised:
        _kernels.library()
    message = str(raised.value)
    assert message.startswith(f"cannot build nbproc's compiled loops with {shlex.join(_kernels._compiler())}: ")
    assert "error" in message.split(": ", 1)[1]  # the compiler's own diagnostic
