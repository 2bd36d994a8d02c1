import pytest

from nbproc import _kernels


@pytest.fixture(scope="session")
def compiled_library():
    try:
        return _kernels._build_library()
    except FileNotFoundError:
        pytest.skip("no C compiler")


def _no_compiler():
    raise FileNotFoundError("cc")


@pytest.fixture(params=["compiled", "numpy"])
def library_path(request, monkeypatch):
    """Run the per-token loops compiled, or in numpy as on a platform where the library cannot be built."""
    if request.param == "compiled":
        library = request.getfixturevalue("compiled_library")
        monkeypatch.setattr(_kernels, "_build_library", lambda: library)
        _kernels.library.cache_clear()
    else:
        monkeypatch.setattr(_kernels, "_build_library", _no_compiler)
        _kernels.library.cache_clear()
        with pytest.warns(RuntimeWarning, match="running the same loops in numpy"):
            assert _kernels.library() is None
    yield request.param
    _kernels.library.cache_clear()
