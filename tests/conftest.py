import pytest

from nbproc import _kernels


@pytest.fixture(scope="session")
def compiled_library():
    return _kernels.library()
