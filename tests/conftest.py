import pytest

from qharmonics import _kernels


@pytest.fixture
def dft_calls(monkeypatch):
    """The list of blocks that ran the FFT path, one entry each."""
    calls = []
    dft = _kernels._dft
    monkeypatch.setattr(_kernels, "_dft", lambda *a: calls.append(1) or dft(*a))
    return calls
