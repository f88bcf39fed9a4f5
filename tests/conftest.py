import tracemalloc

import pytest

from qharmonics import _kernels


@pytest.fixture
def dft_calls(monkeypatch):
    """The list of blocks that ran the FFT path, one entry each."""
    calls = []
    dft = _kernels._dft
    monkeypatch.setattr(_kernels, "_dft", lambda *a: calls.append(1) or dft(*a))
    return calls


@pytest.fixture
def traced_peak():
    """``traced_peak(call)``: ``call()``'s result and its peak traced
    allocation in bytes (tracemalloc, started and stopped around the call)."""
    def run(call):
        tracemalloc.start()
        try:
            result = call()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return run
