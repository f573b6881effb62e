"""Shared fixtures."""

import numpy as np
import pytest


@pytest.fixture
def fft_calls(monkeypatch):
    """Names of the ``np.fft.fft``/``ifft``/``rfft``/``irfft`` calls made
    during a test, in order: per-call overhead dominates at small N, so the
    call count is the cost model of a step."""
    calls = []
    for name in ("fft", "ifft", "rfft", "irfft"):
        def counted(*args, _fn=getattr(np.fft, name), **kwargs):
            calls.append(_fn.__name__)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    return calls
