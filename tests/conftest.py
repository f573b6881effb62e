"""Shared fixtures."""

import numpy as np
import pytest


class FFTCall(str):
    """The name of one transform call, equal to the plain name, with the
    shape of its input and whether it wrote into a caller's ``out=`` array."""

    def __new__(cls, name, shape, out):
        call = super().__new__(cls, name)
        call.shape, call.out = shape, out
        return call


@pytest.fixture
def fft_calls(monkeypatch):
    """The ``np.fft.fft``/``ifft``/``rfft``/``irfft`` calls made during a
    test, in order, as :class:`FFTCall` names: per-call overhead dominates at
    small N, so the call count is the cost model of a step."""
    calls = []
    for name in ("fft", "ifft", "rfft", "irfft"):
        def counted(a, *args, _fn=getattr(np.fft, name), **kwargs):
            calls.append(FFTCall(_fn.__name__, np.shape(a), kwargs.get("out") is not None))
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    return calls
