"""Shared fixtures."""

import numpy as np
import pytest

from ccflab import spectral


class FFTCall(str):
    """The name of one transform call, equal to the plain name, with the
    shape of its input and whether it wrote into a caller's ``out=`` array."""

    def __new__(cls, name, shape, out):
        call = super().__new__(cls, name)
        call.shape, call.out = shape, out
        return call


@pytest.fixture
def fft_calls(monkeypatch):
    """The calls of the transform kernel ``spectral.fft``/``ifft``/``rfft``/
    ``irfft`` made during a test, in order, as :class:`FFTCall` names: every
    transform of the package is one of them, and per-call overhead dominates
    at small N, so the call count is the cost model of a step.  The test
    references call ``np.fft`` and are not counted."""
    calls = []
    for name in ("fft", "ifft", "rfft", "irfft"):
        def counted(a, *args, _fn=getattr(spectral, name), **kwargs):
            calls.append(FFTCall(_fn.__name__, np.shape(a), kwargs.get("out") is not None))
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(spectral, name, counted)
    return calls
