import numpy as np
import pytest


@pytest.fixture
def fft_calls(monkeypatch):
    """Record every np.fft.irfftn and np.fft.rfftn call, in order, as
    (name, s) with s the requested grid size (None when not given)."""
    calls = []

    def spy_on(name):
        inner = getattr(np.fft, name)

        def call(*args, **kwargs):
            s = kwargs.get("s")
            calls.append((name, None if s is None else tuple(s)))
            return inner(*args, **kwargs)
        return call

    for name in ("irfftn", "rfftn"):
        monkeypatch.setattr(np.fft, name, spy_on(name))
    return calls
