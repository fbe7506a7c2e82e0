from typing import NamedTuple, Optional

import numpy as np
import pytest

from nsasym import spectral


class Transform(NamedTuple):
    """One recorded transform: "irfftn" or "rfftn", its physical grid
    (N1, N2, N3) and the axes of the 1-D passes it made, in order."""

    name: str
    grid: Optional[tuple]
    passes: tuple


@pytest.fixture
def fft_calls(monkeypatch):
    """Record every 3-D transform of ``spectral``, in order, as a Transform.

    The transforms go through the helper pair ``spectral._irfftn`` and
    ``spectral._rfftn``, whose 1-D numpy passes are recorded with them.  A
    numpy transform called anywhere else is recorded as well, under its
    numpy name with grid None, so a transform outside the pair cannot hide.
    """
    calls, open_passes = [], []

    def spy_numpy(name):
        inner = getattr(np.fft, name)

        def call(*args, **kwargs):
            if open_passes:
                open_passes[-1].append(kwargs.get("axis", -1))
            else:
                calls.append(Transform(name, None, ()))
            return inner(*args, **kwargs)
        return call

    def spy_helper(name, grid):
        inner = getattr(spectral, "_" + name)

        def call(*args):
            open_passes.append([])
            try:
                out = inner(*args)
            finally:
                passes = tuple(open_passes.pop())
            calls.append(Transform(name, grid(*args), passes))
            return out
        return call

    for name in ("fft", "ifft", "rfft", "irfft", "rfftn", "irfftn"):
        monkeypatch.setattr(np.fft, name, spy_numpy(name))
    monkeypatch.setattr(spectral, "_irfftn", spy_helper("irfftn", lambda spec, sizes: tuple(sizes)))
    monkeypatch.setattr(spectral, "_rfftn", spy_helper("rfftn", lambda phys: phys.shape[1:]))
    return calls
