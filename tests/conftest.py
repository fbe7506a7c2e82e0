import time
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np
import pytest

from nsasym import spectral
from nsasym.cli import ExperimentConfig, ExperimentResult, run_experiment

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


class ShippedRuns:
    """``run_experiment`` on a shipped config, by file name, run at most once.

    ``seconds`` holds the wall time of each run.  Callers read the results
    and never change them.
    """

    def __init__(self):
        self._results = {}
        self.seconds = {}

    def __call__(self, name: str) -> ExperimentResult:
        if name not in self._results:
            start = time.monotonic()
            self._results[name] = run_experiment(ExperimentConfig.load(CONFIG_DIR / name))
            self.seconds[name] = time.monotonic() - start
        return self._results[name]


@pytest.fixture(scope="session")
def shipped():
    """The one cache of shipped-config runs for a test session."""
    return ShippedRuns()


class Transform(NamedTuple):
    """One recorded transform: "to_grid" (inverse) or "from_grid" (forward)
    with its physical grid (N1, N2, N3) and the number of rows it carries
    in, or a numpy FFT by its numpy name with grid and rows None."""

    name: str
    grid: Optional[tuple]
    rows: Optional[int] = None


def clear_spectral_caches():
    """Empty every cache of ``spectral``: layouts, weight maps, the extents
    of pairs of supports and call plans, so the next call plans from
    scratch."""
    for cache in (spectral._layout, spectral._weights, spectral._reach, spectral._plan):
        cache.cache_clear()


@pytest.fixture
def fft_calls(monkeypatch):
    """Record every 3-D transform of ``spectral``, in order, as a Transform.

    The transforms are the helper pair ``spectral._to_grid`` and
    ``spectral._from_grid``, each a few matrix products.  A numpy FFT called
    anywhere is recorded as well, under its numpy name with grid None, so a
    transform outside the pair cannot hide.  Every ``spectral`` cache starts
    empty, so the first call of each call plan also records the indicator
    transform pair that finds the plan's unreached modes.
    """
    clear_spectral_caches()
    calls = []

    def spy_numpy(name):
        inner = getattr(np.fft, name)

        def call(*args, **kwargs):
            calls.append(Transform(name, None))
            return inner(*args, **kwargs)
        return call

    def spy_helper(name, grid):
        inner = getattr(spectral, "_" + name)

        def call(matrices, array):
            out = inner(matrices, array)
            calls.append(Transform(name, grid(array, out), len(array)))
            return out
        return call

    for name in ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn"):
        monkeypatch.setattr(np.fft, name, spy_numpy(name))
    monkeypatch.setattr(spectral, "_to_grid", spy_helper("to_grid", lambda spec, phys: phys.shape[1:]))
    monkeypatch.setattr(spectral, "_from_grid", spy_helper("from_grid", lambda phys, half: phys.shape[1:]))
    return calls
