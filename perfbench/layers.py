"""Per-layer tracing of nsasym from outside the package.

The tracer swaps module attributes of ``nsasym.cli``, ``lattice``,
``expansion`` and ``verify`` (and the ``eval`` method of the system
instance a pass uses) for wrappers that record one span per call: name,
start, end, parent span and the pass it belongs to.  Spans stay in memory
and are written out once the run ends.  A layer's time is the self time of
its spans: duration minus the part covered by child spans.

The solver's own advection call is private, so ``B`` inside the solver is
not a span; ``solver.n_rhs`` counts those calls instead.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from contextlib import contextmanager

import numpy as np

from nsasym import cli, expansion, lattice, spectral, verify

# (module, attribute, span name)
TRACED = [
    (cli, "run_experiment", "cli.run_experiment"),
    (cli, "emit_report", "cli.emit_report"),
    (cli, "closure", "lattice.closure"),
    (cli, "compute_coefficients", "expansion.recursion"),
    (cli, "compute_coefficients_discrete", "expansion.recursion"),
    (cli, "manufacture_force", "verify.manufacture"),
    (cli, "integrate_nse", "solver.integrate"),
    (cli, "energy_budget", "solver.energy_budget"),
    (cli, "remainder_series", "verify.remainder"),
    (cli, "fit_decay_order", "verify.fit"),
    (lattice, "closure", "lattice.closure"),
    (expansion, "compute_coefficients", "expansion.recursion"),
    (expansion, "compute_coefficients_discrete", "expansion.recursion"),
    (expansion, "recursion_residual", "expansion.residual"),
    (expansion, "bilinear_form", "spectral.B"),
    (verify, "manufacture_force", "verify.manufacture"),
    (verify, "bilinear_form", "spectral.B"),
]

# self time of these spans -> per-layer metric
SELF_TIMES = {
    "cli.run_experiment": "cli.run_experiment_s",
    "cli.emit_report": "cli.emit_report_s",
    "lattice.closure": "lattice.closure_s",
    "expansion.recursion": "expansion.recursion_s",
    "expansion.residual": "expansion.residual_s",
    "verify.manufacture": "verify.manufacture_s",
    "verify.remainder": "verify.remainder_s",
    "verify.fit": "verify.fit_s",
    "solver.integrate": "solver.integrate_s",
    "solver.energy_budget": "solver.energy_budget_s",
    "systems.eval": "systems.eval_s",
    "spectral.B": "spectral.B_s",
}

# B calls are charged to the nearest enclosing span of these kinds
B_CALLERS = {
    "expansion.recursion": "expansion.recursion_b_calls",
    "expansion.residual": "expansion.residual_b_calls",
    "verify.manufacture": "verify.manufacture_b_calls",
}

# (density, cutoff) -> timed samples of one bilinear_form call; K = 16 waits
# for a transform-based B (direct B takes ~20 s per call there)
MICRO_SAMPLES = {("dense", 2): 31, ("dense", 4): 15, ("dense", 8): 5,
                 ("planar", 2): 31, ("planar", 4): 21, ("planar", 8): 11}


class Tracer:
    """Collects spans; ``patched()`` installs the wrappers for one pass."""

    def __init__(self):
        self.spans: list = []     # [pass_id, span_id, parent_id, name, start, end]
        self._stack: list = []
        self.pass_id = 0

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [self.pass_id, len(self.spans), self._stack[-1] if self._stack else -1,
                    name, time.perf_counter(), None]
            self.spans.append(span)
            self._stack.append(span[1])
            try:
                return fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                self._stack.pop()
        return traced

    @contextmanager
    def patched(self, pass_id: int):
        """Install the wrappers for one pass and restore everything on exit.

        Yields a callback that wraps the ``eval`` method of a system
        instance the pass is about to use.
        """
        self.pass_id = pass_id
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in TRACED]
        systems = []

        def wrap_system(system):
            if "eval" not in vars(system):
                system.eval = self.wrap("systems.eval", system.eval)
                systems.append(system)

        try:
            for mod, attr, name in TRACED:
                setattr(mod, attr, self.wrap(name, getattr(mod, attr)))
            yield wrap_system
        finally:
            for mod, attr, original in saved:
                setattr(mod, attr, original)
            for system in systems:
                del system.eval

    def pass_metrics(self, pass_id: int) -> dict:
        """Self times (s) and span counts of one traced pass."""
        spans = [s for s in self.spans if s[0] == pass_id]
        by_id = {s[1]: s for s in spans}
        child_time = {s[1]: 0.0 for s in spans}
        for s in spans:
            if s[2] in child_time:
                child_time[s[2]] += s[5] - s[4]
        out = {metric: 0.0 for metric in SELF_TIMES.values()}
        out.update({metric: 0 for metric in B_CALLERS.values()})
        out["systems.eval_calls"] = 0
        for s in spans:
            metric = SELF_TIMES.get(s[3])
            if metric is not None:
                out[metric] += (s[5] - s[4]) - child_time[s[1]]
            if s[3] == "systems.eval":
                out["systems.eval_calls"] += 1
            elif s[3] == "spectral.B":
                parent = by_id.get(s[2])
                while parent is not None and parent[3] not in B_CALLERS:
                    parent = by_id.get(parent[2])
                if parent is not None:
                    out[B_CALLERS[parent[3]]] += 1
        return out

    def dump(self, path) -> None:
        keys = ("pass", "id", "parent", "name", "start", "end")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


def _planar(field: spectral.SpectralField) -> spectral.SpectralField:
    """The k3 = 0 slice of a field, which is again real and solenoidal."""
    K = field.cutoff
    arr = np.zeros_like(field.coeffs)
    arr[:, :, K] = field.coeffs[:, :, K]
    return spectral.leray_project(arr, K)


def micro_timings(seed: int) -> dict:
    """Median ms of one public ``bilinear_form`` call per (density, K), with
    its sample count: {(density, K): (median_ms, samples)}."""
    rng = np.random.default_rng(seed)
    out = {}
    for (density, K), samples in MICRO_SAMPLES.items():
        u = spectral.random_solenoidal_field(K, rng)
        v = spectral.random_solenoidal_field(K, rng)
        if density == "planar":
            u, v = _planar(u), _planar(v)
        times = []
        for _ in range(samples):
            start = time.perf_counter()
            spectral.bilinear_form(u, v)
            times.append(1e3 * (time.perf_counter() - start))
        out[(density, K)] = (statistics.median(times), samples)
    return out
