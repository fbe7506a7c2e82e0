"""Seeded workloads of the nsasym benchmark.

Each workload has a ``prepare(seed)`` that draws every input from the seed
and validates it (this is the set-up that ``setup_s`` times), and a
``run_pass(inputs, workdir)`` that performs one timed operation through the
public API and returns a :class:`PassOutcome`.  nsasym only ever receives
explicit inputs: config dicts whose forces are lists of ``modes``, and
spectral fields built from mode dicts.

Library functions are always looked up as module attributes at call time
(``cli.run_experiment``, ``lattice.closure``...), so the tracer in
``layers.py`` can wrap them from outside without touching the package.
"""

from __future__ import annotations

import math
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from nsasym import cli, expansion, lattice, verify
from nsasym.spectral import SpectralField
from nsasym.systems import ProductSystem, SqrtShiftSystem

# Correctness gates; compared against these fixed values only.
RESIDUAL_GATE = 1e-12      # recursion_residual on every lattice entry
ROUND_TRIP_GATE = 1e-10    # manufactured force -> recursion -> targets

GAMMA = math.sqrt(2.0) / 2.0


@dataclass
class PassOutcome:
    wall_s: float
    counters: dict                      # deterministic counts, compared across passes
    failures: list = field(default_factory=list)   # tripped gates, as messages
    report: bytes = b""                 # report.json of a Galerkin pass


def _lex_positive(k) -> bool:
    for x in k:
        if x:
            return x > 0
    return False


def _mode(k, amp, rng) -> dict:
    return {"k": list(k), "re": (amp * rng.standard_normal(3)).tolist(),
            "im": (amp * rng.standard_normal(3)).tolist()}


def _lattice_counters(lat) -> dict:
    return {"lattice.entries": len(lat),
            "lattice.origins": sum(len(e.origins) for e in lat.entries),
            "lattice.wedge_pairs": sum(len(lat.wedge_pairs(n)) for n in range(1, len(lat) + 1))}


# ---------------------------------------------------------------------------
# Galerkin workloads: ExperimentConfig.from_json -> run_experiment -> emit_report
# ---------------------------------------------------------------------------

def dense_config(seed: int, cutoff: int = 4) -> dict:
    """Power system with a force on every mode of the (2K+1)^3 box.

    The state is dense from the first step, so every rhs pays the full
    direct convolution.  Zero initial data relaxes within ~8 time units,
    after which the fit window sees the asymptotic t^-1 and t^-2 orders.
    """
    rng = np.random.default_rng(seed)
    modes = []
    axis = range(-cutoff, cutoff + 1)
    for k in ((a, b, c) for a in axis for b in axis for c in axis):
        if _lex_positive(k):
            size = math.sqrt(sum(x * x for x in k))
            modes.append(_mode(k, 0.2 * math.exp(-0.4 * size) / size ** 2, rng))
    return {
        "schema": 1,
        "system": {"kind": "power", "params": {}},
        "cutoff": cutoff,
        "lattice_cutoff": 4.5,
        "generators": [1.0],
        "force": {"type": "explicit",
                  "terms": [{"exponent": 1.0, "field": {"modes": modes}}]},
        "solver": {"t0": 40.0, "t1": 90.0, "tol": 1e-6, "sample_ratio": 1.08, "u0": "zero"},
        "verification": {"orders": [0, 1], "gevrey": [[0.0, 0.0]], "window": [48.0, 90.0]},
        "seed": seed,
    }


# The seed draws one phase per forced mode and nothing else.  (1,0,0) and
# (0,1,0) interact into every mode of the k3 = 0 plane (48 nonzero modes at
# K = 3), and a phase pair on two independent modes is a translation of
# the force, so every seed does the same work: same steps, same rhs calls.
_PLANAR_FORCE = {(1, 0, 0): (0.0, 0.05, 0.03), (0, 1, 0): (0.04, 0.0, 0.02)}


def planar_config(seed: int, cutoff: int = 3, t1: float = 1e7, window: tuple = (1000.0, 1e7),
                  sample_ratio: float = 1.15) -> dict:
    """Iterated-log (m = 1) system forced on two modes of the k3 = 0 plane."""
    rng = np.random.default_rng(seed)
    modes = []
    for k, amp in _PLANAR_FORCE.items():
        coeff = np.exp(2j * math.pi * rng.random()) * np.array(amp)
        modes.append({"k": list(k), "re": coeff.real.tolist(), "im": coeff.imag.tolist()})
    return {
        "schema": 1,
        "system": {"kind": "iterated_log",
                   "params": {"m": 1, "beta": 1.0, "q0": [[[1], 1.0]], "q1": [0.0, 1.0]}},
        "cutoff": cutoff,
        "lattice_cutoff": 3.5,
        "generators": [1.0],
        "force": {"type": "explicit",
                  "terms": [{"exponent": 1.0,
                             "field": {"modes": modes}}]},
        "solver": {"t0": 2.0, "t1": t1, "tol": 1e-7, "sample_ratio": sample_ratio,
                   "u0": "zero"},
        "verification": {"orders": [0, 1], "gevrey": [[0.0, 0.0], [0.5, 0.1]],
                         "window": list(window)},
        "seed": seed,
    }


def prepare_galerkin(config: dict) -> dict:
    cli.ExperimentConfig.from_json(config)  # validation is part of set-up
    return config


def galerkin_pass(config: dict, workdir: Path, wrap_system=None) -> PassOutcome:
    """The in-process ``nsasym run``: parse, run, write every artifact."""
    out = Path(tempfile.mkdtemp(dir=workdir))
    try:
        start = time.perf_counter()
        cfg = cli.ExperimentConfig.from_json(config)
        if wrap_system is not None:
            wrap_system(cfg.system)
        result = cli.run_experiment(cfg)
        paths = cli.emit_report(result, out)
        wall = time.perf_counter() - start
        report = (out / "report.json").read_bytes()
        report_bytes = sum(p.stat().st_size for p in paths)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    stats = result.trace.stats
    counters = {"solver.n_steps": stats["n_steps"], "solver.n_rejected": stats["n_rejected"],
                "solver.n_rhs": stats["n_rhs"],
                "verify.remainder_points": sum(len(s) for s in result.remainders.values()),
                "cli.report_bytes": report_bytes, **_lattice_counters(result.lattice)}
    failures = [f"check {c['case']}: {c['property']} measured={c['measured']} "
                f"expected={c['expected']}" for c in result.checks if not c["pass"]]
    if not result.checks:
        failures.append("run_experiment returned no checks")
    return PassOutcome(wall, counters, failures, report)


# ---------------------------------------------------------------------------
# expansion side: closure -> recursion -> residual audit -> manufactured round trip
# ---------------------------------------------------------------------------

# forced modes of the first and second generator of each lattice; the seed
# draws their amplitudes but never changes this support, because the
# direct B skips zero modes and a different support would change the work
_LATTICE_MODES = ([(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(1, 1, 0), (0, 1, 1), (1, 0, 1)])


@dataclass(frozen=True)
class LatticeCase:
    system: object
    generators: tuple
    cutoff: float
    forces: tuple        # one SpectralField per generator


def _force_field(rng, cutoff: int, modes) -> SpectralField:
    return SpectralField.from_modes(
        cutoff, {k: 0.05 * (rng.standard_normal(3) + 1j * rng.standard_normal(3)) for k in modes})


def prepare_lattice_cases(seed: int, cutoff: int = 3, product_cutoff: float = 6.5,
                          sqrt_cutoff: float = 8.0) -> list:
    """The discrete product lattice and the continuum sqrt_shift lattice,
    each forced on three low modes per generator with seeded amplitudes."""
    rng = np.random.default_rng(seed)
    product = ProductSystem(GAMMA)
    pgens = (product.exponent_from_pair(1, 1), product.exponent_from_pair(1, 2))
    sqrt_shift = SqrtShiftSystem()
    sgens = (sqrt_shift.exponent(1.0), sqrt_shift.exponent(1.5))
    return [LatticeCase(product, pgens, product_cutoff,
                        tuple(_force_field(rng, cutoff, m) for m in _LATTICE_MODES)),
            LatticeCase(sqrt_shift, sgens, sqrt_cutoff,
                        tuple(_force_field(rng, cutoff, m) for m in _LATTICE_MODES))]


def lattice_pass(cases: list, workdir: Path, wrap_system=None) -> PassOutcome:
    del workdir  # nothing is written
    counters: dict = {}
    failures = []
    start = time.perf_counter()
    for case in cases:
        sys_ = case.system
        if wrap_system is not None:
            wrap_system(sys_)
        lat = lattice.closure(sys_, case.generators, case.cutoff)
        force = expansion.normalize_force(list(zip(case.generators, case.forces)), lat)
        compute = (expansion.compute_coefficients_discrete if sys_.discrete
                   else expansion.compute_coefficients)
        coeffs = compute(force)
        worst = max(expansion.recursion_residual(coeffs, force, n)
                    for n in range(1, len(lat) + 1))
        if not worst <= RESIDUAL_GATE:
            failures.append(f"{sys_.kind}: recursion residual {worst:.3e} > {RESIDUAL_GATE:g}")
        # leading entries whose pairwise wedges all stay on the lattice
        lead = max(n for n in range(1, len(lat) + 1)
                   if 2.0 * lat.exponent(n).value <= case.cutoff)
        zero = SpectralField.zero(coeffs.cutoff)
        target = expansion.Expansion(
            lat, tuple(coeffs.field(n) if n <= lead else zero for n in range(1, len(lat) + 1)),
            coeffs.gevrey)
        manufactured = verify.manufacture_force(target, lead)
        back = compute(manufactured.expansion)
        scale = max(f.l2() for f in target.fields)
        trip = max((back.field(n) - target.field(n)).l2() / scale
                   for n in range(1, len(lat) + 1))
        if not trip <= ROUND_TRIP_GATE:
            failures.append(f"{sys_.kind}: round trip {trip:.3e} > {ROUND_TRIP_GATE:g}")
        for name, value in _lattice_counters(lat).items():
            counters[name] = counters.get(name, 0) + value
    return PassOutcome(time.perf_counter() - start, counters, failures)


@dataclass(frozen=True)
class Workload:
    prepare: object      # seed -> inputs
    run_pass: object     # (inputs, workdir, wrap_system=None) -> PassOutcome
    passes: int          # passes in a 30 s run; fixed, sized to ~30 s at the time of writing


WORKLOADS = {
    "galerkin_dense": Workload(lambda seed: prepare_galerkin(dense_config(seed)),
                               galerkin_pass, 3),
    "longhaul_planar": Workload(lambda seed: prepare_galerkin(planar_config(seed)),
                                galerkin_pass, 5),
    "lattice_coeffs": Workload(prepare_lattice_cases, lattice_pass, 7),
}
