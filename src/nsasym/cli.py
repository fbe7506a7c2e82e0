"""Experiment orchestration and command-line front end.

One JSON config describes a full experiment: decay system, generator
exponents, Galerkin cutoff, force (explicit coefficients or manufactured
from target coefficients), solver horizon and verification requests.  The
pipeline is lattice -> coefficients -> simulate -> verify; all artifacts
(report.json, lattice/coefficient dumps, per-N remainder CSVs, the trace
CSV) land in the output directory, and runs are bit-reproducible for a
fixed config and seed.

Configs are versioned and validated fail-closed: unknown keys are errors,
so archived experiment files keep meaning exactly what they meant.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

import numpy as np

from .expansion import (
    Expansion,
    ExpansionError,
    compute_coefficients,
    compute_coefficients_discrete,  # alias only: perfbench/layers.py TRACED patches it here
    evaluate_expansion,
    normalize_force,
)
from .lattice import ClosureError, ExponentLattice, closure
from .solver import ForceSpec, SimulationTrace, SolverError, energy_budget, integrate_nse
from .spectral import (
    GevreyIndex,
    SpectralField,
    SpectralRangeError,
    random_solenoidal_field,
    wave_vector,
)
from .systems import DecaySystem, DomainError, Exponent, system_from_json
from .verify import FitError, fit_decay_order, manufacture_force, remainder_series

__all__ = ["ConfigError", "ExperimentConfig", "ExperimentResult",
           "run_experiment", "emit_report", "main"]

SCHEMA_VERSION = 1
COEFF_FLOOR = 1e-13  # below this (relative) a coefficient counts as zero
# Most steps a horizon may demand at the least.  A step has h <= step_growth * t
# and ends at or before the next sample, so a run needs
# log(t1 / t0) / log(min(1 + step_growth, sample_ratio)) steps or more.  The
# shipped configs and the perfbench workloads need at most 201
# (criterion4_logarithmic and longhaul_planar); t1 = 1e300 from t0 = 5 needs
# 8,955 and would only stop at the solver's step budget, after more than a minute.
MAX_HORIZON_STEPS = 5_000


class ConfigError(ValueError):
    pass


def _integer(value) -> int:
    """value itself if it is an integer; JSON 2.5, "2" and true are not."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"needs an integer, got {value!r}")
    return value


_TOP_KEYS = {"schema", "system", "cutoff", "lattice_cutoff", "generators",
             "force", "solver", "verification", "seed"}
_SYSTEM_KEYS = {"kind", "params"}
_FORCE_KEYS = {"type", "terms"}
_TERM_KEYS = {"exponent", "field"}
_SOLVER_KEYS = {"t0", "t1", "tol", "sample_ratio", "step_growth", "u0"}
_VERIF_KEYS = {"orders", "gevrey", "window", "order_tolerance", "falsify"}
_FALSIFY_FIELDS = (("n", _integer, 0), ("relative", float, 0.01),
                   ("max_order_fraction", float, 0.7))
_FALSIFY_KEYS = {key for key, _, _ in _FALSIFY_FIELDS}
_FIELD_KEYS = {"modes", "random"}
_MODE_KEYS = {"k", "re", "im"}
_RANDOM_DEFAULTS = {"amplitude": 0.1, "radius": 0.4, "order": 2.0}


def _object(data, where: str) -> dict:
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be an object, got {data!r}")
    return data


def _reject_unknown(data: dict, allowed: set, where: str) -> None:
    unknown = set(_object(data, where)) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def _finite(value, where: str) -> None:
    """Reject NaN, +-inf and booleans anywhere under ``where``.

    json reads NaN, Infinity and overflowing literals such as 1e400 as
    floats that every later check either passes (100 * inf) or chokes on;
    no field is boolean, and true passes as the integer 1 (a cutoff of true
    indexes numpy arrays as a mask)."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{where} = {value} is not a finite number")
    if isinstance(value, bool):
        raise ConfigError(f"{where} = {json.dumps(value)} is a boolean; no config field takes one")
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        _finite(item, f"{where}[{key}]" if isinstance(key, int) else f"{where}.{key}")


def _read(where: str, parse):
    """parse(), with a missing or malformed value reported as a ConfigError
    naming the field ``where``."""
    try:
        return parse()
    except ConfigError:
        raise
    except KeyError:
        raise ConfigError(f"{where} is missing") from None
    except (IndexError, OverflowError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{where} is malformed: {exc}") from None


@dataclass(frozen=True)
class ExperimentConfig:
    raw: dict
    system: DecaySystem
    cutoff: int
    lattice_cutoff: float
    generators: list[Exponent]
    force_type: str
    force_terms: list          # [(Exponent, checked field spec)]
    t0: float
    t1: float
    tol: float
    sample_ratio: float
    step_growth: float
    u0_spec: object
    orders: list[int]
    gevrey: list[GevreyIndex]
    window: tuple[float, float]
    order_tolerance: float
    falsify: Optional[dict]
    seed: int

    @classmethod
    def from_json(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        _finite(data, "config")
        _reject_unknown(data, _TOP_KEYS, "config")
        if data.get("schema") != SCHEMA_VERSION:
            raise ConfigError(f"config schema must be {SCHEMA_VERSION}, "
                              f"got {data.get('schema')!r}")
        for key in ("system", "cutoff", "lattice_cutoff", "generators", "force", "solver"):
            if key not in data:
                raise ConfigError(f"config is missing required key {key!r}")
        _reject_unknown(data["system"], _SYSTEM_KEYS, "config.system")
        _object(data["system"].get("params", {}), "config.system.params")
        try:
            system = system_from_json(data["system"])
        except Exception as exc:
            raise ConfigError(f"config.system: {exc}") from exc
        cutoff = data["cutoff"]
        if not isinstance(cutoff, int) or not 1 <= cutoff <= 16:
            raise ConfigError("config.cutoff must be an integer in [1, 16]")
        lattice_cutoff = _read("config.lattice_cutoff", lambda: float(data["lattice_cutoff"]))
        if lattice_cutoff <= 0:
            raise ConfigError("config.lattice_cutoff must be positive")
        if not isinstance(data["generators"], list) or not data["generators"]:
            raise ConfigError("config.generators must be a nonempty list")
        generators = [_read(f"config.generators[{i}]", lambda: _exponent_spec(system, spec))
                      for i, spec in enumerate(data["generators"])]

        force = data["force"]
        _reject_unknown(force, _FORCE_KEYS, "config.force")
        ftype = force.get("type")
        if ftype not in ("explicit", "manufactured"):
            raise ConfigError("config.force.type must be 'explicit' or 'manufactured'")
        terms = force.get("terms")
        if not isinstance(terms, list) or not terms:
            raise ConfigError("config.force.terms must be a nonempty list")
        force_terms = []
        for i, term in enumerate(terms):
            _reject_unknown(term, _TERM_KEYS, f"config.force.terms[{i}]")
            if "exponent" not in term or "field" not in term:
                raise ConfigError(f"config.force.terms[{i}] needs 'exponent' and 'field'")
            exponent = _read(f"config.force.terms[{i}].exponent",
                             lambda: _exponent_spec(system, term["exponent"]))
            force_terms.append(
                (exponent, _field_spec(term["field"], cutoff, f"config.force.terms[{i}].field")))

        sol = data["solver"]
        _reject_unknown(sol, _SOLVER_KEYS, "config.solver")
        t0 = _read("config.solver.t0", lambda: float(sol["t0"]))
        t1 = _read("config.solver.t1", lambda: float(sol["t1"]))
        tol = _read("config.solver.tol", lambda: float(sol.get("tol", 1e-8)))
        if not (t1 > t0 and tol > 0):
            raise ConfigError("config.solver needs t1 > t0 and tol > 0")
        sample_ratio = _read("config.solver.sample_ratio",
                             lambda: float(sol.get("sample_ratio", 1.1)))
        if not sample_ratio > 1.0:
            raise ConfigError(f"config.solver.sample_ratio must exceed 1, got {sample_ratio!r}")
        step_growth = _read("config.solver.step_growth",
                            lambda: float(sol.get("step_growth", 0.08)))
        if not step_growth > 0.0:
            raise ConfigError(f"config.solver.step_growth must be positive, got {step_growth!r}")
        # a t0 <= 0 lies below every system's t_min and fails when the run starts
        least = (math.log(t1) - math.log(t0)) / min(math.log1p(step_growth),
                                                    math.log(sample_ratio)) if t0 > 0 else 0.0
        if least > MAX_HORIZON_STEPS:
            raise ConfigError(
                f"config.solver.t1 = {t1:g} is out of reach: from t0 = {t0:g} at step_growth "
                f"{step_growth} and sample_ratio {sample_ratio} the run needs at least "
                f"{least:,.0f} steps, more than {MAX_HORIZON_STEPS:,}")
        u0_spec = sol.get("u0", "expansion" if ftype == "manufactured" else "zero")
        if u0_spec not in ("zero", "expansion"):
            u0_spec = _field_spec(u0_spec, cutoff, "config.solver.u0")

        verif = data.get("verification", {})
        _reject_unknown(verif, _VERIF_KEYS, "config.verification")
        orders = verif.get("orders", [])
        if not isinstance(orders, list):
            raise ConfigError(f"config.verification.orders must be a list, got {orders!r}")
        orders = _read("config.verification.orders", lambda: [_integer(n) for n in orders])
        if any(n < 0 for n in orders):
            raise ConfigError("config.verification.orders must be nonnegative")
        gevrey = _read("config.verification.gevrey", lambda: [
            GevreyIndex(float(a), float(s)) for a, s in verif.get("gevrey", [[0.0, 0.0]])])
        if not gevrey:
            raise ConfigError("config.verification.gevrey must be a nonempty list")
        window = verif.get("window")
        window = (t0, t1) if window is None else _read(
            "config.verification.window", lambda: (float(window[0]), float(window[1])))
        if not window[0] < window[1]:
            raise ConfigError(f"config.verification.window must be increasing, got {list(window)}")
        order_tolerance = _read("config.verification.order_tolerance",
                                lambda: float(verif.get("order_tolerance", 0.1)))
        falsify_spec, falsify = verif.get("falsify"), None
        if falsify_spec is not None:
            _reject_unknown(falsify_spec, _FALSIFY_KEYS, "config.verification.falsify")
            falsify = {key: _read(f"config.verification.falsify.{key}",
                                  lambda: kind(falsify_spec.get(key, default)))
                       for key, kind, default in _FALSIFY_FIELDS}
            if falsify["n"] < 1:
                raise ConfigError("config.verification.falsify.n must be >= 1")
        seed = _read("config.seed", lambda: _integer(data.get("seed", 0)))
        if seed < 0:
            raise ConfigError(f"config.seed must be nonnegative, got {seed}")
        return cls(data, system, cutoff, lattice_cutoff, generators, ftype, force_terms,
                   t0, t1, tol, sample_ratio, step_growth, u0_spec,
                   orders, gevrey, window, order_tolerance, falsify, seed)

    @property
    def verifying(self) -> bool:
        """Whether the config asks for any check (remainder orders or falsify)."""
        return bool(self.orders) or self.falsify is not None

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


def _exponent_spec(sys: DecaySystem, spec):
    if isinstance(spec, dict):
        if set(spec) != {"pair"}:
            raise ConfigError(f"exponent spec {spec} not understood")
        (an, ad), (bn, bd) = spec["pair"]
        return sys.exponent((Fraction(an, ad), Fraction(bn, bd)))
    return sys.exponent(float(spec))


def _field_spec(spec, cutoff: int, where: str) -> tuple[str, dict]:
    """Checked field spec at ``where``: ("modes", {k: amplitude}) or
    ("random", keyword arguments of random_solenoidal_field)."""
    _reject_unknown(spec, _FIELD_KEYS, where)
    if len(spec) != 1:
        raise ConfigError(f"{where} needs exactly one of 'modes' and 'random'")
    if "random" in spec:
        params = spec["random"]
        _reject_unknown(params, set(_RANDOM_DEFAULTS), f"{where}.random")
        return "random", {key: _read(f"{where}.random.{key}",
                                     lambda: float(params.get(key, default)))
                          for key, default in _RANDOM_DEFAULTS.items()}
    if not isinstance(spec["modes"], list):
        raise ConfigError(f"{where}.modes must be a list, got {spec['modes']!r}")
    modes = {}
    for j, m in enumerate(spec["modes"]):
        at = f"{where}.modes[{j}]"
        _reject_unknown(m, _MODE_KEYS, at)
        k = _read(f"{at}.k", lambda: wave_vector(m["k"], cutoff))
        if not any(k):
            raise ConfigError(f"{at}.k = [0, 0, 0] is the mean mode, which the projection removes")
        if k in modes:
            raise ConfigError(f"{at}.k = {list(k)} repeats the wave vector of an earlier mode")
        if tuple(-x for x in k) in modes:
            raise ConfigError(f"{at}.k = {list(k)} mirrors an earlier mode; "
                              "list each conjugate pair once")
        re = _read(f"{at}.re", lambda: _amplitude(m["re"]))
        im = _read(f"{at}.im", lambda: _amplitude(m["im"]))
        modes[k] = re + 1j * im
    return "modes", modes


def _amplitude(spec) -> np.ndarray:
    got = np.array(spec, dtype=float)
    if got.shape != (3,):
        raise ValueError(f"needs 3 components, got {spec!r}")
    return got


def _make_field(spec: tuple[str, dict], cutoff: int, rng: np.random.Generator) -> SpectralField:
    kind, args = spec
    if kind == "random":
        return random_solenoidal_field(cutoff, rng, **args)
    # config-supplied coefficients pass through the projection, so hand
    # written modes need not be exactly solenoidal
    return SpectralField.from_modes(cutoff, args)


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    lattice: ExponentLattice
    coefficients: Expansion
    reference: Expansion      # expansion the remainders are measured against
    force: ForceSpec
    trace: SimulationTrace
    remainders: dict          # (N, label) -> list[(t, r)]
    checks: list[dict]

    @property
    def ok(self) -> bool:
        return all(c["pass"] for c in self.checks)

    def report_json(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "config": self.config.raw,
            "lattice_size": len(self.lattice),
            "pass": self.ok,
            "checks": self.checks,
        }


def _check(case, prop, expected, measured, passed) -> dict:
    return {"case": case, "property": prop,
            "expected": None if expected is None else float(expected),
            "measured": None if measured is None else float(measured),
            "pass": bool(passed)}


def _next_nonzero_exponent(exp: Expansion, N: int) -> Optional[float]:
    scale = max((f.l2() for f in exp.fields), default=0.0)
    for n in range(N + 1, len(exp) + 1):
        if exp.field(n).l2() > COEFF_FLOOR * scale:
            return exp.exponent(n).value
    return None


def _closure(cfg: ExperimentConfig) -> ExponentLattice:
    """Closure of the generators and force-term exponents."""
    return closure(cfg.system, cfg.generators + [e for e, _ in cfg.force_terms],
                   cfg.lattice_cutoff)


def _expand(cfg: ExperimentConfig, rng: np.random.Generator):
    """Lattice -> force -> coefficients, and the round-trip check of a
    manufactured force when the config verifies anything.

    Returns (lattice, coefficients, reference, force, checks); the reference
    is the expansion the remainders are measured against.
    """
    lat = _closure(cfg)
    raw_terms = [(exp, _make_field(fld, cfg.cutoff, rng)) for exp, fld in cfg.force_terms]
    for i, ((_, (kind, args)), (_, field)) in enumerate(zip(cfg.force_terms, raw_terms)):
        # gradient modes project to rounding residue of their amplitude, not to 0
        amplitudes = args.values() if kind == "modes" else ()
        if field.l2() <= COEFF_FLOOR * max((abs(x) for a in amplitudes for x in a), default=0.0):
            raise ConfigError(f"config.force.terms[{i}].field is zero after the Leray projection "
                              "(no mode whose re or im is off the direction of k)")
    checks: list[dict] = []

    if cfg.force_type == "manufactured":
        target = normalize_force(raw_terms, lat)
        n_terms = max(lat.index_of(e) for e, _ in raw_terms)
        force = manufacture_force(target, n_terms)
        coeffs = compute_coefficients(force.expansion)
        reference = target
        if cfg.verifying:
            # the recursion must reproduce the targets from the force expansion
            worst = 0.0
            scale = max(f.l2() for f in target.fields)
            for n in range(1, len(lat) + 1):
                worst = max(worst, (coeffs.field(n) - target.field(n)).l2() / scale)
            checks.append(_check("manufactured", "round_trip_residual", 1e-10, worst,
                                 worst <= 1e-10))
    else:
        force_exp = normalize_force(raw_terms, lat)
        force = ForceSpec(force_exp)
        coeffs = compute_coefficients(force_exp)
        reference = coeffs
    return lat, coeffs, reference, force, checks


def _simulate(cfg: ExperimentConfig, reference: Expansion, force: ForceSpec,
              rng: np.random.Generator) -> SimulationTrace:
    """The initial state and the Galerkin run from t0 to t1."""
    if cfg.u0_spec == "zero":
        u0 = SpectralField.zero(cfg.cutoff)
    elif cfg.u0_spec == "expansion":
        u0 = evaluate_expansion(reference, cfg.t0)
    else:
        u0 = _make_field(cfg.u0_spec, cfg.cutoff, rng)
    return integrate_nse(u0, force, cfg.t0, cfg.t1, cfg.tol,
                         sample_ratio=cfg.sample_ratio, step_growth=cfg.step_growth,
                         norm_indices=cfg.gevrey)


def _rng(cfg: ExperimentConfig, seed: Optional[int]) -> np.random.Generator:
    """The one generator of a run; the force fields draw from it before u0."""
    return np.random.default_rng(cfg.seed if seed is None else seed)


def run_experiment(cfg: ExperimentConfig, seed: Optional[int] = None) -> ExperimentResult:
    """Lattice -> coefficients -> simulate -> verify, no files written."""
    sys_ = cfg.system
    rng = _rng(cfg, seed)
    lat, coeffs, reference, force, checks = _expand(cfg, rng)
    trace = _simulate(cfg, reference, force, rng)

    remainders: dict = {}
    for N in cfg.orders:
        for idx in cfg.gevrey:
            series = remainder_series(trace, reference, N, idx)
            remainders[(N, idx.label())] = series
            case = f"remainder[N={N},{idx.label()}]"
            expected = _next_nonzero_exponent(reference, N)
            solution_scale = max(trace.norms[idx]) if idx in trace.norms else max(trace.l2)
            noise = 100.0 * cfg.tol * solution_scale
            if expected is None or max(r for _, r in series) <= noise:
                # manufactured-exact case: remainder must sit at the noise floor
                worst = max(r for _, r in series)
                checks.append(_check(case, "noise_floor", noise, worst, worst <= noise))
                continue
            fit = fit_decay_order(series, sys_, cfg.window)
            floor = expected * (1.0 - cfg.order_tolerance)
            checks.append(_check(case, "fitted_order_at_least", floor, fit.slope,
                                 fit.slope >= floor))

    if cfg.falsify is not None:
        n, rel, frac = (cfg.falsify[key] for key, _, _ in _FALSIFY_FIELDS)
        expected = _next_nonzero_exponent(reference, n)
        if expected is None:
            raise ConfigError(f"config.verification.falsify.n = {n}: "
                              "no nonzero coefficient beyond it")
        fields = list(reference.fields)
        fields[n - 1] = (1.0 + rel) * fields[n - 1]
        perturbed = Expansion(reference.lattice, tuple(fields), reference.gevrey)
        idx = cfg.gevrey[0]
        fit = fit_decay_order(remainder_series(trace, perturbed, n, idx), sys_, cfg.window)
        cap = frac * expected
        checks.append(_check(f"falsify[n={n}]", "perturbed_order_at_most",
                             cap, fit.slope, fit.slope <= cap))

    if cfg.verifying:
        for c in energy_budget(trace).checks:
            checks.append(_check("energy", c.name, c.measured.get("threshold"),
                                 next(iter(c.measured.values())), c.passed))

    return ExperimentResult(cfg, lat, coeffs, reference, force, trace, remainders, checks)


def _write_json(path: Path, payload) -> Path:
    """The one JSON artifact format: indented, sorted keys, final newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def emit_report(result: ExperimentResult, outdir) -> list[Path]:
    """Write report.json, dumps, remainder CSVs and the trace CSV."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    written = [_write_json(out / "report.json", result.report_json()),
               _write_json(out / "lattice.json", result.lattice.to_json()),
               _write_json(out / "coefficients.json", result.coefficients.to_json())]
    for (N, label), series in result.remainders.items():
        path = out / f"remainder_N{N}_{label}.csv"
        with open(path, "w") as fh:
            fh.write("t,r\n")
            for t, r in series:
                fh.write(f"{t:.17g},{r:.17g}\n")
        written.append(path)
    trace_path = out / "trace.csv"
    result.trace.to_csv(trace_path)
    written.append(trace_path)
    written.append(_write_json(out / "states.json", result.trace.states_json()))
    return written


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {seed}")
    return seed


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nsasym",
        description="Decay-system expansions and Galerkin runs for the "
                    "forced incompressible equations on the torus")
    sub = p.add_subparsers(dest="command", required=True)
    for name, desc in (
        ("lattice", "build and print the exponent lattice"),
        ("coeffs", "compute and print the expansion coefficients"),
        ("simulate", "run the solver and write the trace"),
        ("verify", "full pipeline, report only"),
        ("run", "full pipeline with all artifacts"),
    ):
        q = sub.add_parser(name, help=desc)
        q.add_argument("--config", required=True, help="experiment config JSON")
        q.add_argument("--out", default=None, help="output directory")
        q.add_argument("--seed", type=_seed, default=None, help="override the config seed")
    return p


# Failures of the computation itself (not of the config, not of a check):
# runaway or malformed closure, a thin fit window, a start time outside the
# system's domain, blow-up or step exhaustion, a short expansion, overflow.
_LIBRARY_ERRORS = (ClosureError, FitError, DomainError, SolverError, ExpansionError,
                   SpectralRangeError)


def main(argv=None) -> int:
    """Exit 0 when every check passes, 1 when a check fails, 2 on a config
    error and 3 when the library fails (_LIBRARY_ERRORS)."""
    args = _parser().parse_args(argv)
    try:
        cfg = ExperimentConfig.load(args.config)
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return _command(args, cfg)
    except ConfigError as exc:  # found only once the run starts, e.g. falsify.n
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except _LIBRARY_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def _print_json(payload, out: Optional[str], name: str) -> int:
    """Print a dump, and write it as ``name`` when an output directory is given."""
    if out:
        Path(out).mkdir(parents=True, exist_ok=True)
        _write_json(Path(out) / name, payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _command(args: argparse.Namespace, cfg: ExperimentConfig) -> int:
    if args.command == "lattice":
        return _print_json(_closure(cfg).to_json(), args.out, "lattice.json")

    if args.command in ("coeffs", "simulate"):
        rng = _rng(cfg, args.seed)
        _, coeffs, reference, force, _ = _expand(cfg, rng)
        if args.command == "coeffs":
            return _print_json(coeffs.to_json(), args.out, "coefficients.json")
        trace = _simulate(cfg, reference, force, rng)
        outdir = Path(args.out or "out")
        outdir.mkdir(parents=True, exist_ok=True)
        trace.to_csv(outdir / "trace.csv")
        _write_json(outdir / "states.json", trace.states_json())
        print(f"trace written to {outdir}")
        return 0

    result = run_experiment(cfg, seed=args.seed)
    outdir = Path(args.out or "out")
    outdir.mkdir(parents=True, exist_ok=True)
    if args.command == "run":
        emit_report(result, outdir)
    else:  # verify
        _write_json(outdir / "report.json", result.report_json())
    for c in result.checks:
        status = "PASS" if c["pass"] else "FAIL"
        print(f"{status} {c['case']}: {c['property']} measured={c['measured']} "
              f"expected={c['expected']}")
    return 0 if result.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
