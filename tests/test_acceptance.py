"""Acceptance suite: one test per exit criterion, one PASS/FAIL line each.

Run with ``pytest -v tests/test_acceptance.py`` (the verbose test names are
the per-criterion lines; with ``-s`` each criterion also prints a summary).
"""

import math
import time

import numpy as np
import pytest

from nsasym.expansion import (
    Expansion,
    compute_coefficients,
    evaluate_expansion,
    normalize_force,
    recursion_residual,
)
from nsasym.lattice import closure
from nsasym.solver import ForceSpec, energy_budget, integrate_nse
from nsasym.spectral import (
    GevreyIndex,
    SpectralField,
    gevrey_norm,
    random_solenoidal_field,
    trilinear_form,
)
from nsasym.systems import IteratedLogSystem, PowerSystem, ProductSystem, SqrtShiftSystem
from nsasym.verify import (
    check_bilinear_estimate,
    check_series_expansion,
    fit_decay_order,
    manufacture_force,
    remainder_series,
)

from oracles import bfs_closure

L2 = GevreyIndex(0.0, 0.0)


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"\n{'PASS' if passed else 'FAIL'} criterion {criterion}: {detail}")


def two_mode_field(cutoff, spec):
    return SpectralField.from_modes(cutoff, spec)


# -- shared expensive runs ---------------------------------------------------

@pytest.fixture(scope="module")
def manufactured_round_trip():
    """Criterion 1 setup: power system, 2 targets, K = 4, t in [5, 500]."""
    t_start = time.monotonic()
    lat = closure(PowerSystem(), [1.0, 2.0], 4.0)
    xi1 = two_mode_field(4, {
        (1, 0, 0): (0.0, 0.06, 0.02j), (0, 1, 0): (0.05, 0.0, 0.01 + 0.02j)})
    xi2 = two_mode_field(4, {(1, 1, 0): (0.03, -0.03, 0.01j)})
    zero = SpectralField.zero(4)
    target = Expansion(lat, (xi1, xi2, zero, zero), GevreyIndex(0.5, 0.0))
    force = manufacture_force(target, 2)
    back = compute_coefficients(force.expansion)
    tol = 1e-8
    trace = integrate_nse(evaluate_expansion(target, 5.0, 2), force, 5.0, 500.0, tol)
    elapsed = time.monotonic() - t_start
    return dict(lat=lat, target=target, force=force, back=back, trace=trace,
                tol=tol, elapsed=elapsed)


SINGLE_PAIR_K = (4, 2, 1)          # |k|^2 = 21: deep vee cascade, B identically 0
SINGLE_PAIR_AMP = (1.0, -2.0, 0.0)  # integer-exact perpendicular to k


@pytest.fixture(scope="module")
def power_single_term():
    """Criterion 2/3/5 setup: power system, one force term at lambda = 1."""
    lat = closure(PowerSystem(), [1.0], 4.5)
    phi1 = two_mode_field(4, {SINGLE_PAIR_K: tuple(0.1 * a for a in SINGLE_PAIR_AMP)})
    force_exp = normalize_force([(1.0, phi1)], lat)
    coeffs = compute_coefficients(force_exp)
    tol = 1e-10
    trace = integrate_nse(SpectralField.zero(4), ForceSpec(force_exp), 5.0, 500.0, tol)
    return dict(lat=lat, coeffs=coeffs, trace=trace, tol=tol, force_exp=force_exp)


@pytest.fixture(scope="module")
def power_single_term_random_start(power_single_term):
    """Criterion 5 companion run: same force, small random initial state."""
    u0 = random_solenoidal_field(4, np.random.default_rng(99))
    u0 = (0.01 / u0.l2()) * u0
    tol = power_single_term["tol"]
    trace = integrate_nse(u0, ForceSpec(power_single_term["force_exp"]),
                          5.0, 500.0, tol)
    return dict(trace=trace, tol=tol)


@pytest.fixture(scope="module")
def log_single_term():
    """Criterion 4 setup: omega = ln t, one force term, long horizon."""
    t_start = time.monotonic()
    sys = IteratedLogSystem(m=1, q0=[((1,), 1.0)], q1=[0.0, 1.0])
    lat = closure(sys, [1.0], 3.5)
    phi1 = two_mode_field(4, {
        (1, 0, 0): (0.0, 0.05, 0.03), (0, 1, 0): (0.04, 0.0, 0.02 + 0.01j)})
    force_exp = normalize_force([(1.0, phi1)], lat)
    coeffs = compute_coefficients(force_exp)
    tol = 1e-8
    trace = integrate_nse(SpectralField.zero(4), ForceSpec(force_exp), 2.0, 1.0e7, tol,
                          sample_ratio=1.15)
    elapsed = time.monotonic() - t_start
    return dict(sys=sys, lat=lat, coeffs=coeffs, trace=trace, tol=tol, elapsed=elapsed)


# -- criteria ----------------------------------------------------------------

def test_criterion_1_manufactured_round_trip(manufactured_round_trip):
    run = manufactured_round_trip
    scale = max(f.l2() for f in run["target"].fields)
    worst_coeff = max((run["back"].field(n) - run["target"].field(n)).l2() / scale
                      for n in range(1, len(run["lat"]) + 1))
    u_end = run["trace"].states[-1]
    exact_end = evaluate_expansion(run["target"], run["trace"].times[-1], 2)
    end_err = (u_end - exact_end).l2() / exact_end.l2()
    ok = worst_coeff <= 1e-10 and end_err <= 1e-6 and run["elapsed"] < 120.0
    report(1, ok, f"round trip {worst_coeff:.2e} (<=1e-10), endpoint {end_err:.2e} "
                  f"(<=1e-6), runtime {run['elapsed']:.0f}s (<120s)")
    assert worst_coeff <= 1e-10
    assert end_err <= 1e-6
    assert run["elapsed"] < 120.0


def test_criterion_2_first_order_remainders(power_single_term):
    run = power_single_term
    window = (50.0, 500.0)
    r1 = remainder_series(run["trace"], run["coeffs"], 1, L2)
    r0 = remainder_series(run["trace"], run["coeffs"], 0, L2)
    fit1 = fit_decay_order(r1, PowerSystem(), window)
    fit0 = fit_decay_order(r0, PowerSystem(), window)
    ok = fit1.slope >= 1.8 and fit0.slope >= 0.9
    report(2, ok, f"r1 order {fit1.slope:.3f} (>=1.8, target 2), "
                  f"r0 order {fit0.slope:.3f} (>=0.9)")
    assert fit1.slope >= 1.8
    assert fit0.slope >= 0.9


def test_criterion_3_coefficient_falsification(power_single_term):
    run = power_single_term
    window = (50.0, 500.0)
    coeffs = run["coeffs"]
    r2 = remainder_series(run["trace"], coeffs, 2, L2)
    fit_true = fit_decay_order(r2, PowerSystem(), window)
    fields = list(coeffs.fields)
    fields[1] = 1.01 * fields[1]
    perturbed = Expansion(coeffs.lattice, tuple(fields), coeffs.gevrey)
    r2p = remainder_series(run["trace"], perturbed, 2, L2)
    fit_pert = fit_decay_order(r2p, PowerSystem(), window)
    ok = fit_true.slope >= 2.7 and fit_pert.slope <= 2.1
    report(3, ok, f"true r2 order {fit_true.slope:.3f} (>=2.7), perturbed "
                  f"{fit_pert.slope:.3f} (<=2.1)")
    assert fit_true.slope >= 2.7
    assert fit_pert.slope <= 2.1


def test_criterion_4_logarithmic_decay(log_single_term):
    run = log_single_term
    assert run["coeffs"].field(2).l2() > 0  # quadratic interaction present
    r1 = remainder_series(run["trace"], run["coeffs"], 1, L2)
    fit = fit_decay_order(r1, run["sys"], (1.0e3, 1.0e7))
    ok = fit.slope >= 1.8 and run["elapsed"] < 300.0
    report(4, ok, f"r1 order vs log ln t {fit.slope:.3f} (>=1.8, target 2), "
                  f"runtime {run['elapsed']:.0f}s (<300s)")
    assert fit.slope >= 1.8
    assert run["elapsed"] < 300.0


def test_criterion_5_initial_data_independence(power_single_term,
                                               power_single_term_random_start):
    window = (50.0, 500.0)
    coeffs = power_single_term["coeffs"]
    fits = []
    for run in (power_single_term, power_single_term_random_start):
        r1 = remainder_series(run["trace"], coeffs, 1, L2)
        fits.append(fit_decay_order(r1, PowerSystem(), window).slope)
    diff = abs(fits[0] - fits[1])
    ok = diff <= 0.1
    report(5, ok, f"r1 orders {fits[0]:.4f} vs {fits[1]:.4f}, diff {diff:.2e} (<=0.1)")
    assert diff <= 0.1


def test_criterion_6_lattice_oracle():
    rng = np.random.default_rng(20260101)
    failures = 0
    for trial in range(20):
        cutoff = float(rng.uniform(4.0, 10.0))
        gens = sorted(set(np.round(rng.uniform(0.5, 3.5, size=rng.integers(1, 4)), 3)))
        if trial % 2 == 0:
            sys = PowerSystem()

            def vee_vals(x, _c=cutoff):
                return [x + 1.0] if x + 1.0 <= _c else []
        else:
            sys = SqrtShiftSystem()

            def vee_vals(x, _c=cutoff):
                out, k = [], 1
                while x + 1.0 + k <= _c:
                    out.append(x + 1.0 + k)
                    k += 1
                return out
        want = bfs_closure(vee_vals, lambda a, b: a + b, gens, cutoff)
        got = closure(sys, gens, cutoff).values()
        same = len(got) == len(want) and all(
            abs(a - b) <= 1e-9 for a, b in zip(got, want))
        failures += 0 if same else 1
    report(6, failures == 0, f"20 random closures vs BFS oracle, {failures} mismatches")
    assert failures == 0


def test_criterion_7_spectral_invariants(manufactured_round_trip, power_single_term,
                                         power_single_term_random_start, log_single_term):
    runs = [manufactured_round_trip, power_single_term,
            power_single_term_random_start, log_single_term]
    worst_identity = worst_b = 0.0
    energy_ok = True
    for run in runs:
        rep = energy_budget(run["trace"])
        identity = rep["energy_identity"]
        energy_ok &= identity.passed
        worst_identity = max(worst_identity,
                             identity.measured["max_rel_residual"] / (100 * run["tol"]))
        worst_b = max(worst_b, run["trace"].stats["max_b_orthogonality"])
    rng = np.random.default_rng(5150)
    tri_ok = True
    for _ in range(10):
        u = random_solenoidal_field(4, rng)
        scale = gevrey_norm(u, GevreyIndex(0.5, 0.0)) ** 3
        tri_ok &= abs(trilinear_form(u, u, u)) <= 1e-12 * scale
    bil = check_bilinear_estimate(ensemble=100, cutoffs=(4, 8),
                                  indices=((0.5, 0.0), (1.0, 0.1)), seed=31)
    ok = energy_ok and worst_b <= 1e-12 and tri_ok and bil.ok
    growth = {f"a{a:g}s{s:g}": f"{g:.3f}" for (a, s), g in bil.growth.items()}
    report(7, ok, f"energy identity margin {worst_identity:.2f} of budget, "
                  f"b(u,u,u) max {worst_b:.1e} (<=1e-12), sup-ratio growth {growth} (<=1.1)")
    assert energy_ok
    assert worst_b <= 1e-12
    assert tri_ok
    assert bil.ok, bil.checks


def test_criterion_8_series_tail_bounds():
    # scalar geometric series sum (-1/2)^n t^-n
    n_terms = 60
    lambdas = list(range(1, n_terms + 1))
    xi = [0.5 ** n for n in lambdas]
    grid = np.geomspace(2.0, 1.0e4, 50)
    rep = check_series_expansion(xi, lambdas, kappa=0.5, M=2.0, c0=1.0,
                                 sys=PowerSystem(), series_sum=1.0,
                                 t_grid=grid, N_list=[0, 1, 2, 4])
    scalar_ok = rep.ok
    worst_scalar = 0.0
    for N, C_N in rep.tail_constants.items():
        for t in grid:
            true_tail = abs(sum((-0.5) ** n * t ** (-n) for n in lambdas[N:]))
            worst_scalar = max(worst_scalar, true_tail / (C_N * t ** (-(N + 1))))
    # field-valued series at K = 2
    rng = np.random.default_rng(808)
    kappa = 0.4
    fields = []
    for n in lambdas[:25]:
        f = random_solenoidal_field(2, rng)
        fields.append((kappa ** n / f.l2()) * f)
    norms = [f.l2() for f in fields]
    grid_f = np.geomspace(3.0, 1.0e4, 50)
    rep_f = check_series_expansion(norms, lambdas[:25], kappa=kappa, M=2.0, c0=1.0,
                                   sys=PowerSystem(), t_grid=grid_f, N_list=[0, 2])
    field_ok = rep_f.ok
    worst_field = 0.0
    for N, C_N in rep_f.tail_constants.items():
        for t in grid_f:
            if t < rep_f.T1:
                continue
            tail = SpectralField.zero(2)
            for n, f in zip(lambdas[N:25], fields[N:]):
                tail = tail + t ** (-n) * f
            worst_field = max(worst_field, tail.l2() / (C_N * t ** (-(N + 1))))
    ok = scalar_ok and field_ok and worst_scalar <= 1.0 and worst_field <= 1.0
    report(8, ok, f"scalar tail fill {worst_scalar:.3f}, field tail fill "
                  f"{worst_field:.3f} (both <=1, lemma constants, no slack)")
    assert scalar_ok, rep.checks
    assert field_ok, rep_f.checks
    assert worst_scalar <= 1.0
    assert worst_field <= 1.0


def test_criterion_9_discrete_background_recursion():
    gamma = math.sqrt(2.0) / 2.0
    sys = ProductSystem(gamma)
    lat = closure(sys, [sys.exponent_from_pair(1, 1)], 3.2)
    assert len(lat) >= 6
    rng = np.random.default_rng(606)
    phi1 = random_solenoidal_field(2, rng, amplitude=0.2)
    phi3 = random_solenoidal_field(2, rng, amplitude=0.05)
    force = normalize_force(
        [(sys.exponent_from_pair(1, 1), phi1), (lat.exponent(3), phi3)], lat)
    xi = compute_coefficients(force)
    worst_resid = max(recursion_residual(xi, force, n) for n in range(1, 7))
    # exhaustive pair-scan oracle for the vee weights c_{p,n}
    pairs = [e.exponent.pair for e in lat.entries]
    weight_mismatch = 0.0
    for n in range(2, 7):
        A, B = pairs[n - 1]
        weights = {}
        for (p, k) in lat.vee_sources(n):
            term = sys.vee(lat.exponent(p), lat.cutoff)[k - 1]
            weights[p] = weights.get(p, 0.0) + term.coeff
        oracle = {}
        for p in range(1, n):
            a, b = pairs[p - 1]
            acc = 0.0
            if a + 1 == A and B - b >= 1:
                acc -= gamma * float(a)
            if b + 1 == B and A - a >= 1:
                acc -= (1 - gamma) * float(b)
            if acc:
                oracle[p] = acc
        if set(weights) != set(oracle):
            weight_mismatch = math.inf
        else:
            for p in weights:
                weight_mismatch = max(weight_mismatch, abs(weights[p] - oracle[p]))
    ok = worst_resid <= 1e-12 and weight_mismatch <= 1e-12
    report(9, ok, f"defining-equation residual {worst_resid:.2e} (<=1e-12) for n<=6, "
                  f"vee-weight oracle mismatch {weight_mismatch:.2e}")
    assert worst_resid <= 1e-12
    assert weight_mismatch <= 1e-12
