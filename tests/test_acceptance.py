"""Acceptance suite: one test per exit criterion, one PASS/FAIL line each.

Run with ``pytest -v tests/test_acceptance.py`` (the verbose test names are
the per-criterion lines; with ``-s`` each criterion also prints a summary).

Criteria 1-5 and 7 read the runs of the shipped ``configs/criterion*.json``
from the session cache (``shipped`` in conftest.py): each criterion asserts
on the check rows that ``nsasym verify`` prints for its config, so the
contract and the command line share one definition of each experiment.
"""

import math

import numpy as np
import pytest

from nsasym.expansion import (
    compute_coefficients,
    evaluate_expansion,
    normalize_force,
    recursion_residual,
)
from nsasym.lattice import closure
from nsasym.spectral import (
    GevreyIndex,
    SpectralField,
    gevrey_norm,
    random_solenoidal_field,
    trilinear_form,
)
from nsasym.systems import PowerSystem, ProductSystem, SqrtShiftSystem
from nsasym.verify import check_bilinear_estimate, check_series_expansion

from oracles import bfs_closure

ROUND_TRIP = "criterion1_round_trip.json"
FIRST_ORDERS = "criterion2_first_orders.json"      # criterion 3's falsify row as well
LOGARITHMIC = "criterion4_logarithmic.json"
RANDOM_START = "criterion5_random_start.json"      # FIRST_ORDERS' force from a random state


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"\n{'PASS' if passed else 'FAIL'} criterion {criterion}: {detail}")


def row(result, case: str, prop: str) -> dict:
    """The one check row of ``result`` with this case and property."""
    (found,) = [c for c in result.checks if c["case"] == case and c["property"] == prop]
    return found


def order_row(result, N: int) -> dict:
    """The fitted-order row of remainder N in the L2 norm."""
    return row(result, f"remainder[N={N},a0_s0]", "fitted_order_at_least")


# -- criteria ----------------------------------------------------------------

def test_criterion_1_manufactured_round_trip(shipped):
    result = shipped(ROUND_TRIP)
    worst_coeff = row(result, "manufactured", "round_trip_residual")["measured"]
    t_end, u_end = result.trace.times[-1], result.trace.states[-1]
    exact_end = evaluate_expansion(result.reference, t_end, 2)
    end_err = (u_end - exact_end).l2() / exact_end.l2()
    seconds = shipped.seconds[ROUND_TRIP]
    ok = worst_coeff <= 1e-10 and end_err <= 1e-6 and seconds < 120.0
    report(1, ok, f"round trip {worst_coeff:.2e} (<=1e-10), endpoint {end_err:.2e} "
                  f"(<=1e-6), runtime {seconds:.0f}s (<120s)")
    assert worst_coeff <= 1e-10
    assert end_err <= 1e-6
    assert seconds < 120.0


def test_criterion_2_first_order_remainders(shipped):
    result = shipped(FIRST_ORDERS)
    r1, r0 = order_row(result, 1), order_row(result, 0)
    ok = r1["measured"] >= 1.8 and r0["measured"] >= 0.9
    report(2, ok, f"r1 order {r1['measured']:.3f} (>=1.8, target 2), "
                  f"r0 order {r0['measured']:.3f} (>=0.9)")
    assert (r1["expected"], r0["expected"]) == pytest.approx((1.8, 0.9))
    assert r1["measured"] >= 1.8
    assert r0["measured"] >= 0.9


def test_criterion_3_coefficient_falsification(shipped):
    result = shipped(FIRST_ORDERS)
    true = order_row(result, 2)
    perturbed = row(result, "falsify[n=2]", "perturbed_order_at_most")
    ok = true["measured"] >= 2.7 and perturbed["measured"] <= 2.1
    report(3, ok, f"true r2 order {true['measured']:.3f} (>=2.7), perturbed "
                  f"{perturbed['measured']:.3f} (<=2.1)")
    assert (true["expected"], perturbed["expected"]) == pytest.approx((2.7, 2.1))
    # the gate itself is 2.1, not 0.7 * 3 = 2.0999999999999996
    assert perturbed["expected"] == 2.1
    assert true["measured"] >= 2.7
    assert perturbed["measured"] <= 2.1


def test_criterion_4_logarithmic_decay(shipped):
    result = shipped(LOGARITHMIC)
    assert result.coefficients.field(2).l2() > 0  # quadratic interaction present
    r1 = order_row(result, 1)
    seconds = shipped.seconds[LOGARITHMIC]
    ok = r1["measured"] >= 1.8 and seconds < 300.0
    report(4, ok, f"r1 order vs log ln t {r1['measured']:.3f} (>=1.8, target 2), "
                  f"runtime {seconds:.0f}s (<300s)")
    assert r1["expected"] == pytest.approx(1.8)
    assert r1["measured"] >= 1.8
    assert seconds < 300.0


def test_criterion_5_initial_data_independence(shipped):
    runs = [shipped(FIRST_ORDERS), shipped(RANDOM_START)]
    assert runs[0].trace.states[0].l2() == 0.0 < runs[1].trace.states[0].l2()
    fits = [order_row(result, 1)["measured"] for result in runs]
    diff = abs(fits[0] - fits[1])
    # the paper's statement itself: the two solutions approach each other,
    # |u_a - u_b| falling like e^(-(t - t0)) (the first Stokes eigenvalue is
    # 1) until it meets the runs' rounding floor, and staying at that floor,
    # within the energy gate's 100 tol of |u_a|, after it
    a, b = (result.trace for result in runs)
    assert np.array_equal(a.times, b.times)
    gap = np.array([(x - y).l2() for x, y in zip(a.states[1:], b.states[1:])])
    rel = gap / np.array([x.l2() for x in a.states[1:]])
    window = int(np.argmax(rel <= 1e-12)) if np.any(rel <= 1e-12) else len(rel)
    rate = -np.polyfit(a.times[1:window + 1], np.log(gap[:window]), 1)[0]
    floor = float(rel[window:].max(initial=0.0))
    tol = a.stats["tol"]
    ok = diff <= 0.1 and rate >= 0.9 and floor <= 100 * tol
    report(5, ok, f"r1 orders {fits[0]:.4f} vs {fits[1]:.4f}, diff {diff:.2e} (<=0.1); "
                  f"|u_a - u_b| rate {rate:.4f} (>=0.9) over t in "
                  f"[{a.times[1]:g}, {a.times[window]:g}], then <= {floor:.1e} |u_a| (<=100 tol)")
    assert diff <= 0.1
    assert window >= 2 and rate >= 0.9
    assert floor <= 100 * tol


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


def test_criterion_7_spectral_invariants(shipped):
    worst_identity = worst_b = 0.0
    energy_ok = True
    for name in (ROUND_TRIP, FIRST_ORDERS, RANDOM_START, LOGARITHMIC):
        result = shipped(name)
        identity = row(result, "energy", "energy_identity")
        assert identity["expected"] == 100 * result.config.tol
        energy_ok &= identity["pass"]
        worst_identity = max(worst_identity, identity["measured"] / identity["expected"])
        worst_b = max(worst_b, row(result, "energy", "advective_energy_orthogonality")["measured"])
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
