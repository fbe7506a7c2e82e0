import math

import numpy as np
import pytest

from nsasym.expansion import normalize_force
from nsasym.lattice import closure
from nsasym.solver import (
    BlowUpError,
    ForceSpec,
    energy_budget,
    evaluate_force,
    integrate_linearized,
    integrate_nse,
)
from nsasym.spectral import (
    GevreyIndex,
    SpectralField,
    apply_inverse_stokes,
    apply_multiplier,
    bilinear_form,
    random_solenoidal_field,
)
from nsasym.systems import PowerSystem

RNG = np.random.default_rng(2718)


def shear(cutoff=3, amp=0.2):
    return SpectralField.from_modes(cutoff, {(1, 0, 0): (0.0, amp, 0.0)})


def manual_manufactured(xi1, lat):
    """Force making u(t) = xi1 / t the exact solution: f = A xi1 psi_1
    + (B(xi1, xi1) - xi1) psi_2, on a power lattice containing {1, 2}."""
    phi1 = apply_multiplier(xi1, "A_alpha", 1.0)
    phi2 = bilinear_form(xi1, xi1) - xi1
    return ForceSpec(normalize_force([(1.0, phi1), (2.0, phi2)], lat))


def power_lattice(cutoff=2.5):
    return closure(PowerSystem(), [1.0], cutoff)


class TestForceEvaluation:
    def test_single_term_scaling(self):
        lat = power_lattice()
        phi = shear()
        force = ForceSpec(normalize_force([(1.0, phi)], lat))
        out = evaluate_force(force, 4.0)
        np.testing.assert_allclose(out.coeffs, 0.25 * phi.coeffs)

    def test_zero_force(self):
        lat = power_lattice()
        force = ForceSpec.zero(lat, 3)
        assert evaluate_force(force, 5.0).l2() == 0.0

    def test_additive_over_terms(self):
        lat = power_lattice()
        a, b = shear(amp=0.1), random_solenoidal_field(3, RNG, amplitude=0.05)
        fa = ForceSpec(normalize_force([(1.0, a)], lat))
        fb = ForceSpec(normalize_force([(2.0, b)], lat))
        fab = ForceSpec(normalize_force([(1.0, a), (2.0, b)], lat))
        t = 3.0
        got = evaluate_force(fab, t)
        want = evaluate_force(fa, t) + evaluate_force(fb, t)
        np.testing.assert_allclose(got.coeffs, want.coeffs)

    def test_domain_guard(self):
        lat = power_lattice()
        force = ForceSpec(normalize_force([(1.0, shear())], lat))
        with pytest.raises(Exception):
            evaluate_force(force, 0.25)


class TestNseIntegration:
    def test_pure_heat_decay_of_shear(self):
        u0 = shear(amp=0.3)
        lat = power_lattice()
        tol = 1e-9
        trace = integrate_nse(u0, ForceSpec.zero(lat, 3), 2.0, 30.0, tol)
        for t, state in zip(trace.times, trace.states):
            exact = math.exp(-(t - 2.0)) * u0.coeffs
            assert np.max(np.abs(state.coeffs - exact)) <= 10 * tol * u0.l2()

    def test_rest_state_stays_zero(self):
        lat = power_lattice()
        trace = integrate_nse(SpectralField.zero(3), ForceSpec.zero(lat, 3), 2.0, 20.0, 1e-8)
        assert max(trace.l2) == 0.0

    def test_manufactured_single_term(self):
        xi1 = random_solenoidal_field(3, np.random.default_rng(5), amplitude=0.05)
        lat = power_lattice()
        force = manual_manufactured(xi1, lat)
        tol = 1e-8
        t0, t1 = 5.0, 100.0
        trace = integrate_nse((1.0 / t0) * xi1, force, t0, t1, tol)
        worst = 0.0
        for t, state in zip(trace.times, trace.states):
            exact = (1.0 / t) * xi1
            worst = max(worst, (state - exact).l2() / exact.l2())
        assert worst <= 10 * tol

    def test_snapshots_on_geometric_grid(self):
        lat = power_lattice()
        trace = integrate_nse(shear(), ForceSpec.zero(lat, 3), 2.0, 20.0, 1e-6,
                              sample_ratio=1.25)
        ratios = trace.times[1:-1] / trace.times[:-2]
        assert np.allclose(ratios, 1.25, rtol=1e-12)
        assert trace.times[-1] == 20.0

    def test_step_growth_with_time(self):
        lat = power_lattice()
        xi1 = random_solenoidal_field(3, np.random.default_rng(6), amplitude=0.02)
        force = manual_manufactured(xi1, lat)
        trace = integrate_nse((1 / 5.0) * xi1, force, 5.0, 500.0, 1e-7)
        # steps must dilate with t: a non-growing step policy would need
        # tens of thousands of steps over two decades at this tolerance
        assert max(trace.steps) > 50 * trace.steps[2]
        assert trace.stats["n_steps"] < 800

    def test_fixed_step_order(self):
        # halving a fixed step must cut the endpoint error by >= 2^(order - 1/2)
        xi1 = random_solenoidal_field(2, np.random.default_rng(7), amplitude=0.1)
        lat = power_lattice()
        force = manual_manufactured(xi1, lat)
        t0, t1 = 5.0, 9.0
        errs = []
        for h in (0.5, 0.25):
            trace = integrate_nse((1 / t0) * xi1, force, t0, t1, None,
                                  fixed_step=h, sample_ratio=100.0)
            exact = (1 / t1) * xi1
            errs.append((trace.states[-1] - exact).l2() / exact.l2())
        assert errs[0] / errs[1] >= 2 ** 3.5

    def test_blowup_guard_trips_on_instability(self):
        u0 = random_solenoidal_field(2, np.random.default_rng(8), amplitude=5.0)
        lat = power_lattice()
        with pytest.raises(BlowUpError):
            integrate_nse(u0, ForceSpec.zero(lat, 2), 2.0, 40.0, None,
                          fixed_step=5.0, sample_ratio=50.0)

    def test_invariants_at_snapshots(self):
        xi1 = random_solenoidal_field(3, np.random.default_rng(9), amplitude=0.05)
        lat = power_lattice()
        force = manual_manufactured(xi1, lat)
        trace = integrate_nse(SpectralField.zero(3), force, 5.0, 50.0, 1e-8)
        for state in trace.states:
            state.validate(tol=1e-10)

    def test_long_horizon_norm_stability(self):
        # with a decaying force and small data, Gevrey norms stop growing
        # once the start-up transient has passed
        lat = closure(PowerSystem(), [1.0], 3.5)
        rng = np.random.default_rng(14)
        phi = random_solenoidal_field(3, rng, amplitude=0.05)
        force = ForceSpec(normalize_force([(1.0, phi)], lat))
        idx = GevreyIndex(1.0, 0.1)
        trace = integrate_nse(SpectralField.zero(3), force, 5.0, 2000.0, 1e-8,
                              norm_indices=(idx,))
        norms = trace.norms[idx]
        tail = norms[trace.times >= 20.0]
        assert np.all(np.diff(tail) <= 1e-12 * tail[:-1])


class TestLinearized:
    def test_saturation_from_rest(self):
        lat = power_lattice()
        xi = shear(amp=0.4)  # |k|^2 = 1
        tol = 1e-9
        trace = integrate_linearized(SpectralField.zero(3), xi, ForceSpec.zero(lat, 3),
                                     2.0, 30.0, tol)
        for t, state in zip(trace.times, trace.states):
            exact = (1.0 - math.exp(-(t - 2.0))) * xi.coeffs
            assert np.max(np.abs(state.coeffs - exact)) <= 10 * tol * xi.l2()
        assert trace.stats["linear_selfcheck"] <= 10 * tol

    def test_limit_is_inverse_stokes_of_xi(self):
        lat = power_lattice()
        xi = random_solenoidal_field(3, np.random.default_rng(11), amplitude=0.3)
        trace = integrate_linearized(SpectralField.zero(3), xi, ForceSpec.zero(lat, 3),
                                     2.0, 40.0, 1e-9)
        target = apply_inverse_stokes(xi)
        assert (trace.states[-1] - target).l2() <= 1e-8 * target.l2()

    def test_poincare_decay(self):
        lat = power_lattice()
        w0 = random_solenoidal_field(3, np.random.default_rng(12), amplitude=1.0)
        trace = integrate_linearized(w0, SpectralField.zero(3), ForceSpec.zero(lat, 3),
                                     2.0, 12.0, 1e-9)
        for t, l2 in zip(trace.times, trace.l2):
            assert l2 <= math.exp(-(t - 2.0)) * w0.l2() * (1 + 1e-8)


class TestEnergyBudget:
    def test_shear_decay_identity(self):
        lat = power_lattice()
        trace = integrate_nse(shear(amp=0.5), ForceSpec.zero(lat, 3), 2.0, 40.0, 1e-8)
        report = energy_budget(trace)
        assert report.ok, [c for c in report.checks if not c.passed]

    def test_forced_small_data_run(self):
        lat = closure(PowerSystem(), [1.0], 3.5)
        rng = np.random.default_rng(13)
        phi = random_solenoidal_field(4, rng, amplitude=0.05)
        force = ForceSpec(normalize_force([(1.0, phi)], lat))
        u0 = random_solenoidal_field(4, rng, amplitude=0.01)
        # one explicit power term: each force evaluation is one sys.eval call
        calls = []
        sys_eval = lat.system.eval
        lat.system.eval = lambda lam, t: calls.append(t) or sys_eval(lam, t)
        tol = 1e-8
        trace = integrate_nse(u0, force, 5.0, 200.0, tol,
                              norm_indices=(GevreyIndex(0.5, 0.0),))
        # a doubled step pays 11 rhs plus the ledger's midpoint and end
        # nodes (3 each); the start node is the previous step's end
        attempts = trace.stats["n_steps"] + trace.stats["n_rejected"]
        assert len(calls) <= 18 * attempts + len(trace.times) + 8, (len(calls), attempts)
        report = energy_budget(trace)
        assert report["energy_identity"].passed, report["energy_identity"].measured
        assert report["energy_identity"].measured["max_rel_residual"] <= 100 * tol
        assert report["apriori_energy_bound"].passed
        assert report["force_envelope_convolution"].passed
        assert report["advective_energy_orthogonality"].measured["max_rel"] <= 1e-12

    def test_csv_export(self, tmp_path):
        lat = power_lattice()
        trace = integrate_nse(shear(), ForceSpec.zero(lat, 3), 2.0, 10.0, 1e-7,
                              norm_indices=(GevreyIndex(1.0, 0.1),))
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,u_l2,a1_s0.1,step"
        assert len(lines) == len(trace.times) + 1
