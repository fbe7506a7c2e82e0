import math
from dataclasses import replace

import numpy as np
import pytest

import nsasym
from nsasym import expansion
from nsasym.expansion import (
    ExpansionError,
    compute_coefficients,
    evaluate_expansion,
    normalize_force,
    recursion_residual,
)
from nsasym.lattice import closure
from nsasym.spectral import (
    GevreyIndex,
    SpectralField,
    apply_inverse_stokes,
    apply_multiplier,
    bilinear_form,
    random_solenoidal_field,
)
from nsasym.systems import Exponent, IteratedLogSystem, PowerSystem, ProductSystem

from test_lattice import provenance_lattices

RNG = np.random.default_rng(42)
GAMMA = math.sqrt(2.0) / 2.0


def power_lattice(cutoff=3.5):
    return closure(PowerSystem(), [1.0], cutoff)


def small_field(seed, cutoff=2, amplitude=0.3):
    return random_solenoidal_field(cutoff, np.random.default_rng(seed), amplitude=amplitude)


class TestNormalizeForce:
    def test_zero_padding(self):
        lat = power_lattice()
        phi = small_field(1)
        force = normalize_force([(1.0, phi)], lat)
        assert len(force) == 3
        assert force.field(1) is phi
        assert force.field(2).l2() == 0.0 and force.field(3).l2() == 0.0

    def test_missing_exponent_rejected(self):
        lat = power_lattice()
        with pytest.raises(ExpansionError):
            normalize_force([(1.5, small_field(1))], lat)

    def test_order_preserved_bitwise(self):
        lat = power_lattice()
        phi1, phi3 = small_field(1), small_field(3)
        force = normalize_force([(3.0, phi3), (1.0, phi1)], lat)
        np.testing.assert_array_equal(force.field(1).coeffs, phi1.coeffs)
        np.testing.assert_array_equal(force.field(3).coeffs, phi3.coeffs)

    def test_alpha_floor(self):
        lat = power_lattice()
        with pytest.raises(ExpansionError):
            normalize_force([(1.0, small_field(1))], lat, GevreyIndex(0.25, 0.0))


class TestPowerRecursion:
    def test_diagonal_inverse_single_mode(self):
        lat = power_lattice()
        phi = SpectralField.from_modes(2, {(2, 0, 0): (0.0, 0.8, 0.0)})  # |k|^2 = 4
        force = normalize_force([(1.0, phi)], lat)
        xi = compute_coefficients(force, 1)
        np.testing.assert_allclose(xi.field(1).coeffs, phi.coeffs / 4.0)

    def test_second_order_by_hand(self):
        # lattice {1, 2, 3}: xi_2 = A^-1(phi_2 + xi_1 - B(xi_1, xi_1))
        lat = power_lattice()
        phi1, phi2 = small_field(11), small_field(12)
        force = normalize_force([(1.0, phi1), (2.0, phi2)], lat)
        xi = compute_coefficients(force, 2)
        xi1 = apply_inverse_stokes(phi1)
        want = apply_inverse_stokes(phi2 + xi1 - bilinear_form(xi1, xi1))
        assert (xi.field(2) - want).l2() <= 1e-14 * max(want.l2(), 1e-30)

    def test_log_system_recursion(self):
        # empty vee: xi_2 = A^-1(phi_2 - B(xi_1, xi_1))
        sys = IteratedLogSystem(m=1, q0=[((1,), 1.0)], q1=[0.0, 1.0])
        lat = closure(sys, [1.0], 3.5)
        phi1 = small_field(21)
        force = normalize_force([(1.0, phi1)], lat)
        xi = compute_coefficients(force, 2)
        xi1 = apply_inverse_stokes(phi1)
        want = apply_inverse_stokes(-1.0 * bilinear_form(xi1, xi1))
        assert (xi.field(2) - want).l2() <= 1e-14 * max(want.l2(), 1e-30)

    def test_power_specialization_identity(self):
        # the general recursion must reproduce the power-system form
        # xi_n = A^-1(phi_n + lambda_p xi_p - sum B) with lambda_p + 1 = lambda_n
        lat = power_lattice(4.5)
        phi1 = small_field(31)
        force = normalize_force([(1.0, phi1)], lat)
        xi = compute_coefficients(force)
        vals = lat.values()
        for n in range(2, len(lat) + 1):
            acc = force.field(n)
            for p in range(1, n):
                if abs(vals[p - 1] + 1.0 - vals[n - 1]) <= 1e-9:
                    acc = acc + vals[p - 1] * xi.field(p)
            for i in range(1, n):
                for j in range(1, n):
                    if abs(vals[i - 1] + vals[j - 1] - vals[n - 1]) <= 1e-9:
                        acc = acc - bilinear_form(xi.field(i), xi.field(j))
            want = apply_inverse_stokes(acc)
            assert (xi.field(n) - want).l2() <= 1e-13 * max(want.l2(), 1e-30)

    def test_defining_residual(self):
        lat = power_lattice(4.5)
        force = normalize_force([(1.0, small_field(41)), (2.0, small_field(42))], lat)
        xi = compute_coefficients(force)
        for n in range(1, len(lat) + 1):
            assert recursion_residual(xi, force, n) <= 1e-12

    def test_gevrey_gain(self):
        lat = power_lattice()
        force = normalize_force([(1.0, small_field(51))], lat, GevreyIndex(0.5, 0.1))
        xi = compute_coefficients(force)
        assert xi.gevrey == GevreyIndex(1.5, 0.1)

    def test_uniqueness_under_generator_permutation(self):
        sys = PowerSystem()
        lat_a = closure(sys, [1.0, 2.0], 4.0)
        lat_b = closure(sys, [2.0, 1.0, 2.0], 4.0)
        phi = small_field(61)
        xa = compute_coefficients(normalize_force([(1.0, phi)], lat_a))
        xb = compute_coefficients(normalize_force([(1.0, phi)], lat_b))
        for n in range(1, len(lat_a) + 1):
            np.testing.assert_array_equal(xa.field(n).coeffs, xb.field(n).coeffs)

    def test_linear_regime_scaling(self):
        # generators spaced so no wedge or vee lands below the cutoff
        sys = PowerSystem()
        lat = closure(sys, [1.0, 1.2, 1.4, 1.9], 1.95)
        assert lat.values() == pytest.approx([1.0, 1.2, 1.4, 1.9])
        raw = [(v, small_field(70 + i)) for i, v in enumerate([1.0, 1.2, 1.4, 1.9])]
        force = normalize_force(raw, lat)
        xi = compute_coefficients(force)
        xi_scaled = compute_coefficients(force.scaled(3.0))
        for n in range(1, 5):
            diff = (xi_scaled.field(n) - 3.0 * xi.field(n)).l2()
            assert diff <= 1e-13 * max(xi.field(n).l2() * 3, 1e-30)


class TestDiscreteRecursion:
    def setup_method(self):
        self.sys = ProductSystem(GAMMA)
        self.lat = closure(self.sys, [self.sys.exponent_from_pair(1, 1)], 3.2)

    def test_single_generator_first_coefficient(self):
        phi = small_field(81)
        force = normalize_force([(self.sys.exponent_from_pair(1, 1), phi)], self.lat)
        xi = compute_coefficients(force, 1)
        want = apply_inverse_stokes(phi)
        np.testing.assert_array_equal(xi.field(1).coeffs, want.coeffs)

    def test_requires_pair_metadata(self):
        # the discrete recursion keys wedges and vees by exact pairs, so an
        # entry without its pair is refused before any work
        phi = small_field(82)
        force = normalize_force([(self.sys.exponent_from_pair(1, 1), phi)], self.lat)
        entries = list(self.lat.entries)
        entries[1] = replace(entries[1], exponent=Exponent(entries[1].value))
        stripped = replace(force, lattice=replace(self.lat, entries=tuple(entries)))
        with pytest.raises(ExpansionError, match="pair metadata"):
            compute_coefficients(stripped, 1)

    def test_one_entry_point(self):
        # the old discrete name is the same function, never a second path
        assert expansion.compute_coefficients_discrete is expansion.compute_coefficients
        assert "compute_coefficients_discrete" not in expansion.__all__
        assert "compute_coefficients_discrete" not in vars(nsasym)

    def test_vee_weights_match_pair_scan_oracle(self):
        # c_{p,n} from provenance vs exhaustive scan over pair shifts
        lat = self.lat
        sys = self.sys
        pairs = [e.exponent.pair for e in lat.entries]
        for n in range(2, len(lat) + 1):
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
                    acc -= GAMMA * float(a)
                if b + 1 == B and A - a >= 1:
                    acc -= (1 - GAMMA) * float(b)
                if acc:
                    oracle[p] = acc
            assert set(weights) == set(oracle)
            for p in weights:
                assert weights[p] == pytest.approx(oracle[p], rel=1e-12)

    def test_residuals_to_depth_six(self):
        phi1 = small_field(83)
        phi3 = small_field(84, amplitude=0.1)
        force = normalize_force(
            [(self.sys.exponent_from_pair(1, 1), phi1),
             (self.lat.exponent(3), phi3)], self.lat)
        xi = compute_coefficients(force)
        for n in range(1, 7):
            assert recursion_residual(xi, force, n) <= 1e-12

    def test_closed_generator_set_identity_reindex(self):
        # generators already closed below the cutoff: force terms keep indices
        sys = self.sys
        lat = closure(sys, [sys.exponent_from_pair(1, 1)], 2.1)
        raw = [(e.exponent, small_field(90 + n)) for n, e in enumerate(lat.entries)]
        force = normalize_force(raw, lat)
        for n, (exp, f) in enumerate(raw, 1):
            assert lat.index_of(exp) == n
            np.testing.assert_array_equal(force.field(n).coeffs, f.coeffs)


def generator_force(lat, seed):
    """Small dense fields on the generators of a lattice."""
    raw = [(e.exponent, small_field(seed + n)) for n, e in enumerate(lat.entries)
           if e.is_generator()]
    return normalize_force(raw, lat)


class TestResidualAudit:
    @pytest.mark.parametrize("tag", ["wedge", "vee"])
    def test_catches_a_dropped_origin(self, tag):
        # the recursion reads provenance; the audit must not, so a lattice
        # missing one origin yields coefficients the audit rejects
        lat = provenance_lattices()[-1]
        assert lat.system.discrete
        n = next(n for n, e in enumerate(lat.entries, 1)
                 if any(o[0] == tag for o in e.origins))
        entries = list(lat.entries)
        origins = list(entries[n - 1].origins)
        origins.remove(next(o for o in origins if o[0] == tag))
        entries[n - 1] = replace(entries[n - 1], origins=tuple(origins))
        force = generator_force(replace(lat, entries=tuple(entries)), 110)
        xi = compute_coefficients(force)
        for m in range(1, n):
            assert recursion_residual(xi, force, m) <= 1e-12
        assert recursion_residual(xi, force, n) > 1e-6

    def test_wedge_and_vee_calls_bounded(self, monkeypatch):
        # deterministic cost guard: the audit tries O(wedge pairs) wedges,
        # not every (i, j), and reads the vee terms computed at closure
        for lat in provenance_lattices():
            sys = lat.system
            calls = {"wedge": 0, "vee": 0}
            for name in calls:
                def spy(*args, _name=name, _method=getattr(sys, name)):
                    calls[_name] += 1
                    return _method(*args)
                monkeypatch.setattr(sys, name, spy)
            force = generator_force(lat, 120)
            xi = compute_coefficients(force)
            calls["wedge"] = 0
            for n in range(1, len(lat) + 1):
                assert recursion_residual(xi, force, n) <= 1e-12
            pairs = sum(len(lat.wedge_pairs(n)) for n in range(1, len(lat) + 1))
            assert calls["wedge"] <= 2 * pairs + len(lat), sys.kind
            assert calls["vee"] == 0, sys.kind


class TestEvaluate:
    def test_zero_terms(self):
        lat = power_lattice()
        force = normalize_force([(1.0, small_field(91))], lat)
        out = evaluate_expansion(force, 10.0, upto=0)
        assert out.l2() == 0.0

    def test_single_term_value(self):
        lat = power_lattice()
        phi = small_field(92)
        force = normalize_force([(1.0, phi)], lat)
        out = evaluate_expansion(force, 10.0, upto=1)
        np.testing.assert_allclose(out.coeffs, 0.1 * phi.coeffs)

    def test_linearity(self):
        lat = power_lattice()
        force = normalize_force([(1.0, small_field(93)), (2.0, small_field(94))], lat)
        a = evaluate_expansion(force.scaled(2.0), 7.0)
        b = evaluate_expansion(force, 7.0)
        np.testing.assert_allclose(a.coeffs, 2.0 * b.coeffs)

    def test_domain_checked(self):
        lat = power_lattice()
        force = normalize_force([(1.0, small_field(95))], lat)
        with pytest.raises(Exception):
            evaluate_expansion(force, 0.1)
