import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nsasym import solver
from nsasym.cli import ExperimentConfig, run_experiment
from nsasym.expansion import normalize_force
from nsasym.lattice import closure
from nsasym.solver import (
    BlowUpError,
    ForceSpec,
    _ForceEval,
    _Integrator,
    _advect,
    _phi_trio,
    energy_budget,
    evaluate_force,
    integrate_nse,
)
from nsasym.spectral import (
    VOLUME,
    _closed_support,
    _fold,
    _grid,
    _half_box,
    _unfold,
    GevreyIndex,
    SpectralField,
    apply_multiplier,
    bilinear_form,
    random_solenoidal_field,
)
from nsasym.systems import PowerSystem
from conftest import CONFIG_DIR
from oracles import phi_trio_blend

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


def planar_force_field(cutoff, amp=0.05):
    """A field on +-(1,0,0) and +-(0,1,0), whose closure is the k3 = 0 plane."""
    return SpectralField.from_modes(cutoff, {(1, 0, 0): (0.0, amp, 0.6 * amp),
                                             (0, 1, 0): (0.8 * amp, 0.0, 0.4 * amp)})


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

    @staticmethod
    def spied(monkeypatch, force):
        """The times at which the force's system is evaluated, one per term."""
        seen = []
        system = force.expansion.lattice.system
        inner = system.eval
        monkeypatch.setattr(system, "eval", lambda lam, t: seen.append(t) or inner(lam, t))
        return seen

    @pytest.mark.parametrize("two_terms", [False, True], ids=["one_term", "two_terms"])
    def test_step_rows_are_the_force_at_its_nodes(self, two_terms):
        # one product gives f at the doubled step's four nodes t + h/4,
        # t + h/2, (t + h/2) + h/4 and t + h: the same bytes as evaluating
        # each alone with one term, and within rounding with two
        lat = power_lattice()
        raw = [(1.0, shear())]
        if two_terms:
            raw.append((2.0, random_solenoidal_field(3, np.random.default_rng(4), amplitude=0.05)))
        force = ForceSpec(normalize_force(raw, lat))
        support = _closed_support(3, [f.coeffs for f in force.fields])
        stepper = _Integrator(3, support, force)
        t, h = 3.0, 0.7
        u = np.zeros(stepper.force_eval.shape, dtype=np.complex128)
        f = stepper.step(t, h, u, stepper.rhs(*stepper.force_eval(t), u))[4]
        assert stepper.force_eval.n_evals == 2
        t_half = t + 0.5 * h
        for row, tau in zip(f, (t + 0.25 * h, t_half, t_half + 0.25 * h, t + h)):
            want = _fold(evaluate_force(force, tau).coeffs, stepper.extents)
            if two_terms:
                assert np.max(np.abs(row - want)) <= 1e-15 * np.max(np.abs(want))
            else:
                assert row.tobytes() == want.tobytes()

    def test_counter_matches_system_evaluations(self, monkeypatch):
        lat = power_lattice()
        xi1 = random_solenoidal_field(3, np.random.default_rng(5), amplitude=0.05)
        force = manual_manufactured(xi1, lat)
        seen = self.spied(monkeypatch, force)
        trace = integrate_nse((1.0 / 5.0) * xi1, force, 5.0, 20.0, 1e-8)
        stats = trace.stats
        attempts = stats["n_steps"] + stats["n_rejected"]
        # two terms at each time: four per attempt, one per sample, and the
        # two ends of each slope's difference quotient, at the start node
        # and at the middle and end nodes of each accepted step
        assert len(seen) == 2 * (4 * attempts + len(trace.times) + 2 * (2 * stats["n_steps"] + 1))
        assert 0 < stats["n_force_evals"] < stats["n_rhs"]
        # one slope product for the start node, and one per accepted step
        # for its middle and end nodes
        assert stats["n_force_slopes"] == stats["n_steps"] + 1
        # one product per attempt, for its four node times, and one per
        # sample, the start's included
        assert stats["n_force_evals"] == attempts + len(trace.times)


class TestPhiTrio:
    @pytest.mark.parametrize("case", ["edges", "solver_stack", "zero_alone"])
    def test_equals_whole_array_blend_byte_for_byte(self, case):
        # the series runs on |z| < 0.5 alone: each element gets the same
        # operations as in the blend of both branches over the whole array;
        # with k = 0 the only small z (a large step) the series is its first
        # term
        edges = np.array([0.0, -0.4999999, -0.5, -0.5000001, -1e-3, -1e6])
        ksq = np.sum(np.stack(np.meshgrid(*3 * [np.arange(-3.0, 4.0)], indexing="ij")) ** 2,
                     axis=0)
        if case == "edges":
            z = edges
        else:
            h = 0.3 if case == "solver_stack" else 37.0
            z = -h * ksq * np.array([1.0, 0.5, 0.25])[:, None, None, None]
            if case == "solver_stack":
                z.ravel()[:edges.size] = edges
        got, want = _phi_trio(z), phi_trio_blend(z)
        assert len(got) == len(want) == 4
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()


    @pytest.mark.parametrize("h", [1e-3, 0.37, 5.0, 1e4])
    def test_shell_tables_equal_cube_tables_byte_for_byte(self, h):
        # the solver forms the tables on the distinct |k|^2 of its half box
        # and gathers them to the half box's modes (here the k3 = 0 plane's
        # box): the same bytes as forming them on the cube
        support = _closed_support(4, [planar_force_field(4).coeffs])
        stepper = _Integrator(4, support, ForceSpec.zero(power_lattice(), 4))
        ksq = _grid(4)[1]
        cube, shells = (_phi_trio(np.stack([z, 0.5 * z, 0.25 * z]))
                        for z in (-h * ksq, -h * stepper.shells))
        half_box = (slice(None), slice(None)) + _half_box(4, stepper.extents)
        for c, s in zip(cube, shells):
            on_box = np.repeat(c[:, None, :, :, 4:][half_box], 3, axis=1)
            assert s[:, stepper.shell_of].tobytes() == on_box.tobytes()


class TestNseIntegration:
    @pytest.mark.parametrize("k, amp", [
        ((1, 0, 0), (0.0, 0.3, 0.0)), ((1, 1, 1), (0.0, 0.3, -0.3)), ((3, 0, 0), (0.0, 0.0, 0.3)),
    ], ids=["ksq1", "ksq3", "ksq9"])
    def test_pure_heat_decay_of_shear(self, k, amp):
        # B(u, u) of one Fourier mode is exactly zero, so the run is the heat
        # flow e^{-|k|^2 (t - t0)} u0; at |k|^2 = 9 the steps reach
        # h |k|^2 ~ 10, where the phi-weights saturate
        u0 = SpectralField.from_modes(3, {k: amp})
        lat = power_lattice()
        tol = 1e-9
        trace = integrate_nse(u0, ForceSpec.zero(lat, 3), 2.0, 30.0, tol)
        ksq = sum(x * x for x in k)
        for t, state in zip(trace.times, trace.states):
            exact = math.exp(-ksq * (t - 2.0)) * u0.coeffs
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
        support = _closed_support(2, [f.coeffs for f in (xi1,) + force.fields])
        errs = []
        for h in (0.5, 0.25):
            stepper = _Integrator(2, support, force)
            t, u = t0, np.ascontiguousarray(_fold(((1 / t0) * xi1).coeffs, stepper.extents))
            while t < t1:
                u = stepper.step(t, h, u, stepper.rhs(*stepper.force_eval(t), u))[0]
                t += h
            exact = (1 / t1) * xi1
            errs.append(stepper.l2(u - _fold(exact.coeffs, stepper.extents)) / exact.l2())
        assert errs[0] / errs[1] >= 2 ** 3.5

    def test_blowup_guard_trips_on_instability(self, monkeypatch):
        # a step that grows the state 1e4-fold and reports no error passes
        # the controller: the guard must stop the run
        step = _Integrator.step

        def unstable(self, t, h, u0, k1):
            fine, err, mid, n_mid, f = step(self, t, h, u0, k1)
            return 1e4 * fine, np.zeros_like(err), mid, n_mid, f

        monkeypatch.setattr(_Integrator, "step", unstable)
        u0 = random_solenoidal_field(2, np.random.default_rng(8), amplitude=5.0)
        lat = power_lattice()
        with pytest.raises(BlowUpError):
            integrate_nse(u0, ForceSpec.zero(lat, 2), 2.0, 40.0, 1e-8)

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


def modes_of(cutoff, support):
    """The wave vectors of a k3 >= 0 half mask: each k3 > 0 mode stands for
    itself and its mirror, and the k3 = 0 plane holds both k and -k."""
    S = set()
    for i, j, l in np.argwhere(support):
        k = (int(i) - cutoff, int(j) - cutoff, int(l))
        S |= {k, tuple(-x for x in k)} if l else {k}
    return S


def cube_mask(cutoff, support):
    """The (2K+1)^3 cube mask of the modes of a k3 >= 0 half mask."""
    W = 2 * cutoff + 1
    mask = np.zeros((W, W, W), dtype=bool)
    for k in modes_of(cutoff, support):
        mask[tuple(x + cutoff for x in k)] = True
    return mask


def listed_closure(cutoff, fields):
    """The closure of the fields' supports under p + q, in the cube and away
    from k = 0, by listing every sum until nothing new appears."""
    S = {k for f in fields for k, _ in f.modes()}
    while True:
        sums = {tuple(a + b for a, b in zip(p, q)) for p in S for q in S}
        grown = S | {k for k in sums if any(k) and max(map(abs, k)) <= cutoff}
        if grown == S:
            return S
        S = grown


def random_modes(cutoff, seed, count):
    """A field on ``count`` random conjugate pairs of the cube."""
    rng = np.random.default_rng(seed)
    modes = {}
    while len(modes) < count:
        k = tuple(int(x) for x in rng.integers(-cutoff, cutoff + 1, size=3))
        if any(k) and tuple(-x for x in k) not in modes:
            modes[k] = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    return SpectralField.from_modes(cutoff, modes)


class TestClosedSupport:
    @settings(max_examples=20, deadline=None)
    @given(cutoff=st.integers(2, 3), seed=st.integers(0, 2 ** 32 - 1),
           counts=st.tuples(st.integers(0, 3), st.integers(0, 2)))
    def test_smallest_closed_symmetric_set(self, cutoff, seed, counts):
        # u0 and one force term on a few random pairs: S holds both supports,
        # is closed under p + q inside the cube, mirrors k -> -k, never holds
        # k = 0, and is the listed closure
        fields = [random_modes(cutoff, [seed, i], n) for i, n in enumerate(counts)]
        support = _closed_support(cutoff, [f.coeffs for f in fields])
        assert support.dtype == bool and support.shape == (2 * cutoff + 1, 2 * cutoff + 1, cutoff + 1)
        S = modes_of(cutoff, support)
        for f in fields:
            assert {k for k, _ in f.modes()} <= S
        assert (0, 0, 0) not in S
        assert {tuple(-x for x in k) for k in S} == S
        for p in S:
            for q in S:
                k = tuple(a + b for a, b in zip(p, q))
                assert k in S or not any(k) or max(map(abs, k)) > cutoff
        assert S == listed_closure(cutoff, fields)

    @pytest.mark.parametrize("name, size", [("criterion2_first_orders.json", 2),
                                            ("power_two_term.json", 48),
                                            ("criterion5_random_start.json", 728)])
    def test_sizes_of_shipped_runs(self, shipped, name, size):
        # criterion 2's lone pair +-(4,2,1) at K = 4, a K = 3 run on the
        # k3 = 0 plane, and criterion 5's dense K = 4 cube
        assert shipped(name).trace.stats["support_modes"] == size

    def test_recorded_states_vanish_outside_the_closure(self, shipped):
        # a property of the Galerkin run, not of how the solver stores it
        result = shipped("power_two_term.json")
        states = result.trace.states
        force = [f for _, _, f in result.force.expansion.terms()]
        force += [x.field for x in result.force.extras]
        S = listed_closure(3, [states[0]] + force)
        assert len(S) == 48
        for state in states:
            assert {k for k, _ in state.modes()} <= S


class TestSupportAdvection:
    @pytest.mark.parametrize("cutoff, plane", [(3, False), (4, True)])
    def test_filled_support_is_bilinear_form_byte_for_byte(self, cutoff, plane):
        u = random_solenoidal_field(cutoff, np.random.default_rng([cutoff, 21]))
        if plane:
            arr = np.array(u.coeffs)
            arr[:, :, np.arange(2 * cutoff + 1) != cutoff] = 0.0
            u = SpectralField(cutoff, arr)
        support = _closed_support(cutoff, [u.coeffs])
        assert modes_of(cutoff, support) == {k for k, _ in u.modes()}
        stepper = _Integrator(cutoff, support, ForceSpec.zero(power_lattice(), cutoff))
        got = stepper.advect(np.ascontiguousarray(_fold(u.coeffs, stepper.extents)))
        want = bilinear_form(u, u).coeffs
        assert got.tobytes() == _fold(want, stepper.extents).tobytes()
        assert not np.any(want[~cube_mask(cutoff, support)])

    def test_smaller_state_within_rounding_and_zero_off_support(self):
        # u on four modes of the k3 = 0 plane, its support: B on the plane's
        # plan agrees with B on u's own plan to rounding, and the kernel's
        # flux is exactly zero at every mode of its output box outside S
        support = _closed_support(3, [planar_force_field(3).coeffs])
        off = ~cube_mask(3, support)
        assert len(modes_of(3, support)) == 48
        u = SpectralField.from_modes(3, {(1, 0, 0): (0.0, 0.3, 0.2), (0, 1, 0): (0.25, 0.0, -0.3),
                                         (1, 1, 0): (0.1, -0.1, 0.2), (2, -1, 0): (0.1, 0.2, 0.0)})
        stepper = _Integrator(3, support, ForceSpec.zero(power_lattice(), 3))
        half = _fold(u.coeffs, stepper.extents)
        got = stepper.advect(np.ascontiguousarray(half))
        want = bilinear_form(u, u).coeffs
        assert np.max(np.abs(got - _fold(want, stepper.extents))) <= 1e-15 * np.linalg.norm(u.coeffs) ** 2
        assert not np.any(want[off])
        flux = _unfold(_advect(stepper.plan, [half]), 3)
        assert not np.any(flux[off])

    def test_flux_is_cropped_to_a_smaller_box(self):
        # S = +-(3,0,0), +-(0,3,0), +-(3,3,0) and +-(3,-3,0) at K = 4 is
        # closed, with extents (3, 3, 0), while B's output box reaches
        # |k_a| = 4: the solver's B is the flux cropped to S's half box, the
        # same bytes as bilinear_form there, and exactly zero outside
        u = SpectralField.from_modes(4, {(3, 0, 0): (0.0, 0.3, 0.1), (0, 3, 0): (0.2, 0.0, -0.1),
                                         (3, 3, 0): (0.1, -0.1, 0.2), (3, -3, 0): (0.1, 0.1, 0.3)})
        support = _closed_support(4, [u.coeffs])
        assert modes_of(4, support) == {k for k, _ in u.modes()}
        stepper = _Integrator(4, support, ForceSpec.zero(power_lattice(), 4))
        assert stepper.extents == (3, 3, 0) and stepper.plan.layout.e_out == (4, 4, 0)
        got = stepper.advect(np.ascontiguousarray(_fold(u.coeffs, stepper.extents)))
        want = bilinear_form(u, u).coeffs
        assert np.any(got) and got.tobytes() == _fold(want, stepper.extents).tobytes()
        assert not np.any(want[~cube_mask(4, support)])

    @pytest.mark.parametrize("cutoff, modes, box", [
        (4, {(4, 2, 1): (0.1, -0.2, 0.0)}, 90),
        (3, {(1, 0, 0): (0.0, 0.05, 0.03), (0, 1, 0): (0.04, 0.0, 0.02)}, 49),
    ], ids=["lone_pair", "plane"])
    def test_box_modes_off_the_closure_stay_exactly_zero(self, monkeypatch, cutoff, modes, box):
        # criterion 2's +-(4,2,1), 2 modes of a 9 x 5 x 3 box whose k3 >= 0
        # half is 9 x 5 x 2, and a run on the k3 = 0 plane, 48 modes of a
        # 7 x 7 x 1 box, its own half (k = 0 is off S): every input and
        # output of B, every force row and every recorded state is exactly
        # zero off S
        phi = SpectralField.from_modes(cutoff, modes)
        force = ForceSpec(normalize_force([(1.0, phi)], power_lattice()))
        support = _closed_support(cutoff, [phi.coeffs])
        off = ~cube_mask(cutoff, support)
        leaks, rows, sizes = [], [], set()
        advect, evaluate = _Integrator.advect, _ForceEval.__call__

        def leaked(arr):
            return bool(np.any(_unfold(arr, cutoff)[off]))

        def spied_advect(self, u):
            out = advect(self, u)
            sizes.add(self.ksq.size)
            leaks.extend(leaked(arr) for arr in (u, out))
            return out

        def spied_force(self, *times):
            out = evaluate(self, *times)
            rows.extend(leaked(row) for row in out)
            return out

        monkeypatch.setattr(_Integrator, "advect", spied_advect)
        monkeypatch.setattr(_ForceEval, "__call__", spied_force)
        trace = integrate_nse(0.5 * phi, force, 5.0, 50.0, 1e-8)
        assert sizes == {box} and trace.stats["support_modes"] == len(modes_of(cutoff, support))
        assert len(leaks) == 2 * trace.stats["n_rhs"] and not any(leaks)
        attempts = trace.stats["n_steps"] + trace.stats["n_rejected"]
        assert len(rows) == 4 * attempts + len(trace.times) and not any(rows)
        for state in trace.states:
            assert not np.any(state.coeffs[off])

    def test_empty_plan_runs_no_transform(self, fft_calls):
        # criterion 2's lone pair: no p + q of S lands in the cube away from
        # k = 0, so B is exactly zero and the run transforms nothing
        u0 = SpectralField.from_modes(4, {(4, 2, 1): (0.1, -0.2, 0.0)})
        trace = integrate_nse(u0, ForceSpec.zero(power_lattice(), 4), 2.0, 4.0, 1e-8)
        assert fft_calls == []
        assert trace.stats["support_modes"] == 2
        assert trace.stats["max_b_orthogonality"] == 0.0

    def test_one_plan_per_run(self, monkeypatch):
        plans = []
        inner = solver._plan
        monkeypatch.setattr(solver, "_plan", lambda *args: plans.append(args) or inner(*args))
        xi1 = random_solenoidal_field(3, np.random.default_rng(5), amplitude=0.05)
        trace = integrate_nse((1.0 / 5.0) * xi1, manual_manufactured(xi1, power_lattice()),
                              5.0, 10.0, 1e-8)
        assert len(plans) == 1
        assert trace.stats["n_rhs"] > 100


class TestHalfBoxWeights:
    @pytest.mark.parametrize("cutoff, plane", [(4, False), (3, True)], ids=["dense", "plane"])
    def test_norm_and_inner_product_equal_the_cube_ones(self, cutoff, plane):
        # on the k3 >= 0 half box each k3 > 0 mode stands for k and -k and
        # the k3 = 0 plane for itself: the cube's L2 norm and Re <u, v>
        rng = np.random.default_rng([cutoff, 31])
        u, v = (random_solenoidal_field(cutoff, rng) for _ in range(2))
        if plane:
            off = np.arange(2 * cutoff + 1) != cutoff
            u, v = (SpectralField(cutoff, np.where(off[:, None], 0.0, f.coeffs)) for f in (u, v))
        support = _closed_support(cutoff, [u.coeffs, v.coeffs])
        stepper = _Integrator(cutoff, support, ForceSpec.zero(power_lattice(), cutoff))
        assert stepper.extents == (cutoff, cutoff, 0 if plane else cutoff)
        a, b = (_fold(f.coeffs, stepper.extents) for f in (u, v))
        for got, want in ((stepper.l2(a), u.l2()), (stepper.l2(b), v.l2()),
                          (stepper.inner(a, b), VOLUME * np.real(np.vdot(u.coeffs, v.coeffs)))):
            assert abs(got - want) <= 1e-14 * abs(want)


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
        # a doubled step's four node times, each sample's time, and the two
        # ends of the difference quotients at the start node and at each
        # accepted step's middle and end nodes
        attempts = trace.stats["n_steps"] + trace.stats["n_rejected"]
        assert len(calls) == 4 * attempts + len(trace.times) + 2 * (2 * trace.stats["n_steps"] + 1)
        report = energy_budget(trace)
        assert report["energy_identity"].passed, report["energy_identity"].measured
        assert report["energy_identity"].measured["max_rel_residual"] <= 100 * tol
        assert report["apriori_energy_bound"].passed
        assert report["force_envelope_convolution"].passed
        assert report["advective_energy_orthogonality"].measured["max_rel"] <= 1e-12

    @pytest.mark.parametrize("tol, identity, apriori", [
        (1e-7, 1e-05, 1.1e-05), (1e-10, 1e-08, 1.01e-06)])
    def test_gates_are_the_decimals_as_written(self, tol, identity, apriori):
        # in floats 100 * 1e-7 is 9.999999999999999e-06 and 1e-6 + 1e-8 is
        # 1.0099999999999999e-06: each gate is formed exactly, rounded once
        trace = integrate_nse(shear(), ForceSpec.zero(power_lattice(), 3), 2.0, 6.0, tol)
        report = energy_budget(trace)
        assert report["energy_identity"].measured["threshold"] == identity
        assert report["apriori_energy_bound"].measured["threshold"] == apriori

    def test_identity_unmoved_by_one_ulp_of_B(self, monkeypatch):
        # criterion 4's run takes steps with h |k|^2 far above 1; the ledger
        # drops the Hermite derivative term on those shells, so its identity
        # no longer draws on B's low bits: with B scaled by 1 - 2e-16 it
        # stays within 10% of its gate (without the shell limit: 1.1e-6)
        inner = solver._advect
        monkeypatch.setattr(solver, "_advect",
                            lambda plan, spectra: (1.0 - 2e-16) * inner(plan, spectra))
        result = run_experiment(ExperimentConfig.load(CONFIG_DIR / "criterion4_logarithmic.json"))
        (identity,) = [c for c in result.checks if c["property"] == "energy_identity"]
        assert identity["measured"] <= 0.1 * identity["expected"]

    def test_csv_export(self, tmp_path):
        lat = power_lattice()
        trace = integrate_nse(shear(), ForceSpec.zero(lat, 3), 2.0, 10.0, 1e-7,
                              norm_indices=(GevreyIndex(1.0, 0.1),))
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,u_l2,a1_s0.1,step"
        assert len(lines) == len(trace.times) + 1
