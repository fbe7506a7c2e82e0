import itertools
import math

import numpy as np
import pytest

from nsasym import expansion, verify
from nsasym.cli import ExperimentConfig, run_experiment
from nsasym.expansion import (
    compute_coefficients,
    evaluate_expansion,
    normalize_force,
    Expansion,
    ExpansionError,
)
from nsasym.lattice import ExponentLattice, closure
from nsasym.solver import ForceSpec, energy_budget, evaluate_force, integrate_nse
from nsasym.spectral import (
    GevreyIndex,
    SpectralField,
    advection_sum,
    apply_multiplier,
    bilinear_form,
    gevrey_norm,
    random_solenoidal_field,
)
from nsasym.systems import (
    Exponent,
    IteratedLogSystem,
    PowerSystem,
    ProductSystem,
    Report,
    SqrtShiftSystem,
    verify_system_conditions,
)
from nsasym.verify import (
    BILINEAR_GROWTH_FACTOR,
    FitError,
    check_bilinear_estimate,
    check_series_expansion,
    fit_decay_order,
    manufacture_force,
    remainder_series,
)

from test_lattice import provenance_lattices

RNG = np.random.default_rng(777)


def plain_log_system():
    return IteratedLogSystem(m=1, q0=[((1,), 1.0)], q1=[0.0, 1.0])


def target_expansion(lat, fields):
    complete = list(fields) + [SpectralField.zero(fields[0].cutoff)] * (len(lat) - len(fields))
    return Expansion(lat, tuple(complete), GevreyIndex(0.5, 0.0))


def lead_terms(lat):
    """Number of leading entries whose pairwise wedges all stay on the lattice."""
    return max(n for n in range(1, len(lat) + 1) if 2.0 * lat.exponent(n).value <= lat.cutoff)


def random_targets(lat, N, seed):
    rng = np.random.default_rng(seed)
    return target_expansion(lat, [random_solenoidal_field(2, rng, amplitude=0.1)
                                  for _ in range(N)])


class TestManufacture:
    def test_power_single_term_by_hand(self):
        # u = xi / t  =>  f = A xi t^-1 + (B(xi, xi) - xi) t^-2
        lat = closure(PowerSystem(), [1.0], 2.5)
        xi = random_solenoidal_field(2, np.random.default_rng(1), amplitude=0.1)
        force = manufacture_force(target_expansion(lat, [xi]), 1)
        assert force.extras == ()
        want1 = apply_multiplier(xi, "A_alpha", 1.0)
        want2 = bilinear_form(xi, xi) - xi
        assert (force.expansion.field(1) - want1).l2() <= 1e-14 * want1.l2()
        assert (force.expansion.field(2) - want2).l2() <= 1e-14 * max(want2.l2(), 1e-30)

    def test_log_single_term_closed_form_derivative(self):
        # derivative stays closed form: f = A xi (ln t)^-1 + B(xi,xi)(ln t)^-2
        #                                   - xi (ln t)^-2 / t
        sys = plain_log_system()
        lat = closure(sys, [1.0], 2.5)
        xi = random_solenoidal_field(2, np.random.default_rng(2), amplitude=0.1)
        force = manufacture_force(target_expansion(lat, [xi]), 1)
        assert len(force.extras) == 1
        t = 50.0
        lt = math.log(t)
        want = (1 / lt) * apply_multiplier(xi, "A_alpha", 1.0) \
            + (1 / lt ** 2) * bilinear_form(xi, xi) \
            - (1.0 / (lt ** 2 * t)) * xi
        got = evaluate_force(force, t)
        assert (got - want).l2() <= 1e-13 * want.l2()

    @pytest.mark.parametrize("kind", ["sqrt_shift", "product"])
    def test_vee_tail_closed_form_derivative(self, kind):
        # u = xi psi_1 with psi_1^2 = psi_2: f = A xi psi_1 + B(xi, xi) psi_2
        # + xi psi_1', where the lattice holds only part of psi_1's vee
        # family and the extra term adds back psi_1' minus that tail
        if kind == "sqrt_shift":
            sys, gen, cutoff, tail = SqrtShiftSystem(), 1.0, 4.5, 2

            def psi1_prime(t):
                s = math.sqrt(t)
                return -0.5 * (s + 1.0) ** -2 / s
        else:
            sys = ProductSystem(math.sqrt(2.0) / 2.0)
            gen, cutoff, tail = sys.exponent_from_pair(1, 1), 3.5, 8
            g = sys.gamma

            def psi1_prime(t):
                p, q = t ** g + 1.0, t ** (1.0 - g) + 1.0
                return -(g * t ** (g - 1.0) / p + (1.0 - g) * t ** -g / q) / (p * q)
        lat = closure(sys, [gen], cutoff)
        assert len(lat.vee(1)) == tail
        xi = random_solenoidal_field(2, np.random.default_rng(5), amplitude=0.1)
        force = manufacture_force(target_expansion(lat, [xi]), 1)
        assert len(force.extras) == 1
        two = lat.index_of(sys.wedge(lat.exponent(1), lat.exponent(1)))
        for t in (3.0, 50.0, 1e4):
            want = sys.eval(lat.exponent(1), t) * apply_multiplier(xi, "A_alpha", 1.0) \
                + sys.eval(lat.exponent(two), t) * bilinear_form(xi, xi) \
                + psi1_prime(t) * xi
            got = evaluate_force(force, t)
            assert (got - want).l2() <= 1e-13 * want.l2()

    def test_round_trip_two_terms(self):
        lat = closure(PowerSystem(), [1.0, 2.0], 4.0)
        rng = np.random.default_rng(3)
        xi1 = random_solenoidal_field(2, rng, amplitude=0.2)
        xi2 = random_solenoidal_field(2, rng, amplitude=0.1)
        target = target_expansion(lat, [xi1, xi2])
        force = manufacture_force(target, 2)
        back = compute_coefficients(force.expansion)
        for n, want in ((1, xi1), (2, xi2)):
            scale = max(want.l2(), 1e-30)
            assert (back.field(n) - want).l2() <= 1e-12 * scale
        for n in (3, 4):
            assert back.field(n).l2() <= 1e-12 * xi1.l2()

    def test_cutoff_overflow_detected(self):
        lat = closure(PowerSystem(), [1.0], 1.5)  # single entry, no room for wedges
        xi = random_solenoidal_field(2, np.random.default_rng(4), amplitude=0.1)
        with pytest.raises(ExpansionError, match="enlarge the closure"):
            manufacture_force(target_expansion(lat, [xi]), 1)
        lat = provenance_lattices()[-1]  # product lattice; one target past the lead
        N = lead_terms(lat) + 1
        with pytest.raises(ExpansionError, match="enlarge the closure"):
            manufacture_force(random_targets(lat, N, 4), N)

    def test_reads_lattice_not_lookups(self, monkeypatch):
        # deterministic cost guard: the force is built from provenance and
        # the vee terms of closure, with one advection call per entry that
        # has a target wedge, over exactly those wedges: B for a lone wedge,
        # one advection sum for several
        for lat in provenance_lattices():
            N = lead_terms(lat)
            target = random_targets(lat, N, 8)
            calls = {"index_of": 0, "vee": 0}
            advection = []

            def spy(name, method):
                def wrapped(*args):
                    calls[name] += 1
                    return method(*args)
                return wrapped

            def single(u, v):
                advection.append(("B", 1))
                return bilinear_form(u, v)

            def summed(pairs):
                pairs = list(pairs)
                advection.append(("sum", len(pairs)))
                return advection_sum(pairs)
            monkeypatch.setattr(ExponentLattice, "index_of",
                                spy("index_of", ExponentLattice.index_of))
            monkeypatch.setattr(lat.system, "vee", spy("vee", lat.system.vee))
            for module in (expansion, verify):
                monkeypatch.setattr(module, "bilinear_form", single)
            monkeypatch.setattr(expansion, "advection_sum", summed)
            manufacture_force(target, N)
            monkeypatch.undo()
            kept = [sum(i <= N and j <= N for i, j in lat.wedge_pairs(n))
                    for n in range(1, len(lat) + 1)]
            assert calls == {"index_of": 0, "vee": 0}, lat.system.kind
            assert advection == [("B" if w == 1 else "sum", w) for w in kept if w], \
                lat.system.kind
            assert any(kind == "sum" for kind, _ in advection), lat.system.kind
            assert sum(w for _, w in advection) == N * N

    def test_manufactured_solution_solves_equations(self):
        # du/dt + Au + B(u,u) - f = 0 pointwise in t, by finite differences
        lat = closure(PowerSystem(), [1.0, 2.0], 4.0)
        rng = np.random.default_rng(5)
        xi1 = random_solenoidal_field(2, rng, amplitude=0.2)
        xi2 = random_solenoidal_field(2, rng, amplitude=0.1)
        target = target_expansion(lat, [xi1, xi2])
        force = manufacture_force(target, 2)
        for t in (3.0, 11.0, 47.0):
            u = evaluate_expansion(target, t, 2)
            h = 1e-5 * t
            du = (1.0 / (2 * h)) * (evaluate_expansion(target, t + h, 2)
                                    - evaluate_expansion(target, t - h, 2))
            lhs = du + apply_multiplier(u, "A_alpha", 1.0) + bilinear_form(u, u)
            rhs = evaluate_force(force, t)
            assert (lhs - rhs).l2() <= 1e-9 * max(rhs.l2(), 1e-30)


class TestRemainders:
    def setup_method(self):
        self.lat = closure(PowerSystem(), [1.0, 2.0], 4.0)
        rng = np.random.default_rng(6)
        self.xi1 = random_solenoidal_field(2, rng, amplitude=0.1)
        self.xi2 = random_solenoidal_field(2, rng, amplitude=0.05)
        self.target = target_expansion(self.lat, [self.xi1, self.xi2])
        self.force = manufacture_force(self.target, 2)
        self.tol = 1e-8
        u0 = evaluate_expansion(self.target, 5.0, 2)
        self.trace = integrate_nse(u0, self.force, 5.0, 120.0, self.tol)

    def test_exact_run_remainder_at_noise_floor(self):
        series = remainder_series(self.trace, self.target, 2, GevreyIndex(0.0, 0.0))
        for t, r in series:
            u_scale = evaluate_expansion(self.target, t, 2).l2()
            assert r <= 10 * self.tol * u_scale

    def test_zeroth_remainder_is_solution_norm(self):
        series = remainder_series(self.trace, self.target, 0, GevreyIndex(0.0, 0.0))
        for (t, r), l2 in zip(series, self.trace.l2):
            assert r == pytest.approx(l2, rel=1e-12)

    def test_monotone_refinement(self):
        r0 = remainder_series(self.trace, self.target, 0, GevreyIndex(0.0, 0.0))
        r1 = remainder_series(self.trace, self.target, 1, GevreyIndex(0.0, 0.0))
        late = [i for i, (t, _) in enumerate(r0) if t >= 20.0]
        assert all(r1[i][1] <= r0[i][1] for i in late)


class TestCutoffUniformity:
    def test_orders_do_not_depend_on_the_cutoff(self):
        # one run at K = 3, 4 and 6 of a t^-1 force on the three axis modes
        # (the closure is dense: 2,196 modes at K = 6): every fitted
        # remainder order passes, each agrees across every pair of cutoffs
        # far inside ORDER_TOLERANCE, and the L2 and G(1, 1/2) orders agree,
        # as the Gevrey estimates are uniform in the truncation
        modes = [{"k": [1, 0, 0], "re": [0.0, 0.3, 0.2], "im": [0.0, 0.0, 0.0]},
                 {"k": [0, 1, 0], "re": [0.25, 0.0, -0.3], "im": [0.0, 0.0, 0.0]},
                 {"k": [0, 0, 1], "re": [0.3, 0.2, 0.0], "im": [0.0, 0.0, 0.0]}]
        orders = {}
        for cutoff in (3, 4, 6):
            cfg = ExperimentConfig.from_json({
                "schema": 1, "system": {"kind": "power"}, "cutoff": cutoff,
                "lattice_cutoff": 4.5, "generators": [1.0],
                "force": {"type": "explicit",
                          "terms": [{"exponent": 1.0, "field": {"modes": modes}}]},
                "solver": {"t0": 5.0, "t1": 500.0, "tol": 1e-9, "sample_ratio": 1.1,
                           "u0": "zero"},
                "verification": {"orders": [0, 1, 2, 3], "gevrey": [[0.0, 0.0], [1.0, 0.5]],
                                 "window": [20.0, 200.0]}})
            fits = [c for c in run_experiment(cfg).checks
                    if c["property"] == "fitted_order_at_least"]
            assert len(fits) == 8 and all(c["pass"] for c in fits), fits
            orders[cutoff] = {c["case"]: c["measured"] for c in fits}
        for a, b in itertools.combinations(orders.values(), 2):
            assert a.keys() == b.keys()
            for case, order in a.items():
                assert abs(order - b[case]) <= 1e-6
        for fitted in orders.values():
            for N in range(4):
                l2, gevrey = (fitted[f"remainder[N={N},{label}]"] for label in ("a0_s0", "a1_s0.5"))
                assert abs(l2 - gevrey) <= 0.005 * l2


class TestDecayFits:
    def test_pure_power_law(self):
        ts = np.geomspace(10, 1e4, 60)
        series = [(t, t ** -2.0) for t in ts]
        fit = fit_decay_order(series, PowerSystem(), (10, 1e4))
        assert fit.slope == pytest.approx(2.0, abs=1e-3)
        assert fit.r2 > 0.999999

    def test_power_law_with_correction(self):
        ts = np.geomspace(1e2, 1e4, 50)
        series = [(t, t ** -2.0 * (1 + 1 / t)) for t in ts]
        fit = fit_decay_order(series, PowerSystem(), (1e2, 1e4))
        assert 1.9 <= fit.slope <= 2.1

    def test_log_decay_against_log_scale(self):
        sys = plain_log_system()
        ts = np.geomspace(1e3, 1e9, 60)
        series = [(t, math.log(t) ** -3.0) for t in ts]
        fit = fit_decay_order(series, sys, (1e3, 1e9))
        assert fit.slope == pytest.approx(3.0, abs=0.05)

    def test_window_and_floor_guards(self):
        series = [(t, 1e-305) for t in np.geomspace(10, 100, 20)]
        with pytest.raises(FitError):
            fit_decay_order(series, PowerSystem(), (10, 100))
        with pytest.raises(FitError):
            fit_decay_order([(10.0, 1.0)] * 3, PowerSystem(), (1, 100))


class TestBilinearEnsemble:
    def test_small_ensemble_structure(self):
        report = check_bilinear_estimate(ensemble=12, cutoffs=(2, 4),
                                         indices=((0.5, 0.0),), seed=9)
        assert (2, 0.5, 0.0) in report.sup_ratio and (4, 0.5, 0.0) in report.sup_ratio
        assert report.sup_ratio[(2, 0.5, 0.0)] > 0
        assert report.ok, report.checks

    def test_sup_ratio_uniform_in_the_cutoff(self):
        # the estimate holds uniformly in the truncation: from K = 4 to 16,
        # every cutoff's sup stays within BILINEAR_GROWTH_FACTOR of K = 4's
        cutoffs = (4, 8, 12, 16)
        report = check_bilinear_estimate(ensemble=40, cutoffs=cutoffs, seed=31)
        for alpha, sigma in ((0.5, 0.0), (1.0, 0.1)):
            base = report.sup_ratio[(4, alpha, sigma)]
            assert base > 0
            for K in cutoffs[1:]:
                assert report.sup_ratio[(K, alpha, sigma)] <= BILINEAR_GROWTH_FACTOR * base

    def test_denominator_symmetric_under_swap(self):
        u = random_solenoidal_field(2, RNG)
        v = random_solenoidal_field(2, RNG)
        idx = GevreyIndex(1.0, 0.0)
        den_uv = gevrey_norm(u, idx) * gevrey_norm(v, idx)
        den_vu = gevrey_norm(v, idx) * gevrey_norm(u, idx)
        assert den_uv == den_vu

    def test_rejects_empty_ensemble(self):
        with pytest.raises(ValueError):
            check_bilinear_estimate(ensemble=0, cutoffs=(2, 4))


class TestSeriesCriteria:
    def test_geometric_scalar_example(self):
        n = 40
        lambdas = list(range(1, n + 1))
        xi = [0.5 ** k for k in lambdas]
        grid = np.geomspace(2.0, 1e3, 50)
        report = check_series_expansion(
            xi, lambdas, kappa=0.5, M=2.0, c0=1.0, sys=PowerSystem(),
            t_grid=grid, N_list=[0, 1, 2, 5], series_sum=1.0)
        assert report.ok, [c for c in report.checks if not c.passed]
        assert report.T0 == 1.0    # phi(t_min) already meets 1/(M kappa)
        assert report.T1 == pytest.approx(2.0, rel=1e-6)
        assert report.c1 == pytest.approx(0.5, rel=1e-9)
        # C_N = c1 (M / phi(T0))^(lambda_{N+1}) * sum = 2^N
        for N, C in report.tail_constants.items():
            assert C == pytest.approx(2.0 ** N, rel=1e-6)

    def test_unreachable_threshold_is_a_fit_error(self):
        # a flat phi never falls to 1/(M kappa) = 1
        with pytest.raises(FitError, match="unreachable"):
            check_series_expansion([0.5], [1.0], kappa=0.5, M=2.0, c0=1.0,
                                   phi=lambda t: 2.0, t_start=1.0, series_sum=1.0)

    def test_reordering_path(self):
        lambdas = [2.0, 1.0, 3.0]
        xi = [0.25, 0.5, 0.125]
        report = check_series_expansion(xi, lambdas, kappa=0.5, M=2.0, c0=1.0,
                                        sys=PowerSystem(), series_sum=1.0)
        assert report.reordered
        assert report["exponents_strictly_increasing"].passed

    def test_duplicate_exponent_flagged(self):
        report = check_series_expansion([0.5, 0.5], [1.0, 1.0], kappa=0.5, M=2.0,
                                        c0=1.0, sys=PowerSystem(), series_sum=1.0)
        assert not report["exponents_strictly_increasing"].passed

    def test_coefficient_bound_violation_reported(self):
        report = check_series_expansion([10.0], [1.0], kappa=0.5, M=2.0, c0=1.0,
                                        sys=PowerSystem(), series_sum=1.0)
        assert not report["coefficient_bound"].passed

    def test_weighted_pair_family(self):
        # derivative family of one product-system term, with the sandwich
        # constants D_k = 2^(a+b+k+1) and envelope phi = 1/t
        g = math.sqrt(2.0) / 2.0
        a, b = 1, 1
        ks = list(range(1, 25))
        lambdas = [g * (a + 1) + (1 - g) * (b + k) for k in ks]
        xi = [g * a] * len(ks)
        D = [2.0 ** (a + b + k + 1) for k in ks]
        psi = [lambda t, _k=k: (t ** g + 1.0) ** -(a + 1) * (t ** (1 - g) + 1.0) ** -(b + _k)
               for k in ks]
        M = 3.0 ** (1.0 / (1.0 - g))
        grid = np.geomspace(50.0, 1e5, 50)
        report = check_series_expansion(
            xi, lambdas, kappa=1.0, M=M, c0=g * a, phi=lambda t: 1.0 / t,
            t_start=1.0, D=D, psi_funcs=psi, t_grid=grid, N_list=[0, 3])
        assert report.ok, [c for c in report.checks if not c.passed]


def _energy_audit():
    lat = closure(PowerSystem(), [1.0], 3.0)
    u0 = random_solenoidal_field(2, np.random.default_rng(5), amplitude=0.1)
    return energy_budget(integrate_nse(u0, ForceSpec.zero(lat, 2), 2.0, 6.0, 1e-6))


AUDITS = {
    "system_conditions": lambda: verify_system_conditions(
        PowerSystem(), [Exponent(1.0), Exponent(2.5)], np.geomspace(2, 2e5, 40)),
    "bilinear": lambda: check_bilinear_estimate(ensemble=4, cutoffs=(2, 3),
                                                indices=((0.5, 0.0),), seed=9),
    # the first coefficient breaks its bound, so one check fails
    "series": lambda: check_series_expansion([10.0, 0.25], [1.0, 2.0], kappa=0.5, M=2.0,
                                             c0=1.0, sys=PowerSystem(), series_sum=1.0),
    "energy": _energy_audit,
}


class TestReport:
    @pytest.mark.parametrize("audit", sorted(AUDITS))
    def test_every_audit_answers_one_report(self, audit):
        report = AUDITS[audit]()
        assert isinstance(report, Report) and report.checks
        assert report.failures() == [c for c in report.checks if not c.passed]
        assert report.ok == (not report.failures())
        assert len({c.name for c in report.checks}) == len(report.checks)
        for c in report.checks:
            assert report[c.name] is c
        with pytest.raises(KeyError):
            report["no_such_check"]
        if audit == "series":
            assert [c.name for c in report.failures()] == ["coefficient_bound"]
