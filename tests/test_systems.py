import math
from fractions import Fraction

import numpy as np
import pytest

from nsasym.systems import (
    DomainError,
    Exponent,
    IteratedLogSystem,
    PowerSystem,
    ProductSystem,
    SinLogSystem,
    SqrtShiftSystem,
    SystemSpecError,
    TanLogSystem,
    iterated_log,
    min_log_time,
    system_from_json,
    verify_system_conditions,
)

GAMMA = math.sqrt(2.0) / 2.0


def plain_log_system(m=1):
    # omega = L_m(t): Q0 = z_m, Q1 = t, beta = 1
    q0 = [([0] * (m - 1) + [1], 1.0)]
    return IteratedLogSystem(m=m, q0=q0, q1=[0.0, 1.0], beta=1.0)


class TestEval:
    def test_power(self):
        sys = PowerSystem()
        assert sys.eval(Exponent(2.0), 10.0) == pytest.approx(0.01, rel=1e-15)

    def test_plain_log(self):
        sys = plain_log_system()
        assert sys.eval(Exponent(1.0), math.e ** 2) == pytest.approx(0.5, rel=1e-12)

    def test_sqrt_shift(self):
        sys = SqrtShiftSystem()
        assert sys.eval(Exponent(1.0), 9.0) == pytest.approx(0.25, rel=1e-15)

    def test_product(self):
        sys = ProductSystem(GAMMA)
        lam = sys.exponent_from_pair(1, 2)
        t = 7.0
        want = (t ** GAMMA + 1) ** -1 * (t ** (1 - GAMMA) + 1) ** -2
        assert sys.eval(lam, t) == pytest.approx(want, rel=1e-14)

    def test_sin_tan(self):
        for cls in (SinLogSystem, TanLogSystem):
            sys = cls(1)
            t = 100.0
            x = 1.0 / math.log(t)
            trig = math.sin if cls is SinLogSystem else math.tan
            assert sys.eval(Exponent(2.0), t) == pytest.approx(trig(x) ** 2, rel=1e-14)

    @pytest.mark.parametrize("make", [
        lambda: (PowerSystem(), Exponent(1.5)),
        lambda: (SqrtShiftSystem(), Exponent(1.5)),
        lambda: (plain_log_system(m=2), Exponent(1.5)),
        lambda: (SinLogSystem(1), Exponent(1.5)),
        lambda: (TanLogSystem(2), Exponent(1.5)),
        lambda: (ProductSystem(GAMMA), ProductSystem(GAMMA).exponent_from_pair(1, 2)),
    ], ids=["power", "sqrt_shift", "iterated_log", "sin_log", "tan_log", "product"])
    def test_psi_prime_matches_central_difference(self, make):
        sys, lam = make()
        t = 50.0
        h = 1e-5 * t
        diff = (sys.eval(lam, t + h) - sys.eval(lam, t - h)) / (2.0 * h)
        assert sys.psi_prime(lam, t) == pytest.approx(diff, rel=1e-7)

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            PowerSystem().eval(Exponent(1.0), 0.5)
        with pytest.raises(DomainError):
            plain_log_system(m=2).eval(Exponent(1.0), 2.0)


class TestIteratedLog:
    def test_tower_values(self):
        assert iterated_log(1, math.e) == pytest.approx(1.0, rel=1e-14)
        assert iterated_log(2, math.exp(math.e)) == pytest.approx(1.0, rel=1e-13)
        assert iterated_log(3, math.exp(math.exp(math.e))) == pytest.approx(1.0, rel=1e-12)

    def test_minimal_admissible(self):
        assert min_log_time(1) == 1.0
        assert min_log_time(2) == pytest.approx(math.e)
        with pytest.raises(DomainError):
            iterated_log(2, 2.0)

    def test_log_time_evaluation_beyond_float_range(self):
        # t = e^(1e10) is unrepresentable; psi must still evaluate
        sys = plain_log_system(m=3)
        got = sys.eval_at_log_time(Exponent(1.0), 1e10)
        want = 1.0 / math.log(math.log(1e10))
        assert got == pytest.approx(want, rel=1e-12)

    def test_log_time_matches_direct_in_range(self):
        sys = plain_log_system(m=2)
        t = 1e8
        a = sys.eval(Exponent(1.5), t)
        b = sys.eval_at_log_time(Exponent(1.5), math.log(t))
        assert a == pytest.approx(b, rel=1e-12)

    def test_q0_admissibility(self):
        with pytest.raises(SystemSpecError):
            IteratedLogSystem(m=1, q0=[((0,), 3.0)], q1=[0, 1])  # degree 0
        with pytest.raises(SystemSpecError):
            IteratedLogSystem(m=1, q0=[((1,), -1.0)], q1=[0, 1])  # negative lead
        with pytest.raises(SystemSpecError):
            IteratedLogSystem(m=1, q0=[((1,), 1.0)], q1=[5.0])  # Q1 constant

    def test_general_omega(self):
        # omega = 3 L1^2 L3 - 2 L2 at Q1(t) = t^2 + 1, beta = 0.5
        sys = IteratedLogSystem(
            m=3, q0=[((2, 0, 1), 3.0), ((0, 1, 0), -2.0)], q1=[1.0, 0.0, 1.0], beta=0.5)
        t = 1e7
        s = t ** 0.5
        x = s * s + 1.0
        l1 = math.log(x)
        l2 = math.log(l1)
        l3 = math.log(l2)
        assert sys.omega(t) == pytest.approx(3 * l1 ** 2 * l3 - 2 * l2, rel=1e-12)
        h = 1e-3
        fd = (sys.omega(t * (1 + h)) - sys.omega(t * (1 - h))) / (2 * h * t)
        assert sys.omega_prime(t) == pytest.approx(fd, rel=1e-5)


class TestWedge:
    def test_power_sum(self):
        w = PowerSystem().wedge(Exponent(1.5), Exponent(2.5))
        assert w.value == pytest.approx(4.0)

    def test_product_pairs_add(self):
        sys = ProductSystem(GAMMA)
        w = sys.wedge(sys.exponent_from_pair(2, 3), sys.exponent_from_pair(1, 1))
        assert w.pair == (Fraction(3), Fraction(4))
        assert w.value == pytest.approx(GAMMA * 3 + (1 - GAMMA) * 4, rel=1e-14)

    def test_commutative(self):
        product = ProductSystem(GAMMA)
        for sys, a, b in [
            (PowerSystem(), Exponent(0.7), Exponent(1.9)),
            (SqrtShiftSystem(), Exponent(1.0), Exponent(2.0)),
            (product, product.exponent_from_pair(2, 3), product.exponent_from_pair(1, 1)),
        ]:
            assert sys.same(sys.wedge(a, b), sys.wedge(b, a))

    def test_pointwise_identity(self):
        # the product identity holds exactly pointwise
        sys = SqrtShiftSystem()
        lam, mu = Exponent(1.3), Exponent(0.9)
        w = sys.wedge(lam, mu)
        for t in (2.0, 17.0, 400.0):
            assert sys.eval(lam, t) * sys.eval(mu, t) == pytest.approx(
                sys.eval(w, t), rel=1e-12)


class TestVee:
    def test_power_single_term(self):
        terms = PowerSystem().vee(Exponent(3.0), 10.0)
        assert len(terms) == 1
        assert terms[0].exponent.value == pytest.approx(4.0)
        assert terms[0].coeff == pytest.approx(-3.0)

    def test_sqrt_family(self):
        terms = SqrtShiftSystem().vee(Exponent(1.0), 4.5)
        assert [(t.exponent.value, t.coeff) for t in terms] == [(3.0, -0.5), (4.0, -0.5)]

    def test_log_kinds_empty(self):
        assert plain_log_system().vee(Exponent(2.0), 50.0) == []
        assert SinLogSystem(1).vee(Exponent(1.0), 10.0) == []

    def test_cutoff_precondition(self):
        with pytest.raises(ValueError):
            PowerSystem().vee(Exponent(3.0), 2.0)

    def test_product_merged_family(self):
        sys = ProductSystem(GAMMA)
        lam = sys.exponent_from_pair(2, 1)
        cutoff = lam.value + 2.5
        terms = sys.vee(lam, cutoff)
        got = {t.exponent.pair: t.coeff for t in terms}
        # corner (3, 2) collects both -g*a and -(1-g)*b
        assert got[(Fraction(3), Fraction(2))] == pytest.approx(-(GAMMA * 2 + (1 - GAMMA) * 1))
        for pair, coeff in got.items():
            a, b = pair
            if b - 1 >= 2 and a == 3:  # (a+1, b+k), k >= 2 branch
                assert coeff == pytest.approx(-GAMMA * 2)
            if a - 2 >= 2 and b == 2:  # (a+k, b+1), k >= 2 branch
                assert coeff == pytest.approx(-(1 - GAMMA) * 1)
        values = [t.exponent.value for t in terms]
        assert values == sorted(values)
        assert all(v > lam.value and v <= cutoff for v in values)

    def test_product_derivative_matches_truncation(self):
        # |psi' - truncated vee sum| should sit near the first omitted term
        sys = ProductSystem(GAMMA)
        lam = sys.exponent_from_pair(1, 1)
        cutoff = lam.value + 3.0
        terms = sys.vee(lam, cutoff)
        t = 2.0e5
        acc = sum(term.coeff * sys.eval(term.exponent, t) for term in terms)
        resid = abs(sys.psi_prime(lam, t) - acc)
        omitted = sys.vee(lam, cutoff + 3.0)[len(terms)]
        assert resid <= 10.0 * abs(omitted.coeff) * sys.eval(omitted.exponent, t)


class TestExponentPairs:
    def test_pair_value_consistency_enforced(self):
        sys = ProductSystem(GAMMA)
        bad = Exponent(2.0, (Fraction(1), Fraction(1)))  # value should be 1
        with pytest.raises(SystemSpecError):
            sys.eval(bad, 10.0)

    def test_pair_required(self):
        sys = ProductSystem(GAMMA)
        with pytest.raises(SystemSpecError):
            sys.eval(Exponent(1.0), 10.0)

    def test_exponent_positive(self):
        with pytest.raises(ValueError):
            Exponent(0.0)


class TestJson:
    def test_round_trip_all_kinds(self):
        systems = [
            PowerSystem(),
            SqrtShiftSystem(),
            plain_log_system(m=2),
            SinLogSystem(1),
            TanLogSystem(2),
            ProductSystem(GAMMA),
        ]
        for sys in systems:
            clone = system_from_json(sys.to_json())
            assert clone.kind == sys.kind
            assert clone.to_json() == sys.to_json()

    def test_unknown_kind(self):
        with pytest.raises(SystemSpecError):
            system_from_json({"kind": "exponential", "params": {}})


class TestConditionChecks:
    def test_power_all_pass(self):
        report = verify_system_conditions(
            PowerSystem(), [Exponent(1.0), Exponent(2.5)], np.geomspace(2, 2e5, 40))
        assert report.ok, report.failures()

    def test_sqrt_vee_slope(self):
        report = verify_system_conditions(
            SqrtShiftSystem(), [Exponent(1.0)], np.geomspace(100, 1e6, 40))
        assert report.ok, report.failures()
        vee = [c for c in report.checks if c.name.startswith("vee_residual")][0]
        assert vee.measured["expected"] == pytest.approx(5.0)
        assert vee.measured["fitted_order"] >= 5.0 - 0.1

    def test_plain_log_passes(self):
        report = verify_system_conditions(
            plain_log_system(), [Exponent(1.0)], np.geomspace(10, 1e9, 45))
        assert report.ok, report.failures()

    def test_product_wedge_consistency(self):
        sys = ProductSystem(GAMMA)
        lams = [sys.exponent_from_pair(1, 1), sys.exponent_from_pair(2, 1)]
        report = verify_system_conditions(sys, lams, np.geomspace(5, 1e6, 40))
        wedges = [c for c in report.checks if c.name.startswith("wedge")]
        assert wedges and all(c.passed for c in wedges)
        assert all(c.measured["max_rel_err"] <= 1e-10 for c in wedges)

    def test_trig_systems_pass(self):
        for cls in (SinLogSystem, TanLogSystem):
            sys = cls(1)
            report = verify_system_conditions(
                sys, [Exponent(1.0)], np.geomspace(sys.t_min * 1.5, 1e9, 40))
            assert report.ok, (cls.__name__, report.failures())

    def test_ordering_quotient_vanishes(self):
        # lam > mu forces psi_lam / psi_mu -> 0 along any divergent grid
        cases = [
            (PowerSystem(), Exponent(2.5), Exponent(1.0), np.geomspace(2, 1e8, 30)),
            (plain_log_system(), Exponent(5.0), Exponent(1.5), np.geomspace(10, 1e12, 30)),
            (SqrtShiftSystem(), Exponent(3.0), Exponent(2.0), np.geomspace(2, 1e10, 30)),
        ]
        for sys, lam, mu, grid in cases:
            q = [sys.eval(lam, t) / sys.eval(mu, t) for t in grid]
            assert all(b < a for a, b in zip(q, q[1:]))
            assert q[-1] < 1e-2 * q[0]
