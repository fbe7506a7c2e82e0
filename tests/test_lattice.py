import math
from fractions import Fraction

import numpy as np
import pytest

from nsasym.lattice import (
    ClosureError,
    closure,
    decompose_product_exponent,
    enumerate_pair_components,
)
from nsasym.systems import Exponent, PowerSystem, ProductSystem, SqrtShiftSystem

from oracles import bfs_closure

GAMMA = math.sqrt(2.0) / 2.0


def power_vee_values(x, cutoff):
    return [x + 1.0] if x + 1.0 <= cutoff else []


def sqrt_vee_values(cutoff):
    def inner(x):
        out = []
        k = 1
        while x + 1.0 + k <= cutoff:
            out.append(x + 1.0 + k)
            k += 1
        return out
    return inner


def provenance_lattices():
    """A continuum power lattice, two sqrt_shift lattices and a product
    lattice, whose identity rule compares exact pairs."""
    product = ProductSystem(GAMMA)
    return [
        closure(PowerSystem(), [1.0, 1.3], 4.2),
        closure(SqrtShiftSystem(), [1.0], 5.5),
        closure(SqrtShiftSystem(), [1.0, 1.5], 7.0),
        closure(product, [product.exponent_from_pair(1, 1), product.exponent_from_pair(1, 2)], 5.0),
    ]


class TestClosure:
    def test_power_single_generator(self):
        lat = closure(PowerSystem(), [1.0], 3.5)
        assert lat.values() == pytest.approx([1.0, 2.0, 3.0])

    def test_power_fractional_generator(self):
        lat = closure(PowerSystem(), [0.4], 2.2)
        assert lat.values() == pytest.approx([0.4, 0.8, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2])

    def test_empty_vee_semigroup(self):
        from nsasym.systems import IteratedLogSystem
        sys = IteratedLogSystem(m=1, q0=[((1,), 1.0)], q1=[0.0, 1.0])
        g = 0.7
        lat = closure(sys, [g], 5 * g)
        assert lat.values() == pytest.approx([g, 2 * g, 3 * g, 4 * g, 5 * g])

    def test_matches_bfs_oracle_random(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            kind = trial % 2
            cutoff = float(rng.uniform(4.0, 10.0))
            gens = sorted(set(np.round(rng.uniform(0.5, 3.0, size=rng.integers(1, 4)), 3)))
            if kind == 0:
                sys = PowerSystem()
                oracle = bfs_closure(
                    lambda x: power_vee_values(x, cutoff), lambda a, b: a + b, gens, cutoff)
            else:
                sys = SqrtShiftSystem()
                oracle = bfs_closure(
                    sqrt_vee_values(cutoff), lambda a, b: a + b, gens, cutoff)
            got = closure(sys, gens, cutoff).values()
            assert len(got) == len(oracle)
            assert got == pytest.approx(list(oracle), abs=1e-9)

    def test_monotone_in_cutoff(self):
        sys = SqrtShiftSystem()
        small = closure(sys, [0.9, 1.4], 6.0)
        large = closure(sys, [0.9, 1.4], 9.5)
        prefix = [v for v in large.values() if v <= 6.0 + 1e-9]
        assert small.values() == pytest.approx(prefix)

    def test_rejects_bad_cutoff(self):
        with pytest.raises(ClosureError):
            closure(PowerSystem(), [2.0], 1.0)
        with pytest.raises(ClosureError):
            closure(PowerSystem(), [1.0, 9.0], 5.0)
        with pytest.raises(ClosureError):
            closure(PowerSystem(), [], 5.0)

    def test_minimality(self):
        # dropping any non-generator entry breaks closure of the rest
        sys = PowerSystem()
        lat = closure(sys, [1.0, 1.5], 4.0)
        values = lat.values()
        gen_vals = {1.0, 1.5}
        for drop in values:
            if drop in gen_vals:
                continue
            rest = [v for v in values if v != drop]
            reachable = set()
            for v in rest:
                for w in power_vee_values(v, 4.0):
                    reachable.add(round(w, 9))
                for u in rest:
                    if v + u <= 4.0 + 1e-9:
                        reachable.add(round(v + u, 9))
            assert round(drop, 9) in reachable  # some surviving pair regenerates it


class TestProvenance:
    def test_generator_tags(self):
        lat = closure(PowerSystem(), [1.0], 3.5)
        assert lat.entries[0].is_generator()
        assert not lat.entries[1].is_generator()

    def test_wedge_pairs_match_rescan(self):
        for lat in provenance_lattices():
            vals = lat.values()
            for n in range(1, len(lat) + 1):
                expect = [(i + 1, j + 1) for i in range(len(vals)) for j in range(len(vals))
                          if abs(vals[i] + vals[j] - vals[n - 1]) <= 1e-9]
                assert sorted(lat.wedge_pairs(n)) == sorted(expect)

    def test_vee_sources_match_rescan(self):
        for lat in provenance_lattices():
            vals = lat.values()
            for n in range(1, len(lat) + 1):
                expect = []
                for p, v in enumerate(vals, 1):
                    if v >= lat.cutoff:
                        continue
                    for k, term in enumerate(lat.system.vee(lat.exponent(p), lat.cutoff), 1):
                        if abs(term.exponent.value - vals[n - 1]) <= 1e-9:
                            expect.append((p, k))
                assert sorted(lat.vee_sources(n)) == sorted(expect)

    def test_closure_invariant(self):
        # every wedge and vee image below the cutoff must be present
        sys = PowerSystem()
        lat = closure(sys, [0.8, 1.1], 5.0)
        for e in lat.entries:
            for f in lat.entries:
                w = sys.wedge(e.exponent, f.exponent)
                if w.value <= lat.cutoff:
                    assert lat.index_of(w) is not None
            if e.value < lat.cutoff:
                for term in sys.vee(e.exponent, lat.cutoff):
                    assert lat.index_of(term.exponent) is not None
        for g in (0.8, 1.1):
            assert lat.index_of(g) is not None


class TestIndexOf:
    def test_present(self):
        lat = closure(PowerSystem(), [1.0], 3.5)
        assert lat.index_of(2.0) == 2

    def test_absent(self):
        lat = closure(PowerSystem(), [1.0], 3.5)
        assert lat.index_of(2.5) is None

    def test_pair_lookup_ignores_value_noise(self):
        sys = ProductSystem(GAMMA)
        lat = closure(sys, [sys.exponent_from_pair(1, 1)], 3.2)
        noisy = Exponent(
            sys.exponent_from_pair(2, 2).value + 1e-12, (Fraction(2), Fraction(2)))
        assert lat.index_of(noisy) == lat.index_of(sys.exponent_from_pair(2, 2))


class TestProductLattice:
    def test_entries_and_pairs(self):
        sys = ProductSystem(GAMMA)
        lat = closure(sys, [sys.exponent_from_pair(1, 1)], 3.2)
        pairs = [tuple(int(x) for x in e.exponent.pair) for e in lat.entries]
        assert pairs[:2] == [(1, 1), (2, 2)]
        assert (3, 3) in pairs
        assert len(lat) >= 6
        vals = lat.values()
        assert vals == sorted(vals)
        assert len(set(pairs)) == len(pairs)

    def test_pairs_on_candidate_grid(self):
        sys = ProductSystem(GAMMA)
        lat = closure(sys, [sys.exponent_from_pair(1, 1)], 3.2)
        e1 = set(enumerate_pair_components([Fraction(1)], Fraction(8)))
        e2 = set(enumerate_pair_components([Fraction(1)], Fraction(8)))
        for e in lat.entries:
            a, b = e.exponent.pair
            assert a in e1 and b in e2
            assert abs(e.value - (GAMMA * float(a) + (1 - GAMMA) * float(b))) <= 1e-12

    def test_decompose_generator(self):
        sys = ProductSystem(GAMMA)
        mu = GAMMA * 2 + (1 - GAMMA) * 3
        exp = decompose_product_exponent(sys, mu, [Fraction(2)], [Fraction(3)])
        assert exp.pair == (Fraction(2), Fraction(3))

    def test_decompose_sum(self):
        sys = ProductSystem(GAMMA)
        mu = GAMMA * 3.0 + (1 - GAMMA) * 3.0
        exp = decompose_product_exponent(sys, mu, [Fraction(1)], [Fraction(1)])
        assert exp.pair == (Fraction(3), Fraction(3))

    def test_decompose_off_grid(self):
        sys = ProductSystem(GAMMA)
        with pytest.raises(ClosureError):
            decompose_product_exponent(sys, 2.71828, [Fraction(2)], [Fraction(3)])

    def test_decompose_detects_poor_resolution(self):
        sys = ProductSystem(0.5000000001)  # effectively rational mixing weight
        mu = 0.5000000001 * 2 + (1 - 0.5000000001) * 1
        with pytest.raises(ClosureError):
            decompose_product_exponent(sys, mu, [Fraction(1)], [Fraction(1)])


class TestSerialization:
    def test_json_shape(self):
        lat = closure(PowerSystem(), [1.0], 3.5)
        data = lat.to_json()
        assert [e["n"] for e in data["entries"]] == [1, 2, 3]
        assert data["entries"][0]["origins"] == [["generator"]]

    def test_permuted_generators_identical(self):
        a = closure(PowerSystem(), [1.0, 1.5, 2.0], 4.0)
        b = closure(PowerSystem(), [2.0, 1.0, 1.5, 1.0], 4.0)
        assert a.values() == b.values()
        assert a.to_json()["entries"] == b.to_json()["entries"]
