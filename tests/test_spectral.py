import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nsasym.spectral import (
    _irfftn,
    _rfftn,
    GevreyIndex,
    SpectralField,
    SpectralRangeError,
    CutoffMismatchError,
    apply_inverse_stokes,
    advection_sum,
    apply_multiplier,
    bilinear_form,
    gevrey_norm,
    inner_product,
    leray_project,
    low_mode_project,
    random_solenoidal_field,
    smoothing_constant,
    trilinear_form,
)

from nsasym.expansion import compute_coefficients, normalize_force
from oracles import bilinear_quadrature
from test_lattice import provenance_lattices

RNG = np.random.default_rng(20240211)


def shear_field(cutoff=4, amp=0.5):
    # single conjugate pair +-(1,0,0) with amplitude along y: B(u,u) = 0
    return SpectralField.from_modes(cutoff, {(1, 0, 0): (0.0, amp, 0.0)})


def supported_field(cutoff, support, rng):
    """Random solenoidal field on one of five supports: every mode of the
    cube ("dense"), the k3 = 0 plane ("planar"), the k1 axis ("axis"), a
    single conjugate pair ("pair") or none ("zero")."""
    f = random_solenoidal_field(cutoff, rng)
    if support == "dense":
        return f
    if support == "zero":
        return SpectralField.zero(cutoff)
    if support in ("planar", "axis"):
        box = (slice(None), slice(None) if support == "planar" else cutoff, cutoff)
        kept = np.zeros_like(f.coeffs)
        kept[box] = f.coeffs[box]
        return leray_project(kept, cutoff)
    k = (0, 0, 0)
    while k == (0, 0, 0):
        k = tuple(int(x) for x in rng.integers(-cutoff, cutoff + 1, size=3))
    amp = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    return SpectralField.from_modes(cutoff, {k: amp})


def support_sum(u, v):
    """Brute-force set sum supp(u) + supp(v), cropped to the cube."""
    K = u.cutoff
    return {tuple(a + b for a, b in zip(p, q))
            for (p, _), (q, _) in itertools.product(u.modes(), v.modes())
            if all(abs(a + b) <= K for a, b in zip(p, q))}


def dense_modes(cutoff, modes):
    """Dense coefficient array holding exactly the listed {k: amplitude}
    modes, with no mirror filled in."""
    W = 2 * cutoff + 1
    arr = np.zeros((W, W, W, 3), dtype=np.complex128)
    for k, amp in modes.items():
        arr[tuple(x + cutoff for x in k)] = amp
    return arr


class TestLerayProjection:
    def test_gradient_mode_annihilated(self):
        f = leray_project(dense_modes(2, {(1, 0, 0): (1.0, 0.0, 0.0)}), 2)
        assert f.l2() == 0.0

    def test_transverse_mode_unchanged(self):
        raw = {(1, 0, 0): (0.0, 1.0, 0.0), (-1, 0, 0): (0.0, 1.0, 0.0)}
        f = leray_project(dense_modes(2, raw), 2)
        np.testing.assert_allclose(f.coeffs[3, 2, 2], [0.0, 1.0, 0.0])

    def test_oblique_mode_by_hand(self):
        raw = {(1, 1, 0): (1.0, 0.0, 0.0), (-1, -1, 0): (1.0, 0.0, 0.0)}
        f = leray_project(dense_modes(2, raw), 2)
        np.testing.assert_allclose(f.coeffs[3, 3, 2], [0.5, -0.5, 0.0], atol=1e-15)

    def test_idempotent_exactly(self):
        f = random_solenoidal_field(3, RNG)
        g = leray_project(f.coeffs, 3)
        np.testing.assert_array_equal(f.coeffs, g.coeffs)

    def test_invariants_hold(self):
        f = leray_project(dense_modes(
            3, {(1, 2, 0): (0.3 + 1j, -2.0, 0.7), (0, 0, 0): (1.0, 1.0, 1.0)}), 3)
        f.validate()
        assert f.coeffs[3, 3, 3].max() == 0.0


@pytest.mark.parametrize("k", [(1, 0), (1, 0, 0, 0), (4, 0, 0), (0.5, 0, 0)],
                         ids=["two_components", "four_components", "above_cutoff",
                              "fractional"])
def test_malformed_wave_vector_rejected(k):
    # a two-component k used to index, and fill, the whole k3 column
    with pytest.raises(ValueError):
        SpectralField.from_modes(3, {k: (0.0, 1.0, 0.0)})


class TestMultipliers:
    def test_sqrt_stokes_scale(self):
        f = SpectralField.from_modes(2, {(1, 1, 0): (1.0, -1.0, 0.0)})
        g = apply_multiplier(f, "A_alpha", 0.5)
        ratio = g.coeffs[3, 3, 2, 0] / f.coeffs[3, 3, 2, 0]
        assert ratio == pytest.approx(math.sqrt(2.0), rel=1e-14)

    def test_gevrey_identity_at_zero(self):
        f = random_solenoidal_field(3, RNG)
        g = apply_multiplier(f, "exp_sqrtA", 0.0)
        np.testing.assert_array_equal(f.coeffs, g.coeffs)

    def test_heat_scale(self):
        f = shear_field(cutoff=2)
        g = apply_multiplier(f, "heat", 1.0)
        ratio = g.coeffs[3, 2, 2, 1] / f.coeffs[3, 2, 2, 1]
        assert ratio == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_heat_requires_nonnegative_time(self):
        with pytest.raises(ValueError):
            apply_multiplier(shear_field(), "heat", -0.1)

    def test_overflow_guard(self):
        with pytest.raises(SpectralRangeError):
            apply_multiplier(shear_field(cutoff=4), "exp_sqrtA", 800.0)

    def test_inverse_stokes(self):
        f = SpectralField.from_modes(2, {(2, 0, 0): (0.0, 4.0, 0.0)})
        g = apply_inverse_stokes(f)
        assert g.coeffs[4, 2, 2, 1] == pytest.approx(1.0)


class TestGevreyNorm:
    def test_unit_eigenvalue_insensitive_to_alpha(self):
        f = shear_field(cutoff=2, amp=0.7)
        n0 = gevrey_norm(f, GevreyIndex(0.0, 0.0))
        n1 = gevrey_norm(f, GevreyIndex(1.0, 0.0))
        assert n1 == pytest.approx(n0, rel=1e-14)

    def test_hand_multiplier(self):
        f = SpectralField.from_modes(2, {(1, 1, 1): (1.0, -1.0, 0.0)})
        expected = math.sqrt(3.0) * 2.0 ** math.sqrt(3.0)
        got = gevrey_norm(f, GevreyIndex(0.5, math.log(2.0)))
        assert got == pytest.approx(expected * gevrey_norm(f, GevreyIndex(0, 0)), rel=1e-13)

    def test_zero_field(self):
        assert gevrey_norm(SpectralField.zero(3), GevreyIndex(2.0, 1.0)) == 0.0

    def test_l2_agrees_with_parseval(self):
        f = shear_field(cutoff=2, amp=0.5)
        # two modes of squared amplitude 0.25 each
        assert f.l2() == pytest.approx((2 * math.pi) ** 1.5 * math.sqrt(0.5), rel=1e-14)

    def test_monotone_in_alpha_and_sigma(self):
        f = random_solenoidal_field(3, RNG)
        grid = [0.0, 0.25, 0.5, 1.0]
        norms_a = [gevrey_norm(f, GevreyIndex(a, 0.1)) for a in grid]
        norms_s = [gevrey_norm(f, GevreyIndex(0.5, s)) for s in grid]
        assert all(x <= y * (1 + 1e-12) for x, y in zip(norms_a, norms_a[1:]))
        assert all(x <= y * (1 + 1e-12) for x, y in zip(norms_s, norms_s[1:]))

    def test_smoothing_bound(self):
        # |A^alpha v| <= d0(2 alpha, sigma) |v|_{0, sigma} on random fields
        for alpha, sigma in [(0.5, 0.3), (1.0, 0.2), (2.0, 1.0)]:
            for _ in range(5):
                v = random_solenoidal_field(3, RNG)
                lhs = gevrey_norm(v, GevreyIndex(alpha, 0.0))
                rhs = smoothing_constant(2 * alpha, sigma) * gevrey_norm(v, GevreyIndex(0.0, sigma))
                assert lhs <= rhs * (1 + 1e-12)


class TestSmoothingConstant:
    def test_values(self):
        assert smoothing_constant(1.0, 1.0) == pytest.approx(1 / math.e, rel=1e-15)
        assert smoothing_constant(2.0, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            smoothing_constant(0.0, 1.0)
        with pytest.raises(ValueError):
            smoothing_constant(1.0, -1.0)


class TestBilinearForm:
    def test_shear_self_advection_vanishes(self):
        u = shear_field()
        assert bilinear_form(u, u).l2() == 0.0

    def test_zero_left_argument(self):
        v = random_solenoidal_field(2, RNG)
        assert bilinear_form(SpectralField.zero(2), v).l2() == 0.0

    def test_matches_quadrature_oracle(self):
        for _ in range(3):
            u = random_solenoidal_field(2, RNG, amplitude=0.8)
            v = random_solenoidal_field(2, RNG, amplitude=1.1)
            got = bilinear_form(u, v)
            want = bilinear_quadrature(u, v, n=16)
            scale = max(want.l2(), 1e-30)
            assert (got - want).l2() <= 1e-10 * scale

    @pytest.mark.parametrize("cutoff", [2, 3, 5])
    @pytest.mark.parametrize("support", ["dense", "planar", "pair",
                                         "planar_pair", "axis_dense", "zero_dense"])
    def test_matches_quadrature_oracle_on_supports(self, cutoff, support):
        # "a_b" draws u on support a and v on support b: the two extents differ
        # per axis, and so does every grid size of the padded transform
        rng = np.random.default_rng([cutoff, len(support)])
        left_support, _, right_support = support.partition("_")
        u = supported_field(cutoff, left_support, rng)
        v = supported_field(cutoff, right_support or left_support, rng)
        pairs = ((u, v), (u, u)) if not right_support else ((u, v), (v, u), (u, u), (v, v))
        for left, right in pairs:
            got = bilinear_form(left, right)
            want = bilinear_quadrature(left, right, n=3 * cutoff + 1)
            # a single pair advecting itself gives B = 0: measure against the inputs
            scale = max(want.l2(), left.l2() * gevrey_norm(right, GevreyIndex(0.5, 0.0)))
            assert (got - want).l2() <= 1e-10 * scale
            # projecting the output box alone equals projecting the cube
            np.testing.assert_array_equal(leray_project(got.coeffs, cutoff).coeffs, got.coeffs)

    @pytest.mark.parametrize("cutoff", [3, 5])
    @pytest.mark.parametrize("support", ["planar", "pair", "sparse"])
    def test_exactly_zero_off_support_sum(self, cutoff, support):
        rng = np.random.default_rng([cutoff, len(support), 7])
        if support == "sparse":
            # a few random pairs scattered through the cube
            fields = [sum((supported_field(cutoff, "pair", rng) for _ in range(4)),
                          SpectralField.zero(cutoff)) for _ in range(2)]
        else:
            fields = [supported_field(cutoff, support, rng) for _ in range(2)]
        u, v = fields
        for left, right in ((u, v), (v, u), (u, u)):
            # modes() yields every coefficient that is not exactly zero
            assert {k for k, _ in bilinear_form(left, right).modes()} <= support_sum(left, right)

    @pytest.mark.parametrize("cutoff", [2, 3, 4])
    @pytest.mark.parametrize("plane", [0, 2], ids=["k1_plane", "k3_plane"])
    def test_plane_states_match_quadrature_oracle(self, plane, cutoff):
        # a state on a k_a = 0 plane gets a one-point axis a, which no 1-D
        # pass touches
        rng = np.random.default_rng([cutoff, plane, 43])
        box = (slice(None),) * plane + (cutoff,)
        fields = []
        for _ in range(2):
            f = random_solenoidal_field(cutoff, rng)
            kept = np.zeros_like(f.coeffs)
            kept[box] = f.coeffs[box]
            fields.append(leray_project(kept, cutoff))
        u, v = fields
        for left, right in ((u, v), (u, u)):
            got = bilinear_form(left, right)
            want = bilinear_quadrature(left, right, n=3 * cutoff + 1)
            assert want.l2() > 0
            assert (got - want).l2() <= 1e-12 * want.l2()

    @pytest.mark.parametrize("same", [True, False], ids=["u_is_v", "u_ne_v"])
    def test_one_transform_pair_per_call(self, same, fft_calls):
        # the support mask rides in the product transforms: no second pipeline
        u = supported_field(3, "planar", np.random.default_rng(5))
        bilinear_form(u, u if same else shear_field(3))
        assert [c.name for c in fft_calls] == ["irfftn", "rfftn"]

    @pytest.mark.parametrize("support, cutoff, grid", [
        ("planar", 3, (10, 10, 1)), ("opposed_pairs", 4, (14, 10, 6)), ("dense", 4, (14, 14, 14)),
    ], ids=["planar_K3", "opposed_pairs_K4", "dense_K4"])
    def test_transform_size_follows_support(self, support, cutoff, grid, fft_calls):
        # axis a gets e_u + e_v + min(K, e_u + e_v) + 1 points, rounded up to
        # even above 1: a planar state keeps one k3 point, the pairs
        # +-(4, 2, 1) and +-(-4, 2, 1) have extents (4, 2, 1) and reach
        # (0, 4, 2), and a dense field keeps 3K + 1 -> 14 at K = 4; an axis
        # of one point gets no 1-D pass, so a planar state makes none over k3
        if support == "opposed_pairs":
            u = SpectralField.from_modes(cutoff, {(4, 2, 1): (0.1, -0.2, 0.0),
                                                  (-4, 2, 1): (0.1, 0.2, 0.0)})
        else:
            u = supported_field(cutoff, support, np.random.default_rng(cutoff))
        bilinear_form(u, u)
        assert [c.name for c in fft_calls] == ["irfftn", "rfftn"]
        assert [c.grid for c in fft_calls] == [grid, grid]
        axes = tuple(a + 1 for a, n in enumerate(grid) if n > 1)
        assert [c.passes for c in fft_calls] == [axes, axes[::-1]]
        if support == "planar":
            assert all(3 not in c.passes for c in fft_calls)

    @pytest.mark.parametrize("case", ["criterion2_pair_K4", "diagonals_K3", "zero_left",
                                      "zero_right"])
    def test_empty_support_sum_makes_no_transform(self, case, fft_calls):
        # no p + q lands in the cube away from k = 0: B is the zero field
        # and no transform is made
        rng = np.random.default_rng(3)
        if case == "criterion2_pair_K4":
            u = SpectralField.from_modes(4, {(4, 2, 1): (0.1, -0.2, 0.0)})
            v = u       # the sums are +-(8, 4, 2) and 0
        elif case == "diagonals_K3":
            # the sums +-(4, 0, 0) and +-(0, 4, 0) leave the K = 3 cube
            u = SpectralField.from_modes(3, {(2, 2, 0): (1.0, -1.0, 0.0)})
            v = SpectralField.from_modes(3, {(2, -2, 0): (1.0, 1.0, 0.0)})
        else:
            u = random_solenoidal_field(3, rng)
            v = SpectralField.zero(3)
            if case == "zero_left":
                u, v = v, u
        got = bilinear_form(u, v)
        assert fft_calls == []
        assert got.coeffs.tobytes() == SpectralField.zero(u.cutoff).coeffs.tobytes()

    @pytest.mark.parametrize("case", ["diagonals_K4", "difference_only_K3"])
    def test_reachable_support_sum_is_transformed(self, case, fft_calls):
        # sums in the cube away from k = 0 go through one transform pair; at
        # K = 3 the second pair is reached only through p - q = +-(1, -1, 0)
        if case == "diagonals_K4":
            u = SpectralField.from_modes(4, {(2, 2, 0): (1.0, -1.0, 0.0)})
            v = SpectralField.from_modes(4, {(2, -2, 0): (1.0, 1.0, 0.0)})
            reached = {(4, 0, 0), (-4, 0, 0), (0, 4, 0), (0, -4, 0)}
        else:
            u = SpectralField.from_modes(3, {(3, 0, 0): (0.0, 1.0, 0.0)})
            v = SpectralField.from_modes(3, {(2, 1, 0): (0.0, 0.0, 1.0)})
            reached = {(1, -1, 0), (-1, 1, 0)}
        got = bilinear_form(u, v)
        assert [c.name for c in fft_calls] == ["irfftn", "rfftn"]
        assert {k for k, _ in got.modes()} == reached
        want = bilinear_quadrature(u, v, n=3 * u.cutoff + 1)
        assert (got - want).l2() <= 1e-12 * want.l2()

    @pytest.mark.parametrize("support", ["dense", "planar"])
    def test_self_advection_matches_two_objects(self, support):
        # B(u, u) with one object forms the 6 products u_j u_c with j <= c,
        # B(u, v) all 9: the two must agree for an equal copy of u
        for cutoff in (3, 4, 8):
            u = supported_field(cutoff, support, np.random.default_rng([cutoff, 11]))
            one = bilinear_form(u, u)
            two = bilinear_form(u, SpectralField(cutoff, u.coeffs.copy()))
            assert (one - two).l2() <= 1e-14 * two.l2()

    def test_cutoff_mismatch(self):
        with pytest.raises(CutoffMismatchError):
            bilinear_form(random_solenoidal_field(2, RNG), random_solenoidal_field(3, RNG))

    def test_preserves_invariants(self):
        u = random_solenoidal_field(3, RNG)
        v = random_solenoidal_field(3, RNG)
        bilinear_form(u, v).validate()


def empty_sum_field(cutoff):
    """A single conjugate pair +-(K, 1, 0) whose self sums, +-(2K, 2, 0)
    and 0, all miss the cube away from k = 0."""
    return SpectralField.from_modes(cutoff, {(cutoff, 1, 0): (0.1, -0.1 * cutoff, 0.2)})


def reaches(u, v):
    """Whether some p + q, p in supp(u), q in supp(v), is in the cube away
    from k = 0 (vectorized ``support_sum``)."""
    p, q = (np.array([k for k, _ in f.modes()]).reshape(-1, 3) for f in (u, v))
    sums = (p[:, None] + q).reshape(-1, 3)
    return bool(np.any(np.all(np.abs(sums) <= u.cutoff, axis=1) & np.any(sums != 0, axis=1)))


class TestTransformPair:
    @pytest.mark.parametrize("flat", [1, 2, 3])
    def test_equals_numpy_byte_for_byte(self, flat):
        # numpy's own passes in numpy's order, less the one-point ones, so
        # every pass that is made rounds as before
        rng = np.random.default_rng([flat, 41])
        for _ in range(40):
            sizes = [int(n) for n in rng.integers(1, 39, size=3)]
            sizes[flat - 1] = 1
            rows = int(rng.integers(1, 8))
            shape = (rows, sizes[0], sizes[1], sizes[2] // 2 + 1)
            spec = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            spec[rng.random(shape) < 0.2] = -0.0
            want = np.fft.irfftn(spec, s=sizes, axes=(1, 2, 3), norm="forward")
            got = _irfftn(spec, tuple(sizes))
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            phys = rng.standard_normal((rows, *sizes))
            phys[rng.random(phys.shape) < 0.2] = -0.0
            want = np.fft.rfftn(phys, axes=(1, 2, 3), norm="forward")
            got = _rfftn(phys)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestAdvectionSum:
    @staticmethod
    def pair_lists(cutoff):
        rng = np.random.default_rng([cutoff, 23])
        d, d2, p, a = (supported_field(cutoff, kind, rng)
                       for kind in ("dense", "dense", "planar", "axis"))
        cropped = np.zeros_like(d2.coeffs)
        cropped[cutoff - 1:cutoff + 2] = d2.coeffs[cutoff - 1:cutoff + 2]
        c = leray_project(cropped, cutoff)      # d2 cropped to |k1| <= 1
        z, w = SpectralField.zero(cutoff), empty_sum_field(cutoff)
        return {
            # five distinct fields in nonempty pairs: more than one batch
            "closed": [(d, p), (p, d), (a, a), (d, z), (z, d), (w, w), (p, a), (a, p),
                       (d2, c), (c, d2), (d, d)],
            "open": [(d, p), (a, d), (z, p), (w, w), (p, p), (c, d2)],
            "repeated_closed": [(d, p), (p, d), (d, p), (p, d)],
            "repeated_open": [(d, p), (p, d), (d, p), (a, a)],
        }

    @pytest.mark.parametrize("cutoff", [2, 3, 5])
    @pytest.mark.parametrize("kind", ["closed", "open", "repeated_closed", "repeated_open"])
    def test_equals_running_sum_of_pairs(self, cutoff, kind, fft_calls):
        pairs = self.pair_lists(cutoff)[kind]
        want = SpectralField.zero(cutoff)
        scale = 0.0
        for u, v in pairs:
            piece = bilinear_form(u, v)
            want, scale = want + piece, scale + piece.l2()
        before = len(fft_calls)
        got = advection_sum(pairs)
        assert [c.name for c in fft_calls[before:]].count("rfftn") == 1
        assert (got - want).l2() <= 1e-14 * scale
        np.testing.assert_array_equal(leray_project(got.coeffs, cutoff).coeffs, got.coeffs)
        got.validate()

    @pytest.mark.parametrize("cutoff", [3, 5])
    def test_exactly_zero_off_union_of_support_sums(self, cutoff):
        rng = np.random.default_rng([cutoff, 29])
        u, v, w = (sum((supported_field(cutoff, "pair", rng) for _ in range(3)),
                       SpectralField.zero(cutoff)) for _ in range(3))
        pairs = [(u, v), (v, u), (w, w), (u, w)]
        union = set().union(*(support_sum(left, right) for left, right in pairs))
        got = {k for k, _ in advection_sum(pairs).modes()}
        assert got and got <= union

    def test_all_empty_pairs_make_no_transform(self, fft_calls):
        d = random_solenoidal_field(3, np.random.default_rng(31))
        z, w = SpectralField.zero(3), empty_sum_field(3)
        got = advection_sum([(w, w), (z, d), (d, z), (z, z), (w, w)])
        assert fft_calls == []
        assert got.coeffs.tobytes() == SpectralField.zero(3).coeffs.tobytes()

    @pytest.mark.parametrize("support", ["dense", "planar", "axis", "pair", "zero"])
    @pytest.mark.parametrize("same", [True, False], ids=["u_is_v", "u_ne_v"])
    def test_one_pair_is_bilinear_form_byte_for_byte(self, support, same):
        rng = np.random.default_rng([len(support), 37])
        u = supported_field(4, support, rng)
        v = u if same else supported_field(4, "dense", rng)
        assert advection_sum([(u, v)]).coeffs.tobytes() == bilinear_form(u, v).coeffs.tobytes()

    def test_rejects_empty_list_and_mixed_cutoffs(self):
        with pytest.raises(ValueError):
            advection_sum([])
        u2, u3 = random_solenoidal_field(2, RNG), random_solenoidal_field(3, RNG)
        with pytest.raises(CutoffMismatchError):
            advection_sum([(u2, u2), (u3, u3)])

    def test_recursion_makes_one_forward_transform_per_entry(self, fft_calls):
        # each entry's wedge sum is one advection sum: one rfftn when some
        # wedge pair reaches the cube, none when every pair misses it
        lat = provenance_lattices()[-1]
        force = normalize_force(
            [(lat.exponent(1), SpectralField.from_modes(3, {(3, 0, 0): (0.0, 0.2, 0.1)})),
             (lat.exponent(2), SpectralField.from_modes(3, {(0, 2, 1): (0.3, 0.0, 0.0)}))], lat)
        xi = compute_coefficients(force)
        live = [n for n in range(1, len(lat) + 1)
                if any(reaches(xi.field(i), xi.field(j)) for i, j in lat.wedge_pairs(n))]
        wedged = [n for n in range(1, len(lat) + 1) if lat.wedge_pairs(n)]
        assert 0 < len(live) < len(wedged)
        assert [c.name for c in fft_calls].count("rfftn") == len(live)


class TestTrilinearForm:
    def test_orthogonality(self):
        for _ in range(5):
            u = random_solenoidal_field(2, RNG)
            v = random_solenoidal_field(2, RNG)
            scale = gevrey_norm(u, GevreyIndex(0.5, 0)) * gevrey_norm(v, GevreyIndex(0.5, 0)) ** 2
            assert abs(trilinear_form(u, v, v)) <= 1e-12 * scale

    def test_antisymmetry(self):
        u = random_solenoidal_field(2, RNG)
        v = random_solenoidal_field(2, RNG)
        w = random_solenoidal_field(2, RNG)
        a = trilinear_form(u, v, w)
        b = trilinear_form(u, w, v)
        scale = max(abs(a), abs(b), 1e-30)
        assert abs(a + b) <= 1e-12 * scale

    def test_zero_first_argument(self):
        v = random_solenoidal_field(2, RNG)
        w = random_solenoidal_field(2, RNG)
        assert trilinear_form(SpectralField.zero(2), v, w) == 0.0

    @pytest.mark.parametrize("cutoff", [8, 12, 16])
    def test_invariants_at_large_cutoff(self, cutoff):
        rng = np.random.default_rng(cutoff)
        u, v, w = (random_solenoidal_field(cutoff, rng) for _ in range(3))
        h1 = [gevrey_norm(f, GevreyIndex(0.5, 0)) for f in (u, v, w)]
        assert abs(trilinear_form(u, u, u)) <= 1e-12 * h1[0] ** 3
        a = trilinear_form(u, v, w)
        b = trilinear_form(u, w, v)
        assert abs(a + b) <= 1e-12 * max(abs(a), abs(b), 1e-30)
        bilinear_form(u, v).validate()
        bilinear_form(u, u).validate()


@settings(max_examples=25, deadline=None)
@given(cutoff=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       a=st.floats(-2.0, 2.0), b=st.floats(-2.0, 2.0))
def test_bilinear_form_bilinear_and_real(cutoff, seed, a, b):
    rng = np.random.default_rng(seed)
    u, v, w = (random_solenoidal_field(cutoff, rng) for _ in range(3))
    Buv, Bwv, Buw = bilinear_form(u, v), bilinear_form(w, v), bilinear_form(u, w)
    scale = Buv.l2() + Bwv.l2() + Buw.l2()
    left = bilinear_form(a * u + b * w, v) - (a * Buv + b * Bwv)
    right = bilinear_form(u, a * v + b * w) - (a * Buv + b * Buw)
    assert left.l2() <= 1e-12 * scale and right.l2() <= 1e-12 * scale
    for f in (Buv, Bwv, Buw):
        np.testing.assert_array_equal(f.coeffs, np.conj(f.coeffs[::-1, ::-1, ::-1]))
        np.testing.assert_array_equal(leray_project(f.coeffs, cutoff).coeffs, f.coeffs)
        f.validate()


class TestLowModeProjection:
    def test_keeps_unit_sphere(self):
        f = random_solenoidal_field(2, RNG)
        g = low_mode_project(f, 1)
        assert g.max_mode_sq() <= 1

    def test_full_for_large_n(self):
        f = random_solenoidal_field(2, RNG)
        g = low_mode_project(f, 3 * 2 ** 2)
        np.testing.assert_array_equal(f.coeffs, g.coeffs)

    def test_exact_shell_split(self):
        f = SpectralField.from_modes(3, {
            (1, 0, 0): (0, 1.0, 0),
            (1, 1, 0): (1.0, -1.0, 0),
            (1, 1, 1): (1.0, 0.0, -1.0),
        })
        g = low_mode_project(f, 2)
        kept = {k for k, _ in g.modes()}
        assert kept == {(1, 0, 0), (-1, 0, 0), (1, 1, 0), (-1, -1, 0)}


class TestSerialization:
    def test_round_trip(self):
        f = random_solenoidal_field(3, RNG)
        g = SpectralField.from_json(f.to_json())
        np.testing.assert_allclose(f.coeffs, g.coeffs, atol=1e-16)

    def test_only_lex_positive_stored(self):
        f = shear_field(cutoff=2)
        data = f.to_json()
        assert [m["k"] for m in data["modes"]] == [[1, 0, 0]]


class TestAlgebra:
    def test_inner_product_symmetric(self):
        u = random_solenoidal_field(2, RNG)
        v = random_solenoidal_field(2, RNG)
        assert inner_product(u, v) == pytest.approx(inner_product(v, u), rel=1e-12)

    def test_norm_consistency(self):
        u = random_solenoidal_field(2, RNG)
        assert inner_product(u, u) == pytest.approx(u.l2() ** 2, rel=1e-12)

    def test_linearity(self):
        u = random_solenoidal_field(2, RNG)
        v = random_solenoidal_field(2, RNG)
        w = 2.0 * u - v
        np.testing.assert_allclose(w.coeffs, 2.0 * u.coeffs - v.coeffs)
