import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nsasym.spectral import (
    _BATCH,
    _TENSOR,
    _dft_matrices,
    _from_grid,
    _grid,
    _plan,
    _project_box,
    _to_grid,
    _weights,
    GevreyIndex,
    SpectralField,
    SpectralRangeError,
    CutoffMismatchError,
    apply_inverse_stokes,
    advection_sum,
    apply_multiplier,
    bilinear_form,
    gevrey_norm,
    leray_project,
    random_solenoidal_field,
    smoothing_constant,
    trilinear_form,
)

from conftest import clear_spectral_caches
from nsasym import spectral
from nsasym.expansion import compute_coefficients, normalize_force
from oracles import bilinear_quadrature, divergence_form_sum
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


def first_and_repeat(fft_calls, call):
    """The transforms of call() on supports with no plan yet (``fft_calls``
    starts with an empty plan cache), and of call() again."""
    call()
    first = list(fft_calls)
    fft_calls.clear()
    call()
    return first, list(fft_calls)


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

    @pytest.mark.parametrize("cutoff", [2, 3, 5, 8, 12])
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
        # a state on a k_a = 0 plane gets a one-point axis a
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
        # a new call plan finds its unreached modes by one transform pair of
        # its indicators (one row in when v is u, two otherwise, one back);
        # every call makes one pair for the products: 3 rows in per field
        # and 6 or 9 products back, on the grid the plan used
        u = supported_field(3, "planar", np.random.default_rng(5))
        v = u if same else shear_field(3)
        fields, products = (1, 6) if same else (2, 9)
        first, repeat = first_and_repeat(fft_calls, lambda: bilinear_form(u, v))
        assert [(c.name, c.rows) for c in first] == [
            ("to_grid", fields), ("from_grid", 1), ("to_grid", 3 * fields), ("from_grid", products)]
        assert len({c.grid for c in first}) == 1
        assert repeat == first[2:]

    @pytest.mark.parametrize("support, cutoff, grid", [
        ("planar", 3, (10, 10, 1)), ("opposed_pairs", 4, (14, 10, 6)), ("dense", 4, (14, 14, 14)),
    ], ids=["planar_K3", "opposed_pairs_K4", "dense_K4"])
    def test_transform_size_follows_support(self, support, cutoff, grid, fft_calls):
        # axis a gets e_u + e_v + min(K, e_u + e_v) + 1 points, rounded up to
        # even above 1: a planar state keeps one k3 point, the pairs
        # +-(4, 2, 1) and +-(-4, 2, 1) have extents (4, 2, 1) and reach
        # (0, 4, 2), and a dense field keeps 3K + 1 -> 14 at K = 4
        if support == "opposed_pairs":
            u = SpectralField.from_modes(cutoff, {(4, 2, 1): (0.1, -0.2, 0.0),
                                                  (-4, 2, 1): (0.1, 0.2, 0.0)})
        else:
            u = supported_field(cutoff, support, np.random.default_rng(cutoff))
        first, repeat = first_and_repeat(fft_calls, lambda: bilinear_form(u, u))
        assert [(c.name, c.rows) for c in first] == [
            ("to_grid", 1), ("from_grid", 1), ("to_grid", 3), ("from_grid", 6)]
        assert [c.grid for c in first] == [grid] * 4
        assert repeat == first[2:]

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
        # sums in the cube away from k = 0 go through one transform pair, after
        # the indicator pair that builds the call plan on the first call; at
        # K = 3 the second pair is reached only through p - q = +-(1, -1, 0)
        if case == "diagonals_K4":
            u = SpectralField.from_modes(4, {(2, 2, 0): (1.0, -1.0, 0.0)})
            v = SpectralField.from_modes(4, {(2, -2, 0): (1.0, 1.0, 0.0)})
            reached = {(4, 0, 0), (-4, 0, 0), (0, 4, 0), (0, -4, 0)}
        else:
            u = SpectralField.from_modes(3, {(3, 0, 0): (0.0, 1.0, 0.0)})
            v = SpectralField.from_modes(3, {(2, 1, 0): (0.0, 0.0, 1.0)})
            reached = {(1, -1, 0), (-1, 1, 0)}
        first, repeat = first_and_repeat(fft_calls, lambda: bilinear_form(u, v))
        assert [(c.name, c.rows) for c in first] == [
            ("to_grid", 2), ("from_grid", 1), ("to_grid", 6), ("from_grid", 9)]
        assert repeat == first[2:]
        got = bilinear_form(u, v)
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
    def test_equals_cropped_numpy_transforms(self, flat):
        # the matrix products against numpy's FFTs of the zero-filled half
        # spectrum (inverse) and of the grid cropped to the output half box
        # (forward), on any grid and any boxes that fit it without a Nyquist
        # mode
        rng = np.random.default_rng([flat, 41])
        for _ in range(40):
            sizes = [int(n) for n in rng.integers(1, 39, size=3)]
            sizes[flat - 1] = 1
            e_in, e_out = ([int(rng.integers(0, (n + 1) // 2)) for n in sizes] for _ in range(2))
            inverse, forward = _dft_matrices(tuple(sizes), e_in, e_out)
            rows = int(rng.integers(1, 8))
            box_in, box_out = ((slice(None),) + np.ix_(
                *(np.arange(-e, e + 1) % n for e, n in zip(ext[:2], sizes[:2])),
                np.arange(ext[2] + 1)) for ext in (e_in, e_out))
            shape = (rows, 2 * e_in[0] + 1, 2 * e_in[1] + 1, e_in[2] + 1)
            spec = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            spec[rng.random(shape) < 0.2] = -0.0
            full = np.zeros((rows, sizes[0], sizes[1], sizes[2] // 2 + 1), dtype=np.complex128)
            full[box_in] = spec
            want = np.fft.irfftn(full, s=sizes, axes=(1, 2, 3), norm="forward")
            got = _to_grid(inverse, spec)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
            phys = rng.standard_normal((rows, *sizes))
            phys[rng.random(phys.shape) < 0.2] = -0.0
            want = np.fft.rfftn(phys, axes=(1, 2, 3), norm="forward")[box_out]
            got = _from_grid(forward, phys)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


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
        # the sum's plan is new: its indicators go in, at most _BATCH rows
        # at a time, and their pair count comes back in one row; then the
        # products make one forward transform, and a repeated call only that
        fft_calls.clear()
        got = advection_sum(pairs)
        first = list(fft_calls)
        assert [c.rows for c in first if c.name == "from_grid"] in ([1, 6], [1, 9])
        planned = [c.name for c in first].index("from_grid")
        assert all(c.name == "to_grid" and c.rows <= _BATCH for c in first[:planned])
        fft_calls.clear()
        assert advection_sum(pairs).coeffs.tobytes() == got.coeffs.tobytes()
        assert fft_calls == first[planned + 1:]
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

    def test_cold_and_warm_plans_give_the_same_bits(self):
        # a plan built inside the call and one read from the cache
        cases = []
        for cutoff in (3, 4):
            lists = self.pair_lists(cutoff)
            cases += [lists["closed"], lists["open"]]
            u, v = (supported_field(cutoff, kind, np.random.default_rng(cutoff))
                    for kind in ("planar", "pair"))
            cases += [[(u, u)], [(u, v)], [(v, u), (u, u)]]
        cold = []
        for pairs in cases:
            clear_spectral_caches()
            cold.append(advection_sum(pairs).coeffs.tobytes())
        assert [advection_sum(pairs).coeffs.tobytes() for pairs in cases] == cold

    def test_each_pairing_has_its_own_plan(self, monkeypatch):
        # one pair of supports in three pairings: (u, v), (v, u) and the
        # swap-closed sum of both are three plans, and only the sum forms
        # the six symmetric products; a repeated call reads its plan from
        # the cache and gives the same bits
        rng = np.random.default_rng(43)
        u, v = (supported_field(4, kind, rng) for kind in ("planar", "dense"))
        plans = []

        def spy(*args, _inner=_plan):
            plans.append(_inner(*args))
            return plans[-1]
        monkeypatch.setattr(spectral, "_plan", spy)
        pairings = [[(u, v)], [(v, u)], [(u, v), (v, u)]]
        first = [advection_sum(pairs).coeffs.tobytes() for pairs in pairings]
        assert len(set(map(id, plans))) == 3
        assert [p.symmetric for p in plans] == [False, False, True]
        hits = _plan.cache_info().hits
        assert [advection_sum(pairs).coeffs.tobytes() for pairs in pairings] == first
        assert _plan.cache_info().hits == hits + 3
        assert all(again is plan for again, plan in zip(plans[3:], plans[:3]))

    def test_exact_zeros_are_the_unreached_modes(self, monkeypatch):
        # sums whose pairs have output boxes of their own: a mode is exactly
        # zero where no pair of the sum reaches it and nowhere else (k = 0
        # aside, where B is zero either way).  The sparse fields' modes have
        # no zero component, and the first field is dense on a box of its
        # own half the time (a pair that reaches its whole box), so no
        # reached mode cancels exactly.  Half the cases pair up more fields
        # than a batch holds, so their plans count the pairs p + q = k over
        # several batches of indicators.
        rng = np.random.default_rng(71)
        plans = []

        def spy(*args, _inner=_plan):
            plans.append(_inner(*args))
            return plans[-1]
        monkeypatch.setattr(spectral, "_plan", spy)
        boxes_differ = batched = 0
        for case in range(40):
            cutoff = int(rng.integers(3, 6))
            many = 2 * _BATCH if case % 4 >= 2 else 0
            fields = []
            if case % 2:
                box = tuple(slice(cutoff - r, cutoff + r + 1) for r in rng.integers(1, cutoff, size=3))
                cropped = np.zeros((2 * cutoff + 1,) * 3 + (3,), dtype=np.complex128)
                cropped[box] = random_solenoidal_field(cutoff, rng).coeffs[box]
                fields.append(leray_project(cropped, cutoff))
            while len(fields) < max(3, many):
                reach = rng.integers(1, cutoff + 1, size=3)
                modes = {tuple(int(x) for x in rng.integers(1, reach + 1) * rng.choice([-1, 1], 3)):
                         rng.standard_normal(3) + 1j * rng.standard_normal(3)
                         for _ in range(int(rng.integers(1, 4)))}
                fields.append(SpectralField.from_modes(cutoff, modes))
            if many:
                picks = np.stack([rng.permutation(many), rng.integers(many, size=many)], axis=-1)
            else:
                picks = rng.integers(3, size=(int(rng.integers(2, 5)), 2))
            pairs = [(fields[a], fields[b]) for a, b in picks]
            sums = {tuple(np.abs(np.array([k for k, _ in u.modes()])).max(axis=0)
                          + np.abs(np.array([k for k, _ in v.modes()])).max(axis=0))
                    for u, v in pairs}
            boxes_differ += len({tuple(min(cutoff, x) for x in e) for e in sums}) > 1
            _, unreached = divergence_form_sum(pairs)
            zero = ~np.any(advection_sum(pairs).coeffs != 0, axis=-1)
            batched += len(plans[-1].batches) > 1
            zero[cutoff, cutoff, cutoff] = unreached[cutoff, cutoff, cutoff]
            np.testing.assert_array_equal(zero, unreached)
        assert boxes_differ >= 20
        assert batched >= 15

    def test_rejects_empty_list_and_mixed_cutoffs(self):
        with pytest.raises(ValueError):
            advection_sum([])
        u2, u3 = random_solenoidal_field(2, RNG), random_solenoidal_field(3, RNG)
        with pytest.raises(CutoffMismatchError):
            advection_sum([(u2, u2), (u3, u3)])

    def test_recursion_makes_one_forward_transform_per_entry(self, fft_calls):
        # each entry's wedge sum is one advection sum: one product from_grid
        # when some wedge pair reaches the cube, none when every pair misses
        # it; the first pass also builds the call plans of those sums, each
        # with a one-row indicator from_grid, and a second pass builds none
        lat = provenance_lattices()[-1]
        force = normalize_force(
            [(lat.exponent(1), SpectralField.from_modes(3, {(3, 0, 0): (0.0, 0.2, 0.1)})),
             (lat.exponent(2), SpectralField.from_modes(3, {(0, 2, 1): (0.3, 0.0, 0.0)}))], lat)
        xi = compute_coefficients(force)
        live = [n for n in range(1, len(lat) + 1)
                if any(reaches(xi.field(i), xi.field(j)) for i, j in lat.wedge_pairs(n))]
        wedged = [n for n in range(1, len(lat) + 1) if lat.wedge_pairs(n)]
        assert 0 < len(live) < len(wedged)
        forward = [c.rows for c in fft_calls if c.name == "from_grid"]
        assert len(forward) - forward.count(1) == len(live)
        assert forward.count(1) > 0
        fft_calls.clear()
        again = compute_coefficients(force)
        assert all(a.coeffs.tobytes() == b.coeffs.tobytes() for a, b in zip(again.fields, xi.fields))
        assert [c.rows for c in fft_calls if c.name == "from_grid"].count(1) == 0
        assert [c.name for c in fft_calls].count("from_grid") == len(live)


class TestProjectedDivergence:
    @pytest.mark.parametrize("symmetric", [True, False], ids=["six_rows", "nine_rows"])
    @pytest.mark.parametrize("layout", ["dense", "planar", "sparse"])
    def test_weights_equal_projected_divergence(self, layout, symmetric):
        # W T on the k3 >= 0 half box against _project_box of i k_j T_jc on
        # the whole box, for T Hermitian so that the projection's own
        # symmetrization leaves it as it is
        rng = np.random.default_rng([len(layout), symmetric, 53])
        K = 5
        for _ in range(10):
            e_out = {"dense": (K, K, K), "planar": (K, K, 0),
                     "sparse": tuple(int(x) for x in rng.integers(0, K + 1, size=3))}[layout]
            o1, o2, o3 = e_out
            rows = len(_TENSOR[symmetric])
            shape = (rows, 2 * o1 + 1, 2 * o2 + 1, 2 * o3 + 1)
            T = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            T = 0.5 * (T + np.conj(T[:, ::-1, ::-1, ::-1]))
            full = np.empty((3, 3) + shape[1:], dtype=np.complex128)
            for r, (j, c) in enumerate(_TENSOR[symmetric]):
                full[j, c] = T[r]
                full[c, j] = T[r] if symmetric else full[c, j]
            box = tuple(slice(K - e, K + e + 1) for e in e_out)
            kvec, ksq, kabs = (g[box] for g in _grid(K))
            flux = 1j * np.einsum("xyzj,jcxyz->xyzc", kvec, full)
            want = _project_box(flux, kvec, np.where(ksq == 0.0, 1.0, ksq), kabs)[:, :, o3:]
            got = (_weights(e_out, symmetric) * T[..., o3:]).sum(axis=1)
            assert np.abs(got.transpose(1, 2, 3, 0) - want).max() <= 1e-14 * np.abs(want).max()

    def test_advection_sum_equals_divergence_form_formula(self):
        # single pairs and sums of random fields on random supports, at
        # K = 2 to 6: within 1e-14 of P(i k_j T_jc) by numpy FFTs (the
        # largest seen is 1.5e-16), and exactly zero wherever no pair
        # p + q = k exists
        rng = np.random.default_rng(59)
        supports = ["dense", "planar", "axis", "pair", "zero", "sparse"]
        cases = 0
        while cases < 1000:
            cutoff = int(rng.integers(2, 7))
            fields = []
            for _ in range(int(rng.integers(1, 4))):
                support = supports[int(rng.integers(len(supports)))]
                if support == "sparse":
                    fields.append(sum((supported_field(cutoff, "pair", rng) for _ in range(3)),
                                      SpectralField.zero(cutoff)))
                else:
                    fields.append(supported_field(cutoff, support, rng))
            picks = rng.integers(len(fields), size=(int(rng.integers(1, 5)), 2))
            pairs = [(fields[a], fields[b]) for a, b in picks]
            if rng.random() < 0.3:
                pairs += [(v, u) for u, v in pairs]     # closed under swap: six rows
            want, unreached = divergence_form_sum(pairs)
            got = advection_sum(pairs)
            # relative to the products' size: B can cancel to rounding level
            # (one mode advecting itself, a sum of opposite pairs)
            scale = sum(u.l2() * v.l2() for u, v in pairs)
            assert (got - want).l2() <= 1e-14 * scale, (cutoff, len(pairs))
            assert not np.any(got.coeffs[unreached])
            cases += 1


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
    def test_linearity(self):
        u = random_solenoidal_field(2, RNG)
        v = random_solenoidal_field(2, RNG)
        w = 2.0 * u - v
        np.testing.assert_allclose(w.coeffs, 2.0 * u.coeffs - v.coeffs)
