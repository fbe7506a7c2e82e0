"""Divergence-free spectral vector fields on the 2*pi-periodic torus.

A field is stored by its Fourier coefficients u_hat(k) on the cube of
integer wave vectors |k|_inf <= K (the Galerkin cutoff), as a dense
complex array indexed by m = k + K per axis.  Every stored field

  * has no k = 0 mode (zero spatial average),
  * is divergence free:  k . u_hat(k) = 0,
  * satisfies the reality condition  u_hat(-k) = conj(u_hat(k)),

so it represents a real, incompressible velocity field.  The Stokes
operator A = -Laplace acts diagonally with eigenvalue |k|^2, and the
Gevrey-Sobolev norm |u|_{alpha,sigma} is the L^2(Omega) norm of
A^alpha e^{sigma A^(1/2)} u over Omega = (-pi, pi)^3.  The (2*pi)^(3/2)
Parseval factor is included so |u|_{0,0} equals the plain L^2 norm.

The advective bilinear form B(u, v) = P((u . grad) v) is evaluated in
divergence form, P(div(u (x) v)), which is the same for divergence-free u,
with real FFTs on a grid sized per axis from the supports.  Its one
implementation, ``advection_sum``, forms the sum of B(u, v) over a list of
pairs with one forward transform: the distinct fields are transformed in,
a few at a time, the products u_j v_c of all pairs are accumulated on one
grid, and one divergence and one Leray projection follow.
``bilinear_form`` is its one-pair case.  If e_u and e_v are the largest |k_a| in the supports of a
pair, s the largest e_u + e_v over the pairs, and the output keeps
|k_a| <= o = min(K, s), an axis of N_a >= s + o + 1 points puts no alias
of any product inside the output box (Orszag 1971; Canuto, Hussaini,
Quarteroni and Zang, Spectral Methods), so the result is the exact
truncated convolution, not a dealiased approximation, and the
finite-dimensional system is the exact Galerkin reduction.  A dense field
gets 3K + 1 points per axis, and a field on the k3 = 0 plane a single k3
point, over which no transform pass is made.  The support indicators ride
in the same transforms: their pointwise products, summed over the pairs,
transform to the number of pairs p + q = k, and every mode with no such
pair is set to exactly zero, so transform rounding never fills modes no
convolution can reach.  The Leray projection runs on the output box
only.  The sizes, index maps and box geometry are cached per support
extents and the extents per pair of supports, and a small pair of
supports whose sums all miss the cube away from k = 0 is dropped with no
transform.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple

import numpy as np

__all__ = [
    "VOLUME",
    "EXP_LIMIT",
    "INVARIANT_TOL",
    "WaveVector",
    "wave_vector",
    "GevreyIndex",
    "SpectralField",
    "SpectralRangeError",
    "CutoffMismatchError",
    "FieldInvariantError",
    "leray_project",
    "apply_multiplier",
    "apply_inverse_stokes",
    "gevrey_norm",
    "inner_product",
    "bilinear_form",
    "advection_sum",
    "trilinear_form",
    "low_mode_project",
    "smoothing_constant",
    "random_solenoidal_field",
]

VOLUME = (2.0 * math.pi) ** 3      # |Omega| for Omega = (-pi, pi)^3
_NORM_FACTOR = math.sqrt(VOLUME)   # Parseval: |u|_L2 = sqrt(|Omega|) * l2 of u_hat
EXP_LIMIT = 700.0                  # hard ceiling for any single multiplier exponent
INVARIANT_TOL = 1e-12              # relative tolerance for field invariants

WaveVector = tuple[int, int, int]


def wave_vector(k, cutoff: int) -> WaveVector:
    """k as three ints with |k|_inf <= cutoff, else ValueError.

    A k of another length would index a whole slab of the coefficient
    array and silently set every mode in it.
    """
    got = tuple(int(x) for x in k)
    if len(got) != 3 or got != tuple(k):
        raise ValueError(f"wave vector {list(k)} must be 3 integers")
    if any(abs(x) > cutoff for x in got):
        raise ValueError(f"mode {got} outside cutoff {cutoff}")
    return got


class SpectralRangeError(ArithmeticError):
    """A spectral multiplier exponent exceeded the overflow guard."""


class CutoffMismatchError(ValueError):
    """Fields with different Galerkin cutoffs were combined."""


class FieldInvariantError(ValueError):
    """A stored field violates divergence-freeness, reality or zero average."""


@dataclass(frozen=True)
class GevreyIndex:
    """Index pair (alpha, sigma) of the norm |A^alpha e^{sigma A^(1/2)} u|."""

    alpha: float = 0.0
    sigma: float = 0.0

    def __post_init__(self):
        if self.alpha < 0 or self.sigma < 0:
            raise ValueError(f"Gevrey index must be nonnegative, got {self}")

    def label(self) -> str:
        return f"a{self.alpha:g}_s{self.sigma:g}"


# Cached per-cutoff wavenumber geometry: integer k-grid, |k|^2, |k|.
_GRIDS: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _grid(cutoff: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    got = _GRIDS.get(cutoff)
    if got is None:
        axis = np.arange(-cutoff, cutoff + 1)
        kvec = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).astype(float)
        ksq = np.sum(kvec * kvec, axis=-1)
        got = (kvec, ksq, np.sqrt(ksq))
        _GRIDS[cutoff] = got
    return got


def _half_box(cutoff: int, extents) -> tuple[slice, slice, slice]:
    """The box |k_a| <= extents[a] inside the k3 >= 0 half of a coefficient array."""
    return tuple(slice(cutoff - e, cutoff + e + 1) for e in extents[:2]) + (slice(extents[2] + 1),)


# The products u_j v_c of the divergence form, as (j, c) pairs, and the row of
# each T_jc among them: all nine in general; for a pair list closed under swap,
# B(u, u) among them, the tensor is symmetric and only the six with j <= c are
# formed.
_TENSOR = {
    False: ([(j, c) for j in range(3) for c in range(3)], np.arange(9).reshape(3, 3)),
    True: ([(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)],
           np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])),
}


def _conj_flip(arr: np.ndarray) -> np.ndarray:
    """Coefficient array of the complex-conjugate field: conj(u_hat(-k))."""
    return np.conj(arr[::-1, ::-1, ::-1, :])


@dataclass(frozen=True)
class SpectralField:
    """Immutable truncated Fourier representation of a real solenoidal field."""

    cutoff: int
    coeffs: np.ndarray  # complex128, shape (W, W, W, 3) with W = 2*cutoff + 1

    def __post_init__(self):
        W = 2 * self.cutoff + 1
        if self.coeffs.shape != (W, W, W, 3):
            raise ValueError(f"coefficient array shape {self.coeffs.shape} "
                             f"does not match cutoff {self.cutoff}")
        self.coeffs.setflags(write=False)

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, cutoff: int) -> "SpectralField":
        W = 2 * cutoff + 1
        return cls(cutoff, np.zeros((W, W, W, 3), dtype=np.complex128))

    @classmethod
    def from_modes(cls, cutoff: int,
                   modes: Mapping[WaveVector, Iterable[complex]]) -> "SpectralField":
        """Build a field from a {k: amplitude} mapping.

        The mirror coefficient u_hat(-k) is filled in automatically for
        every k not explicitly listed.  Every k must pass ``wave_vector``
        (ValueError otherwise).
        """
        W = 2 * cutoff + 1
        arr = np.zeros((W, W, W, 3), dtype=np.complex128)
        keys = [wave_vector(k, cutoff) for k in modes]
        for k, amp in zip(keys, modes.values()):
            arr[tuple(x + cutoff for x in k)] = np.asarray(amp, dtype=np.complex128)
        for k in keys:
            mk = tuple(-x + cutoff for x in k)
            if tuple(x + cutoff for x in k) != mk and not np.any(arr[mk]):
                arr[mk] = np.conj(arr[tuple(x + cutoff for x in k)])
        return leray_project(arr, cutoff)

    # -- algebra ---------------------------------------------------------

    def _binary(self, other: "SpectralField", op) -> "SpectralField":
        if not isinstance(other, SpectralField):
            return NotImplemented
        if other.cutoff != self.cutoff:
            raise CutoffMismatchError(f"cutoffs {self.cutoff} != {other.cutoff}")
        return SpectralField(self.cutoff, op(self.coeffs, other.coeffs))

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, scalar):
        return SpectralField(self.cutoff, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return SpectralField(self.cutoff, -self.coeffs)

    # -- inspection --------------------------------------------------------

    def modes(self, tol: float = 0.0) -> Iterator[tuple[WaveVector, np.ndarray]]:
        """Yield (k, u_hat(k)) over stored modes with |u_hat| > tol."""
        K = self.cutoff
        mags = np.max(np.abs(self.coeffs), axis=-1)
        for i, j, l in np.argwhere(mags > tol):
            yield (int(i - K), int(j - K), int(l - K)), self.coeffs[i, j, l]

    def l2(self) -> float:
        """Plain L^2(Omega) norm, equal to the (0, 0) Gevrey norm."""
        return _NORM_FACTOR * float(np.linalg.norm(self.coeffs.ravel()))

    def max_mode_sq(self) -> int:
        """Largest |k|^2 carrying a nonzero coefficient (0 for the zero field)."""
        _, ksq, _ = _grid(self.cutoff)
        active = np.any(self.coeffs != 0, axis=-1)
        return int(ksq[active].max()) if active.any() else 0

    def validate(self, tol: float = INVARIANT_TOL) -> None:
        """Raise FieldInvariantError on any violated field invariant."""
        kvec, _, _ = _grid(self.cutoff)
        scale = float(np.max(np.abs(self.coeffs), initial=0.0))
        if scale == 0.0:
            return
        K = self.cutoff
        if np.any(np.abs(self.coeffs[K, K, K]) > tol * scale):
            raise FieldInvariantError("nonzero mean (k = 0) mode")
        div = np.abs(np.einsum("xyzc,xyzc->xyz", kvec, self.coeffs))
        if float(div.max()) > tol * scale * (3 * K + 1):
            raise FieldInvariantError(f"divergence {div.max():.3e} exceeds tolerance")
        asym = float(np.max(np.abs(self.coeffs - _conj_flip(self.coeffs))))
        if asym > tol * scale:
            raise FieldInvariantError(f"reality asymmetry {asym:.3e} exceeds tolerance")

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        """JSON form storing only lexicographically positive k (conjugates implied),
        in ascending k."""
        K = self.cutoff
        shape = self.coeffs.shape[:3]
        live = np.argwhere(np.max(np.abs(self.coeffs), axis=-1) > 0.0)
        # C order is ascending in k, and k is lexicographically positive
        # exactly when it comes after k = 0, the centre of the cube
        live = live[np.ravel_multi_index(live.T, shape) > math.prod(shape) // 2]
        amps = self.coeffs[tuple(live.T)]
        out = [{"k": k, "re": re, "im": im} for k, re, im in
               zip((live - K).tolist(), amps.real.tolist(), amps.imag.tolist())]
        return {"cutoff": K, "modes": out}

    @classmethod
    def from_json(cls, data: dict) -> "SpectralField":
        cutoff = int(data["cutoff"])
        W = 2 * cutoff + 1
        arr = np.zeros((W, W, W, 3), dtype=np.complex128)
        for m in data["modes"]:
            k = wave_vector(m["k"], cutoff)
            if not _lex_positive(k):
                raise ValueError(f"serialized mode {k} is not lexicographically positive")
            amp = np.array(m["re"], dtype=float) + 1j * np.array(m["im"], dtype=float)
            arr[tuple(x + cutoff for x in k)] = amp
            arr[tuple(-x + cutoff for x in k)] = np.conj(amp)
        f = cls(cutoff, arr)
        f.validate()
        return f


def _lex_positive(k: WaveVector) -> bool:
    for x in k:
        if x != 0:
            return x > 0
    return False


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def leray_project(raw: np.ndarray, cutoff: int) -> SpectralField:
    """Project a dense (W, W, W, 3) coefficient array onto the
    divergence-free subspace.

    The k = 0 mode is dropped, each remaining mode is replaced by
    u_hat(k) - (k . u_hat(k)) k / |k|^2, and the reality condition is
    enforced by symmetrization.  A field from a {k: amplitude} mapping is
    built by ``SpectralField.from_modes``, which fills in mirror modes first.
    """
    W = 2 * cutoff + 1
    arr = np.array(raw, dtype=np.complex128)
    if arr.shape != (W, W, W, 3):
        raise ValueError(f"array shape {arr.shape} does not match cutoff {cutoff}")
    kvec, ksq, kabs = _grid(cutoff)
    return SpectralField(cutoff, _project_box(arr, kvec, np.where(ksq == 0.0, 1.0, ksq), kabs))


def _project_box(arr: np.ndarray, kvec: np.ndarray, ksq_safe: np.ndarray,
                 kabs: np.ndarray) -> np.ndarray:
    """The Leray projection of a box of modes |k_a| <= e_a centred on k = 0
    (components last; overwritten), given k, |k|^2 (1 at k = 0) and |k| on
    the same box: k = 0 is dropped, each mode becomes
    u_hat(k) - (k . u_hat(k)) k / |k|^2, and the box is symmetrized."""
    arr[tuple(n // 2 for n in arr.shape[:3])] = 0.0
    kdotu = np.einsum("xyzc,xyzc->xyz", kvec, arr)
    # Modes whose divergence is already at rounding level are left untouched,
    # which makes the projection exactly idempotent mode by mode.
    amp = np.sqrt(np.sum(np.abs(arr) ** 2, axis=-1))
    live = np.abs(kdotu) > 1e-13 * kabs * amp
    arr = np.where(live[..., None], arr - (kdotu / ksq_safe)[..., None] * kvec, arr)
    return 0.5 * (arr + _conj_flip(arr))


_MULTIPLIER_KINDS = ("A_alpha", "exp_sqrtA", "heat")


def _log_multiplier(kind: str, parameter: float, cutoff: int) -> np.ndarray:
    """Log of the diagonal multiplier, with the overflow guard applied."""
    _, ksq, kabs = _grid(cutoff)
    ksq_safe = np.where(ksq == 0.0, 1.0, ksq)
    if kind == "A_alpha":
        logm = parameter * np.log(ksq_safe)
    elif kind == "exp_sqrtA":
        logm = parameter * kabs
    elif kind == "heat":
        if parameter < 0:
            raise ValueError("heat multiplier requires t >= 0")
        logm = -parameter * ksq
    else:
        raise ValueError(f"unknown multiplier kind {kind!r}; expected one of {_MULTIPLIER_KINDS}")
    peak = float(logm.max(initial=-math.inf))
    if peak > EXP_LIMIT:
        raise SpectralRangeError(
            f"multiplier exponent {peak:.1f} exceeds the overflow guard {EXP_LIMIT:g} "
            f"(kind={kind}, parameter={parameter:g}, cutoff={cutoff})")
    return logm


def apply_multiplier(u: SpectralField, kind: str, parameter: float) -> SpectralField:
    """Apply a diagonal Fourier multiplier.

    kind = "A_alpha":   |k|^(2*parameter)      (fractional Stokes power)
    kind = "exp_sqrtA": e^(parameter * |k|)    (Gevrey smoothing/roughening)
    kind = "heat":      e^(-parameter * |k|^2) (heat semigroup, parameter >= 0)
    """
    logm = _log_multiplier(kind, parameter, u.cutoff)
    return SpectralField(u.cutoff, u.coeffs * np.exp(logm)[..., None])


def apply_inverse_stokes(u: SpectralField) -> SpectralField:
    """A^(-1) u; regular on every stored field since k = 0 is never present."""
    return apply_multiplier(u, "A_alpha", -1.0)


def gevrey_norm(u: SpectralField, idx: GevreyIndex) -> float:
    """L^2(Omega) norm of A^alpha e^{sigma A^(1/2)} u.

    Computed in log space (weights exponentiated once, after factoring out
    the peak exponent) so that sigma*|k| up to the overflow guard is usable
    even though the squared weights would overflow a double.
    """
    logm = _log_multiplier("A_alpha", idx.alpha, u.cutoff) \
        + _log_multiplier("exp_sqrtA", idx.sigma, u.cutoff)
    amp2 = np.sum(np.abs(u.coeffs) ** 2, axis=-1)
    mask = amp2 > 0
    if not mask.any():
        return 0.0
    w = 2.0 * logm[mask]
    peak = float(w.max())
    return _NORM_FACTOR * math.exp(0.5 * peak) * math.sqrt(float(np.sum(np.exp(w - peak) * amp2[mask])))


def inner_product(u: SpectralField, v: SpectralField) -> float:
    """Real L^2(Omega) inner product <u, v>."""
    if u.cutoff != v.cutoff:
        raise CutoffMismatchError(f"cutoffs {u.cutoff} != {v.cutoff}")
    return VOLUME * float(np.real(np.vdot(v.coeffs, u.coeffs)))


_SUM_PAIRS = 64   # largest |supp u| |supp v| (k3 >= 0 halves) whose sums are listed
_BATCH = 4        # most distinct fields inverse-transformed together by ``advection_sum``


class _Layout(NamedTuple):
    """Grids and boxes of ``advection_sum`` for given support extents."""

    sizes: tuple[int, int, int]   # padded grid N_a
    box_in: tuple                 # half box of the fields' extent, transformed in
    scatter: tuple                # its place on the rfft half grid, all rows
    gather: tuple                 # the k3 >= 0 half of the output box on the rfft half grid
    k_rows: np.ndarray            # k_j on that half, component-major
    box_out: tuple                # the output box |k_a| <= o[a] in a coefficient array
    geometry: tuple               # k, |k|^2 (1 at k = 0) and |k| on the output box


@functools.lru_cache(maxsize=64)
def _layout(cutoff: int, e_in: tuple, e_sum: tuple) -> _Layout:
    """The layout for fields whose largest |k_a| are at most e_in[a] and
    products whose largest e_u[a] + e_v[a] is e_sum[a]."""
    e_out = [min(cutoff, s) for s in e_sum]
    sizes = [s + o + 1 for s, o in zip(e_sum, e_out)]
    sizes = tuple(n + n % 2 if n > 1 else n for n in sizes)
    # grid index k mod N_a of each k on an axis; the rfft half axis keeps k >= 0
    index_in, index_out = (
        np.ix_(*(np.arange(-e, e + 1) % n for e, n in zip(ext, sizes)))
        for ext in (e_in, e_out))
    box_out = tuple(slice(cutoff - e, cutoff + e + 1) for e in e_out)
    kvec, ksq, kabs = (g[box_out] for g in _grid(cutoff))
    return _Layout(
        sizes=sizes, box_in=_half_box(cutoff, e_in),
        scatter=(slice(None),) + index_in[:2] + (index_in[2][..., e_in[2]:],),
        gather=(slice(None),) + index_out[:2] + (index_out[2][..., e_out[2]:],),
        k_rows=np.moveaxis(kvec[:, :, e_out[2]:], -1, 0), box_out=box_out,
        geometry=(kvec, np.where(ksq == 0.0, 1.0, ksq), kabs))


@functools.lru_cache(maxsize=32)
def _plan(cutoff: int, same: bool, mask_u: bytes, mask_v: bytes) -> tuple[tuple, tuple] | None:
    """For supp(u) and supp(v), given as k3 >= 0 half masks (``tobytes``),
    the largest |k_a| per axis of either support and of their sums:
    max(e_u, e_v) and e_u + e_v, with e_u, e_v the extents of the supports.
    None when no p + q with p in supp(u), q in supp(v) lands in the cube
    away from k = 0.  That is tested by listing p +- q over the half masks
    when they hold at most _SUM_PAIRS pairs; larger supports always get
    extents, so the listing stays small.  The solver's support rarely
    changes between calls, so a few plans serve a whole run."""
    W = 2 * cutoff + 1
    masks = [np.frombuffer(m, dtype=bool).reshape(W, W, cutoff + 1)
             for m in ((mask_u,) if same else (mask_u, mask_v))]
    centre = (cutoff, cutoff, 0)
    points = [np.nonzero(m) for m in masks]        # index arrays per axis
    if len(points[0][0]) * len(points[-1][0]) <= _SUM_PAIRS:
        p, q = (np.stack(points[i], axis=-1) - centre for i in (0, -1))
        sums = np.concatenate([p[:, None] + q, p[:, None] - q]).reshape(-1, 3)
        if not np.any(np.all(np.abs(sums) <= cutoff, axis=1) & np.any(sums != 0, axis=1)):
            return None
    e_u, e_v = ([int(np.abs(x - c).max()) for x, c in zip(pt, centre)]
                for pt in (points[0], points[-1]))
    return tuple(map(max, e_u, e_v)), tuple(map(operator.add, e_u, e_v))


def _batches(pairs: list, limit: int) -> Iterator[tuple[list, list]]:
    """Split (a, b) pairs of field slots into batches that hold at most
    ``limit`` (>= 2) distinct slots, as (slots, pairs in batch-local slots).
    A pair and its swap sort next to each other, so a list closed under swap
    transforms each field about once."""
    local_of: dict = {}       # slot -> its index in the batch
    local: list = []
    for a, b in sorted(pairs, key=lambda ab: (min(ab), max(ab), ab[0])):
        if len(local_of.keys() | {a, b}) > limit:
            yield list(local_of), local
            local_of, local = {}, []
        local.append(tuple(local_of.setdefault(s, len(local_of)) for s in (a, b)))
    yield list(local_of), local


def _irfftn(spec: np.ndarray, sizes: tuple) -> np.ndarray:
    """``np.fft.irfftn(spec, s=sizes, axes=(1, 2, 3), norm="forward")``,
    byte for byte, with no pass over an axis of one point: numpy's passes in
    numpy's order (axis 1, axis 2, then the real transform of axis 3), where
    a one-point complex pass is the identity and a one-point real pass keeps
    the real part."""
    for axis, n in ((1, sizes[0]), (2, sizes[1])):
        if n > 1:
            spec = np.fft.ifft(spec, n, axis=axis, norm="forward")
    if sizes[2] > 1:
        return np.fft.irfft(spec, sizes[2], axis=3, norm="forward")
    return spec.real


def _rfftn(phys: np.ndarray) -> np.ndarray:
    """``np.fft.rfftn(phys, axes=(1, 2, 3), norm="forward")``, byte for byte,
    with no pass over an axis of one point: the real transform of axis 3
    (a one-point one is the cast to complex), then axis 2, then axis 1."""
    if phys.shape[3] > 1:
        spec = np.fft.rfft(phys, axis=3, norm="forward")
    else:
        spec = phys.astype(np.complex128)
    for axis in (2, 1):
        if phys.shape[axis] > 1:
            spec = np.fft.fft(spec, axis=axis, norm="forward")
    return spec


def advection_sum(pairs: Iterable[tuple[SpectralField, SpectralField]]) -> SpectralField:
    """The sum of B(u, v) = P((u . grad) v) over (u, v) pairs, with one
    forward transform, one spectral divergence and one Leray projection.

    Evaluated in divergence form: the fields are transformed to one
    zero-padded grid, the products T_jc = sum u_j v_c are accumulated there
    and transformed back once, and the sum is P(i k_j T_jc).  For each pair
    this equals the truncated convolution sum_{p+q=k} i (u_hat(p) . q)
    v_hat(q) up to rounding: the two differ by sum_{p+q=k} i (u_hat(p) . p)
    v_hat(q), the v (div u) term, which is at rounding level because stored
    fields are divergence free to INVARIANT_TOL (the quadrature-oracle and
    b(u, u, u) tests check this).  Fields are told apart by identity: each
    distinct object is transformed once per batch of at most _BATCH fields,
    which bounds the transient memory whatever the number of pairs.  When
    the pair list is closed under swap (as many (u, v) as (v, u); a lone
    (u, u) is), T is symmetric and 6 products are formed instead of 9.

    A pair whose supports are small and reach no p + q in the cube away
    from k = 0 adds nothing and is dropped before any transform (``_plan``,
    cached per pair of support masks); when every pair is dropped the
    result is the zero field.  Each axis a of the grid is sized from the
    pairs left: with s[a] the largest e_u[a] + e_v[a] over them (e_u, e_v
    the largest |k_a| in supp(u), supp(v)), the output box is
    |k_a| <= o[a] = min(K, s[a]) (nothing outside it can be reached) and
    the axis gets N_a >= s + o + 1 points, rounded up to even above 1, so no
    alias of any product lands in the output box.  Sizes, index maps and the
    output box's wave vectors are cached per extents (``_layout``).  The
    transforms (``_irfftn``, ``_rfftn``) make numpy's 1-D passes in numpy's
    order but none over an axis of one point, so a state on a k_a = 0 plane
    is transformed in 2-D, byte for byte as by the 3-D numpy transforms.

    The support indicator of each field, real and even like the fields,
    goes through the same transforms: the products ind_u ind_v, summed over
    the pairs, come back as the number of pairs p + q = k, and every mode
    where that count is zero, which no convolution in the sum can reach, is
    set to exactly zero, so sparse sums stay sparse.

    The k3 < 0 half of the output box is filled with conjugates and the
    Leray projection runs on the output box alone, with ``leray_project``'s
    own steps.  Every mode outside the box is zero and stays zero under
    them, so the result equals ``leray_project`` of the whole cube bit for
    bit.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("advection_sum needs at least one (u, v) pair")
    fields = list({id(f): f for pair in pairs for f in pair}.values())
    K = fields[0].cutoff
    if any(f.cutoff != K for f in fields):
        raise CutoffMismatchError(f"cutoffs {sorted({f.cutoff for f in fields})} differ")
    slot = {id(f): i for i, f in enumerate(fields)}
    upper = (slice(None), slice(None), slice(K, None))   # k3 >= 0: the rfft half
    halves = [f.coeffs[upper] for f in fields]
    masks = [h.any(axis=-1) for h in halves]
    keys = [m.tobytes() for m in masks]
    kept, extents = [], None      # the largest extent of a field, of a pair's sum
    for u, v in pairs:
        a, b = slot[id(u)], slot[id(v)]
        ext = _plan(K, a == b, keys[a], keys[b])
        if ext is not None:
            kept.append((a, b))
            extents = ext if extents is None else tuple(
                tuple(map(max, old, new)) for old, new in zip(extents, ext))
    if not kept:
        return SpectralField.zero(K)
    layout = _layout(K, *extents)
    sizes = layout.sizes
    symmetric = sorted(kept) == sorted((b, a) for a, b in kept)
    products, table = _TENSOR[symmetric]
    prod = np.empty((len(products) + 1,) + sizes)          # T_jc rows, then the pair count
    term = np.empty(sizes) if len(kept) > 1 else None
    # the first pair writes its products rather than adding them to zeros
    # (0.0 + -0.0 is 0.0), so one pair gives B(u, v) bit for bit
    first = True
    for batch, local in _batches(kept, _BATCH):
        # component-major half spectra on the input box: 3 rows per field,
        # then the support indicator of each field
        rows = [halves[f][layout.box_in].transpose(3, 0, 1, 2) for f in batch]
        rows.append(np.array([masks[f][layout.box_in] for f in batch], dtype=np.complex128))
        spec = np.zeros((4 * len(batch),) + sizes[:2] + (sizes[2] // 2 + 1,),
                        dtype=np.complex128)
        spec[layout.scatter] = np.concatenate(rows)
        phys = _irfftn(spec, sizes)
        del spec
        ind = 3 * len(batch)                                 # first indicator row
        for a, b in local:
            factors = [(phys[3 * a + j], phys[3 * b + c]) for j, c in products]
            factors.append((phys[ind + a], phys[ind + b]))   # ind_u * ind_v
            for row, (x, y) in zip(prod, factors):
                if first:
                    np.multiply(x, y, out=row)
                else:
                    np.multiply(x, y, out=term)
                    row += term
            first = False
        del phys
    half = _rfftn(prod)[layout.gather]
    del prod, term
    flux = 1j * np.einsum("jxyz,jcxyz->cxyz", layout.k_rows, half[table])   # i k_j T_jc
    flux[:, half[-1].real <= 0.5] = 0.0                   # no pair p + q = k
    o3 = flux.shape[-1] - 1
    box = np.empty(flux.shape[1:3] + (2 * o3 + 1, 3), dtype=np.complex128)
    box[:, :, o3:] = flux.transpose(1, 2, 3, 0)
    box[:, :, :o3] = np.conj(box[::-1, ::-1, :o3:-1])    # u_hat(-k) = conj(u_hat(k))
    W = 2 * K + 1
    out = np.zeros((W, W, W, 3), dtype=np.complex128)
    out[layout.box_out] = _project_box(box, *layout.geometry)
    return SpectralField(K, out)


def bilinear_form(u: SpectralField, v: SpectralField) -> SpectralField:
    """Advective form B(u, v) = P((u . grad) v), the exact Galerkin nonlinearity.

    The one-pair case of ``advection_sum``, which documents the method: one
    inverse transform of u, v and their support indicators (u and its
    indicator alone, and 6 products instead of 9, when v is u), one forward
    transform of the products and their pair count, and the Leray
    projection on the output box.  A pair of small supports with no sum in
    the cube away from k = 0 gives the zero field with no transform.
    """
    return advection_sum([(u, v)])


def trilinear_form(u: SpectralField, v: SpectralField, w: SpectralField) -> float:
    """b(u, v, w) = <B(u, v), w>, evaluated spectrally.

    The imaginary part must vanish (within 1e-12 relative) for valid real
    fields; a larger residual signals corrupted inputs and raises.
    """
    if not (u.cutoff == v.cutoff == w.cutoff):
        raise CutoffMismatchError("trilinear form requires a common cutoff")
    Buv = bilinear_form(u, v)
    z = VOLUME * complex(np.vdot(w.coeffs, Buv.coeffs))
    scale = max(Buv.l2() * w.l2(), 1e-300)
    if abs(z.imag) > 1e-12 * max(scale, abs(z.real)):
        raise FieldInvariantError(
            f"trilinear form has spurious imaginary part {z.imag:.3e} (scale {scale:.3e})")
    return z.real


def low_mode_project(u: SpectralField, n: int) -> SpectralField:
    """Spectral projection P_n: keep exactly the modes with |k|^2 <= n."""
    if n < 1:
        raise ValueError("low-mode projection requires n >= 1")
    _, ksq, _ = _grid(u.cutoff)
    return SpectralField(u.cutoff, np.where((ksq <= n)[..., None], u.coeffs, 0.0))


def smoothing_constant(alpha: float, sigma: float) -> float:
    """max_{x>=0} x^alpha e^{-sigma x} = (alpha / (e sigma))^alpha, for alpha, sigma > 0."""
    if alpha <= 0 or sigma <= 0:
        raise ValueError("smoothing constant requires alpha, sigma > 0")
    return (alpha / (math.e * sigma)) ** alpha


def random_solenoidal_field(cutoff: int, rng: np.random.Generator, amplitude: float = 1.0,
                            radius: float = 0.4, order: float = 2.0) -> SpectralField:
    """Random divergence-free field with spectrum ~ e^{-radius |k|} |k|^(-order).

    The exponential tail keeps every Gevrey norm with sigma < radius
    well-behaved as the cutoff grows, which ensemble estimates rely on.
    """
    W = 2 * cutoff + 1
    _, ksq, kabs = _grid(cutoff)
    raw = rng.standard_normal((W, W, W, 3)) + 1j * rng.standard_normal((W, W, W, 3))
    ksq_safe = np.where(ksq == 0.0, 1.0, ksq)
    profile = amplitude * np.exp(-radius * kabs) * ksq_safe ** (-order / 2.0)
    return leray_project(raw * profile[..., None], cutoff)
