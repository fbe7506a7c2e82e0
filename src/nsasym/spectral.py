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
on a grid sized per axis from the supports.  Its one implementation,
``advection_sum``, forms the sum of B(u, v) over a list of pairs with one
forward transform: the distinct fields are transformed in, a few at a
time, the products u_j v_c of all pairs are accumulated on one grid, and
one contraction with a cached linear map takes them to the Leray-projected
divergence.  ``bilinear_form`` is its one-pair case.  If e_u and e_v are
the largest |k_a| in the supports of a pair, s the largest e_u + e_v over
the pairs, and the output keeps
|k_a| <= o = min(K, s), an axis of N_a >= s + o + 1 points puts no alias
of any product inside the output box (Orszag 1971; Canuto, Hussaini,
Quarteroni and Zang, Spectral Methods), so the result is the exact
truncated convolution, not a dealiased approximation, and the
finite-dimensional system is the exact Galerkin reduction.  A dense field
gets 3K + 1 points per axis, and a field on the k3 = 0 plane a single k3
point.  The transforms are partial DFTs: per-axis matrices that take the
input box of modes straight to the grid and the grid straight to the
output box, equal to numpy's real FFTs, zero-filled and cropped, to
rounding.  Every mode that no pair p + q = k reaches is set to exactly
zero, so transform rounding never fills modes no convolution can reach.
Which modes those are depends on the supports alone, so it is found once
per call plan: the support indicators go through the plan's transforms,
and the sum of their products over the pairs comes back as the number of
pairs p + q = k.  The divergence and the Leray projection are one
precomputed map on the k3 >= 0 half of the output box,
W[c, (j, c'), k] = P_cc'(k) i k_j, cached per output box; the k3 < 0 half
is the conjugate.  The sizes and DFT matrices are cached per support
extents, the extents and the empty-sum test per pair of supports, and
everything the supports and the pairing of a call fix (the grid, the
pairs kept, the batches, the symmetry and the unreached modes) per call
plan; a small pair of supports whose sums all miss the cube away from
k = 0 is dropped with no transform.  Every call, an audit's lone
pair as much as a recursion's wedge sum, then runs one kernel
(``_advect``) that transforms only the fields and their products, on the
components-first k3 >= 0 half of a box, which ``_fold`` takes from a cube
array and ``_unfold`` fills back into one.  The solver keeps its state in
that layout, on the input half box of the one plan of its closed support
(``_closed_support``), and calls the kernel on every rhs as it is.
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
    "bilinear_form",
    "advection_sum",
    "trilinear_form",
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


@functools.cache
def _grid(cutoff: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cube's wavenumber geometry, cached per cutoff: integer k-grid, |k|^2, |k|."""
    axis = np.arange(-cutoff, cutoff + 1)
    kvec = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).astype(float)
    ksq = np.sum(kvec * kvec, axis=-1)
    return kvec, ksq, np.sqrt(ksq)


def _half_box(cutoff: int, extents) -> tuple[slice, slice, slice]:
    """The box |k_a| <= extents[a] inside the k3 >= 0 half of a coefficient array."""
    return tuple(slice(cutoff - e, cutoff + e + 1) for e in extents[:2]) + (slice(extents[2] + 1),)


# The products u_j v_c of the divergence form, as (j, c) pairs: all nine in
# general; for a pair list closed under swap, B(u, u) among them, the tensor
# is symmetric and only the six with j <= c are formed.
_TENSOR = {
    False: [(j, c) for j in range(3) for c in range(3)],
    True: [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)],
}
# the same as two index arrays, the components j and c of each product
_FACTORS = {symmetric: tuple(map(np.array, zip(*pairs))) for symmetric, pairs in _TENSOR.items()}


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


_MULTIPLIER_KINDS = ("A_alpha", "exp_sqrtA")


def _log_multiplier(kind: str, parameter: float, cutoff: int) -> np.ndarray:
    """Log of the diagonal multiplier, with the overflow guard applied."""
    _, ksq, kabs = _grid(cutoff)
    ksq_safe = np.where(ksq == 0.0, 1.0, ksq)
    if kind == "A_alpha":
        logm = parameter * np.log(ksq_safe)
    elif kind == "exp_sqrtA":
        logm = parameter * kabs
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
    """
    logm = _log_multiplier(kind, parameter, u.cutoff)
    return SpectralField(u.cutoff, u.coeffs * np.exp(logm)[..., None])


def apply_inverse_stokes(u: SpectralField) -> SpectralField:
    """A^(-1) u; regular on every stored field since k = 0 is never present."""
    return apply_multiplier(u, "A_alpha", -1.0)


@functools.lru_cache(maxsize=16)
def _log_weights(alpha: float, sigma: float, cutoff: int) -> np.ndarray:
    """The log of the squared weights of ``gevrey_norm``, 2 log(|k|^(2 alpha)
    e^(sigma |k|)), cached per index and cutoff (a run asks for the same few
    at every sample) and read-only."""
    logm = _log_multiplier("A_alpha", alpha, cutoff) + _log_multiplier("exp_sqrtA", sigma, cutoff)
    logm *= 2.0
    logm.setflags(write=False)
    return logm


def gevrey_norm(u: SpectralField, idx: GevreyIndex) -> float:
    """L^2(Omega) norm of A^alpha e^{sigma A^(1/2)} u.

    Computed in log space (weights exponentiated once, after factoring out
    the peak exponent) so that sigma*|k| up to the overflow guard is usable
    even though the squared weights would overflow a double.
    """
    logw = _log_weights(idx.alpha, idx.sigma, u.cutoff)
    amp2 = np.sum(np.abs(u.coeffs) ** 2, axis=-1)
    mask = amp2 > 0
    if not mask.any():
        return 0.0
    w = logw[mask]
    peak = float(w.max())
    return _NORM_FACTOR * math.exp(0.5 * peak) * math.sqrt(float(np.sum(np.exp(w - peak) * amp2[mask])))


_SUM_PAIRS = 64   # largest |supp u| |supp v| (k3 >= 0 halves) whose sums are listed
_SIX = np.ones(6, dtype=bool)   # a mode's six floats: (re, im) of three components
_BATCH = 4        # most distinct fields inverse-transformed together by ``advection_sum``


class _Layout(NamedTuple):
    """Grids, boxes and partial DFT matrices of ``advection_sum`` for given
    support extents."""

    sizes: tuple[int, int, int]   # padded grid N_a
    e_in: tuple                   # the fields' extents, whose half box is transformed in
    to_grid: tuple                # its matrices along axes 1, 2, 3 (``_to_grid``)
    from_grid: tuple              # the output half box's along axes 3, 2, 1 (``_from_grid``)
    e_out: tuple                  # the output box is |k_a| <= e_out[a]


def _phases(n: int, x: np.ndarray, k: np.ndarray, sign: int) -> np.ndarray:
    """exp(sign 2 pi i x k / n) over the outer product of x and k.  x k is
    reduced mod n first, so every argument is below 2 pi and the rounding of
    a phase does not grow with |x k|."""
    return np.exp((sign * 2j * np.pi / n) * (np.multiply.outer(x, k) % n))


def _dft_matrices(sizes: tuple, e_in: tuple, e_out: tuple) -> tuple[tuple, tuple]:
    """The per-axis matrices of ``_to_grid`` (axes 1, 2, 3) and ``_from_grid``
    (axes 3, 2, 1) on grids of ``sizes`` points, from the input half box
    |k_a| <= e_in[a], k3 >= 0, and to the output half box of e_out."""
    (n1, n2, n3), (e1, e2, e3), (o1, o2, o3) = sizes, e_in, e_out
    # c2r along axis 3: x = sum_k w_k Re(X_k e^{2 pi i k x / N3}) with w = 1 at
    # k3 = 0 and 2 above, a real matrix on the interleaved (re, im) rows of X
    weight = np.where(np.arange(e3 + 1) == 0, 1.0, 2.0)[:, None]
    phase = _phases(n3, np.arange(e3 + 1), np.arange(n3), 1)
    c2r = np.stack([weight * phase.real, -weight * phase.imag], axis=1).reshape(-1, n3)
    # r2c along axis 3: interleaved (re, im) columns, read back as complex
    r2c = (_phases(n3, np.arange(n3), np.arange(o3 + 1), -1) / n3).view(np.float64)
    inverse = tuple(_phases(n, np.arange(n), np.arange(-e, e + 1), 1)
                    for n, e in ((n1, e1), (n2, e2))) + (c2r,)
    forward = (r2c,) + tuple(_phases(n, np.arange(-o, o + 1), np.arange(n), -1) / n
                             for n, o in ((n2, o2), (n1, o1)))
    return inverse, forward


@functools.lru_cache(maxsize=64)
def _layout(cutoff: int, e_in: tuple, e_sum: tuple) -> _Layout:
    """The layout for fields whose largest |k_a| are at most e_in[a] and
    products whose largest e_u[a] + e_v[a] is e_sum[a]."""
    e_out = tuple(min(cutoff, s) for s in e_sum)
    sizes = [s + o + 1 for s, o in zip(e_sum, e_out)]
    sizes = tuple(n + n % 2 if n > 1 else n for n in sizes)
    to_grid, from_grid = _dft_matrices(sizes, e_in, e_out)
    return _Layout(sizes=sizes, e_in=e_in, to_grid=to_grid, from_grid=from_grid, e_out=e_out)


@functools.lru_cache(maxsize=8)
def _weights(e_out: tuple, symmetric: bool) -> np.ndarray:
    """The linear map from the product rows T_r, r = (j, c') of _TENSOR, to
    the Leray-projected divergence P(k) i k_j T_jc' on the k3 >= 0 half of
    the box |k_a| <= e_out[a]: W[c, r, k] = P_cc'(k) i k_j, with the rows
    (j, c') and (c', j) of a symmetric tensor summed into one.  P(k) is
    I - k k^T / |k|^2, and every weight is 0 at k = 0.  The map depends on
    the output box alone, so layouts with one output box share it; a dense
    K = 16 box takes 8 MB for the nine-row map, and the cache holds 8."""
    axes = [np.arange(-e, e + 1) for e in e_out[:2]] + [np.arange(e_out[2] + 1)]
    kvec = np.stack(np.meshgrid(*axes, indexing="ij")).astype(float)
    ksq = np.sum(kvec * kvec, axis=0)
    eye = np.eye(3)[:, :, None, None, None]
    proj = eye - kvec[:, None] * kvec / np.where(ksq == 0.0, 1.0, ksq)    # P_cc'(k)
    weights = np.zeros((3, len(_TENSOR[symmetric])) + ksq.shape, dtype=np.complex128)
    for r, (j, c) in enumerate(_TENSOR[symmetric]):
        weights[:, r] = 1j * proj[:, c] * kvec[j]
        if symmetric and j != c:
            weights[:, r] += 1j * proj[:, j] * kvec[c]
    return weights


def _unpack(bits: bytes, shape: tuple) -> np.ndarray:
    """The boolean array of ``shape`` packed to ``bits`` by ``np.packbits``."""
    return np.unpackbits(np.frombuffer(bits, dtype=np.uint8),
                         count=math.prod(shape)).reshape(shape).view(bool)


@functools.lru_cache(maxsize=1024)
def _reach(cutoff: int, mask_u: bytes, mask_v: bytes) -> tuple | None:
    """For supp(u) and supp(v), given as k3 >= 0 half masks packed to bits
    (``np.packbits``), the largest |k_a| per axis of either support and of
    their sums: (max(e_u, e_v), e_u + e_v) with e_u, e_v the extents of the
    supports.  A support given twice is unpacked once.

    None when no p + q with p in supp(u), q in supp(v) lands in the cube
    away from k = 0.  That is tested by listing p +- q over the half masks
    when they hold at most _SUM_PAIRS pairs; larger supports skip the test
    and are kept, so the listing stays small.  Call plans share pairs of
    supports (a lattice pass looks up about three for every one it scans),
    so the scans are cached per pair."""
    shape = (2 * cutoff + 1, 2 * cutoff + 1, cutoff + 1)
    centre = (cutoff, cutoff, 0)
    points = [np.nonzero(_unpack(m, shape)) for m in dict.fromkeys((mask_u, mask_v))]
    if len(points[0][0]) * len(points[-1][0]) <= _SUM_PAIRS:
        p, q = (np.stack(points[i], axis=-1) - centre for i in (0, -1))
        sums = np.concatenate([p[:, None] + q, p[:, None] - q]).reshape(-1, 3)
        if not np.any(np.all(np.abs(sums) <= cutoff, axis=1) & np.any(sums != 0, axis=1)):
            return None
    e_u, e_v = ([int(np.abs(x - c).max()) for x, c in zip(pt, centre)]
                for pt in (points[0], points[-1]))
    return tuple(map(max, e_u, e_v)), tuple(map(operator.add, e_u, e_v))


def _closed_support(cutoff: int, fields: Iterable[np.ndarray]) -> np.ndarray:
    """The closure S of the supports of the coefficient arrays ``fields``
    under p + q, kept inside the cube and away from k = 0: the modes that a
    Galerkin run from u0 under a force on these supports can ever reach.

    Grown on the k3 >= 0 half mask by the modes that the plan of B(u, u)
    for u on it reaches (``_plan``), to a fixed point, so no list of sums is
    ever formed, and the last plan looked up is the one the solver runs on.
    Returned as that half mask, (2K+1, 2K+1, K+1), whose k3 = 0 plane holds
    both k and -k; packed by ``np.packbits``, it is S's key for ``_plan``."""
    K = cutoff
    half = np.zeros((2 * K + 1, 2 * K + 1, K + 1), dtype=bool)
    for f in fields:
        half |= np.any(f[:, :, K:] != 0, axis=-1)
    while True:
        plan = _plan(K, (np.packbits(half).tobytes(),), ((0, 0),))
        if plan is None:
            return half
        grown = half.copy()
        reached = True if plan.unreached is None else ~plan.unreached
        grown[_half_box(K, plan.layout.e_out)] |= reached
        grown[K, K, 0] = False
        if np.array_equal(grown, half):
            return half
        half = grown


class _Plan(NamedTuple):
    """What the supports and the pairing of an ``advection_sum`` call fix."""

    layout: _Layout
    symmetric: bool              # the pairs left are closed under swap: 6 products, not 9
    batches: tuple               # (field slots, pairs in batch-local slots) per batch
    unreached: np.ndarray | None  # the output half box's modes no pair reaches, read-only;
                                  # None when every mode is reached


@functools.lru_cache(maxsize=1024)
def _plan(cutoff: int, keys: tuple, slots: tuple) -> _Plan | None:
    """The plan of a call on fields with the packed support masks ``keys``
    (see ``_reach``) and the pairs ``slots`` of indices into ``keys``.

    The pairs that reach nothing are dropped, and the plan is None when
    every pair is.  The layout takes the largest extents of the pairs left.
    The unreached modes come from the support indicators, real and even
    like the fields, through the layout's transforms in the plan's batches:
    the sum of ind_u ind_v over the pairs left comes back as the number of
    their pairs p + q = k, and a mode whose count is at most 0.5 is
    unreached.  The grid puts no alias of any pair's product in the output
    box, so the count is exact to rounding.  That is one indicator
    transform pair per call plan, never one per call.  A lattice pass meets
    a few hundred call plans and a solver run one, so the cache holds them
    all."""
    reach = {(a, b): _reach(cutoff, keys[a], keys[b]) for a, b in dict.fromkeys(slots)}
    kept = [ab for ab in slots if reach[ab] is not None]
    if not kept:
        return None
    reached = [r for r in reach.values() if r is not None]
    # the largest extent of a field and of a pair's sum, per axis
    e_in, e_sum = (tuple(map(max, zip(*ext))) for ext in zip(*reached))
    layout = _layout(cutoff, e_in, e_sum)
    batches = tuple(_batches(kept, _BATCH))
    shape, box = (2 * cutoff + 1, 2 * cutoff + 1, cutoff + 1), _half_box(cutoff, e_in)
    count = np.zeros((1,) + layout.sizes)
    for batch, local in batches:
        ind = _to_grid(layout.to_grid, np.array([_unpack(keys[s], shape)[box] for s in batch],
                                                dtype=np.complex128))
        for a, b in local:
            count += ind[a:a + 1] * ind[b:b + 1]
    unreached = _from_grid(layout.from_grid, count)[0].real <= 0.5
    unreached.setflags(write=False)
    return _Plan(layout, sorted(kept) == sorted((b, a) for a, b in kept),
                 batches, unreached if unreached.any() else None)


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


def _to_grid(matrices: tuple, spec: np.ndarray) -> np.ndarray:
    """The real rows on the padded grid whose k3 >= 0 half spectra on the
    input half box are the rows of ``spec``: ``np.fft.irfftn`` with
    norm="forward" of those spectra zero-filled to the grid.  Three matrix
    products (``_dft_matrices``), along axes 1, 2 and 3, the last a real
    c2r matrix on the interleaved (re, im) view; on a one-point axis 3 that
    product is the real part, and is taken as such."""
    m1, m2, c2r = matrices
    rows, _, b, c = spec.shape
    grid = (rows, len(m1), len(m2), c2r.shape[1])
    x = np.matmul(m1, spec.reshape(rows, -1, b * c))
    if c2r.shape[1] == 1:
        return (x.reshape(-1, b) @ m2.T).real.reshape(grid)
    x = np.matmul(m2, x.reshape(-1, b, c))
    return np.matmul(x.view(np.float64).reshape(-1, 2 * c), c2r).reshape(grid)


def _from_grid(matrices: tuple, phys: np.ndarray) -> np.ndarray:
    """The k3 >= 0 half of the output box of the spectra of the real rows of
    ``phys``: ``np.fft.rfftn`` with norm="forward", cropped.  Three matrix
    products (``_dft_matrices``), along axes 3, 2 and 1, the first a real
    r2c matrix whose interleaved (re, im) columns are read as complex; on a
    one-point axis 3 that product is a cast to complex, and is taken as
    such."""
    r2c, f2, f1 = matrices
    rows, n1, n2, n3 = phys.shape
    if n3 == 1:
        c = 1
        x = phys.reshape(-1, n2) @ f2.T
    else:
        x = np.matmul(phys.reshape(-1, n3), r2c).view(np.complex128)
        c = x.shape[-1]
        x = np.matmul(f2, x.reshape(-1, n2, c))
    return np.matmul(f1, x.reshape(rows, n1, -1)).reshape(rows, len(f1), len(f2), c)


def advection_sum(pairs: Iterable[tuple[SpectralField, SpectralField]]) -> SpectralField:
    """The sum of B(u, v) = P((u . grad) v) over (u, v) pairs, with one
    forward transform and one contraction for the divergence and the Leray
    projection together.

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
    the pairs left are closed under swap (as many (u, v) as (v, u); a lone
    (u, u) is), T is symmetric and 6 products are formed instead of 9.

    Everything the supports and the pairing fix is one call plan
    (``_plan``), cached per cutoff, support masks of the distinct fields
    and pairs of field slots, and built from the extents of each pair of
    supports (``_reach``, cached per pair of support masks).  So a call
    computes its support masks, looks its plan up and runs one path,
    however many pairs, fields or batches it has.  A pair whose supports
    are small and reach no p + q in the cube away from k = 0 adds nothing
    and is dropped before any transform, and when every pair is dropped
    the result is the zero field.
    Each axis a of the grid is sized from the pairs left: with s[a] the
    largest e_u[a] + e_v[a] over them (e_u, e_v the largest |k_a| in
    supp(u), supp(v)), the output box is |k_a| <= o[a] = min(K, s[a])
    (nothing outside it can be reached) and the axis gets N_a >= s + o + 1
    points, rounded up to even above 1, so no alias of any product lands in
    the output box.  Sizes and the partial DFT matrices of the transforms
    are cached per extents (``_layout``).  The transforms are three small
    matrix products each (``_to_grid``, ``_from_grid``): the inverse takes
    the input half box straight to the grid and the forward takes the grid
    straight to the k3 >= 0 half of the output box, so no zero-filled
    spectrum is built and no mode outside the boxes is computed.  They
    equal numpy's ``irfftn`` and ``rfftn`` on the same grid, zero-filled
    and cropped, to rounding, so the sum is still the exact truncated
    convolution.

    On that half box, P(k) i k_j T_jc is one precomputed linear map of the
    product rows (``_weights``, cached per output box).  A mode that no
    pair p + q = k of any pair in the sum reaches is set to exactly zero,
    so transform rounding never fills it and sparse sums stay sparse: the
    plan finds those modes once, from the support indicators of its pairs
    through its own transforms.  The k3 = 0 plane holds both k and -k, and is
    symmetrized; the k3 < 0 half is filled with the conjugates, so the
    result is real and divergence free to rounding, and ``leray_project``
    leaves it unchanged.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("advection_sum needs at least one (u, v) pair")
    fields = list({id(f): f for pair in pairs for f in pair}.values())
    slot = {id(f): i for i, f in enumerate(fields)}
    K = fields[0].cutoff
    if any(f.cutoff != K for f in fields):
        raise CutoffMismatchError(f"cutoffs {sorted({f.cutoff for f in fields})} differ")
    halves = [f.coeffs[:, :, K:] for f in fields]   # k3 >= 0: a real field's half spectrum
    # a mode is in the support when one of its six floats is nonzero
    keys = tuple(np.packbits((h.view(np.float64) != 0) @ _SIX).tobytes() for h in halves)
    plan = _plan(K, keys, tuple((slot[id(u)], slot[id(v)]) for u, v in pairs))
    if plan is None:
        return SpectralField.zero(K)
    flux = _advect(plan, [_fold(f.coeffs, plan.layout.e_in) for f in fields])
    return SpectralField(K, _unfold(flux, K))


def _advect(plan: _Plan, spectra) -> np.ndarray:
    """The kernel of ``advection_sum``: the sum of B over the pairs of
    ``plan``, given ``spectra[slot]``, the component-major half spectrum
    (3, box) of each field slot on the plan's input half box.  Returns the
    Leray-projected divergence on the k3 >= 0 half of the output box, with
    the unreached modes set to exactly zero and the k3 = 0 plane
    symmetrized, components first."""
    layout = plan.layout
    J, C = _FACTORS[plan.symmetric]
    prod = None     # the T_jc rows: the first pair writes its products, later pairs add
    for batch, local in plan.batches:
        phys = _to_grid(layout.to_grid, np.concatenate([spectra[f] for f in batch]))
        for a, b in local:
            term = phys[3 * a:3 * a + 3][J] * phys[3 * b:3 * b + 3][C]
            if prod is None:
                prod = term
            else:
                prod += term
        del phys
    half = _from_grid(layout.from_grid, prod)
    del prod
    flux = (_weights(layout.e_out, plan.symmetric) * half).sum(axis=1)   # P(k) i k_j T_jc
    if plan.unreached is not None:
        np.copyto(flux, 0.0, where=plan.unreached)        # no pair p + q = k
    plane = flux[..., 0]                                  # k3 = 0 holds k and -k
    plane[...] = 0.5 * (plane + np.conj(plane[:, ::-1, ::-1]))
    return flux


def _fold(coeffs: np.ndarray, extents: tuple) -> np.ndarray:
    """The k3 >= 0 half of the box |k_a| <= extents[a] of the cube array
    ``coeffs``, components first: the half spectrum that ``_advect`` takes
    and ``_unfold`` fills back into a cube.  A view, not a copy."""
    (e1, e2, e3), K = extents, coeffs.shape[0] // 2
    return coeffs[K - e1:K + e1 + 1, K - e2:K + e2 + 1, K:K + e3 + 1].transpose(3, 0, 1, 2)


def _unfold(half: np.ndarray, cutoff: int) -> np.ndarray:
    """The cube array, components last, of the real field whose k3 >= 0
    half of a box centred on k = 0 is ``half``, components first (as
    ``_advect`` returns it and ``_fold`` gives it): k3 < 0 holds the
    conjugates, and every mode outside the box is zero."""
    m1, m2, m3 = (half.shape[1] - 1) // 2, (half.shape[2] - 1) // 2, half.shape[3] - 1
    K, W = cutoff, 2 * cutoff + 1
    out = np.zeros((W, W, W, 3), dtype=np.complex128)
    _fold(out, (m1, m2, m3))[...] = half
    box = (slice(K - m1, K + m1 + 1), slice(K - m2, K + m2 + 1), slice(K - m3, K))
    out[box] = np.conj(out[::-1, ::-1, ::-1][box])      # k3 < 0: the mirrors' conjugates
    return out


def bilinear_form(u: SpectralField, v: SpectralField) -> SpectralField:
    """Advective form B(u, v) = P((u . grad) v), the exact Galerkin nonlinearity.

    ``advection_sum`` of the one pair, which documents the method and runs
    the same path for it as for a sum: one inverse transform of u and v (u
    alone, and 6 products instead of 9, when v is u), one forward transform
    of the products, each three partial DFT matrix products, and one
    contraction for the divergence and the Leray projection on the output
    box; the modes no p + q reaches are zeroed from the cached call plan.
    A pair of small supports with no sum in the cube away from k = 0 gives
    the zero field with no transform.
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


def smoothing_constant(alpha: float, sigma: float) -> float:
    """max_{x>=0} x^alpha e^{-sigma x} = (alpha / (e sigma))^alpha, for alpha, sigma > 0."""
    if alpha <= 0 or sigma <= 0:
        raise ValueError("smoothing constant requires alpha, sigma > 0")
    return (alpha / (math.e * sigma)) ** alpha


RANDOM_RADIUS = 0.4   # exponential rate of a random field's spectrum
RANDOM_ORDER = 2.0    # algebraic order of a random field's spectrum


def random_solenoidal_field(cutoff: int, rng: np.random.Generator,
                            amplitude: float = 1.0) -> SpectralField:
    """Random divergence-free field with spectrum
    ~ e^{-RANDOM_RADIUS |k|} |k|^(-RANDOM_ORDER).

    The exponential tail keeps every Gevrey norm with sigma < RANDOM_RADIUS
    well-behaved as the cutoff grows, which ensemble estimates rely on.
    """
    W = 2 * cutoff + 1
    _, ksq, kabs = _grid(cutoff)
    raw = rng.standard_normal((W, W, W, 3)) + 1j * rng.standard_normal((W, W, W, 3))
    ksq_safe = np.where(ksq == 0.0, 1.0, ksq)
    profile = amplitude * np.exp(-RANDOM_RADIUS * kabs) * ksq_safe ** (-RANDOM_ORDER / 2.0)
    return leray_project(raw * profile[..., None], cutoff)
