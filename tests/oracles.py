"""Independent oracles used by the test suite.

Everything here deliberately avoids the library's own evaluation paths:
the advection oracles work through physical-space quadrature on a grid
and through numpy's FFTs in divergence form, the closure oracle is a
plain breadth-first search, and the phi oracle evaluates both branches
over the whole array.
"""

import math

import numpy as np

from nsasym.spectral import SpectralField, leray_project


def _phases(cutoff: int, n: int, sign: int) -> np.ndarray:
    """e^{sign i k x} for k = -cutoff..cutoff (rows) at the n grid points
    x = 2 pi m / n of one axis (columns)."""
    return np.exp(sign * 2j * np.pi * np.outer(np.arange(-cutoff, cutoff + 1), np.arange(n)) / n)


def evaluate_physical(coeffs: np.ndarray, n: int) -> np.ndarray:
    """sum_k c(k) e^{i k.x} on the n^3 grid, for a coefficient array indexed
    by k + cutoff on its first three axes; a direct sum, one matrix product
    per axis, with any trailing axes kept."""
    e = _phases((coeffs.shape[0] - 1) // 2, n, 1)
    return np.einsum("ax,by,cz,abc...->xyz...", e, e, e, coeffs, optimize=True)


def bilinear_quadrature(u: SpectralField, v: SpectralField, n: int = 16) -> SpectralField:
    """P((u.grad) v) via physical-space quadrature on an n^3 grid.

    Exact for trigonometric polynomials as long as n > 3 * cutoff, since the
    pointwise product has degree at most 2 * cutoff per axis.
    """
    assert n > 3 * u.cutoff
    K = u.cutoff
    kvec = np.stack(np.meshgrid(*3 * [np.arange(-K, K + 1)], indexing="ij"), axis=-1)
    uu = evaluate_physical(u.coeffs, n)
    # grad v, entry [..., j, c] = d v_c / d x_j, from the coefficients i k_j v_hat_c
    gv = evaluate_physical(1j * kvec[..., :, None] * v.coeffs[..., None, :], n)
    adv = np.einsum("xyzj,xyzjc->xyzc", uu, gv)
    # raw(k) = n^-3 sum_x e^{-i k.x} adv(x), again one matrix product per axis
    e = _phases(K, n, -1)
    raw = np.einsum("ax,by,cz,xyzj->abcj", e, e, e, adv, optimize=True) / n**3
    return leray_project(raw, K)


def divergence_form_sum(pairs):
    """The sum of P(div(u (x) v)) over (u, v) pairs by numpy's real FFTs
    on one n^3 grid, n >= 3K + 1, projected on the whole cube by
    ``leray_project``, with every mode that no pair p + q = k reaches set
    to zero; returns the field and the boolean mask of those modes.

    This is the divergence-form formula: i k_j T_jc with T_jc the sum of the
    products u_j v_c, and the pair count from the products of the support
    indicators.  A grid of 3K + 1 points per axis or more puts no alias of
    a product inside the cube; n is a multiple of 4, which numpy's FFTs
    take fast.
    """
    K = pairs[0][0].cutoff
    n, W = 4 * -(-(3 * K + 1) // 4), 2 * K + 1      # n: 3K + 1 rounded up to a multiple of 4
    axis = np.arange(-K, K + 1)
    kvec = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1)
    rows = (slice(None),)

    # every distinct field and its support indicator, in one inverse FFT
    # of their k3 >= 0 halves
    fields = list({id(f): f for pair in pairs for f in pair}.values())
    slot = {id(f): 4 * i for i, f in enumerate(fields)}
    spec = np.zeros((4 * len(fields), n, n, n // 2 + 1), dtype=np.complex128)
    spec[rows + np.ix_(axis % n, axis % n, axis[K:])] = np.concatenate([np.concatenate(
        [f.coeffs, np.any(f.coeffs != 0, axis=-1, keepdims=True)], axis=-1) for f in fields],
        axis=-1).transpose(3, 0, 1, 2)[..., K:]
    grid = np.fft.irfftn(spec, s=(n, n, n), axes=(1, 2, 3), norm="forward")
    products = np.zeros((10, n, n, n))       # T_jc row-major, then the pair count
    for u, v in pairs:
        a, b = slot[id(u)], slot[id(v)]
        products[:9] += (grid[a:a + 3, None] * grid[None, b:b + 3]).reshape(9, n, n, n)
        products[9] += grid[a + 3] * grid[b + 3]
    half = np.fft.rfftn(products, axes=(1, 2, 3), norm="forward")
    # the cube from the k3 >= 0 half: T_hat(-k) = conj(T_hat(k)) for real T
    t_hat = np.where(axis >= 0, half[rows + np.ix_(axis % n, axis % n, np.abs(axis))],
                     np.conj(half[rows + np.ix_(-axis % n, -axis % n, np.abs(axis))]))
    unreached = t_hat[9].real <= 0.5
    t_hat = t_hat[:9].reshape(3, 3, W, W, W)
    flux = 1j * np.einsum("xyzj,jcxyz->xyzc", kvec, t_hat)
    flux[unreached] = 0.0
    return leray_project(flux, K), unreached


def bfs_closure(vee, wedge, generators, cutoff, tol=1e-9):
    """Breadth-first closure of a generator set under vee and wedge.

    ``vee(x)`` must return the list of vee exponent values produced by x that
    are <= cutoff, and ``wedge(x, y)`` the wedge exponent value.  Returns the
    sorted tuple of reachable values in (0, cutoff].
    """
    found: list[float] = []

    def seen(x):
        return any(abs(x - y) <= tol for y in found)

    frontier = [x for x in generators if x <= cutoff + tol]
    for x in frontier:
        if not seen(x):
            found.append(x)
    while frontier:
        nxt = []
        for x in frontier:
            for y in vee(x):
                if y <= cutoff + tol and not seen(y):
                    found.append(y)
                    nxt.append(y)
        for x in list(found):
            for y in list(found):
                w = wedge(x, y)
                if w <= cutoff + tol and not seen(w):
                    found.append(w)
                    nxt.append(w)
        frontier = nxt
    return tuple(sorted(found))


def phi_trio_blend(z):
    """phi_0..phi_3 at real z <= 0 as a whole-array blend: the direct
    formulas (with -1 in place of |z| < 0.5) and the 21-term series (with 0
    in place of |z| >= 0.5) over every element, picked by ``np.where``."""
    small = np.abs(z) < 0.5
    zb = np.where(small, -1.0, z)
    e = np.exp(zb)
    direct = [(e - 1.0) / zb, (e - 1.0 - zb) / (zb * zb),
              (e - 1.0 - zb - 0.5 * zb * zb) / (zb * zb * zb)]
    zs = np.where(small, z, 0.0)
    out = [np.exp(z)]
    for j, d in zip((1, 2, 3), direct):
        acc = np.zeros_like(zs)
        term = np.full_like(zs, 1.0 / math.factorial(j))
        acc += term
        for n in range(1, 22):
            term = term * zs / (n + j)
            acc += term
        out.append(np.where(small, acc, d))
    return tuple(out)
