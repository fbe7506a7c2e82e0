"""Independent oracles used by the test suite.

Everything here deliberately avoids the library's own evaluation paths:
the advection oracle works through physical-space quadrature on a grid,
and the closure oracle is a plain breadth-first search.
"""

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
