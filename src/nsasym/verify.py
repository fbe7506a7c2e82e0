"""Verification harness: manufactured forces, remainder fits, series bounds.

The central tool is the manufactured force: given target coefficients
xi_1..xi_N on a lattice, the force

    f(t) = sum_n [ xi_n psi_n'(t) + (A xi_n) psi_n(t) ]
         + sum_{k,m} B(xi_k, xi_m) psi_{wedge(k,m)}(t)

makes u(t) = sum_n xi_n psi_n(t) an exact solution of the truncated
equations.  Its expansion is the coefficient recursion run forwards,
phi_n = A xi_n + chi_n + sum B(xi_i, xi_j), built from the recursion's
own coupling sum (``expansion.coupling_terms``), so the recursion returns
the targets; the residual audit rebuilds that sum independently.  The
part of each psi_n' that falls off the lattice is carried as a closed-form
extra term, keeping the manufactured solution exact, not asymptotic.

Remainders r_N(t) = |u(t) - partial sum| are fitted on log-log axes
against the system's own decay scale; the predicted order of r_N is the
exponent of the first omitted term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Optional, Sequence

import numpy as np

from .expansion import Expansion, ExpansionError, coupling_terms, evaluate_expansion
from .solver import ExtraTerm, ForceSpec, SimulationTrace
from .spectral import (
    GevreyIndex,
    SpectralField,
    apply_multiplier,
    bilinear_form,
    gevrey_norm,
    random_solenoidal_field,
)
from .systems import CheckResult, DecaySystem, Report, first_time

__all__ = [
    "DecayFit",
    "FitError",
    "manufacture_force",
    "remainder_series",
    "fit_decay_order",
    "check_bilinear_estimate",
    "check_series_expansion",
    "BilinearReport",
    "SeriesReport",
]

UNDERFLOW_FLOOR = 1e-300
BILINEAR_GROWTH_FACTOR = 1.1  # most the sup ratio may grow from the smallest to the largest cutoff


class FitError(ValueError):
    pass


@dataclass(frozen=True)
class DecayFit:
    """Least-squares decay order of a remainder series on one window."""

    slope: float        # fitted decay order (positive for decaying data)
    r2: float


def manufacture_force(target: Expansion, N: Optional[int] = None) -> ForceSpec:
    """Force for which the N-term partial sum of ``target`` solves the
    truncated equations exactly.

    Entry n of the force expansion is A xi_n plus the recursion's coupling
    sum over the N targets.  Provenance must record all N^2 wedges of two
    targets; fewer means the lattice cutoff is too small (ExpansionError).
    """
    lat = target.lattice
    N = len(target) if N is None else N
    if N > len(target):
        raise ExpansionError(f"target has {len(target)} terms, requested {N}")
    kept = sum(i <= N and j <= N for n in range(1, len(lat) + 1) for i, j in lat.wedge_pairs(n))
    if kept < N * N:
        raise ExpansionError(
            f"{N * N - kept} of the {N * N} wedges of the target terms exceed the lattice "
            f"cutoff {lat.cutoff:g}; enlarge the closure")
    xis = target.fields[:N]
    zero = SpectralField.zero(target.cutoff)
    fields = []
    for n in range(1, len(lat) + 1):
        own = [apply_multiplier(xis[n - 1], "A_alpha", 1.0)] if n <= N else []
        fields.append(sum(chain(own, coupling_terms(lat, xis, n)), zero))
    # off-lattice remainder of psi', kept in closed form; only the power
    # system has a one-term exact expansion that can land fully on-lattice
    extras = tuple(ExtraTerm(xi, lat.exponent(n), lat.vee(n)) for n, xi in enumerate(xis, 1)
                   if not (lat.system.kind == "power" and len(lat.vee(n)) == 1))
    return ForceSpec(Expansion(lat, tuple(fields), target.gevrey), extras)


def remainder_series(trace: SimulationTrace, exp: Expansion, N: int,
                     idx: GevreyIndex) -> list[tuple[float, float]]:
    """r_N(t) = |u(t) - sum_{n<=N} xi_n psi_n(t)|_{alpha,sigma} per snapshot."""
    if N > len(exp):
        raise ExpansionError(f"expansion has {len(exp)} terms, requested N = {N}")
    out = []
    for t, state in zip(trace.times, trace.states):
        partial = evaluate_expansion(exp, float(t), upto=N)
        out.append((float(t), gevrey_norm(state - partial, idx)))
    return out


def fit_decay_order(series: Sequence[tuple[float, float]], sys: DecaySystem,
                    window: tuple[float, float]) -> DecayFit:
    """Fit log r against the system's log decay scale over a time window.

    The abscissa is log of the system's order scale (t for power-law-like
    kinds, the slowly varying height function for logarithmic kinds), so
    the negated slope estimates the effective decay exponent directly.
    Remainders at the underflow floor are excluded.
    """
    lo, hi = window
    if not hi > lo:
        raise FitError("empty fit window")
    pts = [(t, r) for t, r in series if lo <= t <= hi and r > UNDERFLOW_FLOOR]
    if len(pts) < 8:
        raise FitError(f"need at least 8 usable samples in the window, have {len(pts)}")
    x = np.log([sys.order_abscissa(t) for t, _ in pts])
    y = np.log([r for _, r in pts])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 1.0
    return DecayFit(float(-slope), r2)


# ---------------------------------------------------------------------------
# ensemble estimate of the advective bilinear bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BilinearReport(Report):
    sup_ratio: dict          # (cutoff, alpha, sigma) -> empirical sup
    growth: dict             # (alpha, sigma) -> sup at largest / smallest cutoff
    ensemble: int


def check_bilinear_estimate(ensemble: int = 100, cutoffs: Sequence[int] = (4, 8),
                            indices: Sequence[tuple[float, float]] = ((0.5, 0.0), (1.0, 0.1)),
                            seed: int = 0) -> BilinearReport:
    """Empirical sup of |B(u,v)|_{a,s} / (|u|_{a+1/2,s} |v|_{a+1/2,s}).

    The sup over a random smooth ensemble must stay bounded as the cutoff
    doubles (growth at most ``BILINEAR_GROWTH_FACTOR``); zero-norm draws are skipped.
    """
    if ensemble < 1:
        raise ValueError("ensemble size must be at least 1")
    rng = np.random.default_rng(seed)
    sup: dict = {}
    for K in cutoffs:
        ratios = {idx: 0.0 for idx in indices}
        for _ in range(ensemble):
            u = random_solenoidal_field(K, rng)
            v = random_solenoidal_field(K, rng)
            if u.l2() == 0.0 or v.l2() == 0.0:
                continue
            Buv = bilinear_form(u, v)
            for alpha, sigma in indices:
                num = gevrey_norm(Buv, GevreyIndex(alpha, sigma))
                den = gevrey_norm(u, GevreyIndex(alpha + 0.5, sigma)) \
                    * gevrey_norm(v, GevreyIndex(alpha + 0.5, sigma))
                if den > 0:
                    ratios[(alpha, sigma)] = max(ratios[(alpha, sigma)], num / den)
        for idx, r in ratios.items():
            sup[(K, *idx)] = r
    checks = []
    growth = {}
    k_lo, k_hi = min(cutoffs), max(cutoffs)
    for alpha, sigma in indices:
        g = sup[(k_hi, alpha, sigma)] / sup[(k_lo, alpha, sigma)]
        growth[(alpha, sigma)] = g
        checks.append(CheckResult(
            f"bounded_growth[alpha={alpha:g},sigma={sigma:g}]",
            g <= BILINEAR_GROWTH_FACTOR,
            {"sup_small": sup[(k_lo, alpha, sigma)], "sup_large": sup[(k_hi, alpha, sigma)],
             "growth": g}))
    return BilinearReport(tuple(checks), sup, growth, ensemble)


# ---------------------------------------------------------------------------
# series-to-expansion criteria (tail bounds with explicit constants)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeriesReport(Report):
    T0: float
    T1: float
    c1: float
    tail_constants: dict      # N -> C_N
    reordered: bool


def _find_threshold(phi: Callable[[float], float], t_start: float, target: float) -> float:
    """Smallest grid-resolvable t >= t_start with phi(t) <= target (phi decreasing)."""
    t = first_time(lambda t: phi(t) <= target, t_start)
    if t is None:
        raise FitError("decay threshold unreachable within scan range")
    return t


def check_series_expansion(xi_norms: Sequence[float], lambdas: Sequence[float],
                           kappa: float, M: float, c0: float,
                           sys: Optional[DecaySystem] = None, *,
                           phi: Optional[Callable[[float], float]] = None,
                           t_start: Optional[float] = None,
                           D: Optional[Sequence[float]] = None,
                           psi_funcs: Optional[Sequence[Callable[[float], float]]] = None,
                           t_grid: Optional[Sequence[float]] = None,
                           N_list: Optional[Sequence[int]] = None,
                           series_sum: Optional[float] = None) -> SeriesReport:
    """Numerically audit the convergent-series-to-expansion criteria.

    Hypotheses checked: exponents strictly increasing after re-arrangement
    (which is applied, and reported, when the input order is not sorted),
    sum M^-lambda_n finite (certified by a geometric tail bound or supplied
    exactly via ``series_sum``), and the coefficient bound
    |xi_n| <= c0 kappa^lambda_n.  The start time T0 realizes
    phi(T0) <= 1/(M kappa); the tail constants are

        plain:     C_N = c1 (M / phi(T0))^lambda_{N+1} sum_n M^-lambda_n,
        weighted:  C_N = c1 (M^2 / phi(T0))^lambda_{N+1} (sum_n D_n M^-lambda_n)^2,

    with c1 = sup_n |xi_n| psi_n(T0), and the audited bound is
    sum_{n>N} |xi_n| psi_n(t) <= C_N phi(t)^lambda_{N+1} on the part of the
    grid past T1 (phi(t)/phi(T0) <= 1/M, or 1/M^2 in the weighted case).
    Hypothesis failures are reported, not raised.
    """
    if phi is None:
        if sys is None:
            raise ValueError("supply either a system or an explicit phi")
        phi = lambda t: sys.eval(sys.exponent(1.0), t)  # noqa: E731
        t_start = sys.t_min if t_start is None else t_start
    if t_start is None:
        t_start = 1.0
    xi_norms = [float(x) for x in xi_norms]
    lambdas = [float(l) for l in lambdas]
    if len(xi_norms) != len(lambdas):
        raise ValueError("coefficient and exponent lists must align")
    weighted = D is not None
    D = [1.0] * len(lambdas) if D is None else [float(d) for d in D]
    if psi_funcs is None:
        psi_funcs = [lambda t, _l=l: phi(t) ** _l for l in lambdas]
    psi_funcs = list(psi_funcs)

    checks: list[CheckResult] = []
    order = sorted(range(len(lambdas)), key=lambda i: lambdas[i])
    reordered = order != list(range(len(lambdas)))
    if reordered:
        lambdas = [lambdas[i] for i in order]
        xi_norms = [xi_norms[i] for i in order]
        D = [D[i] for i in order]
        psi_funcs = [psi_funcs[i] for i in order]
    gaps = np.diff(lambdas)
    checks.append(CheckResult(
        "exponents_strictly_increasing", bool(np.all(gaps > 0)),
        {"min_gap": float(gaps.min()) if len(gaps) else math.inf, "reordered": reordered}))

    terms = [d * M ** (-l) for d, l in zip(D, lambdas)]
    partial = float(np.sum(terms))
    if series_sum is not None:
        total = float(series_sum)
        converges = True
        detail = {"sum": total, "supplied": True}
    else:
        tail_ratio = max((terms[i + 1] / terms[i] for i in range(len(terms) - 1)
                          if terms[i] > 0), default=0.0)
        converges = M > 1 and tail_ratio < 1.0
        bound = terms[-1] * tail_ratio / (1 - tail_ratio) if converges else math.inf
        total = partial + bound
        detail = {"partial_sum": partial, "tail_bound": bound, "tail_ratio": tail_ratio}
    checks.append(CheckResult("weighted_sum_converges", converges and math.isfinite(total), detail))

    coeff_ok = all(x <= c0 * kappa ** l * (1 + 1e-12) for x, l in zip(xi_norms, lambdas))
    checks.append(CheckResult("coefficient_bound", coeff_ok,
                              {"c0": c0, "kappa": kappa}))

    T0 = _find_threshold(phi, t_start, 1.0 / (M * kappa))
    c1 = max(x * psi(T0) for x, psi in zip(xi_norms, psi_funcs))
    ratio_target = 1.0 / (M * M) if weighted else 1.0 / M
    T1 = _find_threshold(phi, T0, ratio_target * phi(T0))

    tail_constants = {}
    if N_list is None:
        N_list = range(len(lambdas) - 1)
    for N in N_list:
        lam_next = lambdas[N]  # exponent of term N+1 in 1-based counting
        if weighted:
            C_N = c1 * (M * M / phi(T0)) ** lam_next * total ** 2
        else:
            C_N = c1 * (M / phi(T0)) ** lam_next * total
        tail_constants[N] = C_N
        if t_grid is None:
            continue
        pts = [t for t in t_grid if t >= T1]
        worst = 0.0
        for t in pts:
            tail = sum(x * psi(t) for x, psi in zip(xi_norms[N:], psi_funcs[N:]))
            allowed = C_N * phi(t) ** lam_next
            worst = max(worst, tail / allowed if allowed > 0 else math.inf)
        checks.append(CheckResult(
            f"tail_bound[N={N}]", worst <= 1.0 and len(pts) > 0,
            {"worst_fill": worst, "C_N": C_N, "points": len(pts)}))

    return SeriesReport(tuple(checks), T0, T1, c1, tail_constants, reordered)
