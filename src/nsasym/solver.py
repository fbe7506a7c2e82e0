"""Long-horizon integration of the Galerkin-truncated equations.

The system  du/dt = -A u - B(u, u) + f(t)  is advanced with an
exponential Runge-Kutta scheme: the stiff diagonal A enters only through
the decaying multipliers e^{-tau A} and their phi-averages

    phi_j(-tau A) = (j-1)! * sum_{n>=0} (-tau A)^n / (n + j)!,

which saturate like A^-1 for large tau A, so the step size is limited by
the smooth drift of B and f alone, never by the stiffness of A.  The
stages follow Krogstad's fourth-order scheme (nodes 0, 1/2, 1/2, 1),
and the local error is estimated by step doubling: each interval is also
covered by two half steps, the Richardson difference (scaled by 1/15)
drives the controller, and the fine solution is propagated; the step
sizes h, h/2 and h/4 get one phi table each.  A plain integrating-factor
pair (polynomial weights on e^{-tau A}) was tried first and rejected: its
weights grow linearly in h where the phi-weights saturate, which pins the
step at h ~ 1/|k|_max^2 regardless of how slow the dynamics are.

The energy ledger evaluates the dissipation rate |A^(1/2) u|^2, the
injection rate <f, u> and their time derivatives once per converged node
(start, midpoint and end of an accepted step; the end node starts the
next step) and combines the three nodes by a Richardson-corrected cubic
Hermite rule.

Steps are allowed to grow proportionally to elapsed time (decaying
dynamics relax on the scale of t itself).  The linearized equation
dw/dt = -A w + xi + f replaces B by a constant inhomogeneity, for which
the scheme reduces to the exact variation-of-constants formula; with
f = 0 the closed-form solution is evaluated at every snapshot as a
self-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional, Sequence

import numpy as np

from .expansion import Expansion
from .spectral import (
    VOLUME,
    GevreyIndex,
    SpectralField,
    _grid,
    apply_inverse_stokes,
    apply_multiplier,
    bilinear_form,
    gevrey_norm,
)
from .systems import CheckResult, Exponent, Report, VeeTerm

__all__ = [
    "ExtraTerm",
    "ForceSpec",
    "SimulationTrace",
    "BlowUpError",
    "SolverError",
    "evaluate_force",
    "integrate_nse",
    "integrate_linearized",
    "energy_budget",
]

ENERGY_THRESHOLD_FACTOR = 100.0  # the energy identity's gate is this times the run's tol


class SolverError(RuntimeError):
    pass


class BlowUpError(SolverError):
    """The solution left the small-data regime the estimates require."""


@dataclass(frozen=True)
class ExtraTerm:
    """Closed-form force piece xi * (psi_lambda'(t) - truncated vee sum).

    Manufactured forces carry the exact derivative of each target term;
    the part of its expansion living on the lattice (``tail``, the
    lattice's vee terms of the exponent) is folded into the expansion
    coefficients, and this term evaluates what is left analytically so the
    manufactured solution stays exact.
    """

    field: SpectralField
    exponent: Exponent
    tail: tuple[VeeTerm, ...]

    def envelope(self, sys) -> Callable[[float], float]:
        def value(t: float) -> float:
            out = sys.psi_prime(self.exponent, t)
            for term in self.tail:
                out -= term.coeff * sys.eval(term.exponent, t)
            return out

        return value


@dataclass(frozen=True)
class ForceSpec:
    """Time-dependent force f(t) = expansion terms + closed-form extras."""

    expansion: Expansion
    extras: tuple[ExtraTerm, ...] = ()

    @property
    def cutoff(self) -> int:
        return self.expansion.cutoff

    @property
    def t_min(self) -> float:
        return self.expansion.lattice.system.t_min

    @classmethod
    def zero(cls, lattice, cutoff: int) -> "ForceSpec":
        """An identically-zero force (handy for decay and linearized runs)."""
        exp = Expansion(lattice, (SpectralField.zero(cutoff),), GevreyIndex(0.5, 0.0))
        return cls(exp)


def evaluate_force(force: ForceSpec, t: float) -> SpectralField:
    """f(t); exact linear combination of the stored terms."""
    return SpectralField(force.cutoff, _ForceEval(force)(t))


_FORCE_MEMO = 8    # most times ``_ForceEval`` remembers before it starts over


class _ForceEval:
    """Vectorized force evaluation: one weighted tensor contraction per
    distinct time.

    A step asks for f at the same time several times (each stage node
    twice or more, the ledger nodes again), so the last few results are
    kept, keyed by the exact float t, and the memo is emptied when it holds
    _FORCE_MEMO times.  A repeated t returns the same read-only array, equal
    bit for bit to a fresh evaluation.  ``n_evals`` counts the contractions
    actually made.
    """

    def __init__(self, force: ForceSpec):
        sys = force.expansion.lattice.system
        self.sys = sys
        self.cutoff = force.cutoff
        self.memo: dict[float, np.ndarray] = {}
        self.n_evals = 0
        stacks = []
        evals = []
        for _, lam, f in force.expansion.terms():
            if np.any(f.coeffs):
                stacks.append(f.coeffs)
                evals.append(lambda t, _lam=lam: sys.eval(_lam, t))
        for extra in force.extras:
            if np.any(extra.field.coeffs):
                stacks.append(extra.field.coeffs)
                evals.append(extra.envelope(sys))
        self.stack = np.stack(stacks) if stacks else None
        self.evals = evals

    def __call__(self, t: float) -> np.ndarray:
        got = self.memo.get(t)
        if got is None:
            got = self._evaluate(t)
            got.setflags(write=False)
            if len(self.memo) >= _FORCE_MEMO:
                self.memo.clear()
            self.memo[t] = got
            self.n_evals += 1
        return got

    def _evaluate(self, t: float) -> np.ndarray:
        self.sys.check_domain(t)
        W = 2 * self.cutoff + 1
        if self.stack is None:
            return np.zeros((W, W, W, 3), dtype=np.complex128)
        w = np.array([fn(t) for fn in self.evals])
        return np.tensordot(w, self.stack, axes=(0, 0))


@dataclass(frozen=True)
class SimulationTrace:
    """Snapshots and running diagnostics of one integration."""

    times: np.ndarray
    states: tuple[SpectralField, ...]
    l2: np.ndarray
    norms: dict[GevreyIndex, np.ndarray]
    dissipation: np.ndarray   # cumulative integral of |A^(1/2) u|^2
    injection: np.ndarray     # cumulative integral of <f, u>
    force_l2: np.ndarray
    steps: np.ndarray         # last accepted step size at each snapshot
    stats: dict = dc_field(default_factory=dict)

    def to_csv(self, path) -> None:
        cols = ["t", "u_l2"] + [idx.label() for idx in self.norms] + ["step"]
        rows = np.column_stack(
            [self.times, self.l2] + [self.norms[idx] for idx in self.norms] + [self.steps])
        with open(path, "w") as fh:
            fh.write(",".join(cols) + "\n")
            for row in rows:
                fh.write(",".join(f"{x:.17g}" for x in row) + "\n")

    def states_json(self) -> list:
        return [{"t": float(t), "state": s.to_json()}
                for t, s in zip(self.times, self.states)]


_CTRL_EXP = 0.25    # controller exponent under error-per-unit-step weighting


def _phi_trio(z: np.ndarray) -> tuple[np.ndarray, ...]:
    """phi_0..phi_3 at real z <= 0, series-evaluated where |z| < 0.5 to
    kill the catastrophic cancellation in (e^z - 1 - z - ...) / z^j.

    The direct formulas run on the whole array (with -1 in place of the
    small z) and the 21-term series on the small z alone, written over
    them; every element gets the same operations as it would in a blend of
    the two over the whole array."""
    small = np.abs(z) < 0.5
    zb = np.where(small, -1.0, z)       # direct formulas, safe magnitudes
    e = np.exp(zb)
    phis = [(e - 1.0) / zb,
            (e - 1.0 - zb) / (zb * zb),
            (e - 1.0 - zb - 0.5 * zb * zb) / (zb * zb * zb)]
    zs = z[small]
    for j, phi in enumerate(phis, 1):
        acc = np.zeros_like(zs)
        term = np.full_like(zs, 1.0 / math.factorial(j))
        acc += term
        for n in range(1, 22):
            term = term * zs / (n + j)
            acc += term
        phi[small] = acc
    return (np.exp(z), *phis)


def _geometric_samples(t0: float, t1: float, ratio: float) -> np.ndarray:
    if not t1 > t0:
        raise SolverError(f"need t1 > t0, got [{t0:g}, {t1:g}]")
    if not ratio > 1.0:
        raise SolverError("sample ratio must exceed 1")
    ts = [t0]
    while ts[-1] * ratio < t1:
        ts.append(ts[-1] * ratio)
    ts.append(t1)
    return np.array(ts)


class _Integrator:
    """Krogstad exponential RK(4), advanced by step doubling.

    Each accepted interval is integrated once with the full step and once
    with two half steps; their Richardson difference (scaled by 1/15) is
    the error estimate and the fine solution is propagated.  Same-stage
    embedded companions were tried first and abandoned: once h A saturates
    the phi-weights, their defect rows grow like h (they compare scattered
    N-samples that the exponential quadrature no longer distinguishes)
    while the true error stays flat, throttling the step to a vanishing
    fraction of t on smooth strongly-forced decays.  The doubling estimate
    compares two genuine propagations, so it tracks the real error in
    every regime.
    """

    def __init__(self, cutoff: int, force_eval: Callable[[float], np.ndarray],
                 xi_arr: Optional[np.ndarray], nonlinear: bool):
        self.K = cutoff
        _, self.ksq, _ = _grid(cutoff)
        self.force_eval = force_eval
        self.xi = xi_arr
        self.nonlinear = nonlinear
        self.n_rhs = 0

    def rhs(self, t: float, u_arr: np.ndarray) -> np.ndarray:
        self.n_rhs += 1
        f = self.force_eval(t)
        if self.nonlinear:
            u = SpectralField(self.K, u_arr)
            buu = bilinear_form(u, u).coeffs
            self.last_b = buu  # clean copy for the energy-orthogonality monitor
            return f - buu
        return f + self.xi

    def krogstad(self, t: float, h: float, u0: np.ndarray, k1: np.ndarray,
                 full: tuple, half: tuple) -> np.ndarray:
        """One fourth-order step from (t, u0) with k1 = rhs(t, u0); ``full``
        and ``half`` are the phi tables at h and h/2."""
        e1, p1, p2, p3 = full
        eh, q1, q2, _ = half
        U2 = eh * u0 + (0.5 * h) * q1 * k1
        k2 = self.rhs(t + 0.5 * h, U2)
        U3 = eh * u0 + h * ((0.5 * q1 - q2) * k1 + q2 * k2)
        k3 = self.rhs(t + 0.5 * h, U3)
        U4 = e1 * u0 + h * ((p1 - 2.0 * p2) * k1 + 2.0 * p2 * k3)
        k4 = self.rhs(t + h, U4)
        return e1 * u0 + h * ((p1 - 3.0 * p2 + 4.0 * p3) * k1
                              + (2.0 * p2 - 4.0 * p3) * (k2 + k3)
                              + (4.0 * p3 - p2) * k4)

    def step(self, t: float, h: float, u0: np.ndarray, k1: np.ndarray):
        """Doubled step from (t, u0) with k1 = rhs(t, u0); returns the fine
        solution, the error field, the midpoint state and its rhs."""
        # never clamp z: the phi formulas divide by it, and exp just underflows
        z = -h * self.ksq
        tables = [m[..., None] for m in _phi_trio(np.stack([z, 0.5 * z, 0.25 * z]))]
        P1, P2, P4 = (tuple(m[i] for m in tables) for i in range(3))
        coarse = self.krogstad(t, h, u0, k1, P1, P2)
        mid = self.krogstad(t, 0.5 * h, u0, k1, P2, P4)
        n_mid = self.rhs(t + 0.5 * h, mid)
        fine = self.krogstad(t + 0.5 * h, 0.5 * h, mid, n_mid, P2, P4)
        return fine, (fine - coarse) / 15.0, mid, n_mid


def _l2(arr: np.ndarray) -> float:
    return math.sqrt(VOLUME) * float(np.linalg.norm(arr.ravel()))


def _drive(cutoff: int, u0: SpectralField, force: ForceSpec, t0: float, t1: float,
           tol: float, *, nonlinear: bool, xi: Optional[SpectralField],
           sample_ratio: float, step_growth: float, norm_indices: Sequence[GevreyIndex],
           fixed_step: Optional[float]) -> SimulationTrace:
    if u0.cutoff != cutoff:
        raise SolverError(f"initial state cutoff {u0.cutoff} != force cutoff {cutoff}")
    if t0 < force.t_min:
        raise SolverError(f"start time {t0:g} below force domain {force.t_min:g}")
    if tol is not None and tol <= 0:
        raise SolverError("tolerance must be positive")

    feval = _ForceEval(force)
    ksq = _grid(cutoff)[1]
    stepper = _Integrator(cutoff, feval, xi.coeffs if xi is not None else None, nonlinear)
    samples = _geometric_samples(t0, t1, sample_ratio)
    norm_indices = list(norm_indices)

    f0_l2 = _l2(feval(t0))
    xi_l2 = xi.l2() if xi is not None else 0.0
    guard_scale = 1e3 * max(u0.l2(), f0_l2, xi_l2, 1e-30)

    # snapshot accumulators; the energy ledger accumulates per accepted step
    rec_t, rec_state, rec_l2, rec_fl2, rec_h = [], [], [], [], []
    rec_norms = {idx: [] for idx in norm_indices}
    rec_diss, rec_inj = [], []
    diss = inj = 0.0
    max_b_rel = 0.0
    n_steps = n_rejected = 0

    def node(tau: float, arr: np.ndarray, n_arr: np.ndarray) -> np.ndarray:
        # [D, I, D', I'] at a converged state (interior stage values are
        # lower-order and would pollute the ledger): D = |A^(1/2) u|^2,
        # I = <f, u>, exact du/dt = -A u + N, finite-difference df/dt
        f = feval(tau)
        delta = max(1e-6 * tau, 1e-9)
        if tau - delta >= force.t_min:
            f_dot = (feval(tau + delta) - feval(tau - delta)) / (2.0 * delta)
        else:
            f_dot = (feval(tau + delta) - f) / delta
        udot = -ksq[..., None] * arr + n_arr
        return VOLUME * np.array([
            float(np.sum(ksq[..., None] * np.abs(arr) ** 2)),
            float(np.real(np.vdot(arr, f))),
            2.0 * float(np.real(np.sum(ksq[..., None] * np.conj(arr) * udot))),
            float(np.real(np.vdot(udot, f) + np.vdot(arr, f_dot)))])

    def hermite(a: np.ndarray, b: np.ndarray, h_ab: float) -> np.ndarray:
        # cubic Hermite of [D, I] over one interval from its two end nodes
        return 0.5 * h_ab * (a[:2] + b[:2]) + (h_ab * h_ab / 12.0) * (a[2:] - b[2:])

    def record(t: float, arr: np.ndarray, h: float):
        state = SpectralField(cutoff, arr.copy())
        state.validate(tol=1e-10)
        rec_t.append(t)
        rec_state.append(state)
        rec_l2.append(state.l2())
        rec_fl2.append(_l2(feval(t)))
        rec_h.append(h)
        for idx in norm_indices:
            rec_norms[idx].append(gevrey_norm(state, idx))
        rec_diss.append(diss)
        rec_inj.append(inj)

    u = np.array(u0.coeffs)
    t = t0
    record(t, u, 0.0)
    sample_idx = 1
    k1 = stepper.rhs(t, u)
    start = node(t, u, k1)

    h = fixed_step if fixed_step is not None else min(1e-3 * max(t0, 1.0), (t1 - t0) / 2)
    while t < t1 * (1 - 1e-14):
        target = samples[sample_idx]
        h_cap = min(step_growth * t, target - t) if fixed_step is None \
            else min(fixed_step, target - t)
        h_try = min(h, h_cap) if fixed_step is None else h_cap
        hit_sample = (t + h_try >= target * (1 - 1e-14)) or abs(t + h_try - target) < 1e-12 * target
        with np.errstate(over="ignore", invalid="ignore"):
            # an overflowing trial step shows up as a non-finite error norm
            # and is rejected (adaptive) or caught by the guard (fixed step)
            u_new, err_field, mid, n_mid = stepper.step(t, h_try, u, k1)

        err = _l2(err_field)
        ref = max(_l2(u_new), _l2(u))
        if fixed_step is not None or err == 0.0 or ref == 0.0:
            ratio = 0.0
        else:
            # error per unit step: local errors pile up ~ 1/h-fold where h is
            # below the slowest damping time (1), and the energy audit needs
            # the accumulated error at the tolerance, not 1/h of it; the
            # half-window keeps the accumulation constant safely inside
            # the 100x budget used by the audits
            ratio = err / (tol * ref * min(2.0 * h_try, 1.0))
        if ratio <= 1.0:
            size = _l2(u_new)
            if size > guard_scale or not math.isfinite(size):
                raise BlowUpError(
                    f"|u| = {size:.3e} exceeded 1e3 x initial scale at t = {t + h_try:g}; "
                    "the run left the small-data regular regime")
            # one fresh rhs at the accepted endpoint closes the ledger slopes
            # and seeds the next step's first stage
            k1 = stepper.rhs(t + h_try, u_new)
            if nonlinear:
                # the rhs just stashed B(u_new, u_new): check its energy
                # orthogonality against the state it advects
                b_inner = VOLUME * float(np.real(np.vdot(u_new, stepper.last_b)))
                half = gevrey_norm(SpectralField(cutoff, u_new.copy()), GevreyIndex(0.5, 0.0))
                if half > 0:
                    max_b_rel = max(max_b_rel, abs(b_inner) / half ** 3)
            # ledger: Hermite on the two halves, Richardson-corrected by the
            # full-step rule (same trusted nodes, error drops to h^7)
            middle = node(t + 0.5 * h_try, mid, n_mid)
            end = node(t + h_try, u_new, k1)
            halves = hermite(start, middle, 0.5 * h_try) + hermite(middle, end, 0.5 * h_try)
            dd, di = halves + (halves - hermite(start, end, h_try)) / 15.0
            diss += dd
            inj += di
            start = end
            t = target if hit_sample else t + h_try
            u = u_new
            n_steps += 1
            if hit_sample:
                record(t, u, h_try)
                sample_idx += 1
        else:
            n_rejected += 1
        if fixed_step is None:
            fac = 0.9 * ratio ** (-_CTRL_EXP) if ratio > 0 else 5.0
            h = h_try * min(5.0, max(0.2, fac))
        if n_steps + n_rejected > 2 * 10 ** 5:
            raise SolverError("step budget exhausted; tolerance or horizon unreasonable")

    stats = {
        "tol": tol, "n_steps": n_steps, "n_rejected": n_rejected,
        "n_rhs": stepper.n_rhs, "n_force_evals": feval.n_evals,
        "max_b_orthogonality": max_b_rel, "t0": t0, "t1": t1,
        "u0_l2": u0.l2(), "guard_scale": guard_scale,
        "nonlinear": nonlinear, "step_growth": step_growth,
    }

    if not nonlinear and xi is not None and feval.stack is None:
        stats["linear_selfcheck"] = _linear_selfcheck(u0, xi, rec_t, rec_state)

    return SimulationTrace(
        times=np.array(rec_t), states=tuple(rec_state), l2=np.array(rec_l2),
        norms={idx: np.array(v) for idx, v in rec_norms.items()},
        dissipation=np.array(rec_diss), injection=np.array(rec_inj),
        force_l2=np.array(rec_fl2), steps=np.array(rec_h), stats=stats)


def _linear_selfcheck(w0, xi, times, states) -> float:
    """Max relative deviation from w(t) = e^{-(t-t0)A} (w0 - A^-1 xi) + A^-1 xi."""
    rest = apply_inverse_stokes(xi)
    worst = 0.0
    for t, state in zip(times, states):
        exact = apply_multiplier(w0 - rest, "heat", t - times[0]) + rest
        worst = max(worst, (state - exact).l2() / max(exact.l2(), 1e-300))
    return worst


def integrate_nse(u0: SpectralField, force: ForceSpec, t0: float, t1: float, tol: float,
                  *, sample_ratio: float = 1.1, step_growth: float = 0.08,
                  norm_indices: Sequence[GevreyIndex] = (),
                  fixed_step: Optional[float] = None) -> SimulationTrace:
    """Advance du/dt = -A u - B(u, u) + f(t) from u0 over [t0, t1].

    Step doubling keeps the local error per unit step below ``tol``
    relative; snapshots land exactly on the geometric grid
    t0 * sample_ratio^j.
    Passing ``fixed_step`` disables error control (used by convergence
    tests).  Raises BlowUpError if |u| exceeds 1e3 times the initial scale.
    """
    return _drive(force.cutoff, u0, force, t0, t1, tol, nonlinear=True, xi=None,
                  sample_ratio=sample_ratio, step_growth=step_growth,
                  norm_indices=norm_indices, fixed_step=fixed_step)


def integrate_linearized(w0: SpectralField, xi: SpectralField, force: ForceSpec,
                         t0: float, t1: float, tol: float,
                         *, sample_ratio: float = 1.1, step_growth: float = 0.08,
                         norm_indices: Sequence[GevreyIndex] = (),
                         fixed_step: Optional[float] = None) -> SimulationTrace:
    """Advance the linearized equation dw/dt = -A w + xi + f(t).

    With f = 0 the variation-of-constants solution is evaluated at every
    snapshot and the worst relative deviation is stored under
    ``stats["linear_selfcheck"]``.
    """
    if w0.cutoff != xi.cutoff:
        raise SolverError("w0 and xi must share one cutoff")
    return _drive(force.cutoff, w0, force, t0, t1, tol, nonlinear=False, xi=xi,
                  sample_ratio=sample_ratio, step_growth=step_growth,
                  norm_indices=norm_indices, fixed_step=fixed_step)


# ---------------------------------------------------------------------------
# energy accounting
# ---------------------------------------------------------------------------

def _exp_kernel_convolution(times: np.ndarray, values: np.ndarray, sigma: float) -> np.ndarray:
    """C_j = int_{t_0}^{t_j} e^{-sigma (t_j - s)} g(s) ds for piecewise-linear g.

    Each segment is integrated in closed form, so arbitrarily wide sample
    spacing (late geometric samples dwarf the kernel width) stays exact for
    the interpolant.
    """
    out = np.zeros_like(values)
    acc = 0.0
    for j in range(1, len(times)):
        dt = times[j] - times[j - 1]
        y = sigma * dt
        a = values[j - 1]
        b = (values[j] - values[j - 1]) / dt
        w0 = -math.expm1(-y) / sigma  # int_0^dt e^{-sigma (dt - x)} dx
        seg = a * w0 + b * (dt - w0) / sigma
        acc = math.exp(-y) * acc + seg
        out[j] = acc
    return out


def energy_budget(trace: SimulationTrace) -> Report:
    """Audit one trace against the exact Galerkin energy relations.

    Checks the energy identity
        1/2 |u(t)|^2 + int ||u||^2 = 1/2 |u(t0)|^2 + int <f, u>,
    the a-priori bound |u(t)|^2 <= e^{-(t-t0)} |u(t0)|^2 + int e^{-(t-s)} |f|^2,
    the decreasing-envelope convolution bound with (sigma, theta) = (1, 1/2),
    and the recorded worst advective energy leak b(u, u, u).  Violations are
    reported, never raised.
    """
    tol = trace.stats.get("tol") or 1e-10
    t = trace.times
    u2 = trace.l2 ** 2
    checks = []

    resid = 0.5 * u2 + trace.dissipation - (0.5 * u2[0] + trace.injection)
    scale = float(np.max(0.5 * u2 + trace.dissipation + np.abs(trace.injection)))
    scale = max(scale, 1e-300)
    rel = float(np.max(np.abs(resid)) / scale)
    threshold = ENERGY_THRESHOLD_FACTOR * tol
    checks.append(CheckResult("energy_identity", rel <= threshold,
                              {"max_rel_residual": rel, "threshold": threshold}))

    J = _exp_kernel_convolution(t, trace.force_l2 ** 2, 1.0)
    bound = np.exp(-(t - t[0])) * u2[0] + J
    margin = float(np.max((u2 - bound) / np.maximum(bound + u2, 1e-300)))
    checks.append(CheckResult("apriori_energy_bound", margin <= 1e-6 + threshold,
                              {"worst_margin": margin}))

    sigma, theta = 1.0, 0.5
    F = trace.force_l2
    lhs = _exp_kernel_convolution(t, F, sigma)
    mid = np.interp(t[0] + theta * (t - t[0]), t, F)
    rhs = (F[0] * np.exp(-(1 - theta) * sigma * (t - t[0])) + mid) / sigma
    fmargin = float(np.max((lhs - rhs) / np.maximum(rhs, 1e-300))) if F.max() > 0 else 0.0
    checks.append(CheckResult("force_envelope_convolution", fmargin <= 1e-6,
                              {"worst_margin": fmargin}))

    b_rel = trace.stats.get("max_b_orthogonality", 0.0)
    checks.append(CheckResult("advective_energy_orthogonality", b_rel <= 1e-12,
                              {"max_rel": b_rel}))

    drops = np.diff(trace.dissipation)
    worst_drop = float(drops.min()) if len(drops) else 0.0
    checks.append(CheckResult("dissipation_monotone",
                              worst_drop >= -1e-12 * max(trace.dissipation.max(), 1e-300),
                              {"worst_drop": worst_drop}))
    return Report(tuple(checks))
