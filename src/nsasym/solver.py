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
Hermite rule.  The derivatives are kept per |k|^2 shell, and the Hermite
derivative term counts only the shells with h |k|^2 <= LEDGER_SHELL_LIMIT:
D' and I' come from du/dt = -A u + N at the computed state, so their error
grows like |A| times the state's error, and on shells where h |k|^2 is
large the h^2 factor would turn that error into the ledger's largest term.

Steps are allowed to grow proportionally to elapsed time (decaying
dynamics relax on the scale of t itself).

B(u, u) only reaches sums p + q of modes already present, so a run stays
on S, the closure of supp(u0) and the force's support under p + q inside
the cube, away from k = 0.  S is computed once per run, and the state,
the stages and the force are kept on the k3 >= 0 half of the box of S's
extents (``_Integrator``), with B(u, u) on one advection plan for the
whole run.  The force is the finite sum of the terms psi_lambda(t)
phi_lambda, so each attempted step forms it at its four node times with
one product of the term weights with the stacked term fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .expansion import Expansion
from .spectral import (
    VOLUME,
    GevreyIndex,
    SpectralField,
    _advect,
    _closed_support,
    _fold,
    _grid,
    _plan,
    _unfold,
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
    "least_steps",
    "energy_budget",
]

ENERGY_THRESHOLD_FACTOR = 100.0  # the energy identity's gate is this times the run's tol
STEP_GROWTH = 0.08  # an adaptive step has h <= STEP_GROWTH * t
LEDGER_SHELL_LIMIT = 10.0  # the ledger's Hermite derivative term keeps shells with h |k|^2 <= this


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

    @property
    def fields(self) -> tuple[SpectralField, ...]:
        """The field of every term, expansion terms first."""
        return tuple(f for _, _, f in self.expansion.terms()) + tuple(x.field for x in self.extras)

    @classmethod
    def zero(cls, lattice, cutoff: int) -> "ForceSpec":
        """An identically-zero force (handy for decay runs)."""
        exp = Expansion(lattice, (SpectralField.zero(cutoff),), GevreyIndex(0.5, 0.0))
        return cls(exp)


def evaluate_force(force: ForceSpec, t: float) -> SpectralField:
    """f(t); exact linear combination of the stored terms."""
    return SpectralField(force.cutoff, _unfold(_ForceEval(force)(t)[0], force.cutoff))


class _ForceEval:
    """Vectorized force evaluation: f at several times from one product of
    the term-weight matrix (one row per time) with the stacked term fields.

    ``n_evals`` counts these products.  ``slope`` forms df/dt at several
    times the same way, from difference quotients of the term weights, and
    ``n_slopes`` counts those products apart.

    f is formed on the k3 >= 0 half of the box |k_a| <= extents[a] (of the
    whole cube by default), components first, as ``_fold`` gives it; each
    call returns one such array per time, stacked on a leading axis.
    """

    def __init__(self, force: ForceSpec, extents: tuple | None = None):
        sys = force.expansion.lattice.system
        self.sys = sys
        extents = extents or (force.cutoff,) * 3
        self.shape = (3, 2 * extents[0] + 1, 2 * extents[1] + 1, extents[2] + 1)
        self.n_evals = 0
        self.n_slopes = 0
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
        # one row per term, on the box (none for a zero force): the
        # contraction is one matrix product
        self.stack = np.array([_fold(f, extents).ravel() for f in stacks],
                              dtype=np.complex128).reshape(len(stacks), math.prod(self.shape))
        self.evals = evals

    def __call__(self, *times: float) -> np.ndarray:
        self.n_evals += 1
        return self._contract(self._weights(times))

    def slope(self, *taus: float) -> np.ndarray:
        """df/dt at each tau, as (f(b) - f(a)) / (b - a) over a = tau - d,
        b = tau + d with d = max(1e-6 tau, 1e-9), and a = tau where tau - d
        leaves the domain."""
        self.n_slopes += 1
        deltas = [max(1e-6 * tau, 1e-9) for tau in taus]
        a = [tau - d if tau - d >= self.sys.t_min else tau for tau, d in zip(taus, deltas)]
        b = [tau + d for tau, d in zip(taus, deltas)]
        return self._contract((self._weights(b) - self._weights(a)) / np.subtract(b, a)[:, None])

    def _weights(self, times) -> np.ndarray:
        """The term weights at times that must lie in the system's domain,
        one row per time."""
        for t in times:
            self.sys.check_domain(t)
        return np.array([[fn(t) for fn in self.evals] for t in times])

    def _contract(self, weights: np.ndarray) -> np.ndarray:
        return (weights @ self.stack).reshape((len(weights),) + self.shape)


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
    stats: dict

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
    # the three series side by side, one row per j = 1, 2, 3; where every
    # small z is 0 (k = 0 alone, once h is large) they are their first term
    j = np.arange(1.0, 4.0)[:, None]
    term = np.ones((3, zs.size)) / np.array([[1.0], [2.0], [6.0]])    # 1 / j!
    acc = term.copy()
    for n in range(1, 22 if zs.any() else 1):
        term = term * zs / (n + j)
        acc += term
    for phi, series in zip(phis, acc):
        phi[small] = series
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
    compares two genuine propagations and does not throttle the step
    there, but where h |k|^2 >> 1 it still reads below the real error
    (see the ROADMAP item on error control).

    u, the stages and f live on the k3 >= 0 half of the box |k_a| <= e_a of
    the extents of the run's closed support S (``support``, the half mask
    of ``_closed_support``), components first, as ``_fold`` gives them: the
    input half box of the one advection plan of S, so B(u, u) is the
    kernel's flux cropped to the box.  ``l2``, ``inner`` and the ledger
    count each k3 > 0 mode twice, for k and -k, and the k3 = 0 plane once;
    the plane stays exactly Hermitian, as the stage weights are real and
    even in k and the kernel symmetrizes it.  The box's modes off S (k = 0
    at least) stay exactly zero: S is closed under p + q inside the cube,
    so B's flux there is zeroed as unreached or has zero weights (k = 0),
    f vanishes there, and e^{-h |k|^2} 0 = 0.  The phi tables and Krogstad's
    weight combinations depend on k only through |k|^2, so they are formed
    on the distinct |k|^2 shells of the box and gathered to its modes by
    ``shell_of``: every element gets the same operations as on the cube.
    """

    def __init__(self, cutoff: int, support: np.ndarray, force: ForceSpec):
        K = cutoff
        self.extents = tuple(int(e) for e in
                             np.abs(np.argwhere(support) - (K, K, 0)).max(axis=0, initial=0))
        self.force_eval = _ForceEval(force, self.extents)
        self.ksq = _fold(_grid(K)[1][..., None], self.extents)[0]     # |k|^2 on the half box
        # the distinct |k|^2 of the half box, ascending, and the shell of
        # each number of a state, components included, so gathered weights
        # need no broadcast
        self.shells, shell_of = np.unique(self.ksq, return_inverse=True)
        self.shell_of = np.repeat(shell_of.reshape((1,) + self.ksq.shape), 3, axis=0)
        self.n_rhs = 0
        # the plan of B(u, u) for u on S, keyed as advection_sum keys it;
        # its output half box is centred on the state's
        self.plan = _plan(K, (np.packbits(support).tobytes(),), ((0, 0),))
        if self.plan is not None:
            (o1, o2, _), (e1, e2, e3) = self.plan.layout.e_out, self.extents
            self.crop = (slice(None), slice(o1 - e1, o1 + e1 + 1), slice(o2 - e2, o2 + e2 + 1),
                         slice(e3 + 1))

    def advect(self, u: np.ndarray) -> np.ndarray:
        """B(u, u) on the half box, one per rhs (counted in ``n_rhs``);
        exactly zero, with no transform, when the plan is None (no p + q of
        S lands in the cube away from k = 0)."""
        self.n_rhs += 1
        if self.plan is None:
            return np.zeros_like(u)
        return _advect(self.plan, [u])[self.crop]

    def inner(self, a: np.ndarray, b: np.ndarray) -> float:
        """Re <a, b> over Omega of the real fields whose k3 >= 0 halves are a, b."""
        both = 2.0 * np.vdot(a, b) - np.vdot(a[..., 0], b[..., 0])
        return VOLUME * float(np.real(both))

    def l2(self, arr: np.ndarray) -> float:
        """The L^2(Omega) norm of the real field whose k3 >= 0 half is arr."""
        return math.sqrt(self.inner(arr, arr))

    def rhs(self, f: np.ndarray, u: np.ndarray) -> np.ndarray:
        """f - B(u, u), with f the force at u's time."""
        return f - self.advect(u)

    def krogstad(self, h: float, u0: np.ndarray, k1: np.ndarray, weights: np.ndarray,
                 f_half: np.ndarray, f_end: np.ndarray) -> np.ndarray:
        """One fourth-order step of size h from u0 with k1 = rhs at its
        start, given the box weights of ``_krogstad_weights`` for h and the
        force at its nodes 1/2 and 1."""
        eh, q1, a3, q2, e1, a4, b4, c1, c23, c4 = weights
        eu = eh * u0
        U2 = eu + (0.5 * h) * q1 * k1
        k2 = self.rhs(f_half, U2)
        U3 = eu + h * (a3 * k1 + q2 * k2)
        k3 = self.rhs(f_half, U3)
        e1u = e1 * u0
        U4 = e1u + h * (a4 * k1 + b4 * k3)
        k4 = self.rhs(f_end, U4)
        return e1u + h * (c1 * k1 + c23 * (k2 + k3) + c4 * k4)

    def step(self, t: float, h: float, u0: np.ndarray, k1: np.ndarray):
        """Doubled step from (t, u0) with k1 = rhs at (t, u0); returns the
        fine solution, the error field, the midpoint state, its rhs and the
        force at the step's nodes t + h/4, t + h/2, (t + h/2) + h/4 and
        t + h, one row each."""
        # never clamp z: the phi formulas divide by it, and exp just underflows
        z = -h * self.shells
        P1, P2, P4 = zip(*_phi_trio(np.stack([z, 0.5 * z, 0.25 * z])))
        # the weights at h and at h/2, gathered to the box in one index; as
        # complex, since each multiplies a complex state and would otherwise
        # be cast at every product
        weights = np.concatenate([_krogstad_weights(P1, P2), _krogstad_weights(P2, P4)])
        weights = weights.astype(np.complex128)[:, self.shell_of]
        full, half = weights[:10], weights[10:]
        # the fine half step's first node is taken from its own start
        # t + h/2, and its end is the coarse step's t + h
        t_half = t + 0.5 * h
        f = self.force_eval(t + 0.25 * h, t_half, t_half + 0.25 * h, t + h)
        coarse = self.krogstad(h, u0, k1, full, f[1], f[3])
        mid = self.krogstad(0.5 * h, u0, k1, half, f[0], f[1])
        n_mid = self.rhs(f[1], mid)
        fine = self.krogstad(0.5 * h, mid, n_mid, half, f[2], f[3])
        return fine, (fine - coarse) / 15.0, mid, n_mid, f


def _krogstad_weights(full: tuple, half: tuple) -> np.ndarray:
    """The per-shell weights of one Krogstad step, from the phi tables
    (e^z, phi_1, phi_2, phi_3) at the step and at its half: the stage
    weights e^(z/2), phi_1(z/2), phi_1(z/2)/2 - phi_2(z/2), phi_2(z/2),
    e^z, phi_1 - 2 phi_2, 2 phi_2, and the final combination's
    phi_1 - 3 phi_2 + 4 phi_3, 2 phi_2 - 4 phi_3 and 4 phi_3 - phi_2."""
    e1, p1, p2, p3 = full
    eh, q1, q2, _ = half
    return np.stack([eh, q1, 0.5 * q1 - q2, q2, e1, p1 - 2.0 * p2, 2.0 * p2,
                     p1 - 3.0 * p2 + 4.0 * p3, 2.0 * p2 - 4.0 * p3, 4.0 * p3 - p2])


def least_steps(t0: float, t1: float, sample_ratio: float) -> float:
    """The fewest steps an adaptive run from t0 > 0 to t1 can take.

    A step has h <= STEP_GROWTH * t and ends at or before the next sample
    t * sample_ratio, so each step grows t by at most
    min(1 + STEP_GROWTH, sample_ratio)."""
    return (math.log(t1) - math.log(t0)) / min(math.log1p(STEP_GROWTH), math.log(sample_ratio))


def integrate_nse(u0: SpectralField, force: ForceSpec, t0: float, t1: float, tol: float,
                  *, sample_ratio: float = 1.1,
                  norm_indices: Sequence[GevreyIndex] = ()) -> SimulationTrace:
    """Advance du/dt = -A u - B(u, u) + f(t) from u0 over [t0, t1].

    A step is accepted when its step-doubling estimate of the local error
    per unit step is below ``tol`` relative.  The estimate tracks the true
    error while h |k|^2 is moderate; where h |k|^2 >> 1 (phi-saturated
    shells) it reads several times low (4-14x against a substep reference;
    see the ROADMAP item on error control), so an accepted step may carry
    more than ``tol``.  A step is at most STEP_GROWTH * t; snapshots land
    exactly on the geometric grid t0 * sample_ratio^j.  Raises BlowUpError
    if an accepted |u| exceeds 1e3 times the data's scale: the largest of
    |u0| and |f| at t0 and at the end of every accepted step.

    The run works on its closed support S (``_closed_support`` of u0 and
    the force terms); ``stats["support_modes"]`` is |S|.
    """
    cutoff = force.cutoff
    if u0.cutoff != cutoff:
        raise SolverError(f"initial state cutoff {u0.cutoff} != force cutoff {cutoff}")
    if t0 < force.t_min:
        raise SolverError(f"start time {t0:g} below force domain {force.t_min:g}")
    if not tol > 0:
        raise SolverError("tolerance must be positive")

    # the run stays on S: every array below is on a half box of S's extents
    support = _closed_support(cutoff, [f.coeffs for f in (u0,) + force.fields])
    stepper = _Integrator(cutoff, support, force)
    feval, l2 = stepper.force_eval, stepper.l2
    shells, ksq = stepper.shells, stepper.ksq
    samples = _geometric_samples(t0, t1, sample_ratio)
    norm_indices = list(norm_indices)

    # snapshot accumulators; the energy ledger accumulates per accepted step
    rec_t, rec_state, rec_l2, rec_fl2, rec_h = [], [], [], [], []
    rec_norms = {idx: [] for idx in norm_indices}
    rec_diss, rec_inj = [], []
    diss = inj = 0.0
    max_b_rel = 0.0
    n_steps = n_rejected = 0

    # the bin of each number of a state's float view: its |k|^2 shell, the
    # plane's apart, for each of the four sums of ``node`` (one bincount)
    n_shells = len(shells)
    bin_of = stepper.shell_of + n_shells * (np.arange(ksq.shape[2]) == 0)
    bins = (np.repeat(bin_of.ravel(), 2) + 2 * n_shells * np.arange(4)[:, None]).ravel()
    terms = np.empty((4, len(bins) // 4))   # the terms of the four sums, refilled by each node

    def node(arr: np.ndarray, n_arr: np.ndarray, f: np.ndarray, f_dot: np.ndarray) -> tuple:
        # ([D, I], [D', I'] per shell) at a converged state (interior stage
        # values are lower-order and would pollute the ledger) with the
        # force f and its finite-difference slope f_dot there:
        # D = |A^(1/2) u|^2, I = <f, u>, exact du/dt = -A u + N
        udot = -ksq * arr + n_arr
        # Re <a, b> = sum of the products of the float views
        u_, f_, ud_, fd_ = (x.view(np.float64).ravel() for x in (arr, f, udot, f_dot))
        np.multiply(u_, u_, out=terms[0])
        np.multiply(u_, ud_, out=terms[1])
        np.multiply(u_, f_, out=terms[2])
        np.multiply(ud_, f_, out=terms[3])
        terms[3] += u_ * fd_
        sums = np.bincount(bins, terms.ravel(), 8 * n_shells).reshape(4, 2, n_shells)
        # a k3 > 0 mode stands for k and -k, the plane's for itself
        sums = 2.0 * sums[:, 0] + sums[:, 1]
        values = VOLUME * np.array([shells @ sums[0], sums[2].sum()])
        slopes = VOLUME * np.stack([2.0 * shells * sums[1], sums[3]])
        return values, slopes

    def hermite(a: tuple, b: tuple, h_ab: float, kept: np.ndarray) -> np.ndarray:
        # cubic Hermite of [D, I] over one interval from its two end nodes,
        # the derivative term summed over the kept shells alone
        slopes = (a[1] - b[1])[:, kept].sum(axis=1)
        return 0.5 * h_ab * (a[0] + b[0]) + (h_ab * h_ab / 12.0) * slopes

    def record(t: float, arr: np.ndarray, h: float) -> np.ndarray:
        # returns f(t), evaluated for the snapshot's |f|
        (f,) = feval(t)
        state = SpectralField(cutoff, _unfold(arr, cutoff))
        state.validate(tol=1e-10)
        rec_t.append(t)
        rec_state.append(state)
        rec_l2.append(state.l2())
        rec_fl2.append(l2(f))
        rec_h.append(h)
        for idx in norm_indices:
            rec_norms[idx].append(gevrey_norm(state, idx))
        rec_diss.append(diss)
        rec_inj.append(inj)
        return f

    u = np.ascontiguousarray(_fold(u0.coeffs, stepper.extents))    # ``node`` views it as floats
    u_l2 = l2(u)    # the norm of the last accepted state, carried from step to step
    t = t0
    f = record(t, u, 0.0)
    sample_idx = 1
    guard_scale = 1e3 * max(u0.l2(), rec_fl2[0], 1e-30)
    k1 = stepper.rhs(f, u)
    start = node(u, k1, f, *feval.slope(t))

    h = min(1e-3 * max(t0, 1.0), (t1 - t0) / 2)
    while t < t1 * (1 - 1e-14):
        target = samples[sample_idx]
        h_try = min(h, STEP_GROWTH * t, target - t)
        if t + h_try == t:
            raise SolverError(f"step size {h_try:.3e} no longer advances t = {t:g}")
        hit_sample = (t + h_try >= target * (1 - 1e-14)) or abs(t + h_try - target) < 1e-12 * target
        with np.errstate(over="ignore", invalid="ignore"):
            # an overflowing trial step shows up as a non-finite error norm
            # and is rejected
            u_new, err_field, mid, n_mid, f = stepper.step(t, h_try, u, k1)
            err = l2(err_field)
            size = l2(u_new)
            ref = max(size, u_l2)
        if err == 0.0 or ref == 0.0:
            ratio = 0.0
        else:
            # error per unit step: local errors pile up ~ 1/h-fold where h is
            # below the slowest damping time (1), and the energy audit needs
            # the accumulated error at the tolerance, not 1/h of it; the
            # half-window keeps the accumulation constant safely inside
            # the 100x budget used by the audits
            ratio = err / (tol * ref * min(2.0 * h_try, 1.0))
        if ratio <= 1.0:
            # the scale follows |f| along the run, so a force that vanishes
            # at t0 does not pin it near 1e3 * 1e-30
            guard_scale = max(guard_scale, 1e3 * l2(f[3]))
            if size > guard_scale or not math.isfinite(size):
                raise BlowUpError(
                    f"|u| = {size:.3e} exceeded 1e3 x the data's scale at t = {t + h_try:g}; "
                    "the run left the small-data regular regime")
            # one fresh B at the accepted endpoint closes the ledger slopes
            # and seeds the next step's first stage
            b_new = stepper.advect(u_new)
            k1 = f[3] - b_new
            f_dot = feval.slope(t + 0.5 * h_try, t + h_try)
            middle = node(mid, n_mid, f[1], f_dot[0])
            end = node(u_new, k1, f[3], f_dot[1])
            # B(u_new, u_new)'s energy orthogonality against the state it
            # advects, relative to the cube of |u_new|_{1/2,0}, whose square
            # is the end node's D (a cube that underflows to 0 leaves
            # nothing to divide by)
            b_inner = stepper.inner(u_new, b_new)
            cube = end[0][0] ** 1.5
            if cube > 0:
                max_b_rel = max(max_b_rel, abs(b_inner) / cube)
            # ledger: Hermite on the two halves, Richardson-corrected by the
            # full-step rule (same trusted nodes, error drops to h^7); all
            # three rules keep the derivative term on the same shells
            kept = h_try * shells <= LEDGER_SHELL_LIMIT
            halves = hermite(start, middle, 0.5 * h_try, kept) \
                + hermite(middle, end, 0.5 * h_try, kept)
            dd, di = halves + (halves - hermite(start, end, h_try, kept)) / 15.0
            diss += dd
            inj += di
            start = end
            t = target if hit_sample else t + h_try
            u, u_l2 = u_new, size
            n_steps += 1
            if hit_sample:
                record(t, u, h_try)
                sample_idx += 1
        else:
            n_rejected += 1
        # a NaN ratio (an overflowed trial step) shrinks the step as far as
        # one rejection may; growing it would only overflow again
        fac = 0.2 if math.isnan(ratio) else 0.9 * ratio ** (-_CTRL_EXP) if ratio > 0 else 5.0
        h = h_try * min(5.0, max(0.2, fac))
        if n_steps + n_rejected > 2 * 10 ** 5:
            raise SolverError("step budget exhausted; tolerance or horizon unreasonable")

    stats = {
        "tol": tol, "n_steps": n_steps, "n_rejected": n_rejected,
        "n_rhs": stepper.n_rhs, "n_force_evals": feval.n_evals,
        "n_force_slopes": feval.n_slopes,
        "max_b_orthogonality": max_b_rel,
        "support_modes": int(2 * support.sum() - support[:, :, 0].sum()),
    }

    return SimulationTrace(
        times=np.array(rec_t), states=tuple(rec_state), l2=np.array(rec_l2),
        norms={idx: np.array(v) for idx, v in rec_norms.items()},
        dissipation=np.array(rec_diss), injection=np.array(rec_inj),
        force_l2=np.array(rec_fl2), steps=np.array(rec_h), stats=stats)


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
    the recorded worst advective energy leak b(u, u, u), and that the
    dissipation integral never drops.  Each check's measured values end
    with its gate under "threshold" (a lower bound for the drop, an upper
    bound for the rest).  Violations are reported, never raised.
    """
    tol = trace.stats["tol"]
    t = trace.times
    u2 = trace.l2 ** 2
    checks = []

    resid = 0.5 * u2 + trace.dissipation - (0.5 * u2[0] + trace.injection)
    scale = float(np.max(0.5 * u2 + trace.dissipation + np.abs(trace.injection)))
    scale = max(scale, 1e-300)
    rel = float(np.max(np.abs(resid)) / scale)
    # the gates are formed from the decimals as written, then rounded once
    gap = Fraction(ENERGY_THRESHOLD_FACTOR) * Fraction(repr(float(tol)))
    threshold = float(gap)
    checks.append(CheckResult("energy_identity", rel <= threshold,
                              {"max_rel_residual": rel, "threshold": threshold}))

    # at t0 both sides are |u(t0)|^2, so the margin is taken over t > t0
    J = _exp_kernel_convolution(t, trace.force_l2 ** 2, 1.0)
    bound = np.exp(-(t - t[0])) * u2[0] + J
    margin = float(np.max(((u2 - bound) / np.maximum(bound + u2, 1e-300))[1:]))
    gate = float(Fraction("1e-6") + gap)
    checks.append(CheckResult("apriori_energy_bound", margin <= gate,
                              {"worst_margin": margin, "threshold": gate}))

    sigma, theta = 1.0, 0.5
    F = trace.force_l2
    lhs = _exp_kernel_convolution(t, F, sigma)
    mid = np.interp(t[0] + theta * (t - t[0]), t, F)
    rhs = (F[0] * np.exp(-(1 - theta) * sigma * (t - t[0])) + mid) / sigma
    fmargin = float(np.max((lhs - rhs) / np.maximum(rhs, 1e-300))) if F.max() > 0 else 0.0
    checks.append(CheckResult("force_envelope_convolution", fmargin <= 1e-6,
                              {"worst_margin": fmargin, "threshold": 1e-6}))

    b_rel = trace.stats["max_b_orthogonality"]
    checks.append(CheckResult("advective_energy_orthogonality", b_rel <= 1e-12,
                              {"max_rel": b_rel, "threshold": 1e-12}))

    # a lower bound: the worst drop of the dissipation integral
    drops = np.diff(trace.dissipation)
    worst_drop = float(drops.min()) if len(drops) else 0.0
    floor = -1e-12 * max(trace.dissipation.max(), 1e-300)
    checks.append(CheckResult("dissipation_monotone", worst_drop >= floor,
                              {"worst_drop": worst_drop, "threshold": floor}))
    return Report(tuple(checks))
