"""Systems of positive time-decaying functions psi_lambda(t).

Each system supports the two pieces of algebra the expansion machinery
needs:

  wedge:  psi_lambda * psi_mu = psi_gamma with gamma = lambda + mu above
          both inputs (product-system exponent pairs add componentwise);

  vee:    an expansion of the derivative,
          psi_lambda'(t) ~ sum_k c_{lambda,k} psi_{lambda_vee(k)}(t),
          possibly empty (iterated-log and trigonometric kinds) or infinite
          (square-root and product kinds, truncated at a requested bound).

Six kinds are built in:

  power         t^(-lambda)
  iterated_log  omega(t)^(-lambda),  omega = Q0(L_1, ..., L_m) o Q1(t^beta)
  sqrt_shift    (sqrt(t) + 1)^(-lambda)
  sin_log       [sin(1 / L_m(t))]^lambda
  tan_log       [tan(1 / L_m(t))]^lambda
  product       (t^g + 1)^(-a) (t^(1-g) + 1)^(-b), indexed by exact
                rational pairs (a, b) with lambda = g a + (1-g) b

The product kind is "discrete": its exponents are compared through exact
pairs and its decay is measured against the background family t^(-lambda).
"""

from __future__ import annotations

import heapq
import itertools
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

import numpy as np

__all__ = [
    "Exponent",
    "VeeTerm",
    "DecaySystem",
    "PowerSystem",
    "IteratedLogSystem",
    "SqrtShiftSystem",
    "SinLogSystem",
    "TanLogSystem",
    "ProductSystem",
    "DomainError",
    "SystemSpecError",
    "iterated_log",
    "min_log_time",
    "system_from_json",
    "verify_system_conditions",
    "CheckResult",
    "Report",
]

PAIR_VALUE_TOL = 1e-12
VALUE_TOL = 1e-9  # continuum exponents closer than this are the same exponent


class DomainError(ValueError):
    """Evaluation time below the system's admissible range."""


class SystemSpecError(ValueError):
    """Malformed or inadmissible system parameters."""


@dataclass(frozen=True)
class Exponent:
    """A positive decay exponent, optionally carrying an exact rational pair.

    Pairs identify product-system functions (t^g+1)^(-a) (t^(1-g)+1)^(-b);
    whether two exponents are the same is decided by ``DecaySystem.same``.
    """

    value: float
    pair: Optional[tuple[Fraction, Fraction]] = None

    def __post_init__(self):
        if not self.value > 0:
            raise ValueError(f"exponent must be positive, got {self.value}")


@dataclass(frozen=True)
class VeeTerm:
    exponent: Exponent
    coeff: float


class DecaySystem(ABC):
    """Common interface of all decay-function systems."""

    kind: str = ""
    discrete: bool = False

    @property
    @abstractmethod
    def t_min(self) -> float:
        """Earliest admissible evaluation time."""

    @abstractmethod
    def eval(self, lam: Exponent, t: float) -> float:
        """psi_lambda(t)."""

    @abstractmethod
    def psi_prime(self, lam: Exponent, t: float) -> float:
        """Exact derivative d psi_lambda / dt."""

    @abstractmethod
    def vee_terms(self, lam: Exponent, cutoff: float) -> Iterator[VeeTerm]:
        """The terms of ``vee``, listed lazily so that a caller can stop early."""

    @abstractmethod
    def order_abscissa(self, t: float) -> float:
        """Growing quantity x(t) such that psi-scale decay orders are slopes
        of -log(decay) against log(x); equals t for power-law-like kinds."""

    @abstractmethod
    def params_json(self) -> dict:
        ...

    # -- shared behaviour ----------------------------------------------------

    def same(self, a: Exponent, b: Exponent) -> bool:
        """The one exponent-identity rule: exact pairs for discrete systems,
        values within VALUE_TOL for every other system."""
        if self.discrete:
            return a.pair == b.pair
        return abs(a.value - b.value) <= VALUE_TOL

    def wedge(self, lam: Exponent, mu: Exponent) -> Exponent:
        """Product rule psi_lam * psi_mu = psi_gamma: the exponent gamma."""
        return Exponent(lam.value + mu.value)

    def exponent(self, spec) -> Exponent:
        """Coerce a number (or Exponent) into a validated exponent."""
        if isinstance(spec, Exponent):
            return spec
        return Exponent(float(spec))

    def check_domain(self, t: float) -> None:
        if t < self.t_min:
            raise DomainError(f"t = {t:g} below admissible start {self.t_min:g} "
                              f"for {self.kind} system")

    def vee(self, lam: Exponent, cutoff: float) -> list[VeeTerm]:
        """Derivative-expansion terms with exponent <= cutoff, increasing."""
        if cutoff <= lam.value:
            raise ValueError(f"vee cutoff {cutoff:g} must exceed the exponent {lam.value:g}")
        return list(self.vee_terms(lam, cutoff))

    def to_json(self) -> dict:
        return {"kind": self.kind, "params": self.params_json()}


# ---------------------------------------------------------------------------
# power-type systems
# ---------------------------------------------------------------------------

class PowerSystem(DecaySystem):
    """psi_lambda(t) = t^(-lambda)."""

    kind = "power"

    @property
    def t_min(self) -> float:
        return 1.0

    def eval(self, lam, t):
        self.check_domain(t)
        return t ** (-lam.value)

    def psi_prime(self, lam, t):
        self.check_domain(t)
        return -lam.value * t ** (-lam.value - 1.0)

    def vee_terms(self, lam, cutoff):
        # exact single term: (t^-lam)' = -lam * t^-(lam+1)
        if lam.value + 1.0 <= cutoff:
            yield VeeTerm(Exponent(lam.value + 1.0), -lam.value)

    def order_abscissa(self, t):
        return t

    def params_json(self):
        return {}


class SqrtShiftSystem(DecaySystem):
    """psi_lambda(t) = (sqrt(t) + 1)^(-lambda).

    The derivative expands into the infinite family
    -(lambda/2) (sqrt(t)+1)^-(lambda+1+k), k = 1, 2, ...; callers receive
    the part below their cutoff and absorb the rest into residuals.
    """

    kind = "sqrt_shift"

    @property
    def t_min(self) -> float:
        return 1.0

    def eval(self, lam, t):
        self.check_domain(t)
        return (math.sqrt(t) + 1.0) ** (-lam.value)

    def psi_prime(self, lam, t):
        self.check_domain(t)
        s = math.sqrt(t)
        return -lam.value * (s + 1.0) ** (-lam.value - 1.0) / (2.0 * s)

    def vee_terms(self, lam, cutoff):
        k = 1
        while lam.value + 1.0 + k <= cutoff:
            yield VeeTerm(Exponent(lam.value + 1.0 + k), -lam.value / 2.0)
            k += 1

    def order_abscissa(self, t):
        return math.sqrt(t) + 1.0

    def params_json(self):
        return {}


# ---------------------------------------------------------------------------
# iterated-logarithm machinery
# ---------------------------------------------------------------------------

def min_log_time(m: int) -> float:
    """Smallest t with L_m(t) > 0: the tower e^e^...^1 of height m - 1."""
    t = 1.0
    for _ in range(m - 1):
        t = math.exp(t)
    return t


def iterated_log(m: int, t: float) -> float:
    """L_m(t) = ln ln ... ln t (m times); domain error if any level is <= 0."""
    if m < 1:
        raise ValueError("iterated log requires m >= 1")
    if not t > 0.0:
        raise DomainError(f"iterated log undefined: argument {t:g} <= 0")
    return _iterated_log_vector(m, math.log(t))[-1]


def _iterated_log_vector(m: int, x1: float) -> list[float]:
    """(L_1, ..., L_m) given L_1 = ln of the argument."""
    vals = [x1]
    for _ in range(m - 1):
        if vals[-1] <= 0.0:
            raise DomainError("iterated log tower not yet positive")
        vals.append(math.log(vals[-1]))
    if vals[-1] <= 0.0:
        raise DomainError("iterated log tower not yet positive")
    return vals


def _find_t_min(floor: float, admissible) -> float:
    """Smallest admissible time, by geometric scan then bisection.

    ``admissible(t)`` must be monotone-eventually-true; the scan demands a
    run of successes before trusting a candidate, the bisection then sharpens
    the left edge.
    """
    lo = floor
    t = floor * 1.0000001
    for _ in range(400):
        ok = True
        probe = t
        for _ in range(6):
            try:
                if not admissible(probe):
                    ok = False
                    break
            except (DomainError, ValueError, OverflowError):
                ok = False
                break
            probe *= 1.7
        if ok:
            break
        lo = t
        t *= 1.6
    else:
        raise SystemSpecError("could not locate an admissible start time")
    hi = t
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        try:
            good = admissible(mid)
        except (DomainError, ValueError, OverflowError):
            good = False
        if good:
            hi = mid
        else:
            lo = mid
    return hi


class IteratedLogSystem(DecaySystem):
    """psi_lambda = omega^(-lambda) with omega = Q0(L_1..L_m(Q1(t^beta))).

    Q0 is a real polynomial in m variables given as {multi-index: coeff};
    its lexicographically largest multi-index must have positive degree and
    positive coefficient.  Q1 is a one-variable polynomial with positive
    degree and positive leading coefficient.  Derivatives of every member
    decay faster than any member, so the vee expansion is empty.
    """

    kind = "iterated_log"

    def __init__(self, m: int, q0: Sequence[tuple[Sequence[int], float]],
                 q1: Sequence[float], beta: float = 1.0):
        if m < 1:
            raise SystemSpecError("iterated_log requires m >= 1")
        if beta <= 0:
            raise SystemSpecError("iterated_log requires beta > 0")
        self.m = int(m)
        self.beta = float(beta)
        self.q0 = [(tuple(int(a) for a in alpha), float(c)) for alpha, c in q0
                   if float(c) != 0.0]
        if not self.q0:
            raise SystemSpecError("Q0 must be a nonzero polynomial")
        if any(len(alpha) != self.m or min(alpha) < 0 for alpha, _ in self.q0):
            raise SystemSpecError(f"Q0 multi-indices must be length-{self.m} and nonnegative")
        self.lead_index, self.lead_coeff = max(self.q0, key=lambda item: item[0])
        if sum(self.lead_index) < 1:
            raise SystemSpecError("Q0 must have positive degree")
        if self.lead_coeff <= 0:
            raise SystemSpecError("leading Q0 coefficient must be positive")
        self.q1 = [float(c) for c in q1]
        while self.q1 and self.q1[-1] == 0.0:
            self.q1.pop()
        if len(self.q1) < 2:
            raise SystemSpecError("Q1 must have positive degree")
        if self.q1[-1] <= 0:
            raise SystemSpecError("leading Q1 coefficient must be positive")
        self.q1_degree = len(self.q1) - 1
        self._t_min = self._compute_t_min()

    # -- plumbing -------------------------------------------------------------

    def _q1_at(self, s: float) -> float:
        acc = 0.0
        for c in reversed(self.q1):
            acc = acc * s + c
        return acc

    def _q1_prime_at(self, s: float) -> float:
        acc = 0.0
        for j in range(self.q1_degree, 0, -1):
            acc = acc * s + j * self.q1[j]
        return acc

    def _log_vector(self, t: float) -> list[float]:
        s = t ** self.beta
        q = self._q1_at(s)
        if q <= 0.0:
            raise DomainError(f"Q1(t^beta) = {q:g} not positive at t = {t:g}")
        return _iterated_log_vector(self.m, math.log(q))

    def _q0_at(self, L: Sequence[float]) -> float:
        return sum(c * math.prod(x ** a for x, a in zip(L, alpha)) for alpha, c in self.q0)

    def omega(self, t: float) -> float:
        return self._q0_at(self._log_vector(t))

    def omega_prime(self, t: float) -> float:
        s = t ** self.beta
        L = self._log_vector(t)
        # d/dt L_k(Q1(t^beta)) = pref / (L_1 ... L_{k-1}) with the shared prefactor below
        pref = self.beta * t ** (self.beta - 1.0) * self._q1_prime_at(s) / self._q1_at(s)
        acc = 0.0
        for alpha, c in self.q0:
            mono = math.prod(x ** a for x, a in zip(L, alpha))
            inner = 0.0
            run = 1.0  # L_1 * ... * L_{k-1}
            for k in range(self.m):
                if alpha[k]:
                    inner += alpha[k] / (L[k] * run)
                run *= L[k]
            acc += c * mono * inner
        return pref * acc

    def _compute_t_min(self) -> float:
        floor = 1e-9
        h = 1e-4

        def admissible(t):
            w = self.omega(t)
            lm = self._log_vector(t)[-1]
            wp = (self.omega(t * (1 + h)) - self.omega(t * (1 - h)))
            return lm >= 0.1 and w > 0.0 and wp > 0.0

        return _find_t_min(floor, admissible)

    # -- interface -------------------------------------------------------------

    @property
    def t_min(self) -> float:
        return self._t_min

    def eval(self, lam, t):
        self.check_domain(t)
        return self.omega(t) ** (-lam.value)

    def psi_prime(self, lam, t):
        self.check_domain(t)
        w = self.omega(t)
        return -lam.value * w ** (-lam.value - 1.0) * self.omega_prime(t)

    def vee_terms(self, lam, cutoff):
        return iter(())

    def order_abscissa(self, t):
        return self.omega(t)

    def eval_at_log_time(self, lam: Exponent, log_t: float) -> float:
        """psi_lambda at t = e^(log_t), for times beyond floating range.

        Only the evaluation path supports extended-range times; the solver
        itself is limited to representable t.
        """
        log_s = self.beta * log_t
        # ln Q1(e^x) = d*x + ln(lead + lower-order corrections)
        corr = sum(self.q1[j] * math.exp(min((j - self.q1_degree) * log_s, 0.0))
                   for j in range(self.q1_degree + 1))
        if corr <= 0.0:
            raise DomainError("Q1 not positive at requested log-time")
        L1 = self.q1_degree * log_s + math.log(corr)
        w = self._q0_at(_iterated_log_vector(self.m, L1))
        if w <= 0.0:
            raise DomainError("omega not positive at requested log-time")
        return w ** (-lam.value)

    def params_json(self):
        return {"m": self.m, "beta": self.beta,
                "q0": [[list(alpha), c] for alpha, c in self.q0],
                "q1": list(self.q1)}


class _TrigLogSystem(DecaySystem):
    """Shared implementation of the sin/tan-of-inverse-iterated-log systems."""

    trig = staticmethod(math.sin)
    trig_prime = staticmethod(math.cos)

    def __init__(self, m: int):
        if m < 1:
            raise SystemSpecError("trigonometric log system requires m >= 1")
        self.m = int(m)
        # monotone decay needs 1/L_m inside (0, pi/2); L_m >= 0.7 is safely there
        floor = min_log_time(m) * 1.000001

        def admissible(t):
            return iterated_log(self.m, t) >= 0.7

        self._t_min = _find_t_min(floor, admissible)

    @property
    def t_min(self) -> float:
        return self._t_min

    def eval(self, lam, t):
        self.check_domain(t)
        return self.eval_at_log_time(lam, math.log(t))

    def psi_prime(self, lam, t):
        self.check_domain(t)
        L = _iterated_log_vector(self.m, math.log(t))
        x = 1.0 / L[-1]
        chain = -x * x / (t * math.prod(L[:-1]))  # d(1/L_m)/dt
        return lam.value * self.trig(x) ** (lam.value - 1.0) * self.trig_prime(x) * chain

    def vee_terms(self, lam, cutoff):
        return iter(())

    def order_abscissa(self, t):
        return 1.0 / self.trig(1.0 / iterated_log(self.m, t))

    def eval_at_log_time(self, lam: Exponent, log_t: float) -> float:
        L = _iterated_log_vector(self.m, log_t)
        return self.trig(1.0 / L[-1]) ** lam.value

    def params_json(self):
        return {"m": self.m}


class SinLogSystem(_TrigLogSystem):
    kind = "sin_log"


class TanLogSystem(_TrigLogSystem):
    kind = "tan_log"
    trig = staticmethod(math.tan)

    @staticmethod
    def trig_prime(x):
        c = math.cos(x)
        return 1.0 / (c * c)


# ---------------------------------------------------------------------------
# product system (discrete, pair-indexed)
# ---------------------------------------------------------------------------

class ProductSystem(DecaySystem):
    """psi(t) = (t^g + 1)^(-a) (t^(1-g) + 1)^(-b), lambda = g a + (1-g) b.

    g must be irrational (stored as a double); all identity decisions use
    the exact rational pair (a, b), never the floating lambda value.  The
    background comparison family is t^(-lambda).
    """

    kind = "product"
    discrete = True

    def __init__(self, gamma: float):
        if not 0.0 < gamma < 1.0:
            raise SystemSpecError("product system requires gamma in (0, 1)")
        self.gamma = float(gamma)

    @property
    def t_min(self) -> float:
        return 1.0

    def exponent(self, spec) -> Exponent:
        if isinstance(spec, Exponent):
            if spec.pair is None:
                raise SystemSpecError("product-system exponents require an exact pair")
            return spec
        try:
            a, b = spec
        except TypeError:
            raise SystemSpecError("product-system exponents require a pair (a, b)") from None
        return self.exponent_from_pair(a, b)

    def exponent_from_pair(self, a, b) -> Exponent:
        a = Fraction(a)
        b = Fraction(b)
        if a < 0 or b < 0:
            raise SystemSpecError(f"pair components must be nonnegative, got ({a}, {b})")
        value = self.gamma * float(a) + (1.0 - self.gamma) * float(b)
        if not value > 0:
            raise SystemSpecError("pair (0, 0) is not an admissible exponent")
        return Exponent(value, (a, b))

    def _require_pair(self, lam: Exponent) -> tuple[Fraction, Fraction]:
        if lam.pair is None:
            raise SystemSpecError("product-system operation needs an exponent pair")
        if abs(lam.value - (self.gamma * float(lam.pair[0])
                            + (1.0 - self.gamma) * float(lam.pair[1]))) > PAIR_VALUE_TOL:
            raise SystemSpecError(f"exponent value {lam.value!r} inconsistent with pair {lam.pair}")
        return lam.pair

    def eval(self, lam, t):
        self.check_domain(t)
        a, b = self._require_pair(lam)
        return (t ** self.gamma + 1.0) ** (-float(a)) \
            * (t ** (1.0 - self.gamma) + 1.0) ** (-float(b))

    def psi_prime(self, lam, t):
        self.check_domain(t)
        a, b = (float(x) for x in self._require_pair(lam))
        g = self.gamma
        p = t ** g + 1.0
        q = t ** (1.0 - g) + 1.0
        base = p ** (-a) * q ** (-b)
        return -base * (a * g * t ** (g - 1.0) / p + b * (1.0 - g) * t ** (-g) / q)

    def wedge(self, lam, mu):
        (a1, b1) = self._require_pair(lam)
        (a2, b2) = self._require_pair(mu)
        return self.exponent_from_pair(a1 + a2, b1 + b2)

    def vee_terms(self, lam, cutoff):
        """Merged double family of the product derivative.

        Pair (a, b) contributes (a+1, b+k) with coefficient -g a and
        (a+k, b+1) with coefficient -(1-g) b for k = 1, 2, ...; the shared
        corner (a+1, b+1) heads both families and carries the sum of both
        coefficients.  Each family increases in k, so merging the two by
        value lists the terms in increasing order.
        """
        a, b = self._require_pair(lam)
        g = self.gamma

        def family(live, coeff, pair):
            k = 1
            while live and (exp := self.exponent_from_pair(*pair(k))).value <= cutoff:
                yield exp, coeff
                k += 1

        merged = heapq.merge(family(a > 0, -g * float(a), lambda k: (a + 1, b + k)),
                             family(b > 0, -(1.0 - g) * float(b), lambda k: (a + k, b + 1)),
                             key=lambda term: term[0].value)
        for _, group in itertools.groupby(merged, key=lambda term: term[0].pair):
            group = list(group)
            yield VeeTerm(group[0][0], sum(coeff for _, coeff in group))

    def order_abscissa(self, t):
        return t

    def params_json(self):
        return {"gamma": self.gamma}


# ---------------------------------------------------------------------------
# JSON ingestion
# ---------------------------------------------------------------------------

_KINDS = {  # kind -> (accepted params keys, constructor)
    "power": (set(), lambda params: PowerSystem()),
    "sqrt_shift": (set(), lambda params: SqrtShiftSystem()),
    "iterated_log": ({"m", "q0", "q1", "beta"}, lambda params: IteratedLogSystem(
        m=params["m"], q0=params["q0"], q1=params["q1"], beta=params.get("beta", 1.0))),
    "sin_log": ({"m"}, lambda params: SinLogSystem(params["m"])),
    "tan_log": ({"m"}, lambda params: TanLogSystem(params["m"])),
    "product": ({"gamma"}, lambda params: ProductSystem(params["gamma"])),
}


def system_from_json(data: dict) -> DecaySystem:
    kind = data.get("kind")
    if kind not in _KINDS:
        raise SystemSpecError(f"unknown system kind {kind!r}; expected one of {sorted(_KINDS)}")
    keys, make = _KINDS[kind]
    params = data.get("params", {})
    unknown = set(params) - keys
    if unknown:
        raise SystemSpecError(f"unknown parameter(s) {sorted(unknown)} for system kind "
                              f"{kind!r}; expected {sorted(keys) or 'none'}")
    try:
        return make(params)
    except KeyError as missing:
        raise SystemSpecError(f"system kind {kind!r} is missing parameter {missing}") from None


# ---------------------------------------------------------------------------
# numerical condition checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    """One audited property.

    The first value of ``measured`` is the check's headline figure and the
    value under ``"threshold"``, when there is one, is the bound it is held
    to; report.json takes its ``measured`` and ``expected`` from these.
    """

    name: str
    passed: bool
    measured: dict


@dataclass(frozen=True)
class Report:
    """The checks of one audit; ``report[name]`` is the check of that name."""

    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def __getitem__(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _fit_slope(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.polyfit(x, y, 1)[0])


def verify_system_conditions(sys: DecaySystem, sample_lams: Sequence[Exponent],
                             t_grid: Sequence[float]) -> Report:
    """Numerically probe the structural conditions a system must satisfy.

    Checks, per sampled exponent: positivity and monotone decay on the grid;
    domination of e^{-alpha t}; boundedness of psi(a t)/psi(t); pointwise
    wedge consistency; and the vee expansion against a central finite
    difference of the derivative, slope-tested at the first omitted exponent.
    Failures are reported, never raised.
    """
    t = np.asarray(sorted(t_grid), dtype=float)
    if t[0] < sys.t_min:
        raise DomainError(f"grid starts below t_min = {sys.t_min:g}")
    lams = [sys.exponent(l) for l in sample_lams]
    checks: list[CheckResult] = []
    logx = np.log([sys.order_abscissa(ti) for ti in t])

    for lam in lams:
        vals = np.array([sys.eval(lam, ti) for ti in t])
        checks.append(CheckResult(
            f"positive_decreasing[{lam.value:g}]",
            bool(np.all(vals > 0) and np.all(np.diff(vals) < 0)),
            {"min": float(vals.min()), "max_increase": float(np.diff(vals).max())}))

        for alpha in (0.1, 1.0):
            # e^{-alpha t} / psi is eventually decreasing to 0; test the tail
            logratio = -alpha * t - np.log(vals)
            tail = logratio[len(logratio) // 2:]
            checks.append(CheckResult(
                f"dominates_exponential[{lam.value:g},alpha={alpha:g}]",
                bool(np.all(np.diff(tail) < 0) and logratio[-1] < logratio[0] - 1.0),
                {"drop": float(logratio[0] - logratio[-1])}))

        for a in (0.25, 0.5, 0.9):
            ok_t = t[a * t >= sys.t_min]
            if len(ok_t) < 8:
                continue
            ratios = np.array([sys.eval(lam, a * ti) / sys.eval(lam, ti) for ti in ok_t])
            tail = ratios[len(ratios) // 2:]
            slope = _fit_slope(np.log(ok_t[len(ok_t) // 2:]), np.log(tail))
            checks.append(CheckResult(
                f"shift_bounded[{lam.value:g},a={a:g}]",
                bool(slope < 0.05),
                {"sup": float(ratios.max()), "late_log_slope": slope}))

    # wedge consistency on exponent pairs
    for i, lam in enumerate(lams):
        for mu in lams[i:]:
            w = sys.wedge(lam, mu)
            lhs = np.array([sys.eval(lam, ti) * sys.eval(mu, ti) for ti in t])
            rhs = np.array([sys.eval(w, ti) for ti in t])
            rel = float(np.max(np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-300)))
            sym = sys.wedge(mu, lam)
            checks.append(CheckResult(
                f"wedge[{lam.value:g},{mu.value:g}]",
                rel <= 1e-10 and sys.same(sym, w),
                {"max_rel_err": rel, "gamma": w.value}))

    # vee expansion against a finite-difference derivative
    for lam in lams:
        cutoff = lam.value + 3.5
        terms = sys.vee(lam, cutoff)
        h = 1e-4
        dpsi = np.array([(sys.eval(lam, ti * (1 + h)) - sys.eval(lam, ti * (1 - h)))
                         / (2 * h * ti) for ti in t])
        approx = np.zeros_like(dpsi)
        for term in terms:
            approx += term.coeff * np.array([sys.eval(term.exponent, ti) for ti in t])
        resid = np.abs(dpsi - approx)
        if np.all(resid <= 20.0 * h * h * np.abs(dpsi) + 1e-300):
            # residual at the finite-difference noise floor: expansion exact
            checks.append(CheckResult(
                f"vee_residual[{lam.value:g}]", True,
                {"exact": True, "max_resid": float(resid.max()), "n_terms": len(terms)}))
            continue
        # expected decay order of the residual: the first omitted vee exponent
        more = sys.vee(lam, cutoff + 4.0)
        if len(more) > len(terms):
            expected = more[len(terms)].exponent.value
        else:
            expected = 2.0 * lam.value + 2.0  # empty expansion: super-decay probe
        good = resid > 1e-280
        if good.sum() >= 8:
            slope = -_fit_slope(logx[good], np.log(resid[good]))
            passed = slope >= expected - 0.1
            measured = {"fitted_order": slope, "expected": expected, "n_terms": len(terms)}
        else:
            passed = False
            measured = {"underflow": True, "n_terms": len(terms)}
        checks.append(CheckResult(f"vee_residual[{lam.value:g}]", passed, measured))

    return Report(tuple(checks))
