"""Expansions over an exponent lattice and the coefficient recursion.

An Expansion couples a lattice with one spectral coefficient per entry
(zero fields allowed), representing sum_n xi_n psi_{lambda_n}(t).  Given a
force expansion, the solution coefficients are produced entry by entry:

    xi_1 = A^-1 phi_1
    xi_n = A^-1 ( phi_n - chi_n - sum_{wedge(i,j) = n} B(xi_i, xi_j) )

where chi_n collects c_{p,k} xi_p over all vee routes (p, k) landing on
entry n.  ``compute_coefficients`` runs it for every system, continuum or
discrete: the force's expansion alone fixes the solution's, so there is one
recursion.  Wedge and vee route sets come from lattice provenance, and each
c_{p,k} from the vee terms the lattice computed for entry p at closure.
``coupling_terms`` yields the pieces of chi_n and then the whole wedge
sum of entry n as one piece, formed in physical space and transformed
once (``spectral.advection_sum``): the recursion subtracts them from
phi_n, and the manufactured force adds them to A xi_n, the same relation
run forwards.
The residual checker below never reads provenance: it keeps every vee
term of an earlier entry that the system calls the same as lambda_n, and
for each i < n tries only the j < n whose value lies within 2 VALUE_TOL
of lambda_n - lambda_i (wedge values add, which closure relies on too),
deciding each candidate by the system's wedge and identity rule, and it
evaluates each wedge pair with its own ``bilinear_form`` call.  The two
paths therefore stay independently testable.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional, Sequence

from .lattice import ExponentLattice
from .spectral import (
    GevreyIndex,
    SpectralField,
    advection_sum,
    apply_inverse_stokes,
    apply_multiplier,
    bilinear_form,
)
from .systems import VALUE_TOL, Exponent

__all__ = [
    "Expansion",
    "ExpansionError",
    "normalize_force",
    "compute_coefficients",
    "coupling_terms",
    "evaluate_expansion",
    "recursion_residual",
]


class ExpansionError(ValueError):
    pass


@dataclass(frozen=True)
class Expansion:
    """Ordered coefficients (one per lattice entry, leading segment)."""

    lattice: ExponentLattice
    fields: tuple[SpectralField, ...]
    gevrey: GevreyIndex

    def __post_init__(self):
        if len(self.fields) > len(self.lattice):
            raise ExpansionError("more coefficients than lattice entries")
        cuts = {f.cutoff for f in self.fields}
        if len(cuts) > 1:
            raise ExpansionError(f"coefficients carry mixed cutoffs {sorted(cuts)}")

    def __len__(self) -> int:
        return len(self.fields)

    @property
    def cutoff(self) -> int:
        if not self.fields:
            raise ExpansionError("empty expansion has no cutoff")
        return self.fields[0].cutoff

    def field(self, n: int) -> SpectralField:
        return self.fields[n - 1]

    def exponent(self, n: int) -> Exponent:
        return self.lattice.exponent(n)

    def terms(self):
        for n, f in enumerate(self.fields, 1):
            yield n, self.lattice.exponent(n), f

    def scaled(self, c: float) -> "Expansion":
        return Expansion(self.lattice, tuple(c * f for f in self.fields), self.gevrey)

    def to_json(self) -> dict:
        return {
            "gevrey": [self.gevrey.alpha, self.gevrey.sigma],
            "terms": [{"n": n, "lambda": lam.value, "field": f.to_json()}
                      for n, lam, f in self.terms()],
        }


def normalize_force(raw: Sequence[tuple], lat: ExponentLattice,
                    gevrey: GevreyIndex = GevreyIndex(0.5, 0.0)) -> Expansion:
    """Re-index raw force terms onto the lattice, zero-padding the gaps.

    Every raw exponent must already be a lattice entry (generators are
    supposed to be included at closure time); the result covers the full
    lattice so downstream recursions can run to any depth.
    """
    if gevrey.alpha < 0.5:
        raise ExpansionError("force expansions need Gevrey order alpha >= 1/2")
    placed: dict[int, SpectralField] = {}
    cutoff = None
    for exp, field in raw:
        exp = lat.system.exponent(exp)
        n = lat.index_of(exp)
        if n is None:
            raise ExpansionError(
                f"force exponent {exp.value:g} is not a lattice entry; "
                "include it among the closure generators")
        if n in placed:
            raise ExpansionError(f"duplicate force term at lattice entry {n}")
        placed[n] = field
        cutoff = field.cutoff
    if cutoff is None:
        raise ExpansionError("force must contain at least one term")
    zero = SpectralField.zero(cutoff)
    fields = tuple(placed.get(n, zero) for n in range(1, len(lat) + 1))
    return Expansion(lat, fields, gevrey)


def coupling_terms(lat: ExponentLattice, fields: Sequence[SpectralField], n: int):
    """The pieces of chi_n + sum_{wedge(i,j) = n} B(xi_i, xi_j), in order.

    ``fields`` holds xi_1, xi_2, ...; only sources that have a field
    contribute.  Yields c_{p,k} xi_p over the vee routes (p, k) of entry n,
    then the whole wedge sum over its pairs (i, j) as one piece, a single
    ``advection_sum`` (one forward transform per entry, not per pair), when
    entry n has a wedge pair; routes and pairs are as recorded by lattice
    provenance (every source comes before n).  A lone pair goes through
    ``bilinear_form``, the one-pair case of the sum and equal to it bit for
    bit, so a tracer that wraps ``bilinear_form`` (perfbench's layers) still
    counts it.
    """
    have = len(fields)
    for (p, k) in lat.vee_sources(n):
        if p <= have:
            yield lat.vee(p)[k - 1].coeff * fields[p - 1]
    pairs = [(fields[i - 1], fields[j - 1]) for (i, j) in lat.wedge_pairs(n)
             if i <= have and j <= have]
    if len(pairs) == 1:
        yield bilinear_form(*pairs[0])
    elif pairs:
        yield advection_sum(pairs)


def _recursion(force: Expansion, N: int) -> Expansion:
    lat = force.lattice
    if N > len(force):
        raise ExpansionError(f"requested {N} coefficients but the force has {len(force)} entries")
    out: list[SpectralField] = []
    for n in range(1, N + 1):
        acc = force.field(n)
        for piece in coupling_terms(lat, out, n):
            acc = acc - piece
        out.append(apply_inverse_stokes(acc))
    g = force.gevrey
    return Expansion(lat, tuple(out), GevreyIndex(g.alpha + 1.0, g.sigma))


def compute_coefficients(force: Expansion, N: Optional[int] = None) -> Expansion:
    """Solution coefficients xi_1..xi_N of a force expansion (all by default).

    One recursion serves every system: wedge pairs and vee routes come from
    the lattice's provenance.  On a discrete (background) system those are
    index-level, keyed by exact exponent pairs, so every entry must carry
    its pair.
    """
    lat = force.lattice
    if lat.system.discrete and any(e.exponent.pair is None for e in lat.entries):
        raise ExpansionError("discrete recursion requires pair metadata on every entry")
    if force.gevrey.alpha < 0.5:
        raise ExpansionError("the recursion requires Gevrey order alpha >= 1/2")
    return _recursion(force, len(force) if N is None else N)


# Old name, kept as a plain alias while perfbench/layers.py and workloads.py look it up.
compute_coefficients_discrete = compute_coefficients


def evaluate_expansion(exp: Expansion, t: float, upto: Optional[int] = None) -> SpectralField:
    """Partial sum sum_{n <= upto} xi_n psi_{lambda_n}(t)."""
    sys = exp.lattice.system
    sys.check_domain(t)
    upto = len(exp) if upto is None else upto
    if upto > len(exp):
        raise ExpansionError(f"expansion has {len(exp)} terms, requested {upto}")
    acc = SpectralField.zero(exp.cutoff)
    for n in range(1, upto + 1):
        acc = acc + sys.eval(exp.exponent(n), t) * exp.field(n)
    return acc


def recursion_residual(coeffs: Expansion, force: Expansion, n: int) -> float:
    """Relative defect of A xi_n + chi_n + sum B(xi_i, xi_j) = phi_n.

    The chi and wedge sums are rebuilt by scanning the lattice and never
    read the provenance tags used to compute the coefficients, so this
    doubles as a bookkeeping cross-check.  chi keeps every vee term of an
    entry p < n that the system calls the same as lambda_n.  For each
    i < n, the wedge sum tries only the j < n in the value window around
    lambda_n - lambda_i, in increasing j, and keeps a pair when the
    system's identity rule accepts its wedge.
    """
    lat = coeffs.lattice
    sys = lat.system
    target = lat.exponent(n)
    lhs = apply_multiplier(coeffs.field(n), "A_alpha", 1.0)
    scale = lhs.l2()
    for p in range(1, n):
        for term in lat.vee(p):
            if sys.same(term.exponent, target):
                piece = term.coeff * coeffs.field(p)
                scale = max(scale, piece.l2())
                lhs = lhs + piece
    values = lat.values()
    slack = 2 * VALUE_TOL  # the window only prunes: widened past the rounding of the difference
    for i in range(1, n):
        rest = target.value - values[i - 1]
        j = bisect_left(values, rest - slack) + 1
        while j < n and values[j - 1] <= rest + slack:
            if sys.same(sys.wedge(lat.exponent(i), lat.exponent(j)), target):
                piece = bilinear_form(coeffs.field(i), coeffs.field(j))
                scale = max(scale, piece.l2())
                lhs = lhs + piece
            j += 1
    phi = force.field(n)
    # relative to the largest constituent, so exact cancellations score ~0
    scale = max(scale, phi.l2(), 1e-300)
    return (lhs - phi).l2() / scale
