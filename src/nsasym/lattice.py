"""Closure of a set of decay exponents under the wedge and vee operations.

Starting from the force exponents, alternately adjoin every vee image and
every pairwise wedge, keeping only exponents up to a cutoff; the fixed
point is the sorted index set that a solution expansion lives on.  Each
entry records its provenance (generator, wedge of two earlier entries, or
k-th vee image of an earlier entry) so the recursion engine can enumerate
exactly the interactions landing on a given entry without re-searching.
The vee terms of every entry are computed once, at closure, and kept on
the lattice for the recursion, the residual audit and manufactured forces.

Whether two exponents are the same entry is decided by the system's one
identity rule, ``DecaySystem.same``; every lookup here goes through it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .systems import VALUE_TOL, DecaySystem, Exponent, ProductSystem, VeeTerm

__all__ = [
    "LatticeEntry",
    "ExponentLattice",
    "ClosureError",
    "closure",
    "decompose_product_exponent",
    "enumerate_pair_components",
]

MAX_ENTRIES = 10 ** 6


class ClosureError(ValueError):
    """Invalid closure request or runaway (non-terminating) closure."""


@dataclass(frozen=True)
class LatticeEntry:
    exponent: Exponent
    origins: tuple[tuple, ...]  # ("generator",) | ("wedge", i, j) | ("vee", p, k)

    @property
    def value(self) -> float:
        return self.exponent.value

    def is_generator(self) -> bool:
        return ("generator",) in self.origins


@dataclass(frozen=True)
class ExponentLattice:
    system: DecaySystem
    cutoff: float
    entries: tuple[LatticeEntry, ...]
    vee_table: tuple[tuple[VeeTerm, ...], ...]  # sys.vee of each entry, () at/above cutoff

    def __len__(self) -> int:
        return len(self.entries)

    def values(self) -> list[float]:
        return [e.value for e in self.entries]

    def exponent(self, n: int) -> Exponent:
        """Exponent of the 1-based entry n."""
        return self.entries[n - 1].exponent

    def vee(self, n: int) -> tuple[VeeTerm, ...]:
        """Derivative-expansion terms of the 1-based entry n below the cutoff
        (empty for an entry at or above it), as computed at closure."""
        return self.vee_table[n - 1]

    def index_of(self, exponent) -> Optional[int]:
        """1-based position of the entry the system calls the same as
        ``exponent`` (an Exponent or a plain value), or None."""
        if not isinstance(exponent, Exponent):
            exponent = Exponent(float(exponent))
        i = _find(self.system, self.values(), [e.exponent for e in self.entries], exponent)
        return None if i is None else i + 1

    def wedge_pairs(self, n: int) -> list[tuple[int, int]]:
        """Ordered index pairs (i, j) with lambda_i wedge lambda_j = lambda_n."""
        return [(i, j) for tag, *rest in self.entries[n - 1].origins
                if tag == "wedge" for i, j in [rest]]

    def vee_sources(self, n: int) -> list[tuple[int, int]]:
        """Pairs (p, k): entry n is the k-th vee image of entry p."""
        return [(p, k) for tag, *rest in self.entries[n - 1].origins
                if tag == "vee" for p, k in [rest]]

    def to_json(self) -> dict:
        entries = []
        for n, e in enumerate(self.entries, 1):
            rec = {"n": n, "value": e.value,
                   "origins": [list(o) for o in e.origins]}
            if e.exponent.pair is not None:
                a, b = e.exponent.pair
                rec["pair"] = [[a.numerator, a.denominator], [b.numerator, b.denominator]]
            entries.append(rec)
        return {"cutoff": self.cutoff, "system": self.system.to_json(), "entries": entries}


def _find(sys: DecaySystem, values: Sequence[float], items: Sequence[Exponent],
          exp: Exponent) -> Optional[int]:
    """0-based position of the first item the system calls the same as exp.

    ``values`` are the sorted values of ``items``; only the +-VALUE_TOL
    window around exp.value is searched.
    """
    i = bisect_left(values, exp.value - VALUE_TOL)
    while i < len(values) and values[i] <= exp.value + VALUE_TOL:
        if sys.same(items[i], exp):
            return i
        i += 1
    return None


class _WorkingSet:
    """Sorted collection of exponents, deduplicated by the system's rule."""

    def __init__(self, sys: DecaySystem):
        self.sys = sys
        self.values: list[float] = []
        self.items: list[Exponent] = []

    def add(self, exp: Exponent) -> bool:
        if _find(self.sys, self.values, self.items, exp) is not None:
            return False
        j = bisect_left(self.values, exp.value)
        self.values.insert(j, exp.value)
        self.items.insert(j, exp)
        return True


def closure(sys: DecaySystem, generators: Sequence, cutoff: float) -> ExponentLattice:
    """Smallest exponent set containing the generators, closed under wedge
    and vee below the cutoff, sorted increasingly.

    Alternates vee passes and wedge passes until a full sweep adds nothing.
    Termination for well-posed systems follows from the minimum spacing of
    reachable exponents; a runaway count (> 10^6) raises ClosureError.
    The vee terms of every entry are computed once here and kept on the
    lattice (``ExponentLattice.vee``).
    """
    gens = [sys.exponent(g) for g in generators]
    cutoff = float(cutoff)
    if not gens:
        raise ClosureError("closure requires at least one generator")
    if cutoff < min(g.value for g in gens):
        raise ClosureError(f"cutoff {cutoff:g} is below the smallest generator")
    if any(g.value > cutoff + VALUE_TOL for g in gens):
        raise ClosureError("every generator must lie within the cutoff")

    work = _WorkingSet(sys)
    for g in gens:
        work.add(g)

    changed = True
    while changed:
        changed = False
        # vee pass
        for exp in list(work.items):
            if exp.value >= cutoff:
                continue
            for term in sys.vee(exp, cutoff):
                changed |= work.add(term.exponent)
        # wedge pass
        snapshot = list(work.items)
        for i, a in enumerate(snapshot):
            for b in snapshot[i:]:
                if a.value + b.value > cutoff + VALUE_TOL:
                    break  # snapshot is sorted; later b only grow
                gamma = sys.wedge(a, b)
                if gamma.value <= cutoff + VALUE_TOL:
                    changed |= work.add(gamma)
        if len(work.items) > MAX_ENTRIES:
            raise ClosureError(
                f"closure exceeded {MAX_ENTRIES} entries below cutoff {cutoff:g}; "
                "the exponent set appears to accumulate")

    vees = tuple(tuple(sys.vee(e, cutoff)) if e.value < cutoff else () for e in work.items)
    return ExponentLattice(sys, cutoff, _with_provenance(sys, work, gens, vees), vees)


def _with_provenance(sys: DecaySystem, work: _WorkingSet, gens: Sequence[Exponent],
                     vees: Sequence[Sequence[VeeTerm]]) -> tuple[LatticeEntry, ...]:
    """Tag every entry with its origins in one forward pass.

    Each generator, each ordered wedge pair (i, j) and each k-th vee image
    of an entry p is looked up once and recorded on the entry it lands on,
    provided that entry comes after its sources.  Generators come first,
    then wedge pairs in (i, j) order, then vee routes in (p, k) order.
    """
    exps, vals = work.items, work.values
    origins: list[list[tuple]] = [[] for _ in exps]
    for g in gens:
        tags = origins[_find(sys, vals, exps, g)]
        if not tags:
            tags.append(("generator",))
    reach = vals[-1] + VALUE_TOL  # no larger wedge can be the same as an entry
    for i, a in enumerate(exps):
        for j, b in enumerate(exps):
            if a.value + b.value > reach:
                break  # values are sorted; later b only grow
            n = _find(sys, vals, exps, sys.wedge(a, b))
            if n is not None and n > max(i, j):
                origins[n].append(("wedge", i + 1, j + 1))
    for p, terms in enumerate(vees):
        for k, term in enumerate(terms, 1):
            n = _find(sys, vals, exps, term.exponent)
            if n is not None and n > p:
                origins[n].append(("vee", p + 1, k))
    return tuple(LatticeEntry(exp, tuple(tags)) for exp, tags in zip(exps, origins))


# ---------------------------------------------------------------------------
# product-exponent decomposition
# ---------------------------------------------------------------------------

def enumerate_pair_components(generators: Sequence[Fraction], bound: Fraction) -> list[Fraction]:
    """All values (sum of >= 1 generators) + nonnegative integer <= bound.

    This is one factor of the candidate grid E1 x E2 on which product
    exponents decompose.
    """
    gens = sorted(Fraction(g) for g in generators)
    if not gens or gens[0] <= 0:
        raise ValueError("pair component generators must be positive")
    bound = Fraction(bound)
    sums = set()
    frontier = [Fraction(0)]
    while frontier:
        nxt = []
        for base in frontier:
            for g in gens:
                s = base + g
                if s <= bound and s not in sums:
                    sums.add(s)
                    nxt.append(s)
        frontier = nxt
    out = set()
    for s in sums:
        k = Fraction(0)
        while s + k <= bound:
            out.add(s + k)
            k += 1
    return sorted(out)


def decompose_product_exponent(sys: ProductSystem, mu: float,
                               alpha_gens: Sequence, beta_gens: Sequence) -> Exponent:
    """Recover the unique pair (a, b) with mu = g a + (1-g) b on the
    candidate grid generated by the given pair components.

    An exhaustive scan is used; zero matches means mu is off the grid, two
    or more matches means the mixing weight resolves rationals too poorly
    to separate pairs (both are errors).
    """
    if not isinstance(sys, ProductSystem):
        raise TypeError("pair decomposition only applies to product systems")
    g = sys.gamma
    mu = float(mu)
    bound_a = Fraction(int(mu / g) + 2)
    bound_b = Fraction(int(mu / (1.0 - g)) + 2)
    e1 = enumerate_pair_components(alpha_gens, bound_a)
    e2 = enumerate_pair_components(beta_gens, bound_b)
    matches = []
    for a in e1:
        for b in e2:
            if abs(g * float(a) + (1 - g) * float(b) - mu) <= 1e-9:
                matches.append((a, b))
    if not matches:
        raise ClosureError(f"value {mu:g} does not decompose on the candidate pair grid")
    if len(matches) > 1:
        raise ClosureError(
            f"value {mu:g} decomposes ambiguously ({matches[:4]}); "
            "the mixing weight is too close to a rational")
    return sys.exponent_from_pair(*matches[0])
