"""Closure of a set of decay exponents under the wedge and vee operations.

Starting from the force exponents, the closure adjoins every vee image and
every pairwise wedge up to a cutoff; the result is the sorted index set
that a solution expansion lives on.  Both operations give an exponent
strictly above their sources, so the closure is built in one increasing
pass: an entry is final once every smaller entry has been processed.  Each
entry records its provenance (generator, wedge of two earlier entries, or
k-th vee image of an earlier entry) as its images are adjoined, so the
recursion engine can enumerate exactly the interactions landing on a given
entry without re-searching.  The vee terms of every entry are computed
once, in the same pass, and kept on the lattice for the recursion, the
residual audit and manufactured forces.

Whether two exponents are the same entry is decided by the system's one
identity rule, ``DecaySystem.same``; every lookup here goes through it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice
from typing import Optional, Sequence

from .systems import VALUE_TOL, DecaySystem, Exponent, VeeTerm

__all__ = [
    "LatticeEntry",
    "ExponentLattice",
    "ClosureError",
    "closure",
]

MAX_ENTRIES = 1000  # the cursor pass is quadratic: ~5 s to build a lattice this size


class ClosureError(ValueError):
    """Invalid closure request or runaway (non-terminating) closure."""


@dataclass(frozen=True)
class LatticeEntry:
    exponent: Exponent
    origins: tuple[tuple, ...]  # ("generator",) | ("wedge", i, j) | ("vee", p, k)

    @property
    def value(self) -> float:
        return self.exponent.value


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


_RANK = {"generator": 0, "wedge": 1, "vee": 2}  # order of an entry's origin tags


def closure(sys: DecaySystem, generators: Sequence, cutoff: float) -> ExponentLattice:
    """Smallest exponent set containing the generators, closed under wedge
    and vee below the cutoff, sorted increasingly.

    One cursor pass over a sorted working list, seeded with the generators.
    Every wedge and vee image lies strictly above its sources, so the entry
    under the cursor can no longer be reached from anything unprocessed: it
    is final, and so is its index.  At that entry the pass computes its vee
    terms once (below the cutoff; none at or above it), then wedges it with
    itself and with each earlier entry, so each unordered pair is visited
    once.  Every image is adjoined unless the system calls it the same as
    an entry already listed, and is tagged on the entry it lands on as
    ("vee", p, k), or as ("wedge", i, j) and ("wedge", j, i).  Each entry's
    tags end up ordered generator, wedges by (i, j), vees by (p, k).
    Termination for well-posed systems follows from the minimum spacing of
    reachable exponents; more than MAX_ENTRIES entries raises ClosureError,
    up front when the multiples of the smallest generator (all entries,
    since wedge values add) already reach that count, and before a vee
    family is listed past that count.
    """
    gens = [sys.exponent(g) for g in generators]
    cutoff = float(cutoff)
    if not gens:
        raise ClosureError("closure requires at least one generator")
    smallest = min(g.value for g in gens)
    if cutoff < smallest:
        raise ClosureError(f"cutoff {cutoff:g} is below the smallest generator")
    if cutoff > MAX_ENTRIES * smallest:
        raise ClosureError(
            f"cutoff {cutoff:g} exceeds {MAX_ENTRIES} times the smallest generator "
            f"{smallest:g}, so the closure would hold at least {MAX_ENTRIES} entries")
    if any(g.value > cutoff + VALUE_TOL for g in gens):
        raise ClosureError("every generator must lie within the cutoff")

    values: list[float] = []
    items: list[Exponent] = []
    origins: list[list[tuple]] = []

    def adjoin(exp: Exponent) -> int:
        """0-based position of the entry the system calls the same as exp,
        inserted in sorted position if there is none yet."""
        n = _find(sys, values, items, exp)
        if n is None:
            n = bisect_left(values, exp.value)
            values.insert(n, exp.value)
            items.insert(n, exp)
            origins.insert(n, [])
        return n

    for g in gens:
        tags = origins[adjoin(g)]
        if not tags:
            tags.append(("generator",))

    vees: list[tuple[VeeTerm, ...]] = []
    for c, a in enumerate(items):  # items grows only above the cursor
        # listed only to one term past the bound: the terms of a vee family
        # are distinct entries, so a longer family trips the check below
        terms = tuple(islice(sys.vee_terms(a, cutoff), MAX_ENTRIES + 1)) \
            if a.value < cutoff else ()
        vees.append(terms)
        for k, term in enumerate(terms, 1):
            n = adjoin(term.exponent)
            if n > c:
                origins[n].append(("vee", c + 1, k))
        for i in range(c + 1):
            b = items[i]
            if a.value + b.value > cutoff + VALUE_TOL:
                break  # items are sorted; later b only grow
            gamma = sys.wedge(b, a)
            if gamma.value <= cutoff + VALUE_TOL and (n := adjoin(gamma)) > c:
                # both orders, one tag when i == c
                origins[n] += {("wedge", i + 1, c + 1), ("wedge", c + 1, i + 1)}
        if len(items) > MAX_ENTRIES:
            raise ClosureError(
                f"closure exceeded {MAX_ENTRIES} entries below cutoff {cutoff:g}; "
                "the exponent set appears to accumulate")

    entries = tuple(LatticeEntry(exp, tuple(sorted(tags, key=lambda o: (_RANK[o[0]], o[1:]))))
                    for exp, tags in zip(items, origins))
    return ExponentLattice(sys, cutoff, entries, tuple(vees))

