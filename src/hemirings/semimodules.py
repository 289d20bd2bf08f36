"""Finite left semimodules over finite hemirings, their endomorphism
semirings, trace ideals, and the double-centralizer check.

Conventions, fixed once: for a left semimodule I, the endomorphism semiring
D = End(_R I) acts on I on the right via i * d := d(i), so the product in D
is d1 * d2 := "apply d1, then d2" (composition d2 o d1).  Maps commuting
with that right action (the members of End(I_D)) compose as left operators,
(g1 * g2)(i) = g1(g2(i)), and that is the codomain of the natural map
r -> (i -> r i).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    FiniteHemiring,
    InvariantViolation,
    _associative,
    _distributive,
    _element,
    _first,
    _index_array,
    _law_witness,
    _map_search,
    _subset_closure,
    _trusted,
    as_op_table,
)
from .lattices import (FiniteSemilattice, _distributive_lattice, _pack_maps, build_E_M,
                       build_F_M, is_dense)
from .simpleness import IdealSubset, generated_ideal

__all__ = [
    "DoubleCentralizerReport",
    "FiniteLeftSemimodule",
    "ModuleEndoSemiring",
    "dense_embedding_search",
    "double_centralizer_check",
    "end_semiring",
    "hom_semimodules",
    "idempotent_generated",
    "is_generator",
    "left_ideal_semimodule",
    "minimal_left_ideals",
    "regular_semimodule",
    "trace_ideal",
]

class FiniteLeftSemimodule:
    """A commutative monoid with an R-action table (|R| x order).  Its
    ``members`` (the carrier as ring elements) are set only by
    ``regular_semimodule`` and ``left_ideal_semimodule``, else None."""

    __slots__ = ("ring", "add", "zero", "action", "name", "members")

    def __init__(self, ring: FiniteHemiring, add, zero: int, action, name: str = ""):
        self.ring = ring
        self.add = as_op_table(add)
        self.zero = _element(zero, self.order, "zero")
        self.name = name
        self.members = None
        action = np.asarray(action)
        if action.shape != (ring.order, self.order):
            raise ValueError("action table shape must be |R| x order")
        self.action = act = _index_array(action, self.order, "action table")
        R, n, r, add, zero = ring, self.order, ring.order, self.add, self.zero
        idx = np.arange(n)
        laws = (
            ("addition not commutative", _first(add != add.T)),
            ("zero not neutral", _first(add[zero] != idx)),
            ("addition not associative", _law_witness(_associative(add), (n, n, n))),
            # (r r') m = r (r' m)
            ("action not multiplicative", _law_witness(
                lambda s: (act[R.mul[s]], np.take(act[s], act, axis=1)), (r, r, n))),
            # r (m + m') = r m + r m'
            ("action not additive in the module argument",
             _law_witness(_distributive(act, add, add), (r, n, n))),
            # (r + r') m = r m + r' m
            ("action not additive in the ring argument",
             _law_witness(_distributive(act.T, R.add, add), (n, r, r))),
            ("zero absorption fails",
             _first(np.concatenate([act[R.zero], act[:, zero]]) != zero)),
            ("module not unital over a unital ring",
             None if R.one is None else _first(act[R.one] != idx)),
        )
        for message, witness in laws:
            if witness is not None:
                raise ValueError(message)

    @property
    def order(self) -> int:
        return self.add.shape[0]

    def __repr__(self):
        return f"FiniteLeftSemimodule({self.name or self.order}, over {self.ring.name or self.ring.order})"


def regular_semimodule(R: FiniteHemiring) -> FiniteLeftSemimodule:
    """R acting on itself by left multiplication (not re-validated)."""
    return _trusted(FiniteLeftSemimodule, ring=R, add=R.add, zero=R.zero, action=R.mul,
                    name="regular", members=tuple(range(R.order)))


def left_ideal_semimodule(R: FiniteHemiring, I: IdealSubset) -> FiniteLeftSemimodule:
    """Restrict addition and the left action to a validated left ideal."""
    if I.sidedness not in ("left", "two-sided"):
        raise ValueError("need a left or two-sided ideal")
    if extra := generated_ideal(R, I.members, "left").members - I.members:
        raise ValueError(f"not a left ideal: its closure adds {min(extra)}")
    members = sorted(I.members)
    pos = np.zeros(R.order, dtype=np.int32)   # member -> module index
    pos[members] = np.arange(len(members))
    add = pos[R.add[np.ix_(members, members)]]
    return _trusted(FiniteLeftSemimodule, ring=R, add=add, zero=int(pos[R.zero]),
                    action=pos[R.mul[:, members]], name=f"ideal{members}",
                    members=tuple(members))


def hom_semimodules(M: FiniteLeftSemimodule, N: FiniteLeftSemimodule) -> list[tuple[int, ...]]:
    """All additive, zero-preserving, R-equivariant maps M -> N, sorted.

    The node budget ``core.HOM_SEARCH_BOUND`` guards against genuinely
    intractable |N|^|M| spaces.
    """
    if M.ring is not N.ring and M.ring != N.ring:
        raise ValueError("semimodules over different rings")
    return _additive_maps(M, N, ((M.action, N.action),))


def _additive_maps(M: FiniteLeftSemimodule, N: FiniteLeftSemimodule,
                   actions) -> list[tuple[int, ...]]:
    """Sorted additive, zero-preserving maps M -> N that preserve each
    action pair (A, B) in ``actions``: f(A[r, x]) = B[r, f(x)]."""
    domains = [range(N.order)] * M.order
    domains[M.zero] = (N.zero,)
    order = [M.zero] + [x for x in range(M.order) if x != M.zero]
    return sorted(_map_search(M.order, order, domains, tables=((M.add, N.add),),
                              actions=actions))


class ModuleEndoSemiring:
    """End(_R M) packaged as a FiniteHemiring of right operators: the
    product d1 * d2 applies d1 first."""

    __slots__ = ("module", "maps", "hemiring", "index")

    def __init__(self, module: FiniteLeftSemimodule, maps: list[tuple[int, ...]],
                 name: str = ""):
        self.module = module
        self.maps, self.index, add, comp, zero, one = _pack_maps(
            module.add, module.zero, maps)
        # (d_i * d_j)(x) = d_j(d_i(x)): the transpose of the composition table
        self.hemiring = _trusted(FiniteHemiring, add=add, mul=np.ascontiguousarray(comp.T),
                                 zero=zero, one=one, name=name or f"End({module.name})")

    @property
    def order(self) -> int:
        return len(self.maps)


def end_semiring(M: FiniteLeftSemimodule) -> ModuleEndoSemiring:
    """End(_R M) as a semiring of right operators on M."""
    return ModuleEndoSemiring(M, hom_semimodules(M, M))


@dataclass(frozen=True)
class DoubleCentralizerReport:
    ring: FiniteHemiring
    ideal_members: tuple[int, ...]
    endo_count: int              # |D| = |End(_R I)|
    bicommutant_count: int       # |End(I_D)|
    natural_map: tuple[int, ...]  # r -> index into the bicommutant map list
    injective: bool
    surjective: bool

    @property
    def isomorphism(self) -> bool:
        return self.injective and self.surjective


def double_centralizer_check(R: FiniteHemiring, I: IdealSubset) -> DoubleCentralizerReport:
    """Compute D = End(_R I) and the natural map R -> End(I_D).

    For simple R the map is an isomorphism; the check does not test
    whether R is simple.
    """
    if len(I.members) <= 1:
        raise ValueError("need a nonzero left ideal")
    module = left_ideal_semimodule(R, I)

    d_maps = hom_semimodules(module, module)
    # End(I_D): additive zero-preserving g with g(i * d) = g(i) * d, i.e.
    # g(d(i)) = d(g(i)) for every d in D
    d_action = np.array(d_maps, dtype=np.int32)
    bicom = _additive_maps(module, module, ((d_action, d_action),))
    index = {g: i for i, g in enumerate(bicom)}

    # r -> (x -> r x) is row r of the module's action table
    nat = [index.get(g) for g in map(tuple, module.action.tolist())]
    if None in nat:
        raise InvariantViolation("natural image is not D-equivariant")

    injective = len(set(nat)) == R.order
    surjective = len(set(nat)) == len(bicom)
    return DoubleCentralizerReport(R, module.members, len(d_maps), len(bicom),
                                   tuple(nat), injective, surjective)


def trace_ideal(R: FiniteHemiring, P: FiniteLeftSemimodule) -> IdealSubset:
    """The ``_subset_closure`` under + of zero and the images of all homs
    P -> _R R."""
    homs = hom_semimodules(P, regular_semimodule(R))
    mask = np.zeros(R.order, dtype=bool)
    mask[R.zero] = True
    mask[[x for f in homs for x in f]] = True
    # close under addition only; the result is a two-sided ideal already,
    # which the ideal it generates confirms
    members = np.flatnonzero(_subset_closure(mask, R.add)).tolist()
    T = generated_ideal(R, members, "two-sided")
    if extra := T.members.difference(members):
        raise InvariantViolation(f"trace is not a two-sided ideal: its closure adds {min(extra)}")
    return T


def is_generator(R: FiniteHemiring, P: FiniteLeftSemimodule) -> bool:
    """The trace ideal is all of R."""
    return trace_ideal(R, P).is_full


def minimal_left_ideals(R: FiniteHemiring) -> list[IdealSubset]:
    """Minimal nonzero left ideals, by size and then members: the minimal
    principal left ideals <x>, x nonzero, since a nonzero left ideal holds
    the <x> of each of its nonzero x.  No order bound applies."""
    principals = {generated_ideal(R, [x], "left") for x in range(R.order) if x != R.zero}
    return sorted((I for I in principals if not any(J.members < I.members for J in principals)),
                  key=lambda I: (len(I.members), sorted(I.members)))


def idempotent_generated(R: FiniteHemiring, I: IdealSubset) -> int | None:
    """The least idempotent e with I = Re (as the set {r e}), if one exists."""
    want = set(I.members)
    for e in R.idempotents():
        if {int(v) for v in R.mul[:, e]} == want:
            return e
    return None


def dense_embedding_search(R: FiniteHemiring) -> tuple | None:
    """R's faithful dense image in End(P, +) for the first minimal left
    ideal P with idempotent +, as (kind, M, rows): M is (P, +) and rows[r]
    is r's row of P's action table.

    The image is closed under +, so F_M <= image <= E_M, and the kind is
    read from its size: ``endo`` (all of E_M, M distributive), ``fm``
    (F_M) or ``dense``.  None when no minimal left ideal qualifies (a
    ring's addition is never idempotent)."""
    for I in minimal_left_ideals(R):
        P = left_ideal_semimodule(R, I)
        if (P.add.diagonal() != np.arange(P.order)).any():
            continue
        M = _trusted(FiniteSemilattice, join=P.add, zero=P.zero, name="")
        rows = tuple(map(tuple, P.action.tolist()))
        if len(set(rows)) < R.order or not is_dense(rows, M):
            continue
        if _distributive_lattice(M) and len(rows) == build_E_M(M).order:
            return "endo", M, rows
        return ("fm" if len(rows) == build_F_M(M).order else "dense"), M, rows
    return None
