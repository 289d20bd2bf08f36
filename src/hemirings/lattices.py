"""Finite semilattices with zero, finite lattices, and their endomorphism
hemirings.

A finite semilattice here is a total idempotent commutative monoid (M, v, 0),
i.e. a join table.  Every such table is automatically a bounded lattice
(pairwise meets exist as joins of common lower bounds), so the lattice
wrapper below can always be built from a valid semilattice; the optional
return of ``try_lattice`` guards against invalid input only.
"""

from __future__ import annotations

import numpy as np

from .core import (
    FiniteHemiring,
    InvariantViolation,
    PartialOrder,
    _associative,
    _distributive,
    _element,
    _first,
    _index_array,
    _law_witness,
    _map_search,
    _memoised,
    _slab,
    _subset_closure,
    as_op_table,
)

__all__ = [
    "Endo",
    "EndoSemiring",
    "FiniteLattice",
    "FiniteSemilattice",
    "build_E_M",
    "build_F_M",
    "e_ab",
    "endo_enumerate",
    "induced_order",
    "is_dense",
    "is_distributive",
    "is_semilattice",
    "e_ab_absorb",
    "semilattice_violation",
    "try_lattice",
]

Endo = tuple  # a join- and zero-preserving self-map, as a tuple of images


def semilattice_violation(join, zero: int):
    """None if (join, zero) is a semilattice; else (law, witness)."""
    join = as_op_table(join)
    n = join.shape[0]
    _element(zero, n, "zero")
    idx = np.arange(n)
    laws = (("idempotent", _first(join[idx, idx] != idx)),
            ("commutative", _first(join != join.T)),
            ("associative", _law_witness(_associative(join), (n, n, n))),
            ("zero-neutral", _first(join[zero] != idx)))
    return next(((law, w) for law, w in laws if w is not None), None)


def is_semilattice(join, zero: int = 0) -> bool:
    return semilattice_violation(join, zero) is None


class FiniteSemilattice:
    """Idempotent commutative monoid (M, v, 0) on 0..n-1."""

    __slots__ = ("join", "zero", "name", "_memo")

    def __init__(self, join, zero: int = 0, name: str = "", validate: bool = True):
        self.join = as_op_table(join)
        self.zero = _element(zero, self.order, "zero")
        self.name = name
        self._memo: dict = {}
        if validate:
            bad = semilattice_violation(self.join, self.zero)
            if bad is not None:
                raise ValueError(f"not a semilattice: {bad[0]} fails at {bad[1]}")

    @property
    def order(self) -> int:
        return self.join.shape[0]

    @property
    def top(self) -> int:
        """A finite total join always has a greatest element."""
        t = induced_order(self).top()
        if t is None:
            raise ValueError("join table has no greatest element")
        return t

    def leq(self, a: int, b: int) -> bool:
        a, b = _element(a, self.order, "element"), _element(b, self.order, "element")
        return bool(self.join[a, b] == b)

    def join_all(self, xs) -> int:
        out = self.zero
        for x in xs:
            out = int(self.join[out, _element(x, self.order, "element")])
        return out

    def __eq__(self, other):
        return (isinstance(other, FiniteSemilattice) and self.zero == other.zero
                and self.join.shape == other.join.shape
                and bool((self.join == other.join).all()))

    def __hash__(self):
        return hash((self.join.tobytes(), self.zero))

    def __repr__(self):
        return f"FiniteSemilattice({self.name or self.order})"


@_memoised("order")
def induced_order(M: FiniteSemilattice) -> PartialOrder:
    """x <= y iff x v y = y: a partial order on any idempotent commutative
    monoid, so it is not re-validated."""
    return PartialOrder(M.join == np.arange(M.order)[None, :], validate=False)


class FiniteLattice:
    """A finite semilattice together with its meet table."""

    __slots__ = ("base", "meet")

    def __init__(self, base: FiniteSemilattice, meet, validate: bool = True):
        self.base = base
        self.meet = as_op_table(meet, order=base.order)
        if validate:
            po = induced_order(base)
            want = po.meet_table()
            if want is None or not (want == self.meet).all():
                raise ValueError("meet table is not the glb of the induced order")
            # absorption: x v (x ^ y) = x and x ^ (x v y) = x
            n = base.order
            idx = np.arange(n)[:, None]
            if not (base.join[idx, self.meet] == idx).all():
                raise ValueError("absorption fails")
            if not (self.meet[idx, base.join] == idx).all():
                raise ValueError("absorption fails")

    @property
    def order(self) -> int:
        return self.base.order


def try_lattice(M: FiniteSemilattice) -> FiniteLattice | None:
    """Compute pairwise meets; None if some pair has no greatest lower bound.

    For a validated FiniteSemilattice this always succeeds (the join of the
    common lower bounds is the meet); the optional covers malformed input.
    The meets are the glbs by construction, so they are not re-validated.
    """
    meets = induced_order(M).meet_table()
    if meets is None:
        return None
    return FiniteLattice(M, meets, validate=False)


def is_distributive(L: FiniteLattice) -> bool:
    """x ^ (y v z) = (x ^ y) v (x ^ z), exhaustively."""
    join, n = L.base.join, L.order
    return _law_witness(_distributive(L.meet, join, join), (n, n, n)) is None


@_memoised("distributive")
def _distributive_lattice(M: FiniteSemilattice) -> bool:
    """Whether M is a lattice (``try_lattice``) that is distributive;
    memoised in M."""
    lat = try_lattice(M)
    return lat is not None and is_distributive(lat)


def e_ab(M: FiniteSemilattice, a: int, b: int) -> Endo:
    """The endomorphism sending x to 0 when x v a = a and to b otherwise."""
    a, b = _element(a, M.order, "element"), _element(b, M.order, "element")
    below = M.join[:, a] == a
    return tuple(M.zero if below[x] else b for x in range(M.order))


def endo_enumerate(M: FiniteSemilattice) -> list[Endo]:
    """All join- and zero-preserving self-maps, sorted.

    Values are extended along a linear extension of the induced order, so
    an element that is the join of two earlier ones gets a forced value and
    monotonicity against earlier elements prunes the rest.
    """
    n = M.order
    po = induced_order(M)
    ext = sorted(range(n), key=lambda x: (int(po.leq[:, x].sum()), x))
    domains = [range(n)] * n
    domains[M.zero] = (M.zero,)
    return sorted(_map_search(n, ext, domains, tables=((M.join, M.join),)))


def _pack_maps(add: np.ndarray, zero: int, maps) -> tuple:
    """Sort and index endomorphisms of the commutative monoid (``add``,
    ``zero``) that are closed under pointwise sum and composition.

    Returns the sorted maps, their index, the pointwise-sum table, the
    composition table [i, j] -> maps[i] o maps[j], and the indices of the
    zero map and of the identity (None when it is absent).

    The maps are checked instead of the tables built from them: every map
    fixes ``zero`` and preserves ``add``, the set is closed and holds the
    zero map.  Such a set is a hemiring under pointwise sum and
    composition, so the tables need no axiom scan.  A set failing a check
    raises ``ValueError`` naming it.

    A map is found by its images through a prefix trie of the sorted maps:
    ``trie[c][p * n + v]`` is the rank of prefix p extended by v among the
    maps' distinct prefixes of length c + 1, and a rank past the last one
    marks an absent prefix, which every later level keeps absent.  After n
    levels a found map's rank is its index, so a slab of
    ``_slab(k * n)`` table rows is n gathers.
    """
    maps = sorted(set(maps))
    if not maps:
        raise ValueError("no maps to package")
    n = add.shape[0]
    arr = _index_array(np.array(maps), n, "map")
    if arr.shape != (len(maps), n):
        raise ValueError(f"maps must have length {n}")
    bad = _first(arr[:, zero] != zero)
    if bad is not None:
        raise ValueError(f"map {maps[bad[0]]} does not fix zero {zero}")
    bad = _first(arr[:, add] != add[arr[:, :, None], arr[:, None, :]])
    if bad is not None:
        f, x, y = bad
        raise ValueError(f"map {maps[f]} does not preserve addition at ({x}, {y})")
    k = len(maps)
    trie = []
    rank = np.zeros(k, dtype=np.intp)          # each map's prefix rank so far
    for c in range(n):
        width = (rank[-1] + 2) * n               # a row per prefix, then one for absent
        key = rank * n + arr[:, c]               # nondecreasing: the maps are sorted
        rank = np.r_[0, np.cumsum(key[1:] != key[:-1])]
        level = np.full(width, rank[-1] + 1)
        level[key] = rank
        trie.append(level)
    sums = np.empty((k, k), dtype=np.int32)
    comp = np.empty((k, k), dtype=np.int32)
    step = _slab(k * n)
    for s in range(0, k, step):
        f = arr[s:s + step]
        for table, rows in ((sums, add[f[:, None, :], arr]),   # f(x) + g(x)
                            (comp, f[:, arr])):                 # f(g(x))
            at = np.zeros(rows.shape[:-1], dtype=np.intp)
            for c, level in enumerate(trie):
                at = level.take(at * n + rows[..., c])
            if (at == k).any():
                raise ValueError("carrier is not closed under join/composition")
            table[s:s + step] = at
    index = {f: i for i, f in enumerate(maps)}
    zero_map = index.get((zero,) * n)
    if zero_map is None:
        raise ValueError("maps do not include the zero map")
    return maps, index, sums, comp, zero_map, index.get(tuple(range(n)))


class EndoSemiring:
    """A set of endomorphisms of M closed under pointwise join and
    composition, packaged as a FiniteHemiring.

    Addition is pointwise join, multiplication is composition with
    (f*g)(x) = f(g(x)); the identity map, when present, is the one.  The
    maps are checked (``_pack_maps``), not the tables packaged from them.
    """

    __slots__ = ("lattice", "maps", "hemiring", "index")

    def __init__(self, M: FiniteSemilattice, maps: list[Endo], name: str = ""):
        self.lattice = M
        self.maps, self.index, add, mul, zero, one = _pack_maps(M.join, M.zero, maps)
        self.hemiring = FiniteHemiring(add, mul, zero=zero, one=one,
                                       name=name or f"End({M.name or M.order})",
                                       validate=False)

    @property
    def order(self) -> int:
        return len(self.maps)

    def endo_index(self, f: Endo) -> int:
        return self.index[tuple(f)]

    def __repr__(self):
        return f"EndoSemiring({self.lattice!r}, order={self.order})"


@_memoised("E_M")
def build_E_M(M: FiniteSemilattice) -> EndoSemiring:
    """The full endomorphism semiring of M, memoised in M and shared by
    every caller (``build_F_M`` too): rename a copy, never this one."""
    return EndoSemiring(M, endo_enumerate(M), name=f"E_{M.name or M.order}")


def generator_maps(M: FiniteSemilattice) -> list[Endo]:
    """The distinct e_{a,b}, canonicalized by map-vector equality."""
    return sorted({e_ab(M, a, b) for a in range(M.order) for b in range(M.order)})


@_memoised("F_M")
def build_F_M(M: FiniteSemilattice) -> EndoSemiring:
    """The additive submonoid of E_M generated by all e_{a,b}: their
    ``_subset_closure`` under the pointwise join of ``build_E_M(M)``.
    Packaging re-checks closure under composition (F_M is an ideal of E_M).
    Memoised in M like ``build_E_M``: rename a copy, never this one.
    """
    E = build_E_M(M)
    mask = np.zeros(E.order, dtype=bool)
    mask[[E.index[g] for g in generator_maps(M)]] = True
    closed = np.flatnonzero(_subset_closure(mask, E.hemiring.add))
    return EndoSemiring(M, [E.maps[i] for i in closed], name=f"F_{M.name or M.order}")


def e_ab_absorb(M: FiniteSemilattice, a: int, f: Endo) -> int:
    """The element c with e_{a,b} o f = e_{c,b} for every b.

    c is the join of every x with f(x) <= a; the identity is re-checked
    pointwise before returning.  An a or image of f that is not an element,
    or an f of another length, raises ``ValueError``.
    """
    a = _element(a, M.order, "element")
    if len(f) != M.order:
        raise ValueError(f"map {f!r} must have length {M.order}")
    f = tuple(_element(y, M.order, "map image") for y in f)
    c = M.join_all(x for x in range(M.order) if M.join[f[x], a] == a)
    for b in range(M.order):
        step = e_ab(M, a, b)
        if tuple(step[y] for y in f) != e_ab(M, c, b):
            raise InvariantViolation(f"absorption identity failed at a={a}, b={b}, f={f}")
    return c


def is_dense(S, M: FiniteSemilattice) -> bool:
    """True iff every e_{a,b} belongs to S (an EndoSemiring or a set of maps)."""
    maps = set(S.maps) if isinstance(S, EndoSemiring) else set(map(tuple, S))
    return all(g in maps for g in generator_maps(M))
