"""Congruence and ideal machinery for finite hemirings.

Congruences are partitions stored as least-element labels: labels[x] is
the least element rep(x) of x's block.  The principal congruence closure
is the dominant cost of the package.  The partition is generated by the
pairs x ~ rep(x), so a pass compares the table rows of the
non-representatives only with the rows of their representatives, through
addition and both sides of multiplication, and merges every mismatch at
once with one vectorized union-find; passes repeat until no merge fires.
Deciding congruence-simpleness needs only principal congruences, since any
congruence above the diagonal contains a principal one; pairs are visited
in lexicographic order of a sweep order (zero first, then by descending
count of distinct sums x + c), so every earlier pair is already known to
generate the universal congruence.  Any total order keeps that sound; this
one, an isomorphism invariant, leaves far fewer pairs to close.  Cg(a, b)
contains Cg(p, q) for every image {p, q} of {a, b} under a translation
x -> x + c, x * c or c * x, so an earlier-witness pre-pass settles in one
numpy pass per row every pair with a non-diagonal earlier image; only the
remaining pairs run a closure, and it stops as soon as it identifies an
earlier pair.  The ideal-simpleness decider does the same over elements in
the sweep order: x is settled when some r * x or x * r is a nonzero
element before x.  Both lattices are enumerated by one walk from the
bottom element: one pass over the principal congruences or ideals, in the
order the lattice is returned in, joins each with every element found so
far, and stops with ``SizeGuardExceeded`` past ``LATTICE_BOUND`` elements.
"""

from __future__ import annotations

import numpy as np

from .core import FiniteHemiring, SizeGuardExceeded, _subset_closure, is_aic
from .lattices import EndoSemiring

__all__ = [
    "Congruence",
    "IdealSubset",
    "aic_max_ideal",
    "all_congruences",
    "all_ideals",
    "bourne_congruence",
    "generated_ideal",
    "ideal_violation",
    "is_congruence",
    "is_congruence_simple",
    "is_ideal_simple",
    "is_simple",
    "is_subtractive",
    "principal_congruence",
    "radical_left",
    "tau_congruence",
]

CONGRUENCE_LATTICE_BOUND = 40
LATTICE_BOUND = 200000
RADICAL_BOUND = 24


class Congruence:
    """A partition of 0..n-1 compatible with both hemiring operations.

    ``labels[x]`` is the least element of x's block, so x ~ labels[x]
    generates the partition and the blocks are numbered by their least
    elements.  Other integer labels are renamed; non-integers raise.
    """

    __slots__ = ("labels",)

    def __init__(self, labels):
        arr = np.asarray(labels)
        if arr.ndim != 1 or arr.dtype.kind not in "iu":
            raise ValueError(f"congruence labels must be a 1-D integer sequence, not {arr!r}")
        least: dict[int, int] = {}
        self.labels = tuple(least.setdefault(v, x) for x, v in enumerate(arr.tolist()))

    @classmethod
    def diagonal(cls, n: int) -> "Congruence":
        return cls(range(n))

    @classmethod
    def universal(cls, n: int) -> "Congruence":
        return cls([0] * n)

    @property
    def order(self) -> int:
        return len(self.labels)

    @property
    def num_blocks(self) -> int:
        return sum(x == l for x, l in enumerate(self.labels))

    @property
    def is_diagonal(self) -> bool:
        return self.num_blocks == self.order

    @property
    def is_universal(self) -> bool:
        return not any(self.labels)

    def same(self, a: int, b: int) -> bool:
        return self.labels[a] == self.labels[b]

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        by: dict[int, list[int]] = {}
        for x, l in enumerate(self.labels):
            by.setdefault(l, []).append(x)
        return tuple(map(tuple, by.values()))

    def refines(self, other: "Congruence") -> bool:
        """Every block of self lies inside a block of other."""
        o = other.labels
        return all(o[x] == o[l] for x, l in enumerate(self.labels))

    def join(self, other: "Congruence") -> "Congruence":
        """Smallest partition containing both (transitive closure of union)."""
        return Congruence(_merge(np.array(self.labels), np.arange(self.order),
                                 np.array(other.labels)))

    def __eq__(self, other):
        return isinstance(other, Congruence) and self.labels == other.labels

    def __hash__(self):
        return hash(self.labels)

    def __repr__(self):
        return f"Congruence(blocks={self.num_blocks}/{self.order})"


def _tables(R: FiniteHemiring) -> tuple[np.ndarray, ...]:
    # add is symmetric; mul needs both argument slots
    return (R.add, R.mul, np.ascontiguousarray(R.mul.T))


def _merge(labels: np.ndarray, xs, ys) -> np.ndarray:
    """Least-element labels of the finest partition above ``labels`` that
    also identifies ``xs[i]`` with ``ys[i]`` for every i.

    A vectorized union-find: every root hooks onto the least root it must
    join, then parents are pointer-jumped to roots; repeated until every
    pair shares a root.  Roots only ever hook onto smaller roots, so each
    root is the least element of its block.
    """
    parent = labels.copy()
    while True:
        rx, ry = parent[xs], parent[ys]
        live = rx != ry
        if not live.any():
            return parent
        np.minimum.at(parent, np.maximum(rx, ry)[live], np.minimum(rx, ry)[live])
        while True:
            jumped = parent[parent]
            if (jumped == parent).all():
                break
            parent = jumped


def _compat_closure(tables, labels: np.ndarray):
    """Climb from the least-element ``labels`` to the smallest partition
    above it compatible with ``tables`` (those of ``_tables``), yielding the
    labels after every merge.

    The partition is generated by the pairs x ~ rep(x), so compatibility
    needs only the rows of non-representatives: T[x, c] ~ T[rep(x), c].
    The last labels yielded are the closure; a caller that can decide
    early stops iterating.
    """
    ids = np.arange(labels.size)
    while True:
        changed = False
        for T in tables:
            rows = np.flatnonzero(labels != ids)
            a = labels[T[rows]]
            b = labels[T[labels[rows]]]
            bad = a != b
            if bad.any():
                labels = _merge(labels, a[bad], b[bad])
                changed = True
                yield labels
        if not changed:
            return


def _closure(tables, xs, ys) -> Congruence:
    """Smallest partition identifying ``xs[i]`` with ``ys[i]`` for every i
    and compatible with ``tables`` (those of ``_tables``)."""
    labels = _merge(np.arange(tables[0].shape[0]), xs, ys)
    for labels in _compat_closure(tables, labels):
        pass
    return Congruence(labels)


def principal_congruence(R: FiniteHemiring, a: int, b: int) -> Congruence:
    """Smallest congruence identifying a and b."""
    return _closure(_tables(R), [a], [b])


def is_congruence(R: FiniteHemiring, part: Congruence) -> bool:
    """Check compatibility of a partition with both operations."""
    labels = np.array(part.labels)
    for T in _tables(R):
        if (labels[T] != labels[T[labels]]).any():
            return False
    return True


def _sweep_order(R: FiniteHemiring) -> tuple[np.ndarray, np.ndarray]:
    """The order in which the simpleness deciders visit elements, and its
    inverse: ``order[i]`` is the i-th element and ``rank[x]`` its place.

    ``R.zero`` first, then the elements by descending count of distinct
    sums |{x + c : c in R}|, ties by index.  For additively idempotent R
    the count is |up-set of x|, so the lowest elements come first.  The key
    is an isomorphism invariant, so relabelled copies of an input are swept
    alike up to ties, and it costs one sort of the addition table.
    """
    n = R.order
    ids = np.arange(n)
    sums = np.sort(R.add, axis=1)
    distinct = 1 + (sums[:, 1:] != sums[:, :-1]).sum(axis=1)
    order = np.lexsort((ids, -distinct, ids != R.zero))
    rank = np.empty(n, dtype=np.intp)
    rank[order] = ids
    return order, rank


def is_congruence_simple(R: FiniteHemiring) -> bool:
    """Only the diagonal and universal congruences exist.

    Sound and complete via principal congruences only: a congruence above
    the diagonal contains (a, b) for some a != b, hence the principal
    congruence of that pair.

    The tables are first relabelled through ``_sweep_order``, and pairs
    are visited in lexicographic order of the new labels, so every earlier
    pair is known to generate the universal congruence (else the decider
    would have returned False).  Any total order of the pairs keeps that
    induction sound; the sweep order only decides how many closures run
    (777 in index order, 93 in sweep order, over one round of the
    ``classify`` benchmark).  Cg(a, b) contains Cg(p, q) for every image
    {p, q} of {a, b} under x -> x + c, x * c and c * x, so before any
    closure runs, one numpy pass per row a settles every pair (a, b) with
    a non-diagonal image that comes earlier.  Only the unsettled pairs run
    a closure, and it stops as soon as it identifies an earlier pair, that
    is, as soon as a non-representative x has (rep(x), x) before (a, b).
    """
    n = R.order
    ids = np.arange(n)
    order, rank = _sweep_order(R)
    cells = np.ix_(order, order)
    tables = tuple(rank[T[cells]] for T in _tables(R))
    # row x: x + c, x * c, c * x; the pre-pass scans O(n^3) cells, so it
    # runs in the narrowest dtype that holds n
    narrow = np.min_scalar_type(n)
    rows = np.concatenate(tables, axis=1).astype(narrow)
    later = ids.astype(narrow)[:, None]
    for a in range(n - 1):
        bs = ids[a + 1:]
        lo = np.minimum(rows[a], rows[a + 1:])
        hi = np.maximum(rows[a], rows[a + 1:])
        earlier = (lo < a) | ((lo == a) & (hi < later[a + 1:]))
        settled = ((lo != hi) & earlier).any(axis=1)
        for b in bs[~settled]:
            labels = ids.copy()
            labels[b] = a
            for labels in _compat_closure(tables, labels):
                if ((labels * n + ids < a * n + b) & (labels != ids)).any():
                    break
            else:
                if labels.any():
                    return False
    return True


def _join_closure(bottom, principals, join, key, kind: str) -> list:
    """Every join of ``bottom`` with a subset of ``principals``, sorted by
    ``key``: the whole lattice when each element is a join of principal ones.

    One pass over the principals in ``key`` order: after the k-th, ``found``
    holds the joins of ``bottom`` with subsets of the first k (Freese 2008).
    The bound is checked after each principal, so one union can take
    ``found`` to twice ``LATTICE_BOUND`` before ``SizeGuardExceeded``.
    """
    found = {bottom}
    for p in sorted(principals, key=key):
        found |= {join(c, p) for c in found}
        if len(found) > LATTICE_BOUND:
            raise SizeGuardExceeded(f"{kind} lattice enumeration bounded at "
                                     f"{LATTICE_BOUND} {kind}s")
    return sorted(found, key=key)


def all_congruences(R: FiniteHemiring, max_order: int = CONGRUENCE_LATTICE_BOUND) -> list[Congruence]:
    """The full congruence lattice, as joins of principal congruences."""
    n = R.order
    if n > max_order:
        raise SizeGuardExceeded(f"congruence lattice enumeration is bounded at order "
                                 f"{max_order}; asked for {n}")
    tables = _tables(R)
    principals = {_closure(tables, [a], [b]) for a in range(n) for b in range(a + 1, n)}
    return _join_closure(Congruence.diagonal(n), principals, Congruence.join,
                         lambda c: c.labels, "congruence")


class IdealSubset:
    """A subset closed under addition and the declared outer multiplications."""

    __slots__ = ("members", "sidedness", "order")

    def __init__(self, members, sidedness: str, order: int):
        if sidedness not in ("left", "right", "two-sided"):
            raise ValueError(f"bad sidedness {sidedness!r}")
        self.members = frozenset(int(x) for x in members)
        self.sidedness = sidedness
        self.order = order

    @property
    def is_zero(self) -> bool:
        return len(self.members) == 1

    @property
    def is_full(self) -> bool:
        return len(self.members) == self.order

    def mask(self) -> np.ndarray:
        m = np.zeros(self.order, dtype=bool)
        m[list(self.members)] = True
        return m

    def __contains__(self, x: int) -> bool:
        return int(x) in self.members

    def __le__(self, other: "IdealSubset") -> bool:
        return self.members <= other.members

    def __eq__(self, other):
        return (isinstance(other, IdealSubset) and self.members == other.members
                and self.sidedness == other.sidedness)

    def __hash__(self):
        return hash((self.members, self.sidedness))

    def __repr__(self):
        return f"IdealSubset({sorted(self.members)}, {self.sidedness})"


def ideal_violation(R: FiniteHemiring, members, sidedness: str):
    """None if members form an ideal of the declared sidedness, else a reason."""
    mem = frozenset(int(x) for x in members)
    if R.zero not in mem:
        return ("missing-zero", R.zero)
    lst = sorted(mem)
    for x in lst:
        for y in lst:
            if int(R.add[x, y]) not in mem:
                return ("add", (x, y))
    for x in lst:
        for r in range(R.order):
            if sidedness in ("left", "two-sided") and int(R.mul[r, x]) not in mem:
                return ("left-mul", (r, x))
            if sidedness in ("right", "two-sided") and int(R.mul[x, r]) not in mem:
                return ("right-mul", (x, r))
    return None


def generated_ideal(R: FiniteHemiring, seed, sidedness: str = "two-sided") -> IdealSubset:
    """The least ideal containing ``seed``: the ``_subset_closure`` of seed
    and zero under + and the outer products r * x (left), x * r (right) or
    both.  A seed entry that is not an int in [0, R.order) raises
    ``ValueError`` rather than being truncated or wrapped."""
    n = R.order
    mask = np.zeros(n, dtype=bool)
    mask[R.zero] = True
    for x in seed:
        if isinstance(x, bool) or not isinstance(x, (int, np.integer)) or not 0 <= x < n:
            raise ValueError(f"seed entry {x!r} is not an element index in [0, {n})")
        mask[x] = True
    outer = {"left": (R.mul,), "right": (R.mul.T,), "two-sided": (R.mul, R.mul.T)}
    mask = _subset_closure(mask, R.add, outer.get(sidedness, ()))
    return IdealSubset(np.flatnonzero(mask), sidedness, n)


def all_ideals(R: FiniteHemiring, sidedness: str = "two-sided",
               max_order: int = CONGRUENCE_LATTICE_BOUND) -> list[IdealSubset]:
    """Every ideal, as sums I + J = {i + j} of {0} and principal ideals <x>.

    Every ideal I is the sum of {0} and the <x> with x nonzero in I.  I + J
    is already an ideal, by commutativity of + and distributivity, and
    I + J = I when J is inside I.
    """
    n = R.order
    if n > max_order:
        raise SizeGuardExceeded(f"ideal enumeration is bounded at order {max_order}; "
                                 f"asked for {n}")

    def plus(I: IdealSubset, J: IdealSubset) -> IdealSubset:
        if J <= I:
            return I
        sums = R.add[sorted(I.members)][:, sorted(J.members)]
        return IdealSubset(sums.ravel().tolist(), sidedness, n)

    principals = {generated_ideal(R, [x], sidedness) for x in range(n) if x != R.zero}
    return _join_closure(IdealSubset([R.zero], sidedness, n), principals, plus,
                         lambda I: (len(I.members), sorted(I.members)), "ideal")


def is_ideal_simple(R: FiniteHemiring) -> bool:
    """{0} and R are the only two-sided ideals.

    This is the literal definition: the trivial and zero-multiplication
    algebras pass it; callers that need a stronger reading check
    ``has_zero_multiplication`` separately.

    Nonzero x are visited in ``_sweep_order``, so every earlier nonzero y
    is known to generate R; any total order keeps that induction sound,
    and this one builds 86 generated ideals over one round of the
    ``classify`` benchmark where index order builds 160.  <x> contains
    r * x and x * r, so one numpy pass settles every x with such a product
    nonzero and before x; only the other x build their generated ideal.
    """
    order, rank = _sweep_order(R)
    rows = rank[np.concatenate([R.mul.T, R.mul], axis=1)]   # row x: r * x, x * r
    settled = ((rows != 0) & (rows < rank[:, None])).any(axis=1)
    for x in order[1:]:
        if not settled[x] and not generated_ideal(R, [x], "two-sided").is_full:
            return False
    return True


def is_simple(R: FiniteHemiring) -> bool:
    """Simultaneously congruence-simple and ideal-simple."""
    return is_ideal_simple(R) and is_congruence_simple(R)


def bourne_congruence(R: FiniteHemiring, I: IdealSubset) -> Congruence:
    """x = y iff x + a = y + b for some a, b in I, transitively closed.

    The closure is the equivalence generated by the pairs x ~ x + a for a in
    I (x + a = y + b links x to y through that sum), computed as one merge
    and validated as a congruence (always succeeds for a two-sided ideal).
    """
    bad = ideal_violation(R, I.members, I.sidedness)
    if bad is not None:
        raise ValueError(f"not a validated ideal: {bad}")
    n = R.order
    idx = sorted(I.members)
    ids = np.arange(n)
    cong = Congruence(_merge(ids, np.repeat(ids, len(idx)), R.add[:, idx].ravel()))
    if not is_congruence(R, cong):
        raise ValueError("Bourne relation did not close to a congruence")
    return cong


def is_subtractive(R: FiniteHemiring, I: IdealSubset) -> bool:
    """x + y in I and y in I imply x in I."""
    mask = I.mask()
    idx = sorted(I.members)
    sums_in = mask[R.add[:, idx]]            # [x, j] : x + y_j in I
    return not (sums_in.any(axis=1) & ~mask).any()


def tau_congruence(E: EndoSemiring) -> Congruence:
    """f ~ g iff some a has f(x) v a = g(x) v a for all x; validated.

    Always transitive (witnesses compose by joining), and universal whenever
    the underlying semilattice has a top.
    """
    M = E.lattice
    arr = np.array(E.maps, dtype=np.int32)
    k = arr.shape[0]
    firsts = []
    for a in range(M.order):
        shifted = M.join[arr, a]             # [i, x] -> f_i(x) v a
        _, first, group = np.unique(shifted, axis=0, return_index=True,
                                    return_inverse=True)
        firsts.append(first[group.ravel()])
    ids = np.arange(k)
    cong = Congruence(_merge(ids, np.tile(ids, M.order), np.concatenate(firsts)))
    if not is_congruence(E.hemiring, cong):
        raise ValueError("tau relation is not a congruence")
    return cong


def radical_left(R: FiniteHemiring, max_order: int = RADICAL_BOUND) -> IdealSubset:
    """Intersection of the maximal proper left subsemimodules of _R R.

    Brute-force over the left ideals; if no proper one exists the radical
    is all of R.
    """
    n = R.order
    subs = [I.members for I in all_ideals(R, "left", max_order) if not I.is_full]
    maximal = [S for S in subs
               if not any(S < T for T in subs)]
    if not maximal:
        return IdealSubset(range(n), "left", n)
    members = frozenset.intersection(*maximal)
    return IdealSubset(members, "left", n)


def aic_max_ideal(R: FiniteHemiring) -> IdealSubset:
    """{a : ra != 1 for every r}; for a chain semiring this is the unique
    maximal left ideal and equals the radical."""
    if R.one is None:
        raise ValueError("requires a multiplicative identity")
    if not is_aic(R):
        raise ValueError("requires an additively idempotent chain semiring")
    solvable = (R.mul == R.one).any(axis=0)   # exists r with r*a = 1
    members = np.flatnonzero(~solvable)
    bad = ideal_violation(R, members, "left")
    if bad is not None:
        raise ValueError(f"J is not a left ideal: {bad}")
    return IdealSubset(members, "left", R.order)
