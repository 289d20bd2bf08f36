"""Congruence and ideal machinery for finite hemirings.

Congruences are partitions stored as least-element labels: labels[x] is
the least element of x's block.  The principal congruence closure
(``_compat_closure``) is the dominant cost of the package; the simpleness
deciders visit elements in ``_sweep_order`` and close only what an
earlier element does not settle.

Both lattices are one walk from the bottom element over the principal
congruences or ideals (``_join_closure``).  On additively idempotent R,
with x <= y iff x + y = y, Cg(a, b) = Cg(a, a + b) v Cg(b, a + b), and
Cg(x, z) = Cg(x, y) v Cg(y, z) for x <= y <= z, so the congruence walk
needs only the covering pairs of that order; on other R, every pair.
``CLOSURE_BUDGET`` bounds (closures) x n^2 table cells, checked by the lattice
walks before any closure runs and by the simpleness deciders before each
one; ``LATTICE_BOUND`` bounds the elements found.
"""

from __future__ import annotations

import numpy as np

from .core import FiniteHemiring, HomMap, SizeGuardExceeded, _classes, _element, _memoised, \
    _slab, _subset_closure, hom_search, is_aic, is_additively_idempotent, natural_order
from .lattices import EndoSemiring

__all__ = [
    "Congruence",
    "IdealSubset",
    "aic_max_ideal",
    "all_congruences",
    "all_ideals",
    "bourne_congruence",
    "generated_ideal",
    "is_congruence",
    "is_congruence_simple",
    "is_ideal_simple",
    "is_simple",
    "is_subtractive",
    "principal_congruence",
    "radical_left",
    "strong_semiisomorphism_search",
    "tau_congruence",
]

CLOSURE_BUDGET = 10**8      # table cells: closures to run x n^2
LATTICE_BOUND = 200000
_PHASE1_WIDTH = 8           # sweep-order columns c the first pre-pass reads


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
        self.labels = tuple(_classes(arr[:, None])[1].tolist())

    @classmethod
    def _least(cls, labels: np.ndarray) -> "Congruence":
        """From least-element labels, such as ``_merge``'s, without the rename."""
        cong = cls.__new__(cls)
        cong.labels = tuple(labels.tolist())
        return cong

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
        n = self.order
        return self.labels[_element(a, n, "element")] == self.labels[_element(b, n, "element")]

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
        return Congruence._least(_merge(np.array(self.labels), np.arange(self.order),
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
    labels after every round's merge.

    The partition is generated by the pairs x ~ rep(x), so compatibility
    needs only the rows of non-representatives: T[x, c] ~ T[rep(x), c].
    Each round reads, in all three tables, only the rows of the elements
    that stopped being representatives in the last merge (at first, of
    every non-representative), and merges every bad pair it finds at
    once.  A row once read stays compatible: coarsening keeps T[x, c] ~
    T[r, c], and if x's representative r is later replaced by r', then r
    has itself become a non-representative, and its row gives T[r, c] ~
    T[r', c].  The last labels yielded are the closure; a caller that can
    decide early stops iterating, and one whose test only turns true as the
    partition coarsens gets the same answer as from the closure alone.
    """
    ids = np.arange(labels.size)
    rows = np.flatnonzero(labels != ids)
    while rows.size:
        reps = labels[rows]
        xs, ys = [], []
        for T in tables:
            a = labels[T.take(rows, 0)]
            b = labels[T.take(reps, 0)]
            bad = a != b
            xs.append(a[bad])
            ys.append(b[bad])
        xs, ys = np.concatenate(xs), np.concatenate(ys)
        if not xs.size:
            return
        merged = _merge(labels, xs, ys)
        rows = np.flatnonzero((merged != ids) & (labels == ids))
        labels = merged
        yield labels


def _closure(tables, xs, ys) -> Congruence:
    """Smallest partition identifying ``xs[i]`` with ``ys[i]`` for every i
    and compatible with ``tables`` (those of ``_tables``)."""
    labels = _merge(np.arange(tables[0].shape[0]), xs, ys)
    for labels in _compat_closure(tables, labels):
        pass
    return Congruence._least(labels)


def principal_congruence(R: FiniteHemiring, a: int, b: int) -> Congruence:
    """Smallest congruence identifying a and b; an a or b that is not an
    int in [0, R.order) raises ``ValueError`` rather than being wrapped."""
    n = R.order
    return _closure(_tables(R), [_element(a, n, "pair entry")], [_element(b, n, "pair entry")])


def is_congruence(R: FiniteHemiring, part: Congruence) -> bool:
    """Check compatibility of a partition with both operations: a partition
    is a congruence iff the first ``_compat_closure`` round merges nothing."""
    if part.order != R.order:
        raise ValueError(f"a partition of {part.order} elements on an algebra of order {R.order}")
    return next(_compat_closure(_tables(R), np.array(part.labels)), None) is None


@_memoised("sweep_order")
def _sweep_order(R: FiniteHemiring) -> tuple[np.ndarray, np.ndarray]:
    """The order in which the simpleness deciders visit elements, and its
    inverse: ``order[i]`` is the i-th element and ``rank[x]`` its place.

    ``R.zero`` first, then the elements by descending count of distinct
    sums |{x + c : c in R}|, ties by index.  For additively idempotent R
    the count is |up-set of x|, so the lowest elements come first.  The key
    is an isomorphism invariant, so relabelled copies of an input are swept
    alike up to ties, and it costs one sort of the addition table, memoised
    on R with both arrays read-only.
    """
    n = R.order
    ids = np.arange(n)
    sums = np.sort(R.add, axis=1)
    distinct = 1 + (sums[:, 1:] != sums[:, :-1]).sum(axis=1)
    order = np.lexsort((ids, -distinct, ids != R.zero))
    rank = np.empty(n, dtype=np.intp)
    rank[order] = ids
    order.flags.writeable = rank.flags.writeable = False
    return order, rank


def _settled(lo, hi, a, b):
    """Whether some image {lo[i], hi[i]} (lo <= hi, images on the first
    axis) of the pair (a, b) is a pair of distinct elements before (a, b)
    in lexicographic order; one answer per pair on the other axis."""
    return ((lo != hi) & ((lo < a) | ((lo == a) & (hi < b)))).any(axis=0)


def _unsettled_pairs(tables):
    """The pairs (a, b), a < b, in lexicographic order, that no image
    {a + c, b + c}, {a * c, b * c} or {c * a, c * b} maps onto an earlier
    pair of distinct elements; lazily, so an early exit stops the scan.

    The tables are relabelled so that 0 is the zero, whose images x + 0 = x
    and x * 0 = 0 * x = 0 settle nothing.  The first pass reads the images
    under c = 1 .. k, k = ``_PHASE1_WIDTH``, for a slab of ``_slab(3 * k)``
    pairs at a time.  It settles almost every pair.  The second reads the
    images under the other c, one pair at a time, of the pairs the first
    leaves.
    """
    n = tables[0].shape[0]
    if n < 2:
        return
    yield 0, 1      # no pair comes before the first
    narrow = np.min_scalar_type(n)      # the scans read O(n^3) cells
    k = min(n - 1, _PHASE1_WIDTH)
    # x + c, x * c, c * x: for c <= k in column x, for c > k in row x
    cols = np.concatenate([T[:, 1:k + 1].T for T in tables]).astype(narrow)
    rows = np.concatenate([T[:, k + 1:] for T in tables], axis=1).astype(narrow)
    ids = np.arange(n)
    starts = ids * (2 * n - 1 - ids) // 2                    # pairs before row a
    pairs, size = n * (n - 1) // 2, _slab(3 * k)
    for done in range(1, pairs, size):
        slab = np.arange(done, min(done + size, pairs))
        firsts = np.searchsorted(starts, slab, side="right") - 1
        seconds = slab - starts[firsts] + firsts + 1
        x, y = cols.take(firsts, axis=1), cols.take(seconds, axis=1)
        settled = _settled(np.minimum(x, y), np.maximum(x, y),
                           firsts.astype(narrow), seconds.astype(narrow))
        for a, b in zip(firsts[~settled].tolist(), seconds[~settled].tolist()):
            x, y = rows[a], rows[b]
            # below order k + 2 the first pass read every image
            if k == n - 1 or not _settled(np.minimum(x, y), np.maximum(x, y), a, b):
                yield a, b


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
    {p, q} of {a, b} under x -> x + c, x * c and c * x, so a pair with a
    non-diagonal image that comes earlier is settled without a closure.
    That test runs in two passes (``_unsettled_pairs``): the first reads
    the images under the first few elements c of the sweep order, for a
    slab of pairs at a time, and settles almost every pair; the second
    reads the other images of each pair the first leaves.  Only the pairs
    both leave run a closure, and it stops as soon as its labels are
    universal or it identifies an earlier pair, that is, a
    non-representative x with (rep(x), x) before (a, b).  The k-th closure
    is charged k x n^2 cells against ``CLOSURE_BUDGET`` before it starts.
    """
    n = R.order
    _check_closure_budget(1, n, "congruence-simple decision")
    ids = np.arange(n)
    order, rank = _sweep_order(R)
    add, mul = (rank.take(T.take(order, 0).take(order, 1)) for T in (R.add, R.mul))
    tables = add, mul, np.ascontiguousarray(mul.T)      # as _tables, relabelled
    for k, (a, b) in enumerate(_unsettled_pairs(tables), 1):
        _check_closure_budget(k, n, "congruence-simple decision")
        labels = ids.copy()
        labels[b] = a
        for labels in _compat_closure(tables, labels):
            if not labels.any() or ((labels * n + ids < a * n + b) & (labels != ids)).any():
                break
        else:
            if labels.any():
                return False
    return True


def _check_closure_budget(closures: int, n: int, work: str) -> None:
    """Refuse ``work`` (a noun phrase for the message) once its closures
    would read more than ``CLOSURE_BUDGET`` table cells."""
    if (cells := closures * n * n) > CLOSURE_BUDGET:
        raise SizeGuardExceeded(f"{work} is bounded at CLOSURE_BUDGET = "
                                 f"{CLOSURE_BUDGET} table cells; asked for {cells} "
                                 f"({closures} closures at order {n})")


def _join_closure(bottom, principal, seeds, join, key, kind: str) -> list:
    """Every join of ``bottom`` with a subset of the principal elements
    ``principal(s)``, s in ``seeds``, sorted by ``key``: the whole lattice
    when each element is a join of principal ones.

    Callers check ``_check_closure_budget`` for the ``principal`` calls
    (closures over n x n tables) first.  After the k-th principal
    in ``key`` order, ``found`` holds the joins of ``bottom`` with subsets
    of the first k (Freese 2008); one union can take it to twice
    ``LATTICE_BOUND`` before ``SizeGuardExceeded``.
    """
    found = {bottom}
    for p in sorted({principal(s) for s in seeds}, key=key):
        found |= {join(c, p) for c in found}
        if len(found) > LATTICE_BOUND:
            raise SizeGuardExceeded(f"{kind} lattice enumeration bounded at "
                                     f"{LATTICE_BOUND} {kind}s")
    return sorted(found, key=key)


def _covers(lt: np.ndarray) -> np.ndarray:
    """The covering pairs of the strict order ``lt`` (lt[x, y] iff x < y):
    the x < y with no z such that x < z < y, one row x at a time, without a
    matrix product (whose BLAS threads cost more than the product here)."""
    return np.array([row & ~lt[row].any(axis=0) for row in lt])


def all_congruences(R: FiniteHemiring) -> list[Congruence]:
    """The congruence lattice, from the covering pairs on additively idempotent R.

    Within ``CLOSURE_BUDGET``, a congruence-simple R returns its two
    congruences without a walk."""
    n = R.order
    pairs = np.triu(np.ones((n, n), dtype=bool), 1)
    if is_additively_idempotent(R):
        pairs = _covers(natural_order(R).leq & ~np.eye(n, dtype=bool))
    tables = _tables(R)
    seeds = np.argwhere(pairs).tolist()
    _check_closure_budget(len(seeds), n, "congruence lattice enumeration")
    if is_congruence_simple(R):
        return sorted({Congruence.diagonal(n), Congruence.universal(n)}, key=lambda c: c.labels)
    return _join_closure(Congruence.diagonal(n), lambda ab: _closure(tables, ab[:1], ab[1:]),
                         seeds, Congruence.join, lambda c: c.labels, "congruence")


class IdealSubset:
    """A subset closed under addition and the declared outer multiplications."""

    __slots__ = ("members", "sidedness", "order")

    def __init__(self, members, sidedness: str, order: int):
        if sidedness not in ("left", "right", "two-sided"):
            raise ValueError(f"bad sidedness {sidedness!r}")
        # in-range ints skip the call, which would cost all_ideals about 40%
        self.members = frozenset(x if type(x) is int and 0 <= x < order
                                 else _element(x, order, "ideal member") for x in members)
        self.sidedness, self.order = sidedness, order

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
        return _element(x, self.order, "element") in self.members

    def __le__(self, other: "IdealSubset") -> bool:
        return self.members <= other.members

    def __eq__(self, other):
        return (isinstance(other, IdealSubset) and self.members == other.members
                and self.sidedness == other.sidedness)

    def __hash__(self):
        return hash((self.members, self.sidedness))

    def __repr__(self):
        return f"IdealSubset({sorted(self.members)}, {self.sidedness})"


def generated_ideal(R: FiniteHemiring, seed, sidedness: str = "two-sided") -> IdealSubset:
    """The least ideal containing ``seed``: the ``_subset_closure`` of seed
    and zero under + and the outer products r * x (left), x * r (right) or
    both.  A set is an ideal iff it is the ideal it generates; on such a
    set the closure stops after one round.  A seed entry that is not an int
    in [0, R.order) raises ``ValueError`` rather than being truncated or
    wrapped, and so does an unknown sidedness, before anything is closed."""
    n = R.order
    outer = {"left": (R.mul,), "right": (R.mul.T,), "two-sided": (R.mul, R.mul.T)}
    if sidedness not in outer:
        raise ValueError(f"bad sidedness {sidedness!r}")
    mask = np.zeros(n, dtype=bool)
    mask[R.zero] = True
    for x in seed:
        mask[_element(x, n, "seed entry")] = True
    mask = _subset_closure(mask, R.add, outer[sidedness])
    return IdealSubset(np.flatnonzero(mask).tolist(), sidedness, n)


def all_ideals(R: FiniteHemiring, sidedness: str = "two-sided") -> list[IdealSubset]:
    """Every ideal, as sums I + J = {i + j} of {0} and principal ideals <x>.

    Every ideal I is the sum of {0} and the <x> with x nonzero in I.  I + J
    is already an ideal, by commutativity of + and distributivity, and
    I + J = I when J is inside I.
    """
    n = R.order

    def plus(I: IdealSubset, J: IdealSubset) -> IdealSubset:
        if J <= I:
            return I
        sums = R.add[sorted(I.members)][:, sorted(J.members)]
        return IdealSubset(sums.ravel().tolist(), sidedness, n)

    _check_closure_budget(n - 1, n, "ideal lattice enumeration")
    return _join_closure(IdealSubset([R.zero], sidedness, n),
                         lambda x: generated_ideal(R, [x], sidedness),
                         [x for x in range(n) if x != R.zero], plus,
                         lambda I: (len(I.members), sorted(I.members)), "ideal")


def strong_semiisomorphism_search(R: FiniteHemiring, S: FiniteHemiring) -> HomMap | None:
    """A surjective hom R -> S with kernel {0} mapping proper ideals to
    proper ideals, or None."""
    unital = R.one is not None and S.one is not None
    ideals = [I for I in all_ideals(R, "two-sided") if len(I.members) < R.order]
    for hom in hom_search(R, S, surjective=True, unital=unital):
        if hom.kernel() != frozenset({R.zero}):
            continue
        ok = True
        for I in ideals:
            if {hom.map[x] for x in I.members} == set(range(S.order)):
                ok = False
                break
        if ok:
            return hom
    return None


def is_ideal_simple(R: FiniteHemiring) -> bool:
    """{0} and R are the only two-sided ideals.

    This is the literal definition: the trivial and zero-multiplication
    algebras pass it; callers that need a stronger reading check
    ``has_zero_multiplication`` separately.

    Nonzero x are visited in ``_sweep_order``, so every earlier nonzero y
    is known to generate R; any total order keeps that induction sound,
    and this one builds 86 generated ideals over one round of the
    ``classify`` benchmark where index order builds 160.  <x> contains
    r * x, x * r and x + x, so one numpy pass settles every x with such an
    element nonzero and before x; only the other x build their generated
    ideal, the k-th charged k x n^2 cells against ``CLOSURE_BUDGET`` first.
    On Z_127 with zero multiplication that leaves 63 of the 126.
    """
    _check_closure_budget(1, R.order, "ideal-simple decision")
    order, rank = _sweep_order(R)
    # row x: r * x, x * r, x + x
    rows = rank[np.concatenate([R.mul.T, R.mul, R.add.diagonal()[:, None]], axis=1)]
    settled = ((rows != 0) & (rows < rank[:, None])).any(axis=1)
    pending = [x for x in order[1:].tolist() if not settled[x]]
    for k, x in enumerate(pending, 1):
        _check_closure_budget(k, R.order, "ideal-simple decision")
        if not generated_ideal(R, [x], "two-sided").is_full:
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
    if extra := generated_ideal(R, I.members, I.sidedness).members - I.members:
        raise ValueError(f"not a validated ideal: its closure adds {min(extra)}")
    n = R.order
    idx = sorted(I.members)
    ids = np.arange(n)
    cong = Congruence._least(_merge(ids, np.repeat(ids, len(idx)), R.add[:, idx].ravel()))
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
    firsts = [_classes(M.join[arr, a])[1] for a in range(M.order)]   # [i, x] -> f_i(x) v a
    ids = np.arange(len(arr))
    cong = Congruence._least(_merge(ids, np.tile(ids, M.order), np.concatenate(firsts)))
    if not is_congruence(E.hemiring, cong):
        raise ValueError("tau relation is not a congruence")
    return cong


def radical_left(R: FiniteHemiring) -> IdealSubset:
    """Intersection of the maximal proper left subsemimodules of _R R.

    Visited largest first, a proper left ideal in no maximal one kept so
    far is maximal; if no proper one exists the radical is all of R.
    """
    n = R.order
    maximal = []
    for I in reversed(all_ideals(R, "left")[:-1]):     # the last one is R
        if not any(I.members <= S for S in maximal):
            maximal.append(I.members)
    return IdealSubset(frozenset(range(n)).intersection(*maximal), "left", n)


def aic_max_ideal(R: FiniteHemiring) -> IdealSubset:
    """{a : ra != 1 for every r}; for a chain semiring this is the unique
    maximal left ideal and equals the radical."""
    if R.one is None:
        raise ValueError("requires a multiplicative identity")
    if not is_aic(R):
        raise ValueError("requires an additively idempotent chain semiring")
    solvable = (R.mul == R.one).any(axis=0)   # exists r with r*a = 1
    members = np.flatnonzero(~solvable).tolist()
    J = generated_ideal(R, members, "left")
    if extra := J.members.difference(members):
        raise ValueError(f"J is not a left ideal: its closure adds {min(extra)}")
    return J
