"""Finite hemirings and semirings given by explicit operation tables.

Elements are dense integer indices 0..n-1; both operations are n x n
lookup tables (numpy arrays), so every structural question reduces to
exhaustive table scans.  All values are immutable after construction and
every operation here is a pure function.

Every witness of a failing three-variable law (associativity,
distributivity, and the laws of a semimodule action) comes from one
kernel, ``_law_witness``: a law is given as its two sides over a slab of
first arguments, and the kernel scans slabs of bounded size in order and
returns the lexicographically first failing (a, b, c).  The hemiring,
semilattice, lattice-distributivity and semimodule validators are ordered
lists of such laws next to one-line table masks.

The hemiring validator first decides its four three-variable laws, yes or
no, with their arguments restricted to a generating set G of (S, +), in
O(n^2 |G|) instead of O(n^3), asking ``_law_witness`` only whether a
witness exists.  Only when one fails does it scan the whole cube, so the
witnesses are still the lexicographically first; ``check_hemiring_axioms``
gives the closure arguments that make each restriction sound.  One kernel,
``_classes``, numbers the rows of an array by class.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AxiomCheck",
    "AxiomError",
    "AxiomReport",
    "FiniteHemiring",
    "HomMap",
    "InvariantViolation",
    "PartialOrder",
    "SizeGuardExceeded",
    "as_op_table",
    "canonical_form",
    "check_hemiring_axioms",
    "fingerprint",
    "hom_search",
    "infinite_element",
    "is_additively_idempotent",
    "is_aic",
    "is_dedekind_finite",
    "is_division_semiring",
    "is_isomorphic",
    "is_lattice_ordered",
    "is_zerosumfree",
    "natural_order",
]


class SizeGuardExceeded(RuntimeError):
    """An operation was asked to run beyond its configured order bound."""


class InvariantViolation(RuntimeError):
    """A construction's result failed an identity the theory guarantees.

    Raised by the re-checks that constructions run on their own output; a
    suite reports it as a counterexample to the statement it checks.
    """


class AxiomError(ValueError):
    """Operation tables failed validation; carries the full report."""

    def __init__(self, report: "AxiomReport"):
        self.report = report
        super().__init__(report.summary())


def as_op_table(entries, order: int | None = None) -> np.ndarray:
    """Coerce ``entries`` into a read-only square index table.

    Entries must already be integers: a float table is rejected rather than
    truncated.
    """
    raw = np.asarray(entries)
    if raw.ndim != 2 or raw.shape[0] != raw.shape[1]:
        raise ValueError(f"operation table must be square, got shape {raw.shape}")
    n = raw.shape[0]
    if n == 0:
        raise ValueError("empty carrier")
    if order is not None and n != order:
        raise ValueError(f"table order {n} does not match expected order {order}")
    return _index_array(raw, n, "operation table")


def _index_array(raw: np.ndarray, bound: int, what: str) -> np.ndarray:
    """Read-only int32 copy of a non-empty integer array with entries in
    [0, bound); a float array is rejected rather than truncated."""
    if raw.dtype.kind not in "iu":
        raise ValueError(f"{what} entries must be integers, got dtype {raw.dtype}")
    if raw.min() < 0 or raw.max() >= bound:
        raise ValueError(f"{what} entry out of range [0, {bound})")
    table = np.ascontiguousarray(raw, dtype=np.int32)
    table.setflags(write=False)
    return table


def _is_integer(x) -> bool:
    """Whether ``x`` is a Python or numpy integer: a float or bool is not,
    so it is rejected rather than truncated."""
    return not isinstance(x, bool) and isinstance(x, (int, np.integer))


def _element(x, bound: int, what: str) -> int:
    """``x`` as an int if it is an element index in [0, bound): an integer
    (``_is_integer``), as ``_index_array`` asks."""
    if not _is_integer(x) or not 0 <= x < bound:
        raise ValueError(f"{what} {x!r} is not an element index in [0, {bound})")
    return int(x)


@dataclass(frozen=True)
class AxiomCheck:
    axiom: str
    ok: bool
    witness: tuple[int, ...] | None = None


@dataclass(frozen=True)
class AxiomReport:
    order: int
    checks: tuple[AxiomCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> tuple[AxiomCheck, ...]:
        return tuple(c for c in self.checks if not c.ok)

    def summary(self) -> str:
        lines = [f"order {self.order}"]
        for c in self.checks:
            if c.ok:
                lines.append(f"{c.axiom}: pass")
            else:
                lines.append(f"{c.axiom}: FAIL at {c.witness}")
        return "\n".join(lines)


# Cells one numpy step of a slab loop touches, unless one item alone has
# more: each step's arrays stay O(n^2), never n^3.  Every slab loop in the
# package (the law scans here, the relabeling scans, ``_pack_maps``,
# ``matrix_semiring``, ``_table_search`` and the congruence pre-pass) sizes
# its slabs through ``_slab``.  The hemiring laws on E_M of order 43-120
# ran equally fast with 2^12 to 2^16 cells (numpy 2.4, 2-vCPU x86-64
# host), as did the row slabs of ``_pack_maps`` and ``matrix_semiring``
# within 15% at 2^14 to 2^18.  The reduced hemiring tests, run once each
# over 70 distinct tables of order 16-128 in a fresh process, took 41-56 ms
# at 2^14 cells against 44-76 ms at 2^12 and 62-87 ms at 2^16 (same host).
# Moving the relabeling and table-search slabs from 2^13 and the
# congruence pre-pass from 2^16 to 2^14 kept every end-to-end median of
# `perfbench` within 3.5% (10 alternated pairs of 25 s runs per workload,
# same host; ``BENCH_26.json``).
_SLAB_CELLS = 1 << 14


def _slab(cells_per_item: int) -> int:
    """Items per slab: as many as fit in ``_SLAB_CELLS`` cells, at least one.
    Reads the bound when called, so patching it reaches every loop."""
    return max(1, _SLAB_CELLS // cells_per_item)


def _memoised(key: str):
    """Decorator for a function of one object that computes its value once
    per object and keeps it in ``obj._memo[key]``."""
    def decorate(f):
        @functools.wraps(f)
        def memoised(obj):
            if key not in obj._memo:
                obj._memo[key] = f(obj)
            return obj._memo[key]
        return memoised
    return decorate


def _first(bad: np.ndarray) -> tuple[int, ...] | None:
    """Index of the first True entry of ``bad`` in C order, or None."""
    if not bad.any():
        return None
    return tuple(int(i) for i in np.unravel_index(int(bad.argmax()), bad.shape))


def _classes(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each row of a 2-D integer array, its rank among the distinct rows in
    lexicographic order and the least index of an equal row, by a stable lexsort."""
    order = np.lexsort(rows.T[::-1])        # column 0 is the primary key
    ordered = rows[order]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    rank = np.empty_like(order)
    rank[order] = np.cumsum(starts) - 1
    return rank, order[starts][rank]


def _law_witness(sides, shape: tuple[int, int, int]) -> tuple[int, int, int] | None:
    """The lexicographically first (a, b, c) at which a three-variable law
    fails, or None.

    ``sides(s)`` gives the law's two sides for the first arguments in the
    slice ``s``, as two arrays indexed [a - s.start, b, c] of shape
    (len, shape[1], shape[2]); ``shape[0]`` is the number of first
    arguments.  Each slab takes ``_slab(shape[1] * shape[2])`` first
    arguments.
    """
    na, nb, nc = shape
    step = _slab(nb * nc)
    for a0 in range(0, na, step):
        lhs, rhs = sides(slice(a0, a0 + step))
        w = _first(lhs != rhs)
        if w is not None:
            return (a0 + w[0], w[1], w[2])
    return None


# The sides below use np.take rather than fancy indexing: on int32 tables
# of order 43-120 it ran the four hemiring laws about 1.7 times as fast
# (same host).

def _associative(T: np.ndarray):
    """(ab)c = a(bc) in the table T, as sides for ``_law_witness``."""
    return lambda s: (T[T[s]], np.take(T[s], T, axis=1))


def _distributive(mul: np.ndarray, inner: np.ndarray, outer: np.ndarray):
    """a(b + c) = ab + ac, as sides for ``_law_witness``, where b + c is
    ``inner`` and ab + ac is ``outer``; ``mul`` has a row per first argument
    a (pass mul.T for the right law (b + c)a = ba + ca)."""
    n = outer.shape[1]

    def sides(s):
        m = mul[s]
        return np.take(m, inner, axis=1), np.take(outer, m[:, :, None] * n + m[:, None, :])
    return sides


def _subset_closure(mask: np.ndarray, T: np.ndarray, actions=(),
                    done: np.ndarray | None = None) -> np.ndarray:
    """The least superset of the boolean ``mask`` closed under the table T
    (T[x, y] for marked x, y) and each action A in ``actions`` (A[r, x] for
    every r and marked x), as a new mask.  It assumes no law of T.

    Semi-naive rounds: a round applies T only to the pairs with an element
    marked since the last round began (T[new, marked] and T[old, new]) and
    the actions only to those new elements, so no pair is read twice.  A
    ``done`` mask names marked elements already applied, a subset of
    ``mask`` closed under T and the actions (a closure being resumed);
    by default none.
    """
    mask = mask.copy()
    done = np.zeros_like(mask) if done is None else done.copy()
    while (new := np.flatnonzero(mask & ~done)).size:
        marked, old = np.flatnonzero(mask), np.flatnonzero(done)
        done = mask.copy()
        mask[T.take(new, 0).take(marked, 1)] = True
        mask[T.take(old, 0).take(new, 1)] = True
        for A in actions:
            mask[A.take(new, 1)] = True
    return mask


def _generating_set(T: np.ndarray) -> np.ndarray:
    """An array of elements that generate the magma (0..n-1, T).

    Let reps[z] count the pairs x, y != z with T[x, y] = z.  The set holds
    every irreducible element (reps 0), which every generating set must
    hold, and then, while the closure misses an element, a missing one of
    fewest reps (the least such).  The closure is ``_subset_closure``,
    resumed from the closed set plus each new generator.
    """
    n = T.shape[0]
    idx = np.arange(n)
    reps = np.bincount(T[(T != idx[:, None]) & (T != idx[None, :])], minlength=n)
    gens = np.flatnonzero(reps == 0)
    closed = np.zeros(n, dtype=bool)
    while True:
        seeded = closed.copy()
        seeded[gens] = True
        closed = _subset_closure(seeded, T, done=closed)
        if closed.all():
            return gens
        missing = np.flatnonzero(~closed)
        gens = np.append(gens, missing[reps[missing].argmin()])


def check_hemiring_axioms(add, mul, zero: int, one: int | None = None) -> AxiomReport:
    """Exhaustively check the hemiring axioms, reporting a witness per failure.

    A ``FiniteHemiring`` is constructible from (add, mul, zero, one) exactly
    when every check passes.  Mismatched table orders raise ``ValueError``
    before any axiom is examined.  Each witness is the lexicographically
    first violation of its axiom.

    The four three-variable laws are first decided with arguments in an
    additive generating set G (``_generating_set``), in this order, each
    restriction sound by a closure argument that rests only on
    commutativity and the laws before it:

    - add-associative, b in G: Light's associativity test (Clifford &
      Preston, *The Algebraic Theory of Semigroups* I, section 1.2): the g
      with (x + g) + y = x + (g + y) for all x, y are closed under +.  As
      + is commutative, both sides are (g + x) + y and (g + y) + x, so the
      test asks that each plane P_g[x, y] = (g + x) + y, a gather of rows
      of the table, equal its transpose;
    - right distributive, b in G: once + is associative, the b with
      (b + c)a = ba + ca for all a, c are closed under +;
    - left distributive, a and b in G (n |G|^2 instead of n^2 |G|
      instances): for each a the b with a(b + c) = ab + ac for all c are
      closed under + (associativity alone), and given the right law the a
      for which that holds for all b, c are too, since (a1 + a2)(b + c) =
      a1b + a1c + a2b + a2c = (a1 + a2)b + (a1 + a2)c, where the middle
      step reorders the sum;
    - mul-associative, a, b and c in G (|G|^3): once both distributive
      laws hold, both sides of (ab)c = a(bc) are additive in each
      argument, so with two arguments fixed, the third ones where it
      holds are closed under +.

    So all four hold on S iff every reduced test passes.  The reduced
    tests ask ``_law_witness`` whether a witness exists, each in slabs of
    generators of at most ``_SLAB_CELLS`` cells (one plane when larger).  If
    + is not commutative, the cube fits in one slab (n <= 25 at the
    default) or a reduced test fails, the laws are scanned over the whole
    cube by ``_law_witness``, which alone gives the first witnesses.
    """
    add = as_op_table(add)
    n = add.shape[0]
    mul = as_op_table(mul, order=n)
    _element(zero, n, "zero")
    if one is not None:
        _element(one, n, "one")

    def at(e, bad):    # (e, first x with bad[x])
        w = _first(bad)
        return None if w is None else (e, *w)

    idx = np.arange(n)
    cube = (n, n, n)
    commutative = _first(add != add.T)

    def reduced_hold(G):    # the four laws, decided with arguments in G
        g, flat = len(G), add.reshape(-1)
        mg, mcols = mul[np.ix_(G, G)], mul[:, G]

        def plane(s):       # P_b[x, y] = (b + x) + y for b in G[s]
            P = add.take(add.take(G[s], 0), 0)
            return P, P.transpose(0, 2, 1)

        def distributes(rows):      # (b + c) * a = b * a + c * a, b in G[s],
            return lambda s: (      # with x * a_j read as rows[x, j]
                rows.take(add.take(G[s], 0), 0),
                flat.take(rows.take(G[s], 0)[:, None, :] * n + rows))

        tests = [(plane, (n, n)), (distributes(mul), (n, n)),
                 (distributes(np.ascontiguousarray(mul[G].T)), (n, g)),    # a_j x = mul[G_j, x]
                 (lambda s: (mcols.take(mg[s], 0), mul.take(G[s], 0).take(mg, 1)), (g, g))]
        return all(_law_witness(sides, (g, *shape)) is None for sides, shape in tests)

    if commutative is None and n ** 3 > _SLAB_CELLS and reduced_hold(_generating_set(add)):
        witnesses = (None,) * 4
    else:
        witnesses = tuple(_law_witness(sides, cube) for sides in (
            _associative(add), _associative(mul),
            _distributive(mul, add, add), _distributive(mul.T, add, add)))
    add_assoc, mul_assoc, left, right = witnesses
    checks = [
        ("add-commutative", commutative),
        ("add-associative", add_assoc),
        ("zero-neutral", at(zero, add[zero] != idx)),
        ("mul-associative", mul_assoc),
        ("left-distributive", left),
        ("right-distributive", right),
        ("zero-absorbing", at(zero, (mul[zero] != zero) | (mul[:, zero] != zero))),
    ]
    if one is not None:
        checks.append(("one-identity", at(one, (mul[one] != idx) | (mul[:, one] != idx))))
    return AxiomReport(n, tuple(AxiomCheck(axiom, w is None, w) for axiom, w in checks))


class FiniteHemiring:
    """A finite hemiring (R, +, *, 0), optionally with a multiplicative one.

    The constructor validates all axioms, so a table from outside the
    package (this constructor, ``parse_algebra``, an inline report witness)
    is checked where it enters.  The package's own constructions (catalogs,
    matrix semirings, corners, endomorphism semirings, finite fields) build
    hemirings by construction and pass ``validate=False``; the tests
    re-check their outputs with ``check_hemiring_axioms``.
    """

    __slots__ = ("add", "mul", "zero", "one", "name", "_memo")

    def __init__(self, add, mul, zero: int = 0, one: int | None = None,
                 name: str = "", validate: bool = True):
        self.add = as_op_table(add)
        self.mul = as_op_table(mul, order=self.add.shape[0])
        self.zero = _element(zero, self.order, "zero")
        self.one = None if one is None else _element(one, self.order, "one")
        self.name = name
        self._memo: dict = {}
        if validate:
            report = check_hemiring_axioms(self.add, self.mul, self.zero, self.one)
            if not report.ok:
                raise AxiomError(report)

    @classmethod
    def _of_tables(cls, add: np.ndarray, mul: np.ndarray, zero: int, one: int | None,
                   name: str) -> "FiniteHemiring":
        """A hemiring on read-only int32 tables the package built, such as
        the views of a catalog's table stack, kept as they are: no copy, no
        coercion and no axiom scan."""
        R = cls.__new__(cls)
        R.add, R.mul, R.zero, R.one, R.name, R._memo = add, mul, zero, one, name, {}
        return R

    @property
    def order(self) -> int:
        return self.add.shape[0]

    @property
    def is_ring(self) -> bool:
        """True iff the additive reduct is a group."""
        return bool((self.add == self.zero).any(axis=1).all())

    @property
    def is_proper(self) -> bool:
        return not self.is_ring

    @property
    def is_semiring(self) -> bool:
        """Has a multiplicative identity distinct from zero (so order >= 2)."""
        return self.one is not None and self.one != self.zero

    def elements(self) -> range:
        return range(self.order)

    def idempotents(self) -> list[int]:
        """Multiplicative idempotents e*e = e, ascending."""
        d = self.mul[np.arange(self.order), np.arange(self.order)]
        return [int(i) for i in np.flatnonzero(d == np.arange(self.order))]

    def has_zero_multiplication(self) -> bool:
        return bool((self.mul == self.zero).all())

    def is_commutative(self) -> bool:
        return bool((self.mul == self.mul.T).all())

    def __eq__(self, other) -> bool:
        return (isinstance(other, FiniteHemiring)
                and self.zero == other.zero and self.one == other.one
                and self.add.shape == other.add.shape
                and bool((self.add == other.add).all())
                and bool((self.mul == other.mul).all()))

    def __hash__(self):
        return hash((self.add.tobytes(), self.mul.tobytes(), self.zero, self.one))

    def __repr__(self) -> str:
        tag = self.name or f"order {self.order}"
        one = "" if self.one is None else f", one={self.one}"
        return f"FiniteHemiring({tag}, zero={self.zero}{one})"


class PartialOrder:
    """A partial order on 0..n-1 as a boolean leq matrix."""

    __slots__ = ("leq",)

    def __init__(self, leq, validate: bool = True):
        leq = np.ascontiguousarray(leq, dtype=bool)
        if leq.ndim != 2 or leq.shape[0] != leq.shape[1]:
            raise ValueError("leq must be a square boolean matrix")
        if validate:
            n = leq.shape[0]
            if not leq[np.diag_indices(n)].all():
                raise ValueError("relation is not reflexive")
            if (leq & leq.T & ~np.eye(n, dtype=bool)).any():
                raise ValueError("relation is not antisymmetric")
            closure = leq @ leq
            if (closure & ~leq).any():
                raise ValueError("relation is not transitive")
        leq.setflags(write=False)
        self.leq = leq

    @property
    def order(self) -> int:
        return self.leq.shape[0]

    @property
    def is_total(self) -> bool:
        return bool((self.leq | self.leq.T).all())

    def top(self) -> int | None:
        hits = np.flatnonzero(self.leq.all(axis=0))
        return int(hits[0]) if hits.size else None

    def bottom(self) -> int | None:
        hits = np.flatnonzero(self.leq.all(axis=1))
        return int(hits[0]) if hits.size else None

    def meet(self, a: int, b: int) -> int | None:
        """Greatest lower bound of a and b, if it exists."""
        a, b = _element(a, self.order, "element"), _element(b, self.order, "element")
        lower = self.leq[:, a] & self.leq[:, b]
        cand = np.flatnonzero(lower)
        for x in cand:
            if self.leq[cand, x].all():
                return int(x)
        return None

    def meet_table(self) -> np.ndarray | None:
        """All binary meets, or None if some pair has no glb.  The meet of x
        and y exists iff the common lower bound z with the largest down-set
        has exactly the common lower bounds as its down-set.  One pass per x
        keeps memory at O(n^2)."""
        geq = np.ascontiguousarray(self.leq.T)                 # geq[x, z]: z <= x
        downs = geq.sum(axis=1, dtype=np.int32)
        meets = np.empty(geq.shape, dtype=np.int32)
        for x in range(len(geq)):
            lower = geq[x] & geq                                  # [y, z]
            meets[x] = (lower * downs).argmax(axis=1)
            if not (geq[meets[x]] == lower).all():
                return None
        return meets

    def comparable(self, a: int, b: int) -> bool:
        a, b = _element(a, self.order, "element"), _element(b, self.order, "element")
        return bool(self.leq[a, b] or self.leq[b, a])


def is_additively_idempotent(R: FiniteHemiring) -> bool:
    """x + x = x for every x."""
    n = R.order
    return bool((R.add[np.arange(n), np.arange(n)] == np.arange(n)).all())


@_memoised("natural_order")
def natural_order(R: FiniteHemiring) -> PartialOrder:
    """The order r <= r' iff r + r' = r', defined on additively idempotent R.

    On a non-idempotent algebra the relation is not even reflexive, so the
    input is rejected with a witness element rather than returned as a
    preorder.  On an idempotent commutative monoid it is always a partial
    order, so it is not re-validated.
    """
    n = R.order
    diag = R.add[np.arange(n), np.arange(n)]
    bad = np.flatnonzero(diag != np.arange(n))
    if bad.size:
        raise ValueError(
            f"natural order undefined: element {int(bad[0])} is not additively idempotent")
    return PartialOrder(R.add == np.arange(n)[None, :], validate=False)


def infinite_element(R: FiniteHemiring) -> int | None:
    """The additively absorbing element (y + x = x for all y), if present."""
    n = R.order
    hits = np.flatnonzero((R.add == np.arange(n)[None, :]).all(axis=0))
    return int(hits[0]) if hits.size else None


def is_zerosumfree(R: FiniteHemiring) -> bool:
    """x + y = 0 only for x = y = 0: the zero occurs in the addition table
    at (zero, zero) alone."""
    zeros = R.add == R.zero
    zeros[R.zero, R.zero] = False
    return not zeros.any()


def is_dedekind_finite(R: FiniteHemiring) -> bool:
    """ab = 1 implies ba = 1 (vacuously true without a one): the cells of
    the multiplication table that hold the one are symmetric."""
    if R.one is None:
        return True
    units = R.mul == R.one
    return not (units & ~units.T).any()


def is_division_semiring(R: FiniteHemiring) -> bool:
    """Every nonzero element has a two-sided multiplicative inverse: each
    row other than zero's has a cell (x, y) with xy = yx = 1."""
    if R.one is None:
        raise ValueError("division test requires a multiplicative identity")
    units = R.mul == R.one
    inverted = (units & units.T).any(axis=1)
    inverted[R.zero] = True
    return bool(inverted.all())


def is_aic(R: FiniteHemiring) -> bool:
    """Additively idempotent with a total natural order (a chain)."""
    if not is_additively_idempotent(R):
        return False
    return natural_order(R).is_total


def is_lattice_ordered(R: FiniteHemiring) -> bool:
    """a + b = a v b and ab <= a ^ b under the natural order.

    The natural order of a finite additively idempotent algebra is a
    lattice: a + b is the join and zero the bottom.  So ab <= a ^ b is the
    same as ab <= a and ab <= b, and no meet table is needed.
    """
    if not is_additively_idempotent(R):
        return False
    leq = natural_order(R).leq
    ids = np.arange(R.order)
    return bool(leq[R.mul, ids[:, None]].all() and leq[R.mul, ids[None, :]].all())


@dataclass(frozen=True)
class HomMap:
    """A zero-preserving map between table algebras preserving + and *."""

    source: FiniteHemiring
    target: FiniteHemiring
    map: tuple[int, ...]

    def __post_init__(self):
        if len(self.map) != self.source.order:
            raise ValueError("map length does not match source order")

    def __call__(self, x: int) -> int:
        return self.map[_element(x, self.source.order, "element")]

    def is_injective(self) -> bool:
        return len(set(self.map)) == len(self.map)

    def is_surjective(self) -> bool:
        return len(set(self.map)) == self.target.order

    def kernel(self) -> frozenset[int]:
        z = self.target.zero
        return frozenset(x for x, fx in enumerate(self.map) if fx == z)

    def image(self) -> frozenset[int]:
        return frozenset(self.map)


def _is_hom(R: FiniteHemiring, S: FiniteHemiring, f: tuple[int, ...]) -> bool:
    arr = np.asarray(f, dtype=np.int32)
    if f[R.zero] != S.zero:
        return False
    if not (S.add[np.ix_(arr, arr)] == arr[R.add]).all():
        return False
    return bool((S.mul[np.ix_(arr, arr)] == arr[R.mul]).all())


HOM_SEARCH_BOUND = 2_000_000   # node budget of every map search
CANONICAL_ORDER_BOUND = 8      # largest order whose canonical form is computed


def _map_search(n: int, order: list[int], domains, tables=(), actions=(),
                injective: bool = False):
    """Lazily yield every map f: 0..n-1 -> targets, as a tuple, that preserves

    - each binary table pair (S, T) in ``tables``: f(S[x, y]) = T[f(x), f(y)];
    - each action pair (A, B) in ``actions``: f(A[r, x]) = B[r, f(x)];

    takes f(x) from ``domains[x]`` and is injective when asked.

    Elements are placed in ``order`` and candidates tried in domain order, so
    maps come out in lexicographic order of (f(order[0]), f(order[1]), ...).
    Every constraint is checked as soon as all its elements are placed, and
    an element that is S[x, y] or A[r, x] of elements placed before it gets
    the single candidate the constraint forces.  Each partial map visited
    counts against ``HOM_SEARCH_BOUND``, read when the search is made;
    exceeding it raises SizeGuardExceeded.
    """
    pos = [0] * n
    for k, z in enumerate(order):
        pos[z] = k
    # f is extended with constant slots f[n + r] = r, so that an action
    # constraint is a table constraint whose first argument is the slot n + r
    consts = max((A.shape[0] for A, _ in actions), default=0)
    checks: list[list[tuple]] = [[] for _ in range(n)]   # per level: (T, x, y, out)
    forcing: list[tuple | None] = [None] * n             # per level: (T, x, y)

    def constrain(T, x, y, out):
        px = pos[x] if x < n else -1
        k = max(px, pos[y], pos[out])
        checks[k].append((T, x, y, out))
        if pos[out] > max(px, pos[y]) and forcing[k] is None:
            forcing[k] = (T, x, y)

    for S, T in tables:
        symmetric = bool((S == S.T).all() and (T == T.T).all())
        S, T = S.tolist(), T.tolist()
        for x in range(n):
            for y in range(x if symmetric else 0, n):
                constrain(T, x, y, S[x][y])
    for A, B in actions:
        A, B = A.tolist(), B.tolist()
        for r, row in enumerate(A):
            for x in range(n):
                constrain(B, n + r, x, row[x])

    domain_sets = [frozenset(d) for d in domains]
    f = [-1] * n + list(range(consts))
    used: set[int] = set()
    nodes, node_budget = 0, HOM_SEARCH_BOUND

    def extend(k: int):
        nonlocal nodes
        if k == n:
            yield tuple(f[:n])
            return
        nodes += 1
        if nodes > node_budget:
            raise SizeGuardExceeded(
                f"map search exceeded its node budget of {node_budget} nodes")
        z = order[k]
        force = forcing[k]
        if force is None:
            candidates = domains[z]
        else:
            T, x, y = force
            v = T[f[x]][f[y]]
            candidates = (v,) if v in domain_sets[z] else ()
        for v in candidates:
            if injective and v in used:
                continue
            f[z] = v
            for T, x, y, out in checks[k]:
                if T[f[x]][f[y]] != f[out]:
                    break
            else:
                used.add(v)    # consulted only when injective
                yield from extend(k + 1)
                used.discard(v)
        f[z] = -1

    return extend(0)


def hom_search(R: FiniteHemiring, S: FiniteHemiring, *,
               surjective: bool = False, unital: bool = False,
               injective: bool = False) -> list[HomMap]:
    """All maps R -> S preserving add, mul and zero (and one when asked),
    in lexicographic order of their values on zero, one, then the rest.
    """
    n, m = R.order, S.order
    if unital and (R.one is None or S.one is None
                   or (R.one == R.zero and S.one != S.zero)):
        return []
    if injective and n > m:
        return []
    first = [R.zero] + ([R.one] if unital and R.one != R.zero else [])
    domains = [range(m)] * n
    if unital:
        domains[R.one] = (S.one,)
    domains[R.zero] = (S.zero,)
    results: list[HomMap] = []
    for f in _map_search(n, first + [x for x in range(n) if x not in first], domains,
                         tables=((R.add, S.add), (R.mul, S.mul)), injective=injective):
        if surjective and len(set(f)) != m:
            continue
        results.append(HomMap(R, S, f))
    return results


def _wl_colors(R: FiniteHemiring) -> tuple[int, ...]:
    """Stable color refinement over both tables; isomorphism-invariant.  A
    round ranks col[x] followed by the sorted base-k codes, k colours, of
    (col[y], col[x + y], col[xy], col[yx]) over all y, ordered as the tuples."""
    idx = np.arange(R.order)
    flags = np.stack([idx == R.zero, idx == (-1 if R.one is None else R.one),
                      R.add[idx, idx] == idx, R.mul[idx, idx] == idx], axis=1)
    col = _classes(flags)[0]
    while True:
        k = int(col.max()) + 1      # k^4 < 2^63 at any order whose n^2 codes fit in memory
        codes = ((col * k + col[R.add]) * k + col[R.mul]) * k + col[R.mul.T]
        new = _classes(np.concatenate([col[:, None], np.sort(codes, axis=1)], axis=1))[0]
        if (new == col).all():
            return tuple(col.tolist())
        col = new


def is_isomorphic(R: FiniteHemiring, S: FiniteHemiring) -> HomMap | None:
    """An isomorphism R -> S, or None.

    Up to ``CANONICAL_ORDER_BOUND``, where ``canonical_form`` is exact, R
    and S are isomorphic iff their canonical forms are equal, and the
    isomorphism sends x to the element of S with x's canonical label; both
    labellings are memoised.
    Above it, color refinement prunes the candidates of each element before
    backtracking, so the search stays far from the naive n! bound.
    """
    if R.order != S.order:
        return None
    if (R.one is None) != (S.one is None):
        return None
    n = R.order
    if n <= CANONICAL_ORDER_BOUND:
        (formR, labelsR), (formS, labelsS) = _canonical_labelling(R), _canonical_labelling(S)
        if formR != formS:
            return None
        element = sorted(range(n), key=labelsS.__getitem__)    # S's element with each label
        f = tuple(element[label] for label in labelsR)
    else:
        colR, colS = _wl_colors(R), _wl_colors(S)
        if sorted(colR) != sorted(colS):
            return None
        by_color: dict[int, list[int]] = {}
        for y, c in enumerate(colS):
            by_color.setdefault(c, []).append(y)
        domains = [by_color[c] for c in colR]
        # most constrained elements first
        order = sorted(range(n), key=lambda x: (len(domains[x]), x))
        f = next(_map_search(n, order, domains, tables=((R.add, S.add), (R.mul, S.mul)),
                             injective=True), None)
        if f is None:
            return None
    if not _is_hom(R, S, f):
        raise RuntimeError(f"isomorphism search returned a non-homomorphism {f}")
    return HomMap(R, S, f)


def _permutations(m: int) -> np.ndarray:
    """All permutations of 0..m-1 as an (m!, m) int8 array, in the
    lexicographic order of ``itertools.permutations``.

    The permutations of size s are those of size s - 1 with a first value
    v prepended and the values >= v shifted up, v ascending.
    """
    P = np.zeros((1, 0), dtype=np.int8)
    for size in range(1, m + 1):
        first = np.arange(size, dtype=np.int8)[:, None, None]
        P = np.concatenate((first.repeat(len(P), axis=1), P + (P >= first)),
                           axis=2).reshape(-1, size)
    return P


@functools.cache
def _zero_first_relabelings(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(q, p) for the relabelings of 0..n-1 that fix 0, in the order of
    ``_permutations(n - 1)``: q[k, i] is the element relabeling k puts at i,
    p[k, x] the label it gives x.  Built on first use, once per order, and
    read-only, since every call shares them."""
    rest = _permutations(n - 1)
    q = np.concatenate((np.zeros((len(rest), 1), dtype=np.int8), rest + 1), axis=1)
    p = np.empty_like(q)
    p[np.arange(len(q))[:, None], q] = np.arange(n, dtype=np.int8)
    q.flags.writeable = p.flags.writeable = False
    return q, p


def _lex_least_relabeling(stack, zero: int) -> Iterator[tuple[tuple[int, ...], list[int]]]:
    """For each tuple of same-order tables in ``stack``, in order, the
    lexicographically least concatenation of the relabelled tables over all
    relabelings that send ``zero`` to 0, and a relabeling (new label of each
    element) that attains it.

    The concatenation is decided one table row at a time over the
    (tuple, relabeling) pairs still tied on every earlier row, a row read
    as one base-n number, so no relabelled table is built except the
    winners'.  While more pairs are tied than fit in one slab, a row is
    decided one cell at a time instead, which keeps the same pairs: on
    catalog products cell (1, 1) of + alone cuts most ties.  Zero's row
    (column) of a table reads 0..n-1 or all zeros under every relabeling
    when it is neutral (``T[zero, x] == x``) or absorbing
    (``T[zero, x] == zero``) in every tuple, as in every addition, join and
    hemiring multiplication; such a row is skipped, and such a column's
    cells filter nothing.  The stack is renamed so that zero is 0, and the
    relabelings fixing 0 come from ``_zero_first_relabelings``, built once
    per order.  A row is read only once the tied pairs fit in one slab
    (``_slab(n)`` pairs); until then each step reads one cell per pair.
    """
    # int8 keeps the tables and the (n-1)! x n relabelings small; the
    # factorial cost keeps n far below 128
    S = np.asarray(stack, dtype=np.int8)          # [tuple, table, x, y]
    nb, nt, n = S.shape[:3]
    # rename zero to 0 and the other elements, in order, to 1..n-1, so that
    # the relabelings are those fixing 0, in the same order; rename[x] is
    # x's new name
    back = np.array([zero] + [x for x in range(n) if x != zero])
    rename = np.argsort(back).astype(np.int8)
    S = rename[S[:, :, back[:, None], back]]
    q, p = _zero_first_relabelings(n)

    # the tied pairs (b[t], k[t]), tuple-major; starts[g]: the first of tuple g
    tuples = np.arange(nb)
    b = np.repeat(tuples, len(q))
    k = np.tile(np.arange(len(q)), nb)
    starts = np.arange(0, len(b), len(q))
    weights = n ** np.arange(n - 1, -1, -1)
    step = _slab(n)
    # zero's row (column) is neutral or absorbing in every tuple
    ids = np.arange(n)
    fixed_row, fixed_col = (((lines == ids).all(axis=2) | (lines == 0).all(axis=2)).all(axis=0)
                            for lines in (S[:, :, 0], S[:, :, :, 0]))

    # flat views: cell (b, T, x, y) of the stack at ((b * nt + T) * n + x) * n + y,
    # p[k, x] at k * n + x; ``take`` on them is the fastest gather
    S_flat, p_flat = S.reshape(-1), p.reshape(-1)

    def row_keys(T: int, i: int) -> np.ndarray:
        """Row i of table T under each tied pair's relabeling, read as one
        base-n number per pair, in one gather: it is asked for only once the
        tied pairs fit in one slab."""
        qs = q.take(k, axis=0)
        rows = S_flat.take((((b * nt + T) * n + qs[:, i]) * n)[:, None] + qs)
        return p_flat.take((k * n)[:, None] + rows) @ weights

    def cell_values(T: int, i: int, j: int) -> np.ndarray:
        """Cell (i, j) of table T under each tied pair's relabeling."""
        at = ((b * nt + T) * n + q[:, i].take(k)) * n + q[:, j].take(k)
        return p_flat.take(k * n + S_flat.take(at))

    def keep_least(values: np.ndarray) -> None:
        """Keep the tied pairs whose value is least within their tuple."""
        nonlocal b, k, starts
        keep = values == np.minimum.reduceat(values, starts)[b]
        if not keep.all():
            b, k = b[keep], k[keep]
            starts = np.searchsorted(b, tuples)

    for T, i in itertools.product(range(nt), range(n)):
        if len(b) == nb:
            break
        if i == 0 and fixed_row[T]:
            continue
        j = int(fixed_col[T])
        while len(b) > step and j < n:
            keep_least(cell_values(T, i, j))
            j += 1
        if j < n:
            keep_least(row_keys(T, i))
    # the winners' relabelled tables, slab by slab of tuples
    qw, pw = q[k[starts]], p[k[starts]]
    per_slab = _slab(nt * n * n)
    forms = []
    for s in range(0, nb, per_slab):
        qs = qw[s:s + per_slab]
        cells = S[tuples[s:s + per_slab, None, None, None], np.arange(nt)[:, None, None],
                  qs[:, None, :, None], qs[:, None, None, :]]
        forms.append(pw[s:s + per_slab][tuples[:len(qs), None], cells.reshape(len(qs), -1)])
    return ((tuple(f.tolist()), labels.tolist())
            for f, labels in zip(np.concatenate(forms), pw[:, rename]))


@_memoised("canonical_labelling")
def _canonical_labelling(R: FiniteHemiring) -> tuple[tuple, tuple[int, ...]]:
    """(``canonical_form(R)``, the label of each element under a relabeling
    that attains it), from one ``_lex_least_relabeling`` call.

    Only meant for catalog-scale algebras: it ranges over the (n-1)!
    relabelings fixing zero, built once per order.  Zero's rows of + and *
    (neutral and absorbing) read the same under each of them and are never
    scored; the first live row, row 1 of +, is decided cell by cell while
    many relabelings stay tied.  Memoised on R; catalog entries come with
    theirs, the identity labelling.
    """
    n = R.order
    if n > CANONICAL_ORDER_BOUND:
        raise SizeGuardExceeded(f"canonical form is bounded at CANONICAL_ORDER_BOUND = "
                                 f"{CANONICAL_ORDER_BOUND}; asked for order {n}")
    [(flat, p)] = _lex_least_relabeling([(R.add, R.mul)], R.zero)
    return (flat[:n * n], flat[n * n:], None if R.one is None else p[R.one]), tuple(p)


def canonical_form(R: FiniteHemiring) -> tuple[tuple[int, ...], tuple[int, ...], int | None]:
    """Lexicographically least (add, mul) relabeling fixing zero at index 0,
    and the label of one; exact up to ``CANONICAL_ORDER_BOUND``
    (``_canonical_labelling``)."""
    return _canonical_labelling(R)[0]


def fingerprint(R: FiniteHemiring) -> str:
    """Short deterministic identifier; exact canonical hash at catalog scale,
    invariant-vector hash above it."""
    import hashlib
    if R.order <= CANONICAL_ORDER_BOUND:
        a, m, one = canonical_form(R)
        payload = f"c|{R.order}|{one}|{a}|{m}"
    else:
        col = _wl_colors(R)
        payload = f"i|{R.order}|{R.one is not None}|{sorted(col)}"
    return hashlib.sha256(payload.encode()).hexdigest()[:12]
