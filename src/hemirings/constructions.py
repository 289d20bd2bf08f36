"""Builders and exhaustive small-order catalogs.

Matrix semirings pack n x n matrices over a base algebra into mixed-radix
integers (cell (i, j) is the digit of weight |R|^(i*n+j), row-major), so
every decider in the package runs on them unchanged.  One digit rule,
``_digits``, reads every such carrier: the matrix cells and the
coefficients of an element of GF(p^k).

Every catalog table comes from one search, ``_table_search``: it fills
table cells in a fixed order, each with the values from its floor (0 by
default) up in ascending order, and drops a partial table as soon as some
associativity (or, over a given addition, distributivity) instance whose
lookups are all assigned fails.  It runs level by level, one cell per
level, over a frontier array of all partial tables that survive, checked
slab by slab in one numpy pass each, so the completions come out in
lexicographic order.  The first level checks every law instance; each
later level checks only the instances that can read its new cell, about
2n^2 associativity and n^2 per distributive law of the n^3 each.
Additive monoids are its symmetric completions of the neutral row and
column; the semilattice join tables its symmetric completions of the
neutral row and column, the identity diagonal and the top's row and
column n - 1, with floors that keep the labelling natural;
multiplications its completions of the zero row and column, over all
additive monoids of an order in one frontier whose rows carry their
addition.  Results are deduplicated by canonical form under carrier
permutations that fix zero, one batched relabeling
(``core._lex_least_relabeling``) per catalog: all monoids of an order,
all (addition, multiplication) pairs of an order, all join tables of an
order.  The join tables of each order are built once per process and
shared by the semilattice catalog and the idempotent hemiring catalog.

Every builder here returns an algebra by construction (a catalog table
passed every law instance of the search; M_n(R), eRe and the finite fields
are hemirings by theorem), so none re-runs the axiom scan on its output;
the tests re-check each kind of output with ``check_hemiring_axioms``.
"""

from __future__ import annotations

import functools

import numpy as np

from .core import (
    FiniteHemiring,
    InvariantViolation,
    SizeGuardExceeded,
    _classes,
    _element,
    _index_array,
    _is_integer,
    _lex_least_relabeling,
    _slab,
)
from .lattices import FiniteSemilattice
from .simpleness import (
    Congruence,
    IdealSubset,
    generated_ideal,
    is_congruence,
)

__all__ = [
    "CornerSemiring",
    "MatrixSemiring",
    "boolean_B",
    "corner",
    "corner_congruence_to_ring",
    "corner_ideal_to_ring",
    "enumerate_hemirings",
    "enumerate_semilattices",
    "finite_field",
    "integers_mod",
    "is_full_idempotent",
    "matrix_semiring",
    "two_zero_mult",
]

MATRIX_ORDER_BOUND = 6561
SEMILATTICE_ORDER_BOUND = 6
HEMIRING_IDEMPOTENT_BOUND = 4
HEMIRING_ORDER_BOUND = 3


def boolean_B() -> FiniteHemiring:
    """The Boolean semifield {0, 1} with 1 + 1 = 1."""
    return FiniteHemiring([[0, 1], [1, 1]], [[0, 0], [0, 1]], zero=0, one=1, name="B",
                          validate=False)


def two_zero_mult() -> FiniteHemiring:
    """The additively idempotent two-element hemiring with zero multiplication."""
    return FiniteHemiring([[0, 1], [1, 1]], [[0, 0], [0, 0]], zero=0, name="2",
                          validate=False)


def integers_mod(m: int) -> FiniteHemiring:
    """The ring Z/m as a semiring table (test plumbing, not ring theory)."""
    if not _is_integer(m) or m < 1:
        raise ValueError(f"modulus must be a positive integer; got {m!r}")
    idx = np.arange(m)
    add = (idx[:, None] + idx[None, :]) % m
    mul = (idx[:, None] * idx[None, :]) % m
    return FiniteHemiring(add, mul, zero=0, one=1 % m if m > 1 else 0, name=f"Z/{m}",
                          validate=False)


def _digits(values, base: int, width: int) -> np.ndarray:
    """The little-endian base-``base`` digits of each value, in a new last
    axis of length ``width`` (int32): a value is its digits dotted with
    ``base ** arange(width)``."""
    weights = base ** np.arange(width, dtype=np.int64)
    return (np.asarray(values, dtype=np.int64)[..., None] // weights % base).astype(np.int32)


# q -> (p, tail): GF(q) is GF(p)[t]/(t^k + tail(t)), tail's coefficients
# lowest degree first; a prime q is GF(p)[t]/(t).
_GF_POLYNOMIAL = {
    2: (2, (0,)),
    3: (3, (0,)),
    4: (2, (1, 1)),     # t^2 + t + 1
    5: (5, (0,)),
    7: (7, (0,)),
    8: (2, (1, 1, 0)),  # t^3 + t + 1
    9: (3, (1, 0)),     # t^2 + 1
}
FIELD_ORDERS = tuple(_GF_POLYNOMIAL)


def finite_field(q: int) -> FiniteHemiring:
    """GF(q) for q in ``FIELD_ORDERS``.

    Element x is the polynomial whose coefficients are the little-endian
    base-p digits of x (``_digits``), reduced by the fixed polynomial of
    ``_GF_POLYNOMIAL``, so the tables are bit-exact across runs.  Since
    t^k = -tail, t^(i+1) y is t^i y shifted up one degree with its top
    coefficient c folded back as -c * tail, and x y = sum_i x_i t^i y.
    """
    if not _is_integer(q) or q not in _GF_POLYNOMIAL:
        raise ValueError(f"unsupported field order {q}")
    p, tail = _GF_POLYNOMIAL[q]
    k = len(tail)
    weights = p ** np.arange(k, dtype=np.int64)
    digits = _digits(np.arange(q), p, k)
    shifts = [digits]                               # shifts[i][y] = t^i y
    for _ in range(k - 1):
        prev = shifts[-1]
        up = np.pad(prev[:, :-1], ((0, 0), (1, 0)))   # t * prev below degree k
        shifts.append((up - prev[:, -1:] * np.asarray(tail)) % p)
    add = (digits[:, None] + digits) % p @ weights
    mul = np.einsum("xi,iyk->xyk", digits, np.stack(shifts)) % p @ weights
    R = FiniteHemiring(add, mul, zero=0, one=1, name=f"GF({q})", validate=False)
    stuck = np.flatnonzero(~(R.mul[1:] == R.one).any(axis=1))
    if len(stuck):
        raise InvariantViolation(f"GF({q}) element {stuck[0] + 1} not invertible")
    return R


class MatrixSemiring:
    """n x n matrices over a base hemiring, packed as one FiniteHemiring."""

    __slots__ = ("base", "n", "hemiring", "_weights")

    def __init__(self, base: FiniteHemiring, n: int, hemiring: FiniteHemiring,
                 weights: np.ndarray):
        self.base = base
        self.n = n
        self.hemiring = hemiring
        self._weights = weights

    @property
    def order(self) -> int:
        return self.hemiring.order

    def encode(self, mat) -> int:
        m = _index_array(np.asarray(mat).reshape(self.n * self.n), self.base.order, "matrix")
        return int((m * self._weights).sum())

    def decode(self, idx: int) -> np.ndarray:
        return _digits(_element(idx, self.order, "matrix index"), self.base.order,
                       self.n * self.n).reshape(self.n, self.n)

    def unit(self, i: int, j: int) -> int:
        """The matrix unit E_ij (base one at cell (i, j))."""
        if self.base.one is None:
            raise ValueError("matrix units need a base identity")
        m = np.full((self.n, self.n), self.base.zero, dtype=np.int64)
        m[_element(i, self.n, "row"), _element(j, self.n, "column")] = self.base.one
        return self.encode(m)


def matrix_semiring(R: FiniteHemiring, n: int) -> MatrixSemiring:
    """The matrix hemiring M_n(R) with packed tables, for a carrier of at
    most ``MATRIX_ORDER_BOUND`` elements (SizeGuardExceeded otherwise).

    Tables are computed from entrywise digit arithmetic over the base
    tables, in slabs of rows x from ``core._slab``: a row's products take
    N * n^3 cells.  M_n of a hemiring is a hemiring, so the result is not
    re-validated.
    """
    if not _is_integer(n) or n < 1:
        raise ValueError(f"n must be a positive integer; got {n!r}")
    b = R.order
    N = b ** (n * n)
    if N > MATRIX_ORDER_BOUND:
        raise SizeGuardExceeded(
            f"matrix carrier {b}^{n * n} = {N} exceeds bound {MATRIX_ORDER_BOUND}")

    cells = n * n
    weights = b ** np.arange(cells, dtype=np.int64)
    digits = _digits(np.arange(N), b, cells)

    plus, times = R.add.ravel(), R.mul.ravel()     # x + y is plus[x * b + y]
    add = np.empty((N, N), dtype=np.int32)
    mul = np.empty((N, N), dtype=np.int32)
    ys = np.ascontiguousarray(digits.T)            # [cell, y]
    step = _slab(N * cells * n)
    for s in range(0, N, step):
        xb = digits[s:s + step] * b
        add[s:s + step] = weights @ np.take(plus, xb[:, :, None] + ys)
        terms = np.take(times, xb.reshape(-1, n, n, 1, 1) + ys.reshape(n, n, N))
        acc = terms[:, :, 0]                       # [x, i, k, j, y] -> [x, i, j, y]
        for k in range(1, n):
            acc = np.take(plus, acc * b + terms[:, :, k])
        mul[s:s + step] = weights @ acc.reshape(len(xb), cells, N)

    zero = R.zero * int(weights.sum())
    one = None if R.one is None else zero + (R.one - R.zero) * int(weights[::n + 1].sum())

    H = FiniteHemiring(add, mul, zero=zero, one=one,
                       name=f"M_{n}({R.name or R.order})", validate=False)
    return MatrixSemiring(R, n, H, weights)


class CornerSemiring:
    """The semiring e*R*e for an idempotent e, with identity e; position[m]
    is the corner index of a member m (0 for other elements of R)."""

    __slots__ = ("base", "e", "members", "hemiring", "position")

    def __init__(self, base: FiniteHemiring, e: int, members: tuple[int, ...],
                 hemiring: FiniteHemiring, position: np.ndarray):
        self.base = base
        self.e = e
        self.members = members
        self.hemiring = hemiring
        self.position = position

    @property
    def order(self) -> int:
        return len(self.members)

    def project(self, x: int) -> int:
        """Corner index of e*x*e."""
        x = _element(x, self.base.order, "element")
        return int(self.position[self.base.mul[self.base.mul[self.e, x], self.e]])


def corner(R: FiniteHemiring, e: int) -> CornerSemiring:
    """Build eRe; requires e idempotent.

    eRe is closed under + and * inside R and has identity e, so the result
    is a hemiring whenever R is one and is not re-validated.
    """
    e = _element(e, R.order, "element")
    if R.mul[e, e] != e:
        raise ValueError(f"element {e} is not idempotent")
    mask = np.zeros(R.order, dtype=bool)
    mask[R.mul[R.mul[e], e]] = True     # the e*x*e
    members = np.flatnonzero(mask)
    pos = np.zeros(R.order, dtype=np.int32)   # member -> corner index
    pos[members] = np.arange(len(members))
    block = np.ix_(members, members)
    H = FiniteHemiring(pos[R.add[block]], pos[R.mul[block]], zero=pos[R.zero], one=pos[e],
                       name=f"corner({R.name or R.order},{e})", validate=False)
    return CornerSemiring(R, e, tuple(members.tolist()), H, pos)


def is_full_idempotent(R: FiniteHemiring, e: int) -> bool:
    """e idempotent with the two-sided ideal it generates equal to R."""
    e = _element(e, R.order, "element")
    if R.mul[e, e] != e:
        raise ValueError(f"element {e} is not idempotent")
    return generated_ideal(R, [e], "two-sided").is_full


def corner_ideal_to_ring(R: FiniteHemiring, c: CornerSemiring, I: IdealSubset) -> IdealSubset:
    """Map an ideal I of the corner to the two-sided ideal of R it generates.

    The defining property e(RIR)e = I is re-checked before returning.
    """
    seed = [c.members[i] for i in sorted(I.members)]
    J = generated_ideal(R, seed, "two-sided")
    back = {c.project(x) for x in J.members}
    if back != set(I.members):
        raise InvariantViolation("corner ideal correspondence failed")
    return J


def corner_congruence_to_ring(R: FiniteHemiring, c: CornerSemiring,
                              gamma: Congruence) -> Congruence:
    """Lift a corner congruence to R: a ~ b iff all e r a s e ~ e r b s e.

    e r a s e = x a y with x = e r in eR and y = s e in Re.  So z ~' z' iff
    every z y, y in Re, has the same gamma-label, and a ~ b iff x a ~' x b
    for every x in eR: two groupings of rows by ``_classes``, n x |Re| and
    n x |eR| cells.  The restriction of the lift back to the corner is
    re-checked to equal the input.
    """
    n, e = R.order, c.e
    eR, Re = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    eR[R.mul[e]] = True
    Re[R.mul[:, e]] = True
    zy = _classes(np.asarray(gamma.labels)[c.position[R.mul[:, Re]]])[0]   # z -> class of z*Re
    theta = Congruence._least(_classes(zy[R.mul[eR].T])[1])             # [a, x] -> x*a
    if not is_congruence(R, theta):
        raise InvariantViolation("corner congruence lift is not a congruence")
    restriction = Congruence([theta.labels[m] for m in c.members])
    if restriction != gamma:
        raise InvariantViolation("corner congruence correspondence failed")
    return theta


@functools.cache
def _law_lookups(n: int) -> tuple[np.ndarray, ...]:
    """a, b and c of the n^3 instances (a, b, c), a-major, and per law the
    cells its two sides read, as the rows of one stack: (ab, c, a, bc) for
    (ab)c = a(bc), (a, b + c, ab, ac) for a(b + c) = ab + ac and
    (a + c, b, ab, cb) for (a + c)b = ab + cb.  A cell is its offset in a
    frontier row of ``_table_search`` (the (n + 1)-wide padded table, then
    the addition at offset (n + 1)^2, which holds b + c and a + c); a lone
    row index stands as the offset of its row (a as a(n + 1)), a lone
    column index as itself.  Built once per order and read-only, since
    every search of the order shares them."""
    m = n + 1
    a, b, c = np.indices((n, n, n)).reshape(3, -1)
    am = a * m
    ab, bc, ac, cb = am + b, b * m + c, am + c, c * m + b
    mm = m * m
    out = (a, b, c, np.stack((ab, c, am, bc)), np.stack((am, mm + bc, ab, ac)),
           np.stack((mm + ac, b, ab, cb)))
    for x in out:
        x.flags.writeable = False
    return out


def _table_search(table: np.ndarray, cells, adds: np.ndarray | None = None,
                  symmetric: bool = False, floors=None) -> np.ndarray:
    """Every completion of ``table`` over ``cells`` that is associative and,
    given the (k, n, n) stack ``adds``, distributive on both sides over one
    of its additions.  Cell ``cells[t]`` takes the values
    ``floors[t]``..n-1 (all values when ``floors`` is None).  Without
    ``adds`` the completions come as an (m, n, n) stack.  With them, one
    frontier serves every addition: it is seeded with one row per
    addition, each row carries its addition after its table, and the
    completions come as an (m, 2, n, n) stack of (addition, completion)
    pairs, addition-major.

    A level-by-level search over a frontier of partial tables, one row per
    table, kept in lexicographic order of the seed and then of the
    assigned cell values.  At each cell, every row is expanded by the
    cell's values (parent-major, value-minor; mirrored to (j, i) when
    ``symmetric``) and the children in which some law instance with all
    lookups assigned fails are dropped, all in one numpy pass per slab of
    rows (``core._slab(v * k)`` rows for v values, k the most instances of
    one law a child checks).  Completions therefore come out seed-major,
    then in lexicographic order of their cell values.  Cells outside
    ``cells`` count as assigned.

    The first level checks every instance, which covers the given cells.
    After that, a level checks only the instances that can read its new
    cell (i, j), or (j, i) when ``symmetric``, since every other instance
    reads what its parent's did: associativity (ab)c = a(bc) with a = i or
    c = j (2n^2 - n of the n^3), left distributivity a(b + c) = ab + ac
    with a = i (n^2) and right distributivity (a + c)b = ab + cb with b = j
    (n^2); when symmetric, i and j each stand for both.

    Tables are padded to (n + 1) x (n + 1) and an unassigned cell holds n,
    as do the padding row and column, so a lookup through an unassigned
    cell reads n: an instance is fully assigned iff both its sides are
    below n.
    """
    n = table.shape[0]
    m = n + 1
    mm = m * m
    pad = np.full((m, m), n, dtype=np.int8)
    pad[:n, :n] = table
    flat = [i * m + j for i, j in cells]
    mirror = [j * m + i for i, j in cells] if symmetric else flat
    pad.flat[flat] = pad.flat[mirror] = n
    front = pad.reshape(1, mm)
    if adds is not None:
        # each row is the table followed by its addition, at offset m^2
        sums = np.full((len(adds), m, m), n, dtype=np.int8)
        sums[:, :n, :n] = adds
        front = np.hstack((front.repeat(len(adds), axis=0), sums.reshape(-1, mm)))

    def completions(front: np.ndarray) -> np.ndarray:
        tables = front.reshape(len(front), front.shape[1] // mm, m, m)
        tables = tables[:, ::-1, :n, :n].astype(np.int32)
        return tables[:, 0] if adds is None else tables

    if not cells:
        return completions(front)
    a, b, c, assoc, left, right = _law_lookups(n)
    # which instances each level checks: level t's cell is (i[t], j[t]),
    # and (j[t], i[t]) when symmetric
    i, j = np.array(cells, dtype=np.intp).T[:, :, None]
    on_row = (lambda x: (x == i) | (x == j)) if symmetric else (lambda x: x == i)
    on_col = on_row if symmetric else (lambda x: x == j)
    laws = [(assoc, on_row(a) | on_col(c))]
    if adds is not None:
        laws += [(left, on_row(a)), (right, on_col(b))]
    for _, checked in laws:
        checked[0] = True
    row = np.arange(m) * m                   # the cell offset of row v
    sum_row = row + mm                       # of row v of the addition

    def consistent(kids: np.ndarray, level: list[np.ndarray]) -> np.ndarray:
        # a lookup kids[r, cell] reads values[r * width + cell]
        values = kids.ravel()
        base = np.arange(0, kids.size, kids.shape[1])[:, None]
        read = lambda at: kids.take(at, axis=1)

        def fails(lhs, rhs):
            lhs, rhs = values.take(lhs + base), values.take(rhs + base)
            return ((lhs != rhs) & (np.maximum(lhs, rhs) < n)).any(axis=1)

        ab_, c_, a_, bc_ = level[0]
        bad = fails(row.take(read(ab_)) + c_, a_ + read(bc_))              # (ab)c = a(bc)
        if len(level) > 1:
            a_, bc_, ab_, ac_ = level[1]                                   # a(b + c) = ab + ac
            bad |= fails(a_ + read(bc_), sum_row.take(read(ab_)) + read(ac_))
            ac_, b_, ab_, cb_ = level[2]                                   # (a + c)b = ab + cb
            bad |= fails(row.take(read(ac_)) + b_, sum_row.take(read(ab_)) + read(cb_))
        return ~bad

    for t, (p, q, least) in enumerate(zip(flat, mirror, floors or [0] * len(flat))):
        if not len(front):
            break
        level = [idx[:, checked[t]] for idx, checked in laws]
        vals = np.arange(least, n, dtype=np.int8)
        step = _slab(len(vals) * max(idx.shape[1] for idx in level))
        slabs = []
        for s in range(0, len(front), step):
            kids = np.repeat(front[s:s + step], len(vals), axis=0)
            grid = kids.reshape(-1, len(vals), kids.shape[1])    # [parent, value, cell]
            grid[:, :, p] = grid[:, :, q] = vals
            slabs.append(kids[consistent(kids, level)])
        front = np.concatenate(slabs)
    return completions(front)


def enumerate_semilattices(order: int) -> list[FiniteSemilattice]:
    """All isomorphism classes of semilattices with zero of the given order.

    A finite semilattice with zero is a lattice, and every class has a
    natural labelling, in which x <= y implies x <= y as integers: its join
    table J has J[i, j] >= max(i, j), and its top is n - 1.  So the table
    search completes zero's neutral row and column, the identity diagonal
    and the top's row and column n - 1 over the symmetric cells
    1 <= i < j <= n - 2, cell (i, j) with floor j; the completions are the
    naturally labelled join tables.  They are ordered by their relation
    bits (bit (i, j) is J[i, j] == j: i below j), the first cell most
    significant, the order that numbers the names, and deduped by
    canonical join table, all tables in one batched relabeling.  Such a
    join table is a semilattice with zero by construction and is not
    re-validated.  The tables of each order are built once per process
    (``_join_tables``) and shared, read-only, by every call.
    """
    if not _is_integer(order) or order < 1:
        raise ValueError(f"order must be a positive integer; got {order!r}")
    if order > SEMILATTICE_ORDER_BOUND:
        raise SizeGuardExceeded(f"semilattice enumeration is bounded at order "
                                 f"{SEMILATTICE_ORDER_BOUND}; asked for {order}")
    names, joins = _join_tables(order)
    return [FiniteSemilattice(J, zero=0, name=name, validate=False)
            for name, J in zip(names, joins)]


@functools.cache
def _join_tables(n: int) -> tuple[tuple[str, ...], np.ndarray]:
    """The names and canonical join tables of the semilattice classes of
    order n, sorted by table, as a read-only (k, n, n) int32 stack; the
    names number the classes in discovery order (``enumerate_semilattices``)."""
    ids = np.arange(n)
    join = np.full((n, n), n - 1, dtype=np.int32)
    join[0] = join[:, 0] = join[ids, ids] = ids
    cells = [(i, j) for i in range(1, n - 1) for j in range(i + 1, n - 1)]
    joins = _table_search(join, cells, symmetric=True, floors=[j for _, j in cells])
    if cells:
        i, j = np.array(cells).T
        joins = joins[np.lexsort((joins[:, i, j] == j).T[::-1])]
    seen = {key: f"sl{n}_{k:03d}" for k, key in enumerate(dict.fromkeys(
        key for key, _ in _lex_least_relabeling(joins[:, None], 0)))}
    keys = sorted(seen)
    tables = np.array(keys, dtype=np.int32).reshape(len(keys), n, n)
    tables.flags.writeable = False
    return tuple(seen[key] for key in keys), tables


def _commutative_monoids(order: int, idempotent: bool = False) -> np.ndarray:
    """Commutative monoid tables with neutral 0, up to iso (canonical reps),
    as a (k, n, n) stack; the idempotent ones are the shared, read-only
    join tables of ``_join_tables``."""
    if idempotent:
        return _join_tables(order)[1]
    n = order
    neutral = np.zeros((n, n), dtype=np.int32)
    neutral[0, :] = neutral[:, 0] = np.arange(n)
    cells = [(i, j) for i in range(1, n) for j in range(i, n)]
    found = _table_search(neutral, cells, symmetric=True)
    keys = dict.fromkeys(key for key, _ in _lex_least_relabeling(found[:, None], 0))
    return np.array(list(keys), dtype=np.int32).reshape(len(keys), n, n)


def _multiplications(adds: np.ndarray) -> np.ndarray:
    """All associative, bidistributive multiplications with 0 absorbing over
    each addition of the (k, n, n) stack ``adds``, as an (m, 2, n, n) stack
    of (addition, multiplication) pairs, addition-major."""
    n = adds.shape[-1]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]
    return _table_search(np.zeros((n, n), dtype=np.int32), cells, adds=adds)


def _identities(muls: np.ndarray) -> list[int | None]:
    """The two-sided identity of each multiplication table of the stack, or
    None."""
    idx = np.arange(muls.shape[-1])
    is_one = (muls == idx).all(axis=2) & (muls.transpose(0, 2, 1) == idx).all(axis=2)
    return [e if found else None
            for e, found in zip(is_one.argmax(axis=1).tolist(), is_one.any(axis=1).tolist())]


def enumerate_hemirings(order: int, additively_idempotent: bool = False) -> list[FiniteHemiring]:
    """All isomorphism classes of hemirings of the given order.

    The additive monoids are fixed first (few classes), then one table
    search fills the multiplication cells (1..n-1)^2 over all of them at
    once, level by level over a batch of partial tables, each carrying its
    addition, pruning on associativity and both distributive laws.  One
    batched relabeling of all (addition, multiplication) pairs gives their
    global canonical forms, which dedupe the results.  Names are numbered
    in discovery order, which the monoid order and the cell and value
    orders of the search fix.  The search drops every table with a failing
    law instance, so each entry is a hemiring by construction and is not
    re-validated; the entries' tables are views of one read-only int32
    stack.  Each entry is its own canonical form, so it carries that form
    with the identity labelling for ``canonical_form`` and
    ``is_isomorphic``.
    """
    if not _is_integer(order) or order < 1:
        raise ValueError(f"order must be a positive integer; got {order!r}")
    bound = HEMIRING_IDEMPOTENT_BOUND if additively_idempotent else HEMIRING_ORDER_BOUND
    if order > bound:
        kind = "additively idempotent " if additively_idempotent else ""
        raise SizeGuardExceeded(f"{kind}hemiring enumeration is bounded at order {bound}; "
                                 f"asked for {order}")
    cells = order * order
    tag = "ai" if additively_idempotent else "hr"
    pairs = _multiplications(_commutative_monoids(order, additively_idempotent))
    names: dict[tuple, str] = {}
    for (flat, p), one in zip(_lex_least_relabeling(pairs, 0), _identities(pairs[:, 1])):
        key = (flat, None if one is None else p[one])
        if key not in names:
            names[key] = f"{tag}{order}_{len(names):03d}"
    keys = sorted(names)
    tables = np.array([flat for flat, _ in keys], dtype=np.int32).reshape(-1, 2, order, order)
    tables.flags.writeable = False
    out = []
    for (flat, one), (add, mul) in zip(keys, tables):
        R = FiniteHemiring._of_tables(add, mul, 0, one, names[flat, one])
        R._memo["canonical_labelling"] = ((flat[:cells], flat[cells:], one),
                                          tuple(range(order)))
        out.append(R)
    return out
