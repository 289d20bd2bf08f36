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
lexicographic order.  Additive monoids are its symmetric completions of
the neutral row and column; the semilattice join tables its symmetric
completions of the neutral row and column, the identity diagonal and the
top's row and column, with floors that keep the labelling natural;
multiplications its completions of the zero row and column.  Results are
deduplicated by canonical form under carrier permutations that fix zero,
one batched relabeling (``core._lex_least_relabeling``) per batch: all
monoids of an order, all multiplications over one additive monoid, all
join tables of an order.

Every builder here returns an algebra by construction (a catalog table
passed every law instance of the search; M_n(R), eRe and the finite fields
are hemirings by theorem), so none re-runs the axiom scan on its output;
the tests re-check each kind of output with ``check_hemiring_axioms``.
"""

from __future__ import annotations

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


def _table_search(table: np.ndarray, cells, add: np.ndarray | None = None,
                  symmetric: bool = False, floors=None) -> np.ndarray:
    """Every completion of ``table`` over ``cells`` that is associative and,
    given ``add``, distributive over it on both sides, as an (m, n, n)
    stack.  Cell ``cells[t]`` takes the values ``floors[t]``..n-1 (all
    values when ``floors`` is None).

    A level-by-level search over a frontier of partial tables, one row per
    table, kept in lexicographic order of their assigned cell values.  At
    each cell, every row is expanded by the cell's values (parent-major,
    value-minor; mirrored to (j, i) when ``symmetric``) and the children in
    which some law instance with all lookups assigned fails are dropped,
    all in one numpy pass per slab of rows (``core._slab(v * n ** 3)``
    rows for v values: a row's v children check n^3 instances each).
    Completions therefore come out in lexicographic order of their cell
    values.  Cells outside ``cells`` count as assigned.

    Tables are padded to (n + 1) x (n + 1) and an unassigned cell holds n,
    as do the padding row and column, so a lookup through an unassigned
    cell reads n: an instance is fully assigned iff both its sides are
    below n.
    """
    n = table.shape[0]
    m = n + 1
    pad = np.full((m, m), n, dtype=np.int8)
    pad[:n, :n] = table
    flat = [i * m + j for i, j in cells]
    mirror = [j * m + i for i, j in cells] if symmetric else flat
    pad.flat[flat] = pad.flat[mirror] = n
    a, b, c = np.indices((n, n, n)).reshape(3, -1)
    am = a * m
    ab, bc = am + b, b * m + c
    if add is not None:
        plus = np.full((m, m), n, dtype=np.int8)
        plus[:n, :n] = add
        plus = plus.ravel()
        ac, cb = am + c, c * m + b
        left = am + plus[bc]                  # a(b + c) = ab + ac
        right = plus[ac] * m + b              # (a + c)b = ab + cb

    def consistent(kids: np.ndarray) -> np.ndarray:
        # a lookup kids[r, cell] reads values[r * m^2 + cell]; the indices
        # are built in place in one buffer
        values = kids.ravel()
        base = np.arange(0, kids.size, m * m)[:, None]
        x = kids[:, ab].astype(np.intp)
        x *= m                                # the row of ab, as a cell offset
        idx = base + c
        idx += x
        lhs = values[idx]                     # (ab)c = a(bc)
        np.add(base, am, out=idx)
        idx += kids[:, bc]
        rhs = values[idx]
        bad = (lhs != rhs) & (lhs < n) & (rhs < n)
        if add is not None:
            for cell, other in ((left, ac), (right, cb)):
                np.add(x, kids[:, other], out=idx)
                lhs, rhs = kids[:, cell], plus[idx]
                bad |= (lhs != rhs) & (lhs < n) & (rhs < n)
        return ~bad.any(axis=1)

    front = pad.reshape(1, m * m)
    for p, q, least in zip(flat, mirror, floors or [0] * len(flat)):
        if not len(front):
            break
        vals = np.arange(least, n, dtype=np.int8)
        step = _slab(len(vals) * n ** 3)
        slabs = []
        for s in range(0, len(front), step):
            kids = np.repeat(front[s:s + step], len(vals), axis=0)
            kids[:, p] = kids[:, q] = np.tile(vals, len(kids) // len(vals))
            slabs.append(kids[consistent(kids)])
        front = np.concatenate(slabs)
    return front.reshape(-1, m, m)[:, :n, :n].astype(np.int32)


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
    re-validated.
    """
    if not _is_integer(order) or order < 1:
        raise ValueError(f"order must be a positive integer; got {order!r}")
    if order > SEMILATTICE_ORDER_BOUND:
        raise SizeGuardExceeded(f"semilattice enumeration is bounded at order "
                                 f"{SEMILATTICE_ORDER_BOUND}; asked for {order}")
    n = order
    ids = np.arange(n)
    join = np.full((n, n), n - 1, dtype=np.int32)
    join[0] = join[:, 0] = join[ids, ids] = ids
    cells = [(i, j) for i in range(1, n - 1) for j in range(i + 1, n - 1)]
    joins = _table_search(join, cells, symmetric=True, floors=[j for _, j in cells])
    if cells:
        i, j = np.array(cells).T
        joins = joins[np.lexsort((joins[:, i, j] == j).T[::-1])]
    seen: dict[tuple, FiniteSemilattice] = {}
    for key, _ in _lex_least_relabeling(joins[:, None], 0):
        if key not in seen:
            seen[key] = FiniteSemilattice(np.array(key, dtype=np.int32).reshape(n, n),
                                          zero=0, name=f"sl{n}_{len(seen):03d}",
                                          validate=False)
    return [seen[key] for key in sorted(seen)]


def _commutative_monoids(order: int, idempotent: bool = False) -> list[np.ndarray]:
    """Commutative monoid tables with neutral 0, up to iso (canonical reps)."""
    if idempotent:
        return [M.join.copy() for M in enumerate_semilattices(order)]
    n = order
    neutral = np.zeros((n, n), dtype=np.int32)
    neutral[0, :] = neutral[:, 0] = np.arange(n)
    cells = [(i, j) for i in range(1, n) for j in range(i, n)]
    found = _table_search(neutral, cells, symmetric=True)
    keys = dict.fromkeys(key for key, _ in _lex_least_relabeling(found[:, None], 0))
    return [np.array(key, dtype=np.int32).reshape(n, n) for key in keys]


def _multiplications(add: np.ndarray) -> np.ndarray:
    """All associative, bidistributive multiplications over a fixed addition,
    with 0 absorbing, as an (m, n, n) stack."""
    n = add.shape[0]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]
    return _table_search(np.zeros((n, n), dtype=np.int32), cells, add=add)


def _identities(muls: np.ndarray) -> list[int | None]:
    """The two-sided identity of each multiplication table of the stack, or
    None."""
    idx = np.arange(muls.shape[-1])
    is_one = (muls == idx).all(axis=2) & (muls.transpose(0, 2, 1) == idx).all(axis=2)
    return [int(e.argmax()) if e.any() else None for e in is_one]


def enumerate_hemirings(order: int, additively_idempotent: bool = False) -> list[FiniteHemiring]:
    """All isomorphism classes of hemirings of the given order.

    The additive monoid is fixed first (few classes), then the table search
    fills the multiplication cells (1..n-1)^2 level by level over a batch of
    partial tables, pruning on associativity and both distributive laws;
    one batched relabeling per additive monoid gives the global canonical
    forms of all its multiplications, which dedupe the results.  Names are
    numbered in discovery order, which the cell and value orders of the
    search fix.  The search drops every table with a failing law instance,
    so each entry is a hemiring by construction and is not re-validated.
    Each entry is its own canonical form, so it carries that form with the
    identity labelling for ``canonical_form`` and ``is_isomorphic``.
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
    seen: dict[tuple, FiniteHemiring] = {}
    for add in _commutative_monoids(order, additively_idempotent):
        muls = _multiplications(add)
        pairs = np.empty((len(muls), 2, order, order), dtype=np.int8)
        pairs[:, 0], pairs[:, 1] = add, muls
        forms = _lex_least_relabeling(pairs, 0)
        for (flat, p), one in zip(forms, _identities(muls)):
            key = (flat[:cells], flat[cells:], None if one is None else p[one])
            if key not in seen:
                R = FiniteHemiring(
                    np.array(key[0], dtype=np.int32).reshape(order, order),
                    np.array(key[1], dtype=np.int32).reshape(order, order),
                    zero=0, one=key[2], name=f"{tag}{order}_{len(seen):03d}",
                    validate=False)
                R._memo["canonical_labelling"] = key, tuple(range(order))
                seen[key] = R
    return [seen[key] for key in sorted(seen)]
