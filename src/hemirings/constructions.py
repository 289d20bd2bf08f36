"""Builders and exhaustive small-order catalogs.

Matrix semirings pack n x n matrices over a base algebra into mixed-radix
integers (cell (i, j) is the digit of weight |R|^(i*n+j), row-major), so
every decider in the package runs on them unchanged.

Catalog tables come from one search, ``_table_search``: it fills table
cells in a fixed order with values in ascending order and drops a partial
table as soon as some associativity (or, over a given addition,
distributivity) instance whose lookups are all assigned fails.  Additive
monoids are its symmetric completions of the neutral row and column (the
idempotent ones are the semilattice join tables), multiplications its
completions of the zero row and column; results are deduplicated by
canonical form under carrier permutations that fix zero.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import (
    FiniteHemiring,
    InvariantViolation,
    PartialOrder,
    SizeGuardExceeded,
    _lex_least_relabeling,
)
from .lattices import FiniteSemilattice
from .simpleness import (
    Congruence,
    IdealSubset,
    generated_ideal,
    is_congruence,
)

__all__ = [
    "Catalog",
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
MATRIX_VALIDATE_CAP = 1024
SEMILATTICE_ORDER_BOUND = 6
HEMIRING_IDEMPOTENT_BOUND = 4
HEMIRING_ORDER_BOUND = 3


def boolean_B() -> FiniteHemiring:
    """The Boolean semifield {0, 1} with 1 + 1 = 1."""
    return FiniteHemiring([[0, 1], [1, 1]], [[0, 0], [0, 1]], zero=0, one=1, name="B")


def two_zero_mult() -> FiniteHemiring:
    """The additively idempotent two-element hemiring with zero multiplication."""
    return FiniteHemiring([[0, 1], [1, 1]], [[0, 0], [0, 0]], zero=0, name="2")


def integers_mod(m: int) -> FiniteHemiring:
    """The ring Z/m as a semiring table (test plumbing, not ring theory)."""
    if m < 1:
        raise ValueError("modulus must be positive")
    idx = np.arange(m)
    add = (idx[:, None] + idx[None, :]) % m
    mul = (idx[:, None] * idx[None, :]) % m
    return FiniteHemiring(add, mul, zero=0, one=1 % m if m > 1 else 0, name=f"Z/{m}")


FIELD_ORDERS = (2, 3, 4, 5, 7, 8, 9)

_GF_IRREDUCIBLE = {
    4: (2, (1, 1)),    # x^2 + x + 1 over GF(2)
    8: (2, (1, 1, 0)),  # x^3 + x + 1 over GF(2)
    9: (3, (1, 0)),    # x^2 + 1 over GF(3)
}


def finite_field(q: int) -> FiniteHemiring:
    """GF(q) for q in ``FIELD_ORDERS``.

    Prime powers use fixed irreducible polynomials so the tables are
    bit-exact across runs; elements are little-endian base-p digit strings.
    """
    if q in (2, 3, 5, 7):
        Z = integers_mod(q)
        return FiniteHemiring(Z.add, Z.mul, zero=0, one=1, name=f"GF({q})")
    if q not in _GF_IRREDUCIBLE:
        raise ValueError(f"unsupported field order {q}")
    p, tail = _GF_IRREDUCIBLE[q]
    k = len(tail)

    def digits(x):
        out = []
        for _ in range(k):
            out.append(x % p)
            x //= p
        return out

    def undigits(ds):
        v = 0
        for d in reversed(ds):
            v = v * p + d
        return v

    def poly_mul(a, b):
        conv = [0] * (2 * k - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                conv[i + j] = (conv[i + j] + ai * bj) % p
        # reduce by x^k = -(tail), lowest coefficient first
        for deg in range(2 * k - 2, k - 1, -1):
            c = conv[deg]
            if c:
                conv[deg] = 0
                for j, t in enumerate(tail):
                    conv[deg - k + j] = (conv[deg - k + j] - c * t) % p
        return conv[:k]

    add = np.empty((q, q), dtype=np.int32)
    mul = np.empty((q, q), dtype=np.int32)
    for x in range(q):
        dx = digits(x)
        for y in range(q):
            dy = digits(y)
            add[x, y] = undigits([(a + b) % p for a, b in zip(dx, dy)])
            mul[x, y] = undigits(poly_mul(dx, dy))
    R = FiniteHemiring(add, mul, zero=0, one=1, name=f"GF({q})")
    for x in range(1, q):
        if not (R.mul[x] == R.one).any():
            raise InvariantViolation(f"GF({q}) element {x} not invertible")
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
        m = np.asarray(mat, dtype=np.int64).reshape(self.n * self.n)
        return int((m * self._weights).sum())

    def decode(self, idx: int) -> np.ndarray:
        b = self.base.order
        out = np.empty(self.n * self.n, dtype=np.int32)
        for c in range(self.n * self.n):
            out[c] = idx % b
            idx //= b
        return out.reshape(self.n, self.n)

    def unit(self, i: int, j: int) -> int:
        """The matrix unit E_ij (base one at cell (i, j))."""
        if self.base.one is None:
            raise ValueError("matrix units need a base identity")
        m = np.full((self.n, self.n), self.base.zero, dtype=np.int64)
        m[i, j] = self.base.one
        return self.encode(m)


def matrix_semiring(R: FiniteHemiring, n: int, max_order: int = MATRIX_ORDER_BOUND,
                    validate_cap: int = MATRIX_VALIDATE_CAP) -> MatrixSemiring:
    """The matrix hemiring M_n(R) with packed tables.

    Tables are computed directly from entrywise digit arithmetic over the
    base tables.  Full axiom re-validation runs up to ``validate_cap``; the
    O(order^3) scan is infeasible at the default order bound.
    """
    if n < 1:
        raise ValueError("n must be positive")
    b = R.order
    N = b ** (n * n)
    if N > max_order:
        raise SizeGuardExceeded(f"matrix carrier {b}^{n * n} = {N} exceeds bound {max_order}")

    cells = n * n
    weights = (b ** np.arange(cells, dtype=np.int64))
    digits = np.empty((N, cells), dtype=np.int32)
    rem = np.arange(N, dtype=np.int64)
    for c in range(cells):
        digits[:, c] = rem % b
        rem //= b

    dtype = np.int32
    add = np.empty((N, N), dtype=dtype)
    mul = np.empty((N, N), dtype=dtype)
    D3 = digits.reshape(N, n, n)
    for x in range(N):
        sums = R.add[digits[x][None, :], digits]          # (N, cells)
        add[x] = (sums.astype(np.int64) * weights).sum(axis=1)
        a = D3[x]
        acc = np.full((N, n, n), R.zero, dtype=np.int32)
        for i in range(n):
            for j in range(n):
                col = acc[:, i, j]
                for k in range(n):
                    col = R.add[col, R.mul[a[i, k], D3[:, k, j]]]
                acc[:, i, j] = col
        mul[x] = (acc.reshape(N, cells).astype(np.int64) * weights).sum(axis=1)

    zero = int((np.full(cells, R.zero, dtype=np.int64) * weights).sum())
    one = None
    if R.one is not None:
        eye = np.full((n, n), R.zero, dtype=np.int64)
        eye[np.diag_indices(n)] = R.one
        one = int((eye.reshape(cells) * weights).sum())

    validate = N <= validate_cap
    H = FiniteHemiring(add, mul, zero=zero, one=one,
                       name=f"M_{n}({R.name or R.order})", validate=validate)
    return MatrixSemiring(R, n, H, weights)


class CornerSemiring:
    """The semiring e*R*e for an idempotent e, with identity e."""

    __slots__ = ("base", "e", "members", "hemiring", "position")

    def __init__(self, base: FiniteHemiring, e: int, members: tuple[int, ...],
                 hemiring: FiniteHemiring):
        self.base = base
        self.e = e
        self.members = members
        self.hemiring = hemiring
        self.position = {m: i for i, m in enumerate(members)}

    @property
    def order(self) -> int:
        return len(self.members)

    def project(self, x: int) -> int:
        """Corner index of e*x*e."""
        return self.position[int(self.base.mul[self.base.mul[self.e, x], self.e])]


def corner(R: FiniteHemiring, e: int) -> CornerSemiring:
    """Build eRe; requires e idempotent."""
    if R.mul[e, e] != e:
        raise ValueError(f"element {e} is not idempotent")
    exe = R.mul[R.mul[e], e]           # x -> e*x*e
    members = tuple(int(v) for v in np.unique(exe))
    pos = {m: i for i, m in enumerate(members)}
    k = len(members)
    add = np.empty((k, k), dtype=np.int32)
    mul = np.empty((k, k), dtype=np.int32)
    for i, x in enumerate(members):
        for j, y in enumerate(members):
            add[i, j] = pos[int(R.add[x, y])]
            mul[i, j] = pos[int(R.mul[x, y])]
    H = FiniteHemiring(add, mul, zero=pos[R.zero], one=pos[e],
                       name=f"corner({R.name or R.order},{e})")
    return CornerSemiring(R, e, members, H)


def is_full_idempotent(R: FiniteHemiring, e: int) -> bool:
    """e idempotent with the two-sided ideal it generates equal to R."""
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

    The restriction of the lift back to the corner is re-checked to equal
    the input.
    """
    n = R.order
    e = c.e
    er = R.mul[e]                       # r -> e*r
    glabels = np.asarray(gamma.labels, dtype=np.int32)
    posarr = np.full(n, -1, dtype=np.int32)
    for m, i in c.position.items():
        posarr[m] = i
    sigs: dict[bytes, int] = {}
    labels = np.empty(n, dtype=np.int32)
    for a in range(n):
        era = R.mul[er, a]               # r -> e*r*a
        erase = R.mul[R.mul[era], e]     # [r, s] -> e*r*a*s*e
        sig = glabels[posarr[erase]].tobytes()
        labels[a] = sigs.setdefault(sig, a)
    theta = Congruence(labels)
    if not is_congruence(R, theta):
        raise InvariantViolation("corner congruence lift is not a congruence")
    restriction = Congruence([theta.labels[m] for m in c.members])
    if restriction != gamma:
        raise InvariantViolation("corner congruence correspondence failed")
    return theta


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    algebra: object            # FiniteHemiring or FiniteSemilattice
    canonical_hash: str
    properties: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class Catalog:
    kind: str                  # "semilattice" | "hemiring" | "semiring"
    max_order: int
    entries: tuple[CatalogEntry, ...]

    def algebras(self) -> list:
        return [e.algebra for e in self.entries]


def enumerate_semilattices(order: int) -> list[FiniteSemilattice]:
    """All isomorphism classes of semilattices with zero of the given order.

    Enumerates naturally-labeled posets on the nonzero elements (strict
    order compatible with indices covers every class), keeps those where
    all joins (the meets of the reversed order) exist, and dedupes by
    canonical join table.
    """
    if order > SEMILATTICE_ORDER_BOUND:
        raise SizeGuardExceeded(f"semilattice enumeration bounded at order {SEMILATTICE_ORDER_BOUND}")
    if order < 1:
        raise ValueError("order must be positive")
    n = order
    k = n - 1
    seen: dict[tuple, FiniteSemilattice] = {}
    uppers = [(i, j) for i in range(k) for j in range(i + 1, k)]
    for bits in itertools.product((False, True), repeat=len(uppers)):
        lt = np.zeros((k, k), dtype=bool)
        for (i, j), b in zip(uppers, bits):
            lt[i, j] = b
        # transitivity of the strict relation
        closure = lt.copy()
        for m in range(k):
            closure |= closure[:, m][:, None] & closure[m, :][None, :]
        if (closure != lt).any():
            continue
        leq = np.zeros((n, n), dtype=bool)
        leq[0, :] = True
        leq[np.diag_indices(n)] = True
        leq[1:, 1:] |= lt
        join = PartialOrder(leq.T, validate=False).meet_table()
        if join is None:
            continue
        key = _lex_least_relabeling((join,), 0)[0]
        if key not in seen:
            M = FiniteSemilattice(np.array(key, dtype=np.int32).reshape(n, n),
                                  zero=0, name=f"sl{n}_{len(seen):03d}")
            seen[key] = M
    return [seen[key] for key in sorted(seen)]


def _table_search(table: np.ndarray, cells, add: np.ndarray | None = None,
                  symmetric: bool = False) -> list[np.ndarray]:
    """Every completion of ``table`` over ``cells`` that is associative and,
    given ``add``, distributive over it on both sides.

    Cells are filled in the given order with values 0..n-1 in ascending
    order, each mirrored to (j, i) when ``symmetric``, so completions come
    out in lexicographic order of their cell values.  After each assignment
    the partial table is dropped if some law instance whose lookups are all
    assigned fails: one numpy pass over all triples with a mask of assigned
    cells.  Cells outside ``cells`` count as assigned.
    """
    n = table.shape[0]
    t = table.astype(np.intp).ravel()
    known = np.ones(n * n, dtype=bool)
    flat = [i * n + j for i, j in cells]
    mirror = [j * n + i for i, j in cells] if symmetric else flat
    known[flat] = known[mirror] = False
    a, b, c = np.indices((n, n, n)).reshape(3, -1)
    ab, bc = a * n + b, b * n + c
    if add is not None:
        plus = add.astype(np.intp).ravel()
        ac, cb = a * n + c, c * n + b
        left = a * n + plus[bc]          # a(b + c) = ab + ac
        right = plus[ac] * n + b         # (a + c)b = ab + cb
    out = []

    def consistent() -> bool:
        x, y = t[ab], t[bc]
        lhs, rhs = x * n + c, a * n + y   # (ab)c = a(bc)
        kab = known[ab]
        bad = kab & known[bc] & known[lhs] & known[rhs] & (t[lhs] != t[rhs])
        if add is not None:
            bad |= kab & known[ac] & known[left] & (t[left] != plus[x * n + t[ac]])
            bad |= kab & known[cb] & known[right] & (t[right] != plus[x * n + t[cb]])
        return not bad.any()

    def extend(k: int):
        if k == len(flat):
            out.append(t.reshape(n, n).astype(np.int32))
            return
        p, q = flat[k], mirror[k]
        known[p] = known[q] = True
        for v in range(n):
            t[p] = t[q] = v
            if consistent():
                extend(k + 1)
        known[p] = known[q] = False
        t[p] = t[q] = 0

    extend(0)
    return out


def _commutative_monoids(order: int, idempotent: bool = False) -> list[np.ndarray]:
    """Commutative monoid tables with neutral 0, up to iso (canonical reps)."""
    if idempotent:
        return [M.join.copy() for M in enumerate_semilattices(order)]
    n = order
    neutral = np.zeros((n, n), dtype=np.int32)
    neutral[0, :] = neutral[:, 0] = np.arange(n)
    cells = [(i, j) for i in range(1, n) for j in range(i, n)]
    seen = set()
    out = []
    for t in _table_search(neutral, cells, symmetric=True):
        key = _lex_least_relabeling((t,), 0)[0]
        if key not in seen:
            seen.add(key)
            out.append(np.array(key, dtype=np.int32).reshape(n, n))
    return out


def _multiplications(add: np.ndarray) -> list[np.ndarray]:
    """All associative, bidistributive multiplications over a fixed addition,
    with 0 absorbing."""
    n = add.shape[0]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]
    return _table_search(np.zeros((n, n), dtype=np.int32), cells, add=add)


def _find_one(add: np.ndarray, mul: np.ndarray) -> int | None:
    n = add.shape[0]
    idx = np.arange(n)
    for e in range(n):
        if (mul[e] == idx).all() and (mul[:, e] == idx).all():
            return e
    return None


def enumerate_hemirings(order: int, additively_idempotent: bool = False) -> list[FiniteHemiring]:
    """All isomorphism classes of hemirings of the given order.

    The additive monoid is fixed first (few classes), then the table search
    fills the multiplication cells (1..n-1)^2 one at a time, pruning on
    associativity and both distributive laws; global canonical forms dedupe
    the results.  Names are numbered in discovery order, which the cell and
    value orders of the search fix.  Every completed table satisfies the
    laws; ``FiniteHemiring`` validates the canonical table of each new
    class, and every other table is a relabelling of one of those.
    """
    bound = HEMIRING_IDEMPOTENT_BOUND if additively_idempotent else HEMIRING_ORDER_BOUND
    if order > bound:
        kind = "additively idempotent " if additively_idempotent else ""
        raise SizeGuardExceeded(f"{kind}hemiring enumeration bounded at order {bound}")
    if order < 1:
        raise ValueError("order must be positive")
    cells = order * order
    seen: dict[tuple, FiniteHemiring] = {}
    for add in _commutative_monoids(order, additively_idempotent):
        for mul in _multiplications(add):
            flat, p = _lex_least_relabeling((add, mul), 0)
            one = _find_one(add, mul)
            key = (flat[:cells], flat[cells:], None if one is None else p[one])
            if key not in seen:
                tag = "ai" if additively_idempotent else "hr"
                seen[key] = FiniteHemiring(
                    np.array(key[0], dtype=np.int32).reshape(order, order),
                    np.array(key[1], dtype=np.int32).reshape(order, order),
                    zero=0, one=key[2], name=f"{tag}{order}_{len(seen):03d}")
    return [seen[key] for key in sorted(seen)]

