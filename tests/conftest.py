import itertools

import numpy as np
import pytest

from hemirings import (
    FiniteHemiring,
    FiniteSemilattice,
    boolean_B,
    build_E_M,
    integers_mod,
    matrix_semiring,
    two_zero_mult,
)
from hemirings.core import _trusted, as_op_table
from hemirings.verify import _hemirings, _semilattices


def chain_semilattice(n: int, name: str = "") -> FiniteSemilattice:
    join = np.maximum.outer(np.arange(n), np.arange(n))
    return FiniteSemilattice(join, zero=0, name=name or f"C{n}")


def diamond_semilattice() -> FiniteSemilattice:
    # 0 < a,b,c < top with incomparable atoms
    return FiniteSemilattice([
        [0, 1, 2, 3, 4],
        [1, 1, 4, 4, 4],
        [2, 4, 2, 4, 4],
        [3, 4, 4, 3, 4],
        [4, 4, 4, 4, 4]], name="M3")


def pentagon_semilattice() -> FiniteSemilattice:
    # 0 < a < b, 0 < c, tops join at 1 (N5)
    return FiniteSemilattice([
        [0, 1, 2, 3, 4],
        [1, 1, 2, 4, 4],
        [2, 2, 2, 4, 4],
        [3, 4, 4, 3, 4],
        [4, 4, 4, 4, 4]], name="N5")


def chain3_min_semiring():
    """The chain 0 < a < 1 with join as + and meet as *."""
    from hemirings import FiniteHemiring
    return FiniteHemiring(
        [[0, 1, 2], [1, 1, 2], [2, 2, 2]],
        [[0, 0, 0], [0, 1, 1], [0, 1, 2]],
        zero=0, one=2, name="chain3-min")


def unchecked_hemiring(add, mul, zero=0, one=None):
    """Tables that may break the axioms, as a FiniteHemiring built through
    the package's trusted path; the public constructor rejects them."""
    return _trusted(FiniteHemiring, add=as_op_table(add), mul=as_op_table(mul),
                    zero=zero, one=one, name="")


def direct_product(*factors):
    """Componentwise product; element (a, b) has index a * |S| + b."""
    R = factors[0]
    for S in factors[1:]:
        n, m = R.order, S.order
        add = (R.add[:, None, :, None] * m + S.add[None, :, None, :]).reshape(n * m, n * m)
        mul = (R.mul[:, None, :, None] * m + S.mul[None, :, None, :]).reshape(n * m, n * m)
        one = None if R.one is None or S.one is None else R.one * m + S.one
        R = FiniteHemiring(add, mul, zero=R.zero * m + S.zero, one=one)
    return R


def relabeled(R, perm):
    """The copy of R in which element x is renamed perm[x]."""
    p = np.asarray(perm)
    add = np.empty_like(R.add)
    mul = np.empty_like(R.mul)
    add[np.ix_(p, p)] = p[R.add]
    mul[np.ix_(p, p)] = p[R.mul]
    one = None if R.one is None else int(p[R.one])
    return FiniteHemiring(add, mul, zero=int(p[R.zero]), one=one)


def is_isomorphism(R, S, f) -> bool:
    """The literal definition: f is a bijection R -> S that keeps zero,
    one, + and *."""
    m = np.asarray(f)
    if sorted(f) != list(range(S.order)) or m[R.zero] != S.zero:
        return False
    if R.one is not None and m[R.one] != S.one:
        return False
    return bool((S.add[np.ix_(m, m)] == m[R.add]).all()
                and (S.mul[np.ix_(m, m)] == m[R.mul]).all())


def ideal_violation(R, members, sidedness: str):
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


def congruence_violation(R, labels):
    """None if the partition with block labels ``labels`` is compatible
    with + and *, else a reason: the first x ~ y (x < y) and c with
    x + c, x * c or c * x not related to y + c, y * c or c * y."""
    lab = np.asarray(labels)
    same = lab[:, None] == lab[None, :]
    for op, T in (("add", R.add), ("right-mul", R.mul), ("left-mul", R.mul.T)):
        images = lab[T]                                           # [x, c]
        bad = same[:, :, None] & (images[:, None, :] != images[None, :, :])
        if bad.any():
            x, y, c = (int(v) for v in np.argwhere(bad)[0])
            return (op, (x, y, c))
    return None


def naive_lex_least(tables, zero):
    """Relabel the tables under every permutation fixing zero at 0 and keep
    the least concatenation."""
    n = tables[0].shape[0]
    rest = [x for x in range(n) if x != zero]
    best = None
    for perm in itertools.permutations(range(1, n)):
        p = np.empty(n, dtype=np.int32)
        p[zero] = 0
        for src, dst in zip(rest, perm):
            p[src] = dst
        cand = []
        for T in tables:
            T2 = np.empty_like(T)
            T2[np.ix_(p, p)] = p[T]
            cand.extend(int(v) for v in T2.ravel())
        cand = tuple(cand)
        if best is None or cand < best:
            best = cand
    return best


@pytest.fixture(scope="session")
def B():
    return boolean_B()


@pytest.fixture(scope="session")
def two():
    return two_zero_mult()


@pytest.fixture(scope="session")
def z2():
    return integers_mod(2)


@pytest.fixture(scope="session")
def z3():
    return integers_mod(3)


@pytest.fixture(scope="session")
def z4():
    return integers_mod(4)


@pytest.fixture(scope="session")
def c2():
    return chain_semilattice(2)


@pytest.fixture(scope="session")
def c3():
    return chain_semilattice(3)


@pytest.fixture(scope="session")
def m3():
    return diamond_semilattice()


@pytest.fixture(scope="session")
def n5():
    return pentagon_semilattice()


@pytest.fixture(scope="session")
def e_c3(c3):
    return build_E_M(c3)


@pytest.fixture(scope="session")
def e_m3(m3):
    return build_E_M(m3)


@pytest.fixture(scope="session")
def m2b(B):
    return matrix_semiring(B, 2)


@pytest.fixture(scope="session")
def semilattices_upto5():
    """All isomorphism classes of semilattices of order <= 5 (shared cache)."""
    return list(_semilattices(5))


@pytest.fixture(scope="session")
def idem_hemirings_upto4():
    return list(_hemirings(4, True))


@pytest.fixture(scope="session")
def plain_hemirings_upto3():
    return list(_hemirings(3, False))


@pytest.fixture(scope="session")
def endo_cache():
    """Shared E_M builder keyed by semilattice."""
    return build_E_M
