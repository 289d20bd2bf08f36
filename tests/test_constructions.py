import itertools
import subprocess
import sys

import numpy as np
import pytest

from hemirings import (
    all_congruences,
    all_ideals,
    boolean_B,
    corner,
    enumerate_hemirings,
    enumerate_semilattices,
    finite_field,
    generated_ideal,
    integers_mod,
    is_congruence_simple,
    is_full_idempotent,
    is_ideal_simple,
    is_isomorphic,
    is_simple,
    matrix_semiring,
)
from hemirings.core import (
    FiniteHemiring,
    SizeGuardExceeded,
    canonical_form,
    check_hemiring_axioms,
)
from hemirings import constructions
from hemirings.constructions import (
    corner_congruence_to_ring,
    corner_ideal_to_ring,
)

from conftest import is_isomorphism, relabeled


def test_boolean_and_two_tables(B, two):
    assert B.add[1, 1] == 1 and B.mul[1, 1] == 1 and B.one == 1
    assert two.add[1, 1] == 1 and two.mul[1, 1] == 0 and two.one is None
    assert is_isomorphic(B, two) is None


def test_matrix_n1_is_the_base(B, z3):
    for R in (B, z3):
        M1 = matrix_semiring(R, 1)
        assert (M1.hemiring.add == R.add).all()
        assert (M1.hemiring.mul == R.mul).all()
        assert M1.hemiring.zero == R.zero and M1.hemiring.one == R.one


def test_matrix_boolean_order_and_simpleness(m2b):
    assert m2b.order == 16
    assert is_simple(m2b.hemiring)
    assert check_hemiring_axioms(m2b.hemiring.add, m2b.hemiring.mul,
                                 m2b.hemiring.zero, m2b.hemiring.one).ok


def test_matrix_z2_is_simple(z2):
    M = matrix_semiring(z2, 2)
    assert M.order == 16
    assert is_simple(M.hemiring)


def test_matrix_units_multiply_like_matrix_units(m2b):
    B = boolean_B()
    for i, j, k, l in itertools.product(range(2), repeat=4):
        prod = m2b.hemiring.mul[m2b.unit(i, j), m2b.unit(k, l)]
        want = m2b.unit(i, l) if j == k else m2b.hemiring.zero
        assert prod == want
    # encode/decode round-trip, also on M_2(GF(4)) (256) and M_3(B) (512)
    for M in (m2b, matrix_semiring(finite_field(4), 2), matrix_semiring(B, 3)):
        for idx in range(M.order):
            assert M.encode(M.decode(idx)) == idx


@pytest.mark.parametrize("call", [
    lambda M: M.encode([[0, 2], [0, 0]]),
    lambda M: M.encode([[0, 1.7], [0, 0]]),
    lambda M: M.decode(16),
    lambda M: M.decode(-1),
    lambda M: M.decode(2.5),
    lambda M: M.unit(-1, 0),
    lambda M: corner(M.hemiring, M.unit(0, 0)).project(-1),
    lambda M: corner(M.hemiring, M.unit(0, 0)).project(99),
], ids=["encode-2", "encode-1.7", "decode-16", "decode--1", "decode-2.5", "unit--1",
        "project--1", "project-99"])
def test_matrix_and_corner_indices_reject_outside_input(m2b, call):
    with pytest.raises(ValueError):
        call(m2b)


def test_matrix_entrywise_agreement(z3):
    M = matrix_semiring(z3, 2)
    rng = np.random.default_rng(3)
    for _ in range(50):
        x, y = rng.integers(0, M.order, 2)
        a, b = M.decode(int(x)), M.decode(int(y))
        s = (a + b) % 3
        p = (a @ b) % 3
        assert M.hemiring.add[x, y] == M.encode(s)
        assert M.hemiring.mul[x, y] == M.encode(p)


def test_matrix_size_guard(B):
    with pytest.raises(SizeGuardExceeded,
                       match=r"^matrix carrier is bounded at MATRIX_ORDER_BOUND = 6561; "
                             r"asked for 2\^25 = 33554432 elements$"):
        matrix_semiring(B, 5)


@pytest.mark.parametrize("n", [2.0, True, 0], ids=["2.0", "True", "0"])
def test_matrix_size_must_be_a_positive_integer(B, n):
    # 2.0 and True used to raise TypeError from numpy
    with pytest.raises(ValueError, match=rf"^n must be a positive integer; got {n!r}$"):
        matrix_semiring(B, n)


def test_numpy_integer_matrix_size(B):
    M = matrix_semiring(B, np.int64(2))
    assert M.hemiring.name == "M_2(B)" and M.hemiring == matrix_semiring(B, 2).hemiring


def test_corner_at_identity_and_zero(m2b):
    R = m2b.hemiring
    c1 = corner(R, R.one)
    assert c1.order == R.order and is_full_idempotent(R, R.one)
    c0 = corner(R, R.zero)
    assert c0.order == 1
    assert not is_full_idempotent(R, R.zero)


def test_corner_at_matrix_unit(m2b):
    R = m2b.hemiring
    e11 = m2b.unit(0, 0)
    assert is_full_idempotent(R, e11)
    c = corner(R, e11)
    assert c.order == 2
    assert is_isomorphic(c.hemiring, boolean_B()) is not None


def test_corner_rejects_non_idempotent(m2b):
    nilp = m2b.unit(0, 1)     # E_12 squares to zero
    with pytest.raises(ValueError):
        corner(m2b.hemiring, nilp)


@pytest.mark.parametrize("build", [corner, is_full_idempotent])
@pytest.mark.parametrize("e", [99, 2.0, -1, True], ids=["99", "2.0", "-1", "True"])
def test_corner_and_full_idempotent_reject_a_non_element(m2b, build, e):
    # 99 and 2.0 used to raise IndexError, True numpy's array truth-value
    # error, and -1 was refused only because it is not idempotent
    with pytest.raises(ValueError, match=r"^element .* is not an element index in \[0, 16\)$"):
        build(m2b.hemiring, e)


def test_corner_ideal_map_zero(m2b):
    R = m2b.hemiring
    e11 = m2b.unit(0, 0)
    c = corner(R, e11)
    zero = all_ideals(c.hemiring)[0]
    assert zero.is_zero
    lifted = corner_ideal_to_ring(R, c, zero)
    assert lifted.is_zero


def test_corner_lattices_biject_for_full_idempotent(m2b):
    R = m2b.hemiring
    e11 = m2b.unit(0, 0)
    c = corner(R, e11)
    ideals_c = all_ideals(c.hemiring)
    congs_c = all_congruences(c.hemiring)
    assert len(ideals_c) == 2 and len(congs_c) == 2
    lifted_i = {corner_ideal_to_ring(R, c, I) for I in ideals_c}
    lifted_g = {corner_congruence_to_ring(R, c, g) for g in congs_c}
    assert lifted_i == set(all_ideals(R))
    assert lifted_g == set(all_congruences(R))


def test_corner_diagonal_lifts_to_diagonal(m2b):
    from hemirings.simpleness import Congruence
    R = m2b.hemiring
    e11 = m2b.unit(0, 0)
    c = corner(R, e11)
    diag = Congruence(range(c.order))
    assert corner_congruence_to_ring(R, c, diag).is_diagonal


def _ideal_product(R, I, J):
    prods = {int(R.mul[x, y]) for x in I.members for y in J.members}
    return generated_ideal(R, prods, "two-sided")


def test_corner_ideal_map_respects_multiplication(z2):
    for base in (boolean_B(), z2):
        M = matrix_semiring(base, 2)
        R = M.hemiring
        for e in R.idempotents():
            c = corner(R, e)
            ideals = all_ideals(c.hemiring)
            for I, J in itertools.product(ideals, repeat=2):
                lift_prod = corner_ideal_to_ring(R, c, _ideal_product(c.hemiring, I, J))
                prod_lift = _ideal_product(R, corner_ideal_to_ring(R, c, I),
                                           corner_ideal_to_ring(R, c, J))
                assert lift_prod == prod_lift


def test_full_idempotent_corners_preserve_simpleness(m2b, z2):
    for M in (m2b, matrix_semiring(z2, 2)):
        R = M.hemiring
        for e in R.idempotents():
            if not is_full_idempotent(R, e):
                continue
            c = corner(R, e)
            assert is_congruence_simple(R) == is_congruence_simple(c.hemiring)
            assert is_ideal_simple(R) == is_ideal_simple(c.hemiring)
            assert is_simple(R) == is_simple(c.hemiring)


def test_finite_fields_validate():
    for q in (2, 3, 4, 5, 7, 8, 9):
        F = finite_field(q)
        assert F.order == q
        assert F.is_commutative()
        report = check_hemiring_axioms(F.add, F.mul, F.zero, F.one)
        assert report.ok
        for x in range(1, q):
            assert any(F.mul[x, y] == F.one and F.mul[y, x] == F.one
                       for y in range(q))


@pytest.mark.parametrize("m", [4.0, True, 0], ids=["4.0", "True", "0"])
def test_modulus_must_be_a_positive_integer(m):
    # True used to build Z/True, 4.0 to fail on the table's dtype
    with pytest.raises(ValueError, match=rf"^modulus must be a positive integer; got {m!r}$"):
        integers_mod(m)


def test_numpy_integer_modulus():
    R = integers_mod(np.int64(4))
    assert R.name == "Z/4" and R == integers_mod(4)


def test_gf2_gf3_match_integers_mod():
    assert (finite_field(2).add == integers_mod(2).add).all()
    assert (finite_field(3).mul == integers_mod(3).mul).all()


def test_gf4_multiplicative_group_cyclic_of_order_3():
    F = finite_field(4)
    orders = []
    for g in range(1, 4):
        k, acc = 1, g
        while acc != F.one:
            acc = int(F.mul[acc, g])
            k += 1
        orders.append(k)
    assert sorted(orders) == [1, 3, 3]


def test_unsupported_field_order():
    with pytest.raises(ValueError):
        finite_field(6)


@pytest.mark.parametrize("q", [4.0, True, 4.5])
def test_field_order_must_be_an_integer(q):
    # 4.0 used to build a GF(4) named GF(4.0)
    with pytest.raises(ValueError, match="unsupported field order"):
        finite_field(q)


def test_numpy_integer_field_order():
    F = finite_field(np.int64(4))
    assert F.name == "GF(4)" and F == finite_field(4)


def test_semilattice_counts_frozen():
    # bounded-lattice isomorphism counts at small order
    assert [len(enumerate_semilattices(n)) for n in range(1, 7)] == [1, 1, 1, 2, 5, 15]


def test_semilattice_enumeration_guard():
    with pytest.raises(SizeGuardExceeded,
                       match=r"^semilattice enumeration is bounded at "
                             r"SEMILATTICE_ORDER_BOUND = 6; asked for order 7$"):
        enumerate_semilattices(7)


@pytest.mark.parametrize("enumerate_", [enumerate_semilattices, enumerate_hemirings])
@pytest.mark.parametrize("order", [3.0, True, 0, 9.0], ids=["3.0", "True", "0", "9.0"])
def test_catalog_order_must_be_a_positive_integer(enumerate_, order):
    # a float or bool order used to raise TypeError, a large float SizeGuardExceeded
    with pytest.raises(ValueError, match=rf"^order must be a positive integer; got {order!r}$"):
        enumerate_(order)


def test_numpy_integer_catalog_order():
    assert [(M.name, M.join.tolist()) for M in enumerate_semilattices(np.int64(5))] == \
           [(M.name, M.join.tolist()) for M in enumerate_semilattices(5)]
    assert enumerate_hemirings(np.int64(3)) == enumerate_hemirings(3)
    assert [R.name for R in enumerate_hemirings(np.int64(3))] == \
           [R.name for R in enumerate_hemirings(3)]


def test_hemiring_order2_catalog(B, two, z2):
    rings = enumerate_hemirings(2)
    assert len(rings) == 4
    for target in (B, two, z2):
        assert sum(1 for R in rings if is_isomorphic(R, target) is not None) == 1


def test_idempotent_catalog_is_subset_of_plain_at_low_order():
    plain = {R.name: R for R in enumerate_hemirings(3)}
    idem = enumerate_hemirings(3, additively_idempotent=True)
    from hemirings import is_additively_idempotent
    for R in idem:
        assert is_additively_idempotent(R)
        assert any(is_isomorphic(R, S) is not None for S in plain.values())


def test_catalog_determinism():
    a = enumerate_hemirings(3)
    b = enumerate_hemirings(3)
    assert [(R.name, R.add.tobytes(), R.mul.tobytes(), R.one) for R in a] == \
           [(R.name, R.add.tobytes(), R.mul.tobytes(), R.one) for R in b]
    sa = enumerate_semilattices(5)
    sb = enumerate_semilattices(5)
    assert [(M.name, M.join.tobytes()) for M in sa] == \
           [(M.name, M.join.tobytes()) for M in sb]


def test_catalog_entries_carry_their_canonical_form(plain_hemirings_upto3,
                                                   idem_hemirings_upto4):
    """The form each entry is seeded with equals the form of a fresh,
    unseeded copy; every entry is its own canonical form, so the seeded
    identity labelling attains it."""
    for R in list(plain_hemirings_upto3) + list(idem_hemirings_upto4):
        seeded, labels = R._memo["canonical_labelling"]
        fresh = FiniteHemiring(R.add, R.mul, zero=R.zero, one=R.one)
        assert "canonical_labelling" not in fresh._memo
        assert canonical_form(fresh) == seeded, R.name
        assert labels == tuple(range(R.order))
        T = relabeled(R, labels)
        assert seeded == (tuple(T.add.ravel().tolist()), tuple(T.mul.ravel().tolist()), T.one)
        assert canonical_form(R) is seeded


def test_catalog_tables_are_shared_and_read_only(plain_hemirings_upto3):
    """The entries of a hemiring catalog sit on one read-only int32 table
    stack; the join tables of an order are built once, and the semilattice
    catalog and the idempotent hemiring catalog's additive monoids share
    them, while each call still gets its own semilattice objects."""
    hr3 = [R for R in plain_hemirings_upto3 if R.order == 3]
    for R in hr3:
        for T in (R.add, R.mul):
            assert T.dtype == np.int32 and not T.flags.writeable
            with pytest.raises(ValueError):
                T[0, 0] = 1
    stack = hr3[0].add.base
    assert stack is not None and stack.size == 2 * 9 * len(hr3)
    assert all(R.add.base is R.mul.base is stack for R in hr3)
    for n in range(1, 7):
        catalog = enumerate_semilattices(n)
        monoids = constructions._commutative_monoids(n, idempotent=True)
        assert not monoids.flags.writeable
        assert [M.join.tolist() for M in catalog] == monoids.tolist()
        assert all(np.shares_memory(M.join, monoids) for M in catalog)
        assert constructions._commutative_monoids(n, idempotent=True) is monoids
        assert [M.name for M in enumerate_semilattices(n)] == [M.name for M in catalog]
        assert enumerate_semilattices(n)[0] is not catalog[0]


def test_catalog_isomorphism_in_every_memo_state(plain_hemirings_upto3, idem_hemirings_upto4):
    """``is_isomorphic`` between a catalog entry and a relabelled copy
    returns an isomorphism whether neither side, one side or both sides
    already hold their canonical labelling."""
    rng = np.random.default_rng(7)
    for R in list(plain_hemirings_upto3) + list(idem_hemirings_upto4):
        perm = rng.permutation(R.order)
        bare = FiniteHemiring(R.add, R.mul, zero=R.zero, one=R.one)
        S = relabeled(R, perm)
        for A, C, memoised in ((bare, S, [False, False]),
                               (R, relabeled(R, perm), [True, False]),
                               (R, S, [True, True])):
            assert ["canonical_labelling" in X._memo for X in (A, C)] == memoised
            iso = is_isomorphic(A, C)
            assert iso is not None and is_isomorphism(A, C, iso.map), (R.name, memoised)


def test_hemiring_enumeration_guard():
    with pytest.raises(SizeGuardExceeded,
                       match=r"^hemiring enumeration is bounded at HEMIRING_ORDER_BOUND = 3; "
                             r"asked for order 4$"):
        enumerate_hemirings(4)
    with pytest.raises(SizeGuardExceeded,
                       match=r"^additively idempotent hemiring enumeration is bounded at "
                             r"HEMIRING_IDEMPOTENT_BOUND = 4; asked for order 5$"):
        enumerate_hemirings(5, additively_idempotent=True)



def test_corner_suites_do_not_load_numpy_ma():
    """``corner`` collects eRe through a mask, not ``np.unique``, whose
    first plain call in a process imports ``numpy.ma``."""
    code = """if True:
        import sys
        from hemirings.verify import run_suite
        for name in ("prop5_3", "thm5_7"):
            assert run_suite(name).verdict == "confirmed"
        print("numpy.ma" in sys.modules)
    """
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False"]


def test_corner_position_indexes_the_members(m2b):
    R = m2b.hemiring
    for e in R.idempotents():
        c = corner(R, e)
        assert c.position[list(c.members)].tolist() == list(range(c.order))
        assert all(c.members[c.project(x)] == R.mul[R.mul[e, x], e] for x in range(R.order))
