import itertools

import numpy as np
import pytest

from hemirings import (
    EndoSemiring,
    FiniteSemilattice,
    boolean_B,
    build_E_M,
    build_F_M,
    e_ab,
    e_ab_absorb,
    endo_enumerate,
    induced_order,
    is_dense,
    is_distributive,
    is_isomorphic,
    is_semilattice,
    try_lattice,
)
from hemirings.core import PartialOrder, _trusted, as_op_table, check_hemiring_axioms
from hemirings.lattices import generator_maps, semilattice_violation

from conftest import chain_semilattice, diamond_semilattice


@pytest.mark.parametrize("check", [FiniteSemilattice, semilattice_violation])
@pytest.mark.parametrize("zero", [0.4, True, -1, 3, np.float32(0)])
def test_semilattice_rejects_non_element_zero(check, zero):
    # FiniteSemilattice(..., zero=0.4) used to get zero 0
    with pytest.raises(ValueError, match=r"^zero .* is not an element index in \[0, 3\)$"):
        check(chain_semilattice(3).join, zero)
    assert FiniteSemilattice(chain_semilattice(3).join, np.int8(0)).zero == 0


def test_top_of_malformed_join_table_is_an_error():
    # a malformed table, past the validating constructor, whose induced
    # order has no greatest element
    M = _trusted(FiniteSemilattice, join=as_op_table([[0, 1, 2], [1, 1, 0], [2, 0, 2]]),
                 zero=0, name="")
    with pytest.raises(ValueError, match="greatest"):
        M.top


def test_is_semilattice_examples(c3, m3):
    assert is_semilattice(c3.join, 0)
    assert is_semilattice(m3.join, 0)
    broken = [[0, 1], [1, 0]]     # 1 v 1 = 0 breaks idempotency
    assert not is_semilattice(broken, 0)


def test_incomparable_atoms_without_top_cannot_form_a_semilattice():
    # On {0, a, b}: keeping a and b incomparable forces a v b = 0, which
    # breaks the laws; any valid choice collapses them into a chain.  A
    # finite join table can never leave two maximal elements without a top.
    join = np.array([[0, 1, 2], [1, 1, 0], [2, 0, 2]])
    assert not is_semilattice(join, 0)
    for v in (1, 2):
        join = np.array([[0, 1, 2], [1, 1, v], [2, v, 2]])
        if is_semilattice(join, 0):
            po = induced_order(FiniteSemilattice(join, 0))
            assert po.comparable(1, 2)


def test_induced_order(c3):
    po = induced_order(c3)
    assert po.is_total and po.bottom() == 0 and po.top() == 2


def test_try_lattice_chain_distributive(c3):
    lat = try_lattice(c3)
    assert lat is not None
    assert is_distributive(lat)


def test_try_lattice_computes_its_meets_once(monkeypatch, m3):
    meet_table = PartialOrder.meet_table
    calls = []

    def counted(po):
        calls.append(po)
        return meet_table(po)

    monkeypatch.setattr(PartialOrder, "meet_table", counted)
    assert try_lattice(m3) is not None
    assert len(calls) == 1


def test_try_lattice_diamond_not_distributive(m3):
    lat = try_lattice(m3)
    assert lat is not None
    # exhaustive search exhibits a violating triple among the atoms
    assert not is_distributive(lat)
    found = False
    for x, y, z in itertools.product(range(5), repeat=3):
        lhs = lat.meet[x, m3.join[y, z]]
        rhs = m3.join[lat.meet[x, y], lat.meet[x, z]]
        if lhs != rhs:
            found = True
            break
    assert found


def test_every_valid_semilattice_is_a_lattice(semilattices_upto5):
    for M in semilattices_upto5:
        assert try_lattice(M) is not None


def test_e_ab_examples(c3):
    # 3-chain 0 < m < 1 with m = 1, top = 2
    assert e_ab(c3, 1, 2) == (0, 0, 2)
    for a in range(3):
        assert e_ab(c3, a, 0) == (0, 0, 0)
    assert e_ab(c3, 0, 2) == (0, 2, 2)


def endo_enumerate_naive(M):
    """Filter all |M|^|M| self-maps; the oracle for the pruned enumeration."""
    n = M.order
    join = M.join
    out = []
    for f in itertools.product(range(n), repeat=n):
        if f[M.zero] != M.zero:
            continue
        if all(f[join[x, y]] == join[f[x], f[y]] for x in range(n) for y in range(n)):
            out.append(f)
    return sorted(out)


def test_endo_enumerate_against_naive_oracle(semilattices_upto5):
    for M in semilattices_upto5:
        assert endo_enumerate(M) == endo_enumerate_naive(M)


def test_endo_counts_frozen(c2, c3):
    assert len(endo_enumerate(c2)) == 2
    assert len(endo_enumerate(c3)) == 6
    assert len(endo_enumerate(diamond_semilattice())) == 50
    assert len(endo_enumerate(chain_semilattice(5))) == 70


def test_endos_contain_all_generator_maps(semilattices_upto5):
    for M in semilattices_upto5:
        endos = set(endo_enumerate(M))
        gens = set(generator_maps(M))
        assert gens <= endos
        assert len(endos) >= len(gens)


def test_endos_monotone_but_monotone_is_weaker(m3):
    po = induced_order(m3)
    endos = set(endo_enumerate(m3))
    for f in endos:
        for x in range(5):
            for y in range(5):
                if po.leq[x, y]:
                    assert po.leq[f[x], f[y]]
    monotone = []
    for f in itertools.product(range(5), repeat=5):
        if f[0] == 0 and all(po.leq[f[x], f[y]]
                             for x in range(5) for y in range(5) if po.leq[x, y]):
            monotone.append(f)
    assert set(monotone) > endos     # strict: witness maps exist on the diamond


def test_build_E_M_passes_axioms_with_identity(semilattices_upto5, endo_cache):
    for M in semilattices_upto5:
        E = endo_cache(M)
        H = E.hemiring
        assert H.one == E.endo_index(tuple(range(M.order)))
        assert check_hemiring_axioms(H.add, H.mul, H.zero, H.one).ok


def test_endo_tables_are_pointwise_join_and_composition(semilattices_upto5, endo_cache):
    for M in semilattices_upto5:
        for E in (endo_cache(M), build_F_M(M)):
            H, maps = E.hemiring, E.maps
            for i, f in enumerate(maps):
                for j, g in enumerate(maps):
                    assert maps[H.add[i, j]] == tuple(int(M.join[a, b]) for a, b in zip(f, g))
                    assert maps[H.mul[i, j]] == tuple(f[x] for x in g)   # f o g
            assert H.zero == E.endo_index((M.zero,) * M.order)


def test_e_c2_is_boolean(c2):
    assert is_isomorphic(build_E_M(c2).hemiring, boolean_B()) is not None


def test_generated_equals_full_iff_distributive(semilattices_upto5, endo_cache):
    for M in semilattices_upto5:
        E = endo_cache(M)
        F = build_F_M(M)
        lat = try_lattice(M)
        dist = lat is not None and is_distributive(lat)
        assert (set(F.maps) == set(E.maps)) == dist


def test_build_E_M_is_memoised_and_shared_with_F_M(m3):
    E = build_E_M(m3)
    assert build_E_M(m3) is E
    F = build_F_M(m3)
    assert set(F.maps) < set(E.maps) and build_E_M(m3) is E


def test_memos_are_named_after_their_own_semilattice(m3):
    # equal tables, another name: the memo lives in the object, not the table
    X = FiniteSemilattice(m3.join, m3.zero, name="X")
    assert X == m3
    build_F_M(m3)
    assert build_E_M(X).hemiring.name == "E_X"
    assert build_F_M(X).hemiring.name == "F_X"


def test_diamond_generated_submonoid_is_proper(m3, e_m3):
    F = build_F_M(m3)
    assert set(F.maps) < set(e_m3.maps)
    assert F.order < e_m3.order


def test_composition_identities_with_step_maps(semilattices_upto5, endo_cache):
    # f o e_{a,b} = e_{a, f(b)}, and e_{c,d} o f o e_{a,b} collapses to the
    # zero map when f(b) <= c and to e_{a,d} otherwise
    for M in semilattices_upto5:
        E = endo_cache(M)
        n = M.order
        zero_map = tuple([0] * n)
        for f in E.maps:
            for a in range(n):
                for b in range(n):
                    eab = e_ab(M, a, b)
                    left = tuple(f[eab[x]] for x in range(n))
                    assert left == e_ab(M, a, f[b])
                    for c in range(n):
                        for d in range(n):
                            ecd = e_ab(M, c, d)
                            comp = tuple(ecd[f[eab[x]]] for x in range(n))
                            if M.join[f[b], c] == c:
                                assert comp == zero_map
                            else:
                                assert comp == e_ab(M, a, d)


def test_generated_submonoid_is_an_ideal(semilattices_upto5, endo_cache):
    for M in semilattices_upto5:
        E = endo_cache(M)
        F = set(build_F_M(M).maps)
        for f in E.maps:
            for g in F:
                comp_fg = tuple(f[g[x]] for x in range(M.order))
                comp_gf = tuple(g[f[x]] for x in range(M.order))
                summed = tuple(int(M.join[f[x], g[x]]) for x in range(M.order))
                assert comp_fg in F and comp_gf in F
                if f in F:
                    assert summed in F


def test_absorb_examples(c3, semilattices_upto5):
    ident = (0, 1, 2)
    for a in range(3):
        assert e_ab_absorb(c3, a, ident) == a
    zero_map = (0, 0, 0)
    for a in range(3):
        assert e_ab_absorb(c3, a, zero_map) == c3.top


def test_absorb_random_samples(semilattices_upto5, endo_cache):
    import random
    rng = random.Random(7)
    for M in semilattices_upto5:
        E = endo_cache(M)
        for _ in range(10):
            a = rng.randrange(M.order)
            f = E.maps[rng.randrange(E.order)]
            c = e_ab_absorb(M, a, f)   # raises internally if identity fails
            assert 0 <= c < M.order


def test_is_dense(e_c3, c3):
    assert is_dense(e_c3, c3)
    assert not is_dense([tuple([0] * 3)], c3)
    assert is_dense(build_F_M(c3), c3)
    M3 = diamond_semilattice()
    assert is_dense(build_F_M(M3), M3)


NOT_C3_ELEMENTS = [-1, 3, 1.0, True]
C3_ELEMENT = r"^element .* is not an element index in \[0, 3\)$"


@pytest.mark.parametrize("x", NOT_C3_ELEMENTS)
def test_e_ab_rejects_non_elements(c3, x):
    # e_ab(C3, 0, 5) used to return (0, 5, 5), and a = -1 read the last column
    for a, b in ((x, 1), (1, x)):
        with pytest.raises(ValueError, match=C3_ELEMENT):
            e_ab(c3, a, b)
    assert e_ab(c3, np.int64(0), np.int64(2)) == e_ab(c3, 0, 2) == (0, 2, 2)


@pytest.mark.parametrize("x", NOT_C3_ELEMENTS)
def test_e_ab_absorb_rejects_non_elements(c3, x):
    # a = -1 used to raise a misleading InvariantViolation, and f went unchecked
    identity = (0, 1, 2)
    with pytest.raises(ValueError, match=C3_ELEMENT):
        e_ab_absorb(c3, x, identity)
    with pytest.raises(ValueError, match=r"^map image .* is not an element index in \[0, 3\)$"):
        e_ab_absorb(c3, 1, (0, x, 2))
    with pytest.raises(ValueError, match=r"^map \(0, 1\) must have length 3$"):
        e_ab_absorb(c3, 1, identity[:2])
    assert e_ab_absorb(c3, np.int64(1), tuple(np.arange(3))) == e_ab_absorb(c3, 1, identity) == 1


@pytest.mark.parametrize("x", NOT_C3_ELEMENTS)
def test_semilattice_leq_rejects_non_elements(c3, x):
    for a, b in ((x, 1), (1, x)):
        with pytest.raises(ValueError, match=C3_ELEMENT):
            c3.leq(a, b)
    assert c3.leq(np.int64(1), np.int64(2)) and not c3.leq(np.int64(2), 1)


@pytest.mark.parametrize("x", NOT_C3_ELEMENTS)
def test_semilattice_join_all_rejects_non_elements(c3, x):
    with pytest.raises(ValueError, match=C3_ELEMENT):
        c3.join_all([1, x])
    assert c3.join_all([np.int64(1), np.int64(2)]) == 2


@pytest.mark.parametrize("maps, problem", [
    ([], "no maps"),
    ([(0, 1, 2)], "zero map"),                               # closed, no zero map
    ([(0, 0, 0), (2, 2, 2)], r"\(2, 2, 2\) does not fix zero"),  # closed
    ([(0, 0, 0), (0, 2, 1)], r"\(0, 2, 1\) does not preserve addition"),
    ([(0, 0, 0), (0, 1, 1), (0, 0, 2)], "not closed"),        # misses (0, 1, 2)
    ([(0, 0, 0), (0, 1, 3)], "out of range"),
    ([(0, 0), (0, 1)], "length 3"),
])
def test_endo_semiring_rejects_bad_maps(c3, maps, problem):
    with pytest.raises(ValueError, match=problem):
        EndoSemiring(c3, maps)
