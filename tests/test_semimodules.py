import numpy as np
import pytest

from hemirings import (
    IdealSubset,
    all_ideals,
    boolean_B,
    build_E_M,
    double_centralizer_check,
    end_semiring,
    generated_ideal,
    hom_semimodules,
    idempotent_generated,
    is_generator,
    is_isomorphic,
    is_simple,
    left_ideal_semimodule,
    minimal_left_ideals,
    regular_semimodule,
    trace_ideal,
)
from hemirings import core
from hemirings.core import SizeGuardExceeded, check_hemiring_axioms
from hemirings.semimodules import FiniteLeftSemimodule, ModuleEndoSemiring

from conftest import chain_semilattice, ideal_violation


def test_regular_module_validates(B, z3, two):
    for R in (B, z3, two):
        M = regular_semimodule(R)
        assert M.order == R.order


def test_left_ideal_module_examples(B, e_c3):
    full = IdealSubset(range(2), "left", 2)
    M = left_ideal_semimodule(B, full)
    assert M.order == 2
    zero = IdealSubset([0], "left", 2)
    assert left_ideal_semimodule(B, zero).order == 1
    H = e_c3.hemiring
    for I in minimal_left_ideals(H):
        M = left_ideal_semimodule(H, I)
        assert M.order == len(I.members)


def test_left_ideal_module_rejects_non_ideal(B):
    bogus = IdealSubset([1], "left", 2)    # missing zero
    with pytest.raises(ValueError):
        left_ideal_semimodule(B, bogus)


JOIN2 = [[0, 1], [1, 1]]
CHAIN3 = [[0, 1, 2], [1, 1, 2], [2, 2, 2]]     # max on 0 < 1 < 2


@pytest.mark.parametrize("add, action, message", [
    ([[0, 1], [0, 1]], [[0, 0], [0, 1]], "addition not commutative"),
    ([[1, 1], [1, 1]], [[0, 0], [0, 1]], "zero not neutral"),
    # 1 + 1 = 1 + 2 = 2 + 2 = 0: (1 + 1) + 2 = 2 but 1 + (1 + 2) = 1
    ([[0, 1, 2], [1, 0, 0], [2, 0, 0]], [[0, 0, 0], [0, 1, 2]], "addition not associative"),
    # (1 * 1) * 0 = 1 but 1 * (1 * 0) = 0
    (JOIN2, [[0, 0], [1, 0]], "action not multiplicative"),
    # 1 * (1 v 2) = 0 but 1 * 1 v 1 * 2 = 1
    (CHAIN3, [[0, 0, 0], [0, 1, 0]], "action not additive in the module argument"),
    # B on Z/2: (1 + 1) * 1 = 1 but 1 * 1 + 1 * 1 = 0
    ([[0, 1], [1, 0]], [[0, 0], [0, 1]], "action not additive in the ring argument"),
    (JOIN2, [[1, 1], [1, 1]], "zero absorption fails"),
    (JOIN2, [[0, 0], [0, 0]], "module not unital over a unital ring"),
])
def test_each_module_law_rejected(B, add, action, message):
    """Each law fails alone (every earlier law holds), with its message."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        FiniteLeftSemimodule(B, add, 0, action)


@pytest.mark.parametrize("action, message", [
    ([[0, 0], [0, 1.7]], "must be integers"),     # was truncated to [[0, 0], [0, 1]]
    ([[0, 0], [0, 2]], "out of range"),
    ([[0, 0], [0, -1]], "out of range"),
    ([[0, 0, 0], [0, 1, 0]], "shape"),
])
def test_malformed_action_rejected(B, action, message):
    with pytest.raises(ValueError, match=message):
        FiniteLeftSemimodule(B, B.add, 0, action)


@pytest.mark.parametrize("zero", [0.9, True, np.float64(0.0), -1, 2])
def test_module_rejects_non_element_zero(B, zero):
    # FiniteLeftSemimodule(B, B.add, 0.9, B.mul) used to get zero 0
    with pytest.raises(ValueError, match=r"^zero .* is not an element index in \[0, 2\)$"):
        FiniteLeftSemimodule(B, B.add, zero, B.mul)
    assert FiniteLeftSemimodule(B, B.add, np.int8(0), B.mul).zero == 0


def test_end_of_regular_boolean_module(B):
    D = end_semiring(regular_semimodule(B))
    assert D.order == 2
    assert is_isomorphic(D.hemiring, B) is not None


def test_end_semiring_passes_axioms(B, e_c3):
    for R in (B, e_c3.hemiring):
        for I in minimal_left_ideals(R):
            D = end_semiring(left_ideal_semimodule(R, I))
            H = D.hemiring
            assert H.one is not None
            assert check_hemiring_axioms(H.add, H.mul, H.zero, H.one).ok


def test_module_endo_product_applies_left_factor_first(m2b, e_c3):
    for R in (m2b.hemiring, e_c3.hemiring):
        modules = [left_ideal_semimodule(R, I) for I in minimal_left_ideals(R)]
        for M in modules + [regular_semimodule(R)]:    # End(_R R) is not commutative
            D = end_semiring(M)
            H, maps = D.hemiring, D.maps
            for i, d1 in enumerate(maps):
                for j, d2 in enumerate(maps):
                    assert maps[H.add[i, j]] == tuple(int(M.add[a, b]) for a, b in zip(d1, d2))
                    assert maps[H.mul[i, j]] == tuple(d2[x] for x in d1)   # d1, then d2


def test_hom_search_node_budget(m2b, monkeypatch):
    R = m2b.hemiring
    M = left_ideal_semimodule(R, minimal_left_ideals(R)[0])
    assert len(hom_semimodules(M, M)) == 2
    monkeypatch.setattr(core, "HOM_SEARCH_BOUND", 2)
    with pytest.raises(SizeGuardExceeded, match=r"^map search is bounded at HOM_SEARCH_BOUND = 2; "
                                                 r"asked for 3 nodes$"):
        hom_semimodules(M, M)


def test_hom_from_zero_module(B):
    zero = left_ideal_semimodule(B, IdealSubset([0], "left", 2))
    reg = regular_semimodule(B)
    assert hom_semimodules(zero, reg) == [(0,)]


def test_end_of_matrix_column_ideal_is_boolean(m2b):
    R = m2b.hemiring
    col = generated_ideal(R, [m2b.unit(0, 0)], "left")
    assert len(col.members) == 4
    D = end_semiring(left_ideal_semimodule(R, col))
    assert D.order == 2
    assert is_isomorphic(D.hemiring, boolean_B()) is not None
    from hemirings import is_division_semiring
    assert is_division_semiring(D.hemiring)


def test_double_centralizer_boolean(B):
    I = IdealSubset(range(2), "left", 2)
    rep = double_centralizer_check(B, I)
    assert rep.isomorphism and is_simple(B)
    assert rep.endo_count == 2 and rep.bicommutant_count == 2


def test_double_centralizer_matrix_column(m2b):
    R = m2b.hemiring
    col = generated_ideal(R, [m2b.unit(0, 0)], "left")
    rep = double_centralizer_check(R, col)
    assert rep.isomorphism
    assert rep.bicommutant_count == 16 and rep.endo_count == 2


def test_double_centralizer_endo_minimal_ideals(e_c3):
    H = e_c3.hemiring
    assert is_simple(H)
    ran = 0
    for I in minimal_left_ideals(H):
        if idempotent_generated(H, I) is None:
            continue
        rep = double_centralizer_check(H, I)
        assert rep.isomorphism
        ran += 1
    assert ran >= 1


def test_double_centralizer_exploratory_on_non_simple(z4):
    I = IdealSubset([0, 2], "left", 4)
    assert not is_simple(z4)
    rep = double_centralizer_check(z4, I)
    assert rep.surjective and not rep.injective


def test_double_centralizer_rejects_zero_ideal(B):
    with pytest.raises(ValueError):
        double_centralizer_check(B, IdealSubset([0], "left", 2))


def test_natural_map_well_defined_even_when_not_simple(z4):
    # injectivity holds for congruence-simple rings with nonzero action;
    # well-definedness (the report existing at all) holds regardless
    I = IdealSubset([0, 2], "left", 4)
    rep = double_centralizer_check(z4, I)
    assert len(rep.natural_map) == 4


def test_trace_ideal_examples(B, two):
    reg = regular_semimodule(B)
    assert trace_ideal(B, reg).is_full
    assert is_generator(B, reg)
    zero = left_ideal_semimodule(B, IdealSubset([0], "left", 2))
    assert trace_ideal(B, zero).is_zero


def test_regular_module_is_a_generator_for_unital_algebras(plain_hemirings_upto3):
    for R in plain_hemirings_upto3:
        if R.is_semiring:
            assert is_generator(R, regular_semimodule(R)), R.name


def test_trace_of_nonzero_ideal_over_simple_ring(e_c3, m2b):
    for R in (e_c3.hemiring, m2b.hemiring):
        assert is_simple(R)
        for I in minimal_left_ideals(R):
            P = left_ideal_semimodule(R, I)
            t = trace_ideal(R, P)
            assert t.is_full and is_generator(R, P)


def test_left_ideal_semimodule_restricts_the_tables(plain_hemirings_upto3, m2b):
    for R in list(plain_hemirings_upto3) + [m2b.hemiring]:
        for I in all_ideals(R, "left"):
            P = left_ideal_semimodule(R, I)
            members = P.members
            assert members == tuple(sorted(I.members)) and members[P.zero] == R.zero
            for i, x in enumerate(members):
                for j, y in enumerate(members):
                    assert members[P.add[i, j]] == R.add[x, y]
                for r in range(R.order):
                    assert members[P.action[r, i]] == R.mul[r, x]


def additive_closure(R, members):
    """Oracle: the least superset of the set ``members`` closed under +,
    by Python set rounds."""
    while True:
        new = set(members)
        lst = sorted(members)
        for x in lst:
            new.update(int(v) for v in R.add[x, lst])
        if new == members:
            break
        members = new
    return members


def test_trace_ideal_against_set_closure(plain_hemirings_upto3, m2b):
    for R in [R for R in plain_hemirings_upto3 if R.is_semiring] + [m2b.hemiring]:
        for I in all_ideals(R, "left"):
            if I.is_zero:
                continue
            P = left_ideal_semimodule(R, I)
            members = {R.zero}
            for f in hom_semimodules(P, regular_semimodule(R)):
                members.update(f)
            assert trace_ideal(R, P).members == additive_closure(R, members), (R.name, I)


def test_trace_is_always_two_sided(plain_hemirings_upto3):
    for R in plain_hemirings_upto3:
        if not R.is_semiring:
            continue
        for I in all_ideals(R, "left"):
            if I.is_zero:
                continue
            P = left_ideal_semimodule(R, I)
            t = trace_ideal(R, P)
            assert ideal_violation(R, t.members, "two-sided") is None


def test_minimal_left_ideals_boolean(B):
    mins = minimal_left_ideals(B)
    assert [sorted(i.members) for i in mins] == [[0, 1]]
    assert idempotent_generated(B, mins[0]) == 1


def test_minimal_left_ideals_matrix(m2b):
    R = m2b.hemiring
    mins = minimal_left_ideals(R)
    col1 = frozenset(int(v) for v in
                     {R.zero, m2b.unit(0, 0), m2b.unit(1, 0),
                      R.add[m2b.unit(0, 0), m2b.unit(1, 0)]})
    col2 = frozenset(int(v) for v in
                     {R.zero, m2b.unit(0, 1), m2b.unit(1, 1),
                      R.add[m2b.unit(0, 1), m2b.unit(1, 1)]})
    found = {I.members for I in mins}
    assert col1 in found and col2 in found
    by_members = {I.members: I for I in mins}
    assert idempotent_generated(R, by_members[col1]) == m2b.unit(0, 0)
    assert idempotent_generated(R, by_members[col2]) == m2b.unit(1, 1)


@pytest.mark.parametrize("n, count, size", [(5, 4, 5), (6, 5, 6)])
def test_minimal_left_ideals_past_the_lattice_bound(n, count, size):
    R = build_E_M(chain_semilattice(n)).hemiring     # orders 70 and 252
    mins = minimal_left_ideals(R)
    assert [len(I.members) for I in mins] == [size] * count
    for I in mins:
        for x in I.members - {R.zero}:
            assert generated_ideal(R, [x], "left") == I
    for x in range(R.order):
        if x != R.zero:
            principal = generated_ideal(R, [x], "left")
            assert any(I <= principal for I in mins)
    I = next(I for I in mins if idempotent_generated(R, I) is not None)
    assert double_centralizer_check(R, I).isomorphism


def test_zero_multiplication_minimal_ideal_has_no_idempotent(two):
    mins = minimal_left_ideals(two)
    assert [sorted(i.members) for i in mins] == [[0, 1]]
    assert idempotent_generated(two, mins[0]) is None


def test_module_endo_semiring_rejects_bad_maps(B):
    M = regular_semimodule(B)
    with pytest.raises(ValueError, match="no maps"):
        ModuleEndoSemiring(M, [])
    with pytest.raises(ValueError, match="does not fix zero"):
        ModuleEndoSemiring(M, [(0, 0), (1, 1)])
    with pytest.raises(ValueError, match="zero map"):
        ModuleEndoSemiring(M, [(0, 1)])
