"""Law oracle for the package's own constructions.

Tables from outside the package are validated where they enter
(``FiniteHemiring``, ``parse_algebra``, ``parse_tables_inline``).  Tables the
package builds are hemirings by construction and skip that scan, so this
file runs ``check_hemiring_axioms`` on every kind of construction output:
the catalogs, M_2(R) and its corners, E_M and F_M, module endomorphism
semirings and the small named algebras.  The orders, lattices and
semimodules the package builds skip validation too, and are re-built here
with the validating ``PartialOrder``, ``FiniteLattice`` and
``FiniteLeftSemimodule``.
"""

import pytest

from hemirings import (
    AxiomError,
    FiniteHemiring,
    FiniteLattice,
    FiniteLeftSemimodule,
    FiniteSemilattice,
    PartialOrder,
    boolean_B,
    build_E_M,
    build_F_M,
    check_hemiring_axioms,
    corner,
    end_semiring,
    enumerate_semilattices,
    finite_field,
    induced_order,
    integers_mod,
    is_additively_idempotent,
    is_simple,
    left_ideal_semimodule,
    matrix_semiring,
    minimal_left_ideals,
    natural_order,
    parse_algebra,
    regular_semimodule,
    try_lattice,
    two_zero_mult,
)
from hemirings.constructions import FIELD_ORDERS, SEMILATTICE_ORDER_BOUND
from hemirings.lattices import semilattice_violation
from hemirings.verify import (
    SUITES,
    _boolean_matrices,
    _catalog_semirings,
    _tables_inline,
    parse_tables_inline,
)


def assert_hemiring(H):
    report = check_hemiring_axioms(H.add, H.mul, H.zero, H.one)
    assert report.ok, f"{H.name}: {report.failures()}"


def test_catalog_hemirings_satisfy_the_laws(plain_hemirings_upto3, idem_hemirings_upto4):
    for R in plain_hemirings_upto3 + idem_hemirings_upto4:
        assert_hemiring(R)


def test_catalog_semilattices_satisfy_the_laws():
    for n in range(1, SEMILATTICE_ORDER_BOUND + 1):
        for M in enumerate_semilattices(n):
            assert semilattice_violation(M.join, M.zero) is None, M.name


def test_named_algebras_satisfy_the_laws():
    for H in (boolean_B(), two_zero_mult(), *map(integers_mod, range(1, 7)),
              *map(finite_field, FIELD_ORDERS)):
        assert_hemiring(H)


def matrix_bases():
    """The catalog semirings of order <= 3, then B, GF(2) and GF(3)."""
    return _catalog_semirings(3) + [boolean_B(), finite_field(2), finite_field(3)]


def test_matrix_semirings_and_corners_satisfy_the_laws():
    corners = 0
    for R in matrix_bases():
        M2 = matrix_semiring(R, 2).hemiring
        assert_hemiring(M2)
        for S in (R, M2):
            for e in S.idempotents():
                assert_hemiring(corner(S, e).hemiring)
                corners += 1
    assert corners > 2 * len(matrix_bases())     # M_2(R) has idempotents besides 0, 1


def test_endomorphism_semirings_satisfy_the_laws(semilattices_upto5, endo_cache):
    for M in semilattices_upto5:
        assert_hemiring(endo_cache(M).hemiring)
        assert_hemiring(build_F_M(M).hemiring)


def test_orders_and_lattices_pass_their_validation(plain_hemirings_upto3,
                                                   idem_hemirings_upto4):
    semilattices = [M for n in range(1, SEMILATTICE_ORDER_BOUND + 1)
                    for M in enumerate_semilattices(n)]
    algebras = [R for R in plain_hemirings_upto3 + idem_hemirings_upto4
                if is_additively_idempotent(R)]
    algebras += [E.hemiring for M in semilattices for E in (build_E_M(M), build_F_M(M))]
    # each validating constructor raises ValueError on a failed law
    for R in algebras:
        PartialOrder(natural_order(R).leq)
    for M in semilattices:
        PartialOrder(induced_order(M).leq)
        FiniteLattice(M, try_lattice(M).meet)


def thm5_10_instances():
    """The rings ``suite_thm5_10`` runs on at its default bound."""
    C3 = FiniteSemilattice([[0, 1, 2], [1, 1, 2], [2, 2, 2]], name="C3")
    simple = [R for R in _catalog_semirings(SUITES["thm5_10"].default) if is_simple(R)]
    return simple + [_boolean_matrices(2), build_E_M(C3).hemiring]


def test_module_endomorphism_semirings_satisfy_the_laws():
    modules = 0
    for R in thm5_10_instances():
        ideals = [left_ideal_semimodule(R, I) for I in minimal_left_ideals(R)]
        for module in [regular_semimodule(R)] + ideals:
            # the validating constructor raises ValueError on a failed law
            FiniteLeftSemimodule(R, module.add, module.zero, module.action)
            assert_hemiring(end_semiring(module).hemiring)
            modules += 1
    assert modules > len(thm5_10_instances())


FAILING_TABLES = (
    ([[0, 1], [0, 1]], [[0, 0], [0, 1]], 0, None),   # + not commutative
    ([[0, 1], [1, 0]], [[0, 0], [0, 1]], 0, 0),      # one is not an identity
)


@pytest.mark.parametrize("add, mul, zero, one", FAILING_TABLES)
def test_outside_tables_are_still_validated(add, mul, zero, one):
    with pytest.raises(AxiomError):
        FiniteHemiring(add, mul, zero=zero, one=one)
    H = FiniteHemiring(add, mul, zero=zero, one=one, validate=False)
    with pytest.raises(AxiomError):
        parse_tables_inline(_tables_inline(H))
    text = (f"order 2\nzero {zero}\n" + ("" if one is None else f"one {one}\n")
            + "add\n" + "\n".join(" ".join(map(str, r)) for r in add)
            + "\nmul\n" + "\n".join(" ".join(map(str, r)) for r in mul) + "\n")
    with pytest.raises(AxiomError):
        parse_algebra(text)
