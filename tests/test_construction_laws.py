"""Law oracle for the package's own constructions.

Tables from outside the package are validated where they enter
(``FiniteHemiring``, ``parse_algebra``, ``parse_tables_inline``), with no
way to skip the check.  Tables the package builds are hemirings by
construction and skip that scan through ``core._trusted``, so this
file runs ``check_hemiring_axioms`` on every kind of construction output:
the catalogs, M_2(R) and its corners, E_M and F_M, module endomorphism
semirings and the small named algebras.  The orders and semimodules the
package builds skip validation too, and are re-built here with the
validating ``PartialOrder`` and ``FiniteLeftSemimodule``.  ``FiniteLattice``,
``MatrixSemiring`` and ``CornerSemiring`` have no public constructor; the
meets of ``try_lattice`` are checked against the literal glb in
``tests/test_oracles.py``.
"""

import numpy as np
import pytest

from hemirings import (
    AxiomError,
    CornerSemiring,
    FiniteHemiring,
    FiniteLattice,
    FiniteLeftSemimodule,
    FiniteSemilattice,
    HomMap,
    MatrixSemiring,
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

from conftest import unchecked_hemiring


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


@pytest.mark.parametrize("build, error", [
    (lambda B: FiniteHemiring([[0, 1], [0, 1]], [[0, 0], [0, 1]]),
     "add-commutative: FAIL at"),
    (lambda B: PartialOrder([[True, True], [True, True]]), "^relation is not antisymmetric$"),
    # a fraction used to be read as True, so this was the discrete order
    (lambda B: PartialOrder([[0.5, 0], [0, 1]]), "^leq entries must be integers, got dtype"),
    # 2 and -1 used to be read as True, so this was a chain
    (lambda B: PartialOrder([[2, 0], [-1, 1]]), r"^leq entry out of range \[0, 2\)$"),
    (lambda B: FiniteSemilattice([[0, 1], [1, 0]]), "^not a semilattice: idempotent fails"),
    (lambda B: FiniteLeftSemimodule(B, B.add, 0, [[0, 0], [0, 0]]),
     "^module not unital over a unital ring$"),
    (lambda B: HomMap(B, B, (1, 0)), r"^map \(1, 0\) is not a homomorphism$"),
], ids=["FiniteHemiring", "PartialOrder", "PartialOrder-fraction", "PartialOrder-integers",
        "FiniteSemilattice", "FiniteLeftSemimodule", "HomMap"])
def test_public_constructors_reject_malformed_input(B, build, error):
    """Each public constructor checks its input, with no option to skip it."""
    with pytest.raises(ValueError, match=error):
        build(B)


def test_public_constructors_copy_the_callers_arrays(B):
    """A public constructor keeps a read-only copy of each array, also of one
    already in the stored dtype, which it used to keep and freeze: the
    caller's array stays writeable and shares no memory with the object."""
    add, mul, act = B.add.copy(), B.mul.copy(), B.mul.copy()    # int32, as stored
    leq = np.array([[True, True], [False, True]])
    R = FiniteHemiring(add, mul, one=1)
    module = FiniteLeftSemimodule(B, add, 0, act)
    kept = [(add, R.add), (mul, R.mul), (leq, PartialOrder(leq).leq),
            (add, FiniteSemilattice(add).join), (add, module.add), (act, module.action)]
    for given, own in kept:
        assert given.flags.writeable and not own.flags.writeable
        assert not np.shares_memory(given, own)


@pytest.mark.parametrize("build, error", [
    (lambda B: FiniteLattice(FiniteSemilattice(B.add), B.add), "takes no arguments"),
    # accepted with order 2 and decode(1) = [[1, 0], [0, 0]] by the former constructor
    (lambda B: MatrixSemiring(B, 2, B, np.array([1])), "takes no arguments"),
    # accepted by the former constructor, after which project(1) raised IndexError
    (lambda B: CornerSemiring(B, 5, (0, 7, 9), B, np.array([0])), "takes no arguments"),
    (lambda B: FiniteLeftSemimodule(B, B.add, 0, B.mul, members=(7, 9)),
     "unexpected keyword argument 'members'"),
], ids=["FiniteLattice", "MatrixSemiring", "CornerSemiring", "FiniteLeftSemimodule-members"])
def test_derived_types_have_no_public_constructor(B, build, error):
    """Types whose fields the package computes from another object are made
    only by their builders (``try_lattice``, ``matrix_semiring``,
    ``corner``), and a module's ring members only by the ideal modules."""
    with pytest.raises(TypeError, match=error):
        build(B)


@pytest.mark.parametrize("add, mul, zero, one", FAILING_TABLES)
def test_outside_tables_are_still_validated(add, mul, zero, one):
    with pytest.raises(AxiomError):
        FiniteHemiring(add, mul, zero=zero, one=one)
    H = unchecked_hemiring(add, mul, zero, one)
    with pytest.raises(AxiomError):
        parse_tables_inline(_tables_inline(H))
    text = (f"order 2\nzero {zero}\n" + ("" if one is None else f"one {one}\n")
            + "add\n" + "\n".join(" ".join(map(str, r)) for r in add)
            + "\nmul\n" + "\n".join(" ".join(map(str, r)) for r in mul) + "\n")
    with pytest.raises(AxiomError):
        parse_algebra(text)
