"""Finite hemirings and semirings as operation tables: endomorphism
semirings of semilattices, congruence/ideal simpleness deciders, matrix and
corner constructions, and exhaustive verification of the small-order
classification landscape."""

from .core import (
    AxiomError,
    AxiomReport,
    FiniteHemiring,
    HomMap,
    InvariantViolation,
    PartialOrder,
    SizeGuardExceeded,
    check_hemiring_axioms,
    hom_search,
    infinite_element,
    is_additively_idempotent,
    is_aic,
    is_dedekind_finite,
    is_division_semiring,
    is_isomorphic,
    is_lattice_ordered,
    is_zerosumfree,
    natural_order,
)
from .lattices import (
    EndoSemiring,
    FiniteLattice,
    FiniteSemilattice,
    build_E_M,
    build_F_M,
    e_ab,
    e_ab_absorb,
    endo_enumerate,
    induced_order,
    is_dense,
    is_distributive,
    is_semilattice,
    try_lattice,
)
from .simpleness import (
    Congruence,
    IdealSubset,
    aic_max_ideal,
    all_congruences,
    all_ideals,
    bourne_congruence,
    generated_ideal,
    is_congruence_simple,
    is_ideal_simple,
    is_simple,
    is_subtractive,
    principal_congruence,
    radical_left,
    strong_semiisomorphism_search,
    tau_congruence,
)
from .constructions import (
    CornerSemiring,
    MatrixSemiring,
    boolean_B,
    corner,
    enumerate_hemirings,
    enumerate_semilattices,
    finite_field,
    integers_mod,
    is_full_idempotent,
    matrix_semiring,
    two_zero_mult,
)
from .semimodules import (
    FiniteLeftSemimodule,
    double_centralizer_check,
    end_semiring,
    hom_semimodules,
    idempotent_generated,
    is_generator,
    left_ideal_semimodule,
    minimal_left_ideals,
    regular_semimodule,
    trace_ideal,
)
from .io import format_algebra, parse_algebra, parse_algebra_file, write_algebra
from .verify import classify, run_suite, suite_names

__version__ = "0.1.0"
