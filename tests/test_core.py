import itertools

import numpy as np
import pytest

from hemirings import (
    AxiomError,
    FiniteHemiring,
    HomMap,
    all_congruences,
    all_ideals,
    boolean_B,
    check_hemiring_axioms,
    enumerate_hemirings,
    enumerate_semilattices,
    generated_ideal,
    hom_search,
    infinite_element,
    integers_mod,
    is_additively_idempotent,
    is_aic,
    is_dedekind_finite,
    is_division_semiring,
    is_isomorphic,
    is_lattice_ordered,
    is_zerosumfree,
    matrix_semiring,
    natural_order,
    strong_semiisomorphism_search,
)
from hemirings import constructions, core, simpleness
from hemirings.core import SizeGuardExceeded, _wl_colors, as_op_table, canonical_form
from hemirings.lattices import induced_order
from hemirings.simpleness import is_ideal_simple, is_simple

from conftest import (
    chain3_min_semiring,
    chain_semilattice,
    direct_product,
    is_isomorphism,
    relabeled,
)


def test_boolean_axioms_pass(B):
    report = check_hemiring_axioms(B.add, B.mul, 0, 1)
    assert report.ok
    assert all(c.witness is None for c in report.checks)


def test_two_is_hemiring_without_identity(two):
    report = check_hemiring_axioms(two.add, two.mul, 0)
    assert report.ok
    # no element acts as a two-sided identity
    for e in range(2):
        assert not ((two.mul[e] == np.arange(2)).all()
                    and (two.mul[:, e] == np.arange(2)).all())


def test_broken_commutativity_reports_witness():
    add = [[0, 1], [0, 1]]   # 1+0=0 but 0+1=1
    report = check_hemiring_axioms(add, [[0, 0], [0, 1]], 0)
    assert not report.ok
    fail = next(c for c in report.checks if c.axiom == "add-commutative")
    a, b = fail.witness
    assert add[a][b] != add[b][a]


def test_dimension_mismatch_is_structural_error():
    with pytest.raises(ValueError):
        check_hemiring_axioms([[0, 1], [1, 1]], [[0]], 0)


def test_non_integer_tables_rejected():
    with pytest.raises(ValueError, match="integers"):
        as_op_table([[0, 1], [1, 1.7]])
    with pytest.raises(ValueError, match="integers"):
        FiniteHemiring(np.array([[0, 1], [1, 1]], dtype=float), [[0, 0], [0, 1]])
    assert as_op_table(np.array([[0, 1], [1, 1]], dtype=np.uint8)).dtype == np.int32


NOT_ELEMENTS = [0.9, 1.2, np.float64(0.0), True, np.bool_(False), -1, 2, np.int64(5), "0"]


@pytest.mark.parametrize("slot", ["zero", "one"])
@pytest.mark.parametrize("value", NOT_ELEMENTS)
def test_hemiring_constructor_rejects_non_elements(B, slot, value):
    # zero=0.9 and one=1.2 used to build B with zero 0 and one 1
    args = {"zero": 0, "one": 1, slot: value}
    with pytest.raises(ValueError, match=rf"^{slot} .* is not an element index in \[0, 2\)$"):
        FiniteHemiring(B.add, B.mul, **args)


@pytest.mark.parametrize("slot", ["zero", "one"])
@pytest.mark.parametrize("value", NOT_ELEMENTS)
def test_axiom_check_rejects_non_elements(B, slot, value):
    # a float zero used to pass the range check and fail with IndexError
    args = {"zero": 0, "one": 1, slot: value}
    with pytest.raises(ValueError, match=rf"^{slot} .* is not an element index in \[0, 2\)$"):
        check_hemiring_axioms(B.add, B.mul, **args)


def test_numpy_integer_elements_are_accepted(B):
    R = FiniteHemiring(B.add, B.mul, zero=np.int64(0), one=np.uint8(1))
    assert R == B and type(R.zero) is int and type(R.one) is int
    assert check_hemiring_axioms(B.add, B.mul, np.int32(0), np.int8(1)).ok


def test_constructor_validator_agreement(plain_hemirings_upto3, idem_hemirings_upto4):
    for R in plain_hemirings_upto3 + idem_hemirings_upto4:
        report = check_hemiring_axioms(R.add, R.mul, R.zero, R.one)
        assert report.ok
        rebuilt = FiniteHemiring(R.add, R.mul, R.zero, R.one)
        assert rebuilt == R


def test_invalid_tables_rejected_by_constructor():
    with pytest.raises(AxiomError):
        FiniteHemiring([[0, 1], [0, 1]], [[0, 0], [0, 1]])


def test_additive_idempotency(B, z2, e_c3):
    assert is_additively_idempotent(B)
    assert not is_additively_idempotent(z2)
    assert is_additively_idempotent(e_c3.hemiring)


def test_natural_order_boolean_chain(B):
    po = natural_order(B)
    assert po.is_total and po.top() == 1 and po.bottom() == 0


def test_natural_order_rejects_nonidempotent(z2):
    with pytest.raises(ValueError, match="idempotent"):
        natural_order(z2)


def test_natural_order_on_endos_matches_pointwise_comparison(e_c3, c3):
    # oracle: pointwise comparison of the map vectors in the base order
    po = natural_order(e_c3.hemiring)
    base = induced_order(c3)
    maps = e_c3.maps
    for i, f in enumerate(maps):
        for j, g in enumerate(maps):
            pointwise = all(base.leq[f[x], g[x]] for x in range(c3.order))
            assert bool(po.leq[i, j]) == pointwise


def test_infinite_element(B, z2):
    assert infinite_element(B) == 1
    assert infinite_element(z2) is None


def test_infinite_element_is_top_of_natural_order(idem_hemirings_upto4):
    for R in idem_hemirings_upto4:
        top = R.zero
        for x in range(R.order):
            top = int(R.add[top, x])
        assert infinite_element(R) == top == natural_order(R).top()


def test_zerosumfree(B, z2):
    assert is_zerosumfree(B)
    assert not is_zerosumfree(z2)


def test_dedekind_finite_across_catalog(B, z2, plain_hemirings_upto3,
                                        idem_hemirings_upto4):
    assert is_dedekind_finite(B) and is_dedekind_finite(z2)
    for R in plain_hemirings_upto3 + idem_hemirings_upto4:
        assert is_dedekind_finite(R)


def test_division(B, z2, two):
    assert is_division_semiring(B)
    assert is_division_semiring(z2)
    with pytest.raises(ValueError):
        is_division_semiring(two)


def test_aic_and_lattice_ordered(B, e_c3, m2b):
    assert is_aic(B) and is_lattice_ordered(B)
    # two incomparable endomorphisms of the 3-chain: x->m on top vs x->1 above m
    po = natural_order(e_c3.hemiring)
    assert is_additively_idempotent(e_c3.hemiring)
    incomparable = [(i, j) for i in range(e_c3.order) for j in range(e_c3.order)
                    if not po.comparable(i, j)]
    assert incomparable
    assert not is_aic(e_c3.hemiring)
    # matrix units are incomparable in M_2(B)
    e11, e22 = m2b.unit(0, 0), m2b.unit(1, 1)
    pob = natural_order(m2b.hemiring)
    assert not pob.comparable(e11, e22)
    assert not is_aic(m2b.hemiring)


def test_chain3_min_is_lattice_ordered_but_not_simple():
    R = chain3_min_semiring()
    assert is_aic(R) and is_lattice_ordered(R)
    assert not is_division_semiring(R)


def test_hom_search_boolean_identity(B):
    homs = hom_search(B, B, unital=True)
    assert [h.map for h in homs] == [(0, 1)]


def test_hom_search_finds_zero_map(B):
    homs = hom_search(B, B)
    assert {h.map for h in homs} == {(0, 0), (0, 1)}


def test_e_c2_isomorphic_to_boolean(B, c2):
    from hemirings import build_E_M
    E = build_E_M(c2)
    # oracle: the 2-chain has exactly the zero map and the identity
    assert E.maps == [(0, 0), (0, 1)]
    assert is_isomorphic(E.hemiring, B) is not None


def test_commutative_proper_zerosumfree_semirings_surject_onto_boolean(
        B, plain_hemirings_upto3, idem_hemirings_upto4):
    checked = 0
    for R in plain_hemirings_upto3 + idem_hemirings_upto4:
        if not (R.is_semiring and R.is_proper and R.is_commutative()
                and is_zerosumfree(R)):
            continue
        assert hom_search(R, B, surjective=True, unital=True), R.name
        checked += 1
    assert checked >= 2


def test_hom_composition_closure(B, plain_hemirings_upto3):
    rings = [R for R in plain_hemirings_upto3 if R.order <= 3][:6] + [B]
    for R, S, T in itertools.product(rings[:3], repeat=3):
        rs = hom_search(R, S)
        st = hom_search(S, T)
        rt = {h.map for h in hom_search(R, T)}
        for f in rs:
            for g in st:
                assert tuple(g.map[v] for v in f.map) in rt


def test_isomorphism_is_equivalence(plain_hemirings_upto3, B, z2):
    for R in plain_hemirings_upto3:
        assert is_isomorphic(R, R) is not None
    # symmetric on a found pair: relabeled copy of B
    perm = [1, 0]   # swap elements, zero moves to index 1
    add = np.array([[B.add[perm[i], perm[j]] for j in range(2)] for i in range(2)])
    add = np.array([[perm.index(int(v)) for v in row] for row in add])
    mul = np.array([[B.mul[perm[i], perm[j]] for j in range(2)] for i in range(2)])
    mul = np.array([[perm.index(int(v)) for v in row] for row in mul])
    B2 = FiniteHemiring(add, mul, zero=1, one=0)
    assert is_isomorphic(B, B2) is not None and is_isomorphic(B2, B) is not None
    assert is_isomorphic(B, z2) is None


def test_isomorphism_transitive_on_sampled_triples(plain_hemirings_upto3):
    import random
    rng = random.Random(11)
    for R in [x for x in plain_hemirings_upto3 if x.order == 3][:4]:
        relabelings = []
        for _ in range(2):
            perm = [0] + rng.sample([1, 2], 2)
            add = np.array([[perm[R.add[i, j]] for j in range(3)] for i in range(3)])
            mul = np.array([[perm[R.mul[i, j]] for j in range(3)] for i in range(3)])
            inv = [perm.index(v) for v in range(3)]
            add = add[np.ix_(inv, inv)]
            mul = mul[np.ix_(inv, inv)]
            one = None if R.one is None else perm[R.one]
            relabelings.append(FiniteHemiring(add, mul, zero=0, one=one))
        S, T = relabelings
        assert is_isomorphic(R, S) is not None
        assert is_isomorphic(S, T) is not None
        assert is_isomorphic(R, T) is not None


def test_strong_semiisomorphism_identity_on_boolean(B):
    hom = strong_semiisomorphism_search(B, B)
    assert hom is not None and hom.map == (0, 1)


def test_strong_semiisomorphism_z2_to_boolean_fails(z2, B):
    assert strong_semiisomorphism_search(z2, B) is None


def test_proper_ideal_simple_semirings_strongly_semiisomorphic_to_idempotent_simple(
        plain_hemirings_upto3, idem_hemirings_upto4):
    candidates = [R for R in plain_hemirings_upto3 + idem_hemirings_upto4
                  if R.is_semiring and R.is_proper and is_ideal_simple(R)]
    assert candidates
    targets = [S for S in idem_hemirings_upto4
               if S.is_semiring and is_additively_idempotent(S) and is_simple(S)]
    for R in candidates:
        assert any(strong_semiisomorphism_search(R, S) is not None
                   for S in targets), R.name


def test_isomorphism_agrees_with_injective_hom_search(plain_hemirings_upto3,
                                                      idem_hemirings_upto4, B):
    """``is_isomorphic`` against an oracle that shares none of its
    machinery: between algebras of one order an injective hom is an
    isomorphism, and ``hom_search`` finds one by plain backtracking.

    Every catalog entry is compared with a seeded relabelling of each entry
    of its order.  Products of orders 6 and 8 built here, none memoised,
    are compared with relabellings of each other; hr3 x hr2 is hr2 x hr3
    with other labels, and B^3 has 6 automorphisms.  A relabelled E_M of
    order 20 keeps the search path above order 8 covered."""
    from hemirings import build_E_M
    rng = np.random.default_rng(33)

    def agree(Rs, Ss):
        for R, S in itertools.product(Rs, Ss):
            if R.order != S.order:
                continue
            iso = is_isomorphic(R, S)
            assert (iso is not None) == bool(hom_search(R, S, injective=True)), (R.name, S.name)
            assert iso is None or is_isomorphism(R, S, iso.map), (R.name, S.name)

    catalogs = list(plain_hemirings_upto3) + list(idem_hemirings_upto4)
    agree(catalogs, [relabeled(R, rng.permutation(R.order)) for R in catalogs])

    hr2 = [R for R in plain_hemirings_upto3 if R.order == 2]
    hr3 = [R for R in plain_hemirings_upto3 if R.order == 3]
    ai4 = [R for R in idem_hemirings_upto4 if R.order == 4]
    pairs = ([(hr2[i], hr3[j]) for i, j in zip(rng.integers(len(hr2), size=4),
                                                rng.integers(len(hr3), size=4))]
             + [(hr2[i], ai4[j]) for i, j in zip(rng.integers(len(hr2), size=4),
                                                  rng.integers(len(ai4), size=4))])
    products = ([direct_product(R, S) for R, S in pairs]
                + [direct_product(*reversed(pairs[0])), direct_product(B, B, B)])
    agree(products, [relabeled(P, rng.permutation(P.order)) for P in products])
    B3 = products[-1]
    assert len(hom_search(B3, B3, injective=True)) == 6

    E = build_E_M(chain_semilattice(4)).hemiring
    assert E.order == 20
    agree([E], [relabeled(E, rng.permutation(E.order))])


def zero_multiplication(R):
    """R's addition with every product zero."""
    return FiniteHemiring(R.add, np.full_like(R.add, R.zero), zero=R.zero)


def test_canonical_form_is_refused_past_its_bound():
    with pytest.raises(SizeGuardExceeded, match=r"^canonical form is bounded at "
                                                r"CANONICAL_ORDER_BOUND = 8; asked for order 9$"):
        canonical_form(integers_mod(9))


CHAIN8 = np.maximum.outer(np.arange(8), np.arange(8))    # 128 ideals under zero products

GUARDS = [    # (module, constant, patched value, a call past it)
    (core, "HOM_SEARCH_BOUND", 1, lambda: list(hom_search(integers_mod(3), integers_mod(3)))),
    (core, "CANONICAL_ORDER_BOUND", 2, lambda: canonical_form(integers_mod(3))),
    (simpleness, "CLOSURE_BUDGET", 8, lambda: all_congruences(integers_mod(3))),
    (simpleness, "LATTICE_BOUND", 3, lambda: all_ideals(FiniteHemiring(CHAIN8, 0 * CHAIN8))),
    (constructions, "MATRIX_ORDER_BOUND", 15, lambda: matrix_semiring(boolean_B(), 2)),
    (constructions, "SEMILATTICE_ORDER_BOUND", 2, lambda: enumerate_semilattices(3)),
    (constructions, "HEMIRING_ORDER_BOUND", 1, lambda: enumerate_hemirings(2)),
    (constructions, "HEMIRING_IDEMPOTENT_BOUND", 1,
     lambda: enumerate_hemirings(2, additively_idempotent=True)),
]


@pytest.mark.parametrize("module, name, value, call", GUARDS, ids=[g[1] for g in GUARDS])
def test_every_size_guard_names_its_bound(monkeypatch, module, name, value, call):
    """Each of the eight bounds is read when its guard runs, and the refusal
    names the constant, its value and the amount asked."""
    monkeypatch.setattr(module, name, value)
    with pytest.raises(SizeGuardExceeded,
                       match=rf"^\S.* is bounded at {name} = {value}; asked for .*\d"):
        call()


def test_isomorphism_search_rejects_equal_colours_past_the_canonical_bound():
    # Z_9 and Z_3 x Z_3, both with zero multiplication: colour refinement
    # cannot tell them apart, so the search above order 8 must
    R = zero_multiplication(integers_mod(9))
    S = zero_multiplication(direct_product(integers_mod(3), integers_mod(3)))
    assert sorted(_wl_colors(R)) == sorted(_wl_colors(S))
    assert is_isomorphic(R, S) is None and is_isomorphic(S, R) is None


def test_hom_map_image_injectivity_and_surjectivity(B):
    zero_map, identity = hom_search(B, B)
    assert (zero_map.image(), identity.image()) == (frozenset({0}), frozenset({0, 1}))
    assert not zero_map.is_injective() and not zero_map.is_surjective()
    assert identity.is_injective() and identity.is_surjective()
    assert [zero_map(x) for x in B.elements()] == [0, 0]
    assert [identity(x) for x in B.elements()] == [0, 1]


def test_strong_semiisomorphism_rejects_a_kernel_and_a_full_ideal_image(B):
    # the 3-chain (max, min) onto B: (0, 0, 1) has kernel {0, 1}, and
    # (0, 1, 1) maps the proper ideal {0, 1} onto B
    R = chain3_min_semiring()
    assert [h.map for h in hom_search(R, B, surjective=True, unital=True)] == [(0, 0, 1),
                                                                           (0, 1, 1)]
    assert generated_ideal(R, [1]).members == {0, 1}
    assert strong_semiisomorphism_search(R, B) is None


@pytest.mark.parametrize("x", [-1, 3, 1.0, True])
def test_partial_order_meet_rejects_non_elements(x):
    # meet(-1, 1) used to read the last column of leq
    po = induced_order(chain_semilattice(3))
    for a, b in ((x, 1), (1, x)):
        with pytest.raises(ValueError, match=r"^element .* is not an element index in \[0, 3\)$"):
            po.meet(a, b)
    assert po.meet(np.int64(2), np.int64(1)) == po.meet(2, 1) == 1


@pytest.mark.parametrize("x", [-1, 3, 1.0, True])
def test_partial_order_comparable_rejects_non_elements(x):
    po = induced_order(chain_semilattice(3))
    for a, b in ((x, 1), (1, x)):
        with pytest.raises(ValueError, match=r"^element .* is not an element index in \[0, 3\)$"):
            po.comparable(a, b)
    assert po.comparable(np.int64(2), np.int64(1))


@pytest.mark.parametrize("images, message", [
    ((0, 5), r"^map image 5 is not an element index in \[0, 2\)$"),
    ((1.0, 0), r"^map image 1.0 is not an element index in \[0, 2\)$"),
    ((0, -1), r"^map image -1 is not an element index in \[0, 2\)$"),
    ((0, True), r"^map image True is not an element index in \[0, 2\)$"),
    ((1, 1), r"^map \(1, 1\) is not a homomorphism$"),          # moves zero
    ((0,), r"^map length does not match source order$"),
])
def test_hom_map_rejects_a_malformed_map(B, images, message):
    # HomMap(B, B, (0, 5)) used to be surjective, and (1.0, 0) was accepted
    with pytest.raises(ValueError, match=message):
        HomMap(B, B, images)


def test_hom_map_rejects_a_map_that_breaks_an_operation(B):
    # (0, 1) keeps zero, but 1 + 1 is 0 in Z/2 and 1 in B
    with pytest.raises(ValueError, match=r"^map \(0, 1\) is not a homomorphism$"):
        HomMap(integers_mod(2), B, (0, 1))


def test_hom_map_accepts_every_searched_hom(B, plain_hemirings_upto3):
    for R in plain_hemirings_upto3:
        for h in hom_search(R, B):
            assert HomMap(R, B, list(h.map)) == h
    f = HomMap(B, B, (np.int64(0), np.int32(1)))
    assert f.map == (0, 1) and all(type(y) is int for y in f.map)


@pytest.mark.parametrize("x", [-1, 2, 1.0, True])
def test_hom_map_call_rejects_non_elements(B, x):
    # identity(-1) used to return the last image
    _, identity = hom_search(B, B)
    with pytest.raises(ValueError, match=r"^element .* is not an element index in \[0, 2\)$"):
        identity(x)
    assert identity(np.int64(1)) == 1
