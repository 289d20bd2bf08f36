import itertools

import numpy as np
import pytest

from hemirings import (
    Congruence,
    FiniteHemiring,
    IdealSubset,
    aic_max_ideal,
    all_congruences,
    all_ideals,
    bourne_congruence,
    build_F_M,
    generated_ideal,
    is_congruence_simple,
    is_ideal_simple,
    is_simple,
    is_subtractive,
    is_zerosumfree,
    left_ideal_semimodule,
    principal_congruence,
    radical_left,
    regular_semimodule,
    tau_congruence,
    trace_ideal,
)
from hemirings import semimodules, simpleness
from hemirings.constructions import integers_mod
from hemirings.core import InvariantViolation, SizeGuardExceeded
from hemirings.lattices import build_E_M, FiniteSemilattice
from hemirings.simpleness import is_congruence

from conftest import chain3_min_semiring, chain_semilattice, congruence_violation, \
    direct_product, ideal_violation


def all_partitions(n):
    """Every partition of range(n), as label tuples numbered by first
    appearance."""
    if n == 0:
        yield ()
        return
    for smaller in all_partitions(n - 1):
        k = max(smaller) + 1 if smaller else 0
        for b in range(k + 1):
            yield smaller + (b,)


def brute_force_congruences(R):
    """Oracle: filter every partition of the carrier for compatibility."""
    out = [Congruence(labels) for labels in all_partitions(R.order)
           if congruence_violation(R, labels) is None]
    return sorted(out, key=lambda c: c.labels)


def brute_force_ideals(R, sidedness):
    """Oracle: filter every subset of the carrier."""
    out = []
    for k in range(R.order + 1):
        for subset in itertools.combinations(range(R.order), k):
            if ideal_violation(R, subset, sidedness) is None:
                out.append(IdealSubset(subset, sidedness, R.order))
    return sorted(out, key=lambda I: (len(I.members), sorted(I.members)))


def test_congruence_labels_are_least_elements():
    for n in range(1, 7):
        parts = []
        for labels in all_partitions(n):
            by = {}
            for x, l in enumerate(labels):
                by.setdefault(l, []).append(x)
            blocks = tuple(tuple(b) for b in by.values())
            least = tuple(min(by[l]) for l in labels)
            # any numbering of the blocks is renamed to least elements
            for given in (labels, [2 * n - l for l in labels]):
                cong = Congruence(given)
                assert cong.labels == least
                assert cong.blocks() == blocks
                assert cong.num_blocks == len(blocks)
                assert cong.is_universal == (len(blocks) == 1)
                assert cong.is_diagonal == (len(blocks) == n)
            parts.append((Congruence(labels), blocks, labels))
        for fine, fine_blocks, _ in parts:
            for coarse, _, coarse_labels in parts:
                inside = all(len({coarse_labels[x] for x in b}) == 1 for b in fine_blocks)
                assert fine.refines(coarse) == inside


@pytest.mark.parametrize("labels", [[0, 1.7, 0], [0.0, 1.0], [True, False, True],
                                    [[0, 1], [1, 0]], ["0", "1"]])
def test_congruence_rejects_non_integer_labels(labels):
    # a float label used to be truncated, a bool read as 0 or 1
    with pytest.raises(ValueError, match=r"^congruence labels must be a 1-D integer sequence"):
        Congruence(labels)


@pytest.mark.parametrize("x", [-1, 3, 1.0, True])
def test_congruence_same_rejects_non_elements(x):
    # same(-1, 2) used to compare the last element's label
    cong = Congruence([0, 1, 0])
    for a, b in ((x, 1), (1, x)):
        with pytest.raises(ValueError, match=r"^element .* is not an element index in \[0, 3\)$"):
            cong.same(a, b)
    assert cong.same(np.int64(2), np.int64(0)) and not cong.same(np.int64(1), 0)


@pytest.mark.parametrize("labels", [[0, 1], [0, 0], [0, 1, 0, 1, 0]])
def test_is_congruence_rejects_a_partition_of_another_order(z4, labels):
    # a partition of {0, 1} read as one of Z/4 has no row to check, so the
    # closure round alone would call it a congruence
    with pytest.raises(ValueError, match=rf"^a partition of {len(labels)} elements on an "
                                         r"algebra of order 4$"):
        is_congruence(z4, Congruence(labels))


def test_congruence_renames_integer_arrays_to_python_ints():
    cong = Congruence(np.array([7, 3, 7, 250], dtype=np.uint8))
    assert cong.labels == (0, 1, 0, 3)
    assert all(type(v) is int for v in cong.labels)


def test_lattice_walks_stop_at_the_bound(monkeypatch):
    chain = np.maximum.outer(np.arange(8), np.arange(8))
    R = FiniteHemiring(chain, np.zeros((8, 8), dtype=int))   # 128 of each
    assert len(all_congruences(R)) == len(all_ideals(R)) == 128
    monkeypatch.setattr(simpleness, "LATTICE_BOUND", 50)
    with pytest.raises(SizeGuardExceeded,
                       match=r"^congruence lattice enumeration is bounded at LATTICE_BOUND = 50; "
                             r"asked for 64 congruences$"):
        all_congruences(R)
    with pytest.raises(SizeGuardExceeded,
                       match=r"^ideal lattice enumeration is bounded at LATTICE_BOUND = 50; "
                             r"asked for 64 ideals$"):
        all_ideals(R)


def test_principal_congruence_diagonal_for_equal_pair(B):
    assert principal_congruence(B, 1, 1).is_diagonal


@pytest.mark.parametrize("a, b", [(-1, 0), (0, 4), (1.7, 0), (0, True), (np.float64(2.0), 0)])
def test_principal_congruence_rejects_non_elements(z4, a, b):
    # principal_congruence(Z/4, -1, 0) used to close the pair (3, 0)
    with pytest.raises(ValueError, match=r"^pair entry .* is not an element index in \[0, 4\)$"):
        principal_congruence(z4, a, b)
    assert principal_congruence(z4, np.int64(3), np.uint8(1)) == principal_congruence(z4, 3, 1)


def test_principal_congruence_boolean_universal(B):
    assert principal_congruence(B, 0, 1).is_universal


def test_principal_congruences_universal_on_diamond_endos(e_m3):
    H = e_m3.hemiring
    for a in range(0, H.order, 7):
        for b in range(a + 1, H.order, 11):
            assert principal_congruence(H, a, b).is_universal


def test_congruence_simple_examples(B, z4, e_c3, e_m3, semilattices_upto5,
                                    endo_cache):
    assert is_congruence_simple(B)
    assert len(all_congruences(B)) == 2
    assert not is_congruence_simple(z4)
    for M in semilattices_upto5:
        assert is_congruence_simple(endo_cache(M).hemiring)


def test_sweep_order_is_memoised_and_read_only(e_c3):
    R = e_c3.hemiring
    sweep = simpleness._sweep_order(R)
    assert simpleness._sweep_order(R) is sweep
    assert not any(a.flags.writeable for a in sweep)


def test_z4_mod2_partition_is_a_congruence(z4):
    parity = Congruence([0, 1, 0, 1])
    assert is_congruence(z4, parity)
    assert not parity.is_diagonal and not parity.is_universal


def test_congruence_lattice_against_partition_oracle(plain_hemirings_upto3,
                                                     B, two, z4):
    for R in list(plain_hemirings_upto3) + [B, two, z4]:
        assert all_congruences(R) == brute_force_congruences(R)


def test_principal_congruence_is_smallest(plain_hemirings_upto3, z4):
    for R in list(plain_hemirings_upto3) + [z4]:
        congs = all_congruences(R)
        for a in range(R.order):
            for b in range(a + 1, R.order):
                p = principal_congruence(R, a, b)
                for c in congs:
                    if c.same(a, b):
                        assert p.refines(c)


def test_congruence_simple_agrees_with_lattice_size(
        plain_hemirings_upto3, idem_hemirings_upto4, z4):
    for R in list(plain_hemirings_upto3) + list(idem_hemirings_upto4) + [z4]:
        assert is_congruence_simple(R) == (len(all_congruences(R)) <= 2)


def test_all_congruences_builds_the_tables_once(monkeypatch, plain_hemirings_upto3, z4):
    """Once for a walk, and not at all for a congruence-simple R, whose
    decider is asked first."""
    tables = simpleness._tables
    builds = []

    def counted(R):
        builds.append(R)
        return tables(R)

    monkeypatch.setattr(simpleness, "_tables", counted)
    for R in list(plain_hemirings_upto3) + [z4]:
        builds.clear()
        all_congruences(R)
        assert builds == ([] if is_congruence_simple(R) else [R])


def test_order36_product_lattices(plain_hemirings_upto3, monkeypatch):
    """hr2_000 x hr2_000 x hr3_000 x hr3_000: the walk over its 2092
    congruences makes at most 30,000 joins (the frontier walk made
    133,888)."""
    catalog = {R.name: R for R in plain_hemirings_upto3}
    P = direct_product(*(catalog[name] for name in ("hr2_000", "hr2_000", "hr3_000", "hr3_000")))
    join = Congruence.join
    joins = []

    def counted(c, d):
        joins.append(d)
        return join(c, d)

    monkeypatch.setattr(Congruence, "join", counted)
    assert P.order == 36 and len(all_congruences(P)) == 2092
    assert len(joins) <= 30000
    for sidedness in ("two-sided", "left", "right"):
        assert len(all_ideals(P, sidedness)) == 2520


def test_ai4_lattice_totals(idem_hemirings_upto4):
    ai4 = [R for R in idem_hemirings_upto4 if R.order == 4]
    assert len(ai4) == 129
    assert sum(len(all_congruences(R)) for R in ai4) == 645
    assert [sum(len(all_ideals(R, s)) for R in ai4)
            for s in ("two-sided", "left", "right")] == [538, 627, 627]


def test_idempotent_congruences_close_only_the_covering_pairs(monkeypatch):
    """E_C5 (order 70) has 140 covering pairs in its natural order and
    2415 pairs in all; only the covers are closed, and a budget of exactly
    140 x 70^2 cells admits them.  E_C5 is congruence-simple, so the walk
    runs only with the simple shortcut turned off."""
    E = build_E_M(chain_semilattice(5)).hemiring
    closure = simpleness._closure
    calls = []

    def counted(tables, xs, ys):
        calls.append((xs, ys))
        return closure(tables, xs, ys)

    monkeypatch.setattr(simpleness, "_closure", counted)
    monkeypatch.setattr(simpleness, "CLOSURE_BUDGET", 140 * 70 * 70)
    assert E.order == 70 and len(all_congruences(E)) == 2
    assert calls == []
    monkeypatch.setattr(simpleness, "is_congruence_simple", lambda R: False)
    assert len(all_congruences(E)) == 2
    assert len(calls) == 140


def test_congruence_simple_lattice_without_a_walk(monkeypatch, B):
    """The order-114 F_M of sl6_000, the star with four atoms (384 covering
    pairs), and B are
    congruence-simple: their two congruences come back, universal first,
    without a closure; the trivial algebra has one."""
    def no_closure(*args):
        raise AssertionError("a closure ran on a congruence-simple input")

    star = FiniteSemilattice([[0, 1, 2, 3, 4, 5],     # four atoms 2..5 below the top 1
                              [1, 1, 1, 1, 1, 1],
                              [2, 1, 2, 1, 1, 1],
                              [3, 1, 1, 3, 1, 1],
                              [4, 1, 1, 1, 4, 1],
                              [5, 1, 1, 1, 1, 5]])
    F = build_F_M(star).hemiring
    trivial = FiniteHemiring([[0]], [[0]])
    monkeypatch.setattr(simpleness, "_closure", no_closure)
    for R in (F, B):
        assert all_congruences(R) == [Congruence.universal(R.order), Congruence.diagonal(R.order)]
    assert F.order == 114
    assert all_congruences(trivial) == [Congruence.diagonal(1)]


def test_all_congruences_size_guard(monkeypatch):
    """The walk's budget is checked before any of its closures runs: 120
    pairs on the non-idempotent Z_16 and 140 covers on E_C5 (order 70).
    The decider is asked first, so the congruence-simple E_C5 returns its
    two congruences under the same budget, and reaches the walk only with
    the decider stubbed to say no."""
    def no_closure(*args):
        raise AssertionError("a closure ran past the budget")

    monkeypatch.setattr(simpleness, "_closure", no_closure)
    monkeypatch.setattr(simpleness, "CLOSURE_BUDGET", 120 * 16 * 16 - 1)
    with pytest.raises(SizeGuardExceeded,
                       match=r"asked for 30720 table cells \(120 closures at order 16\)$"):
        all_congruences(integers_mod(16))
    monkeypatch.setattr(simpleness, "CLOSURE_BUDGET", 140 * 70 * 70 - 1)
    E = build_E_M(chain_semilattice(5)).hemiring
    assert len(all_congruences(E)) == 2
    monkeypatch.setattr(simpleness, "is_congruence_simple", lambda R: False)
    with pytest.raises(SizeGuardExceeded,
                       match=r"^congruence lattice enumeration is bounded at CLOSURE_BUDGET = "
                             r"685999; asked for 686000 table cells \(140 closures at order 70\)$"):
        all_congruences(E)


def test_all_ideals_size_guard(monkeypatch):
    def no_closure(*args):
        raise AssertionError("an ideal was generated past the budget")

    monkeypatch.setattr(simpleness, "generated_ideal", no_closure)
    monkeypatch.setattr(simpleness, "CLOSURE_BUDGET", 69 * 70 * 70 - 1)
    E = build_E_M(chain_semilattice(5)).hemiring   # order 70
    for sidedness in ("two-sided", "left", "right"):
        with pytest.raises(SizeGuardExceeded,
                           match=r"^ideal lattice enumeration is bounded at CLOSURE_BUDGET = "
                                 r"338099; asked for 338100 table cells "
                                 r"\(69 closures at order 70\)$"):
            all_ideals(E, sidedness)


def test_simpleness_deciders_charge_the_closure_budget(monkeypatch):
    """Z_127 with zero multiplication is simple after 63 closures and 63
    generated ideals: the pre-pass of ``is_ideal_simple`` settles x by an
    earlier nonzero x + x.  Each decider charges k x n^2 cells before its k-th,
    so under a budget of ten both refuse the eleventh."""
    idx = np.arange(127)
    R = FiniteHemiring((idx[:, None] + idx) % 127, np.zeros((127, 127), dtype=int), zero=0)
    closures, ideals = [], []
    compat_closure, generated = simpleness._compat_closure, simpleness.generated_ideal
    monkeypatch.setattr(simpleness, "_compat_closure",
                        lambda *args: closures.append(1) or compat_closure(*args))
    monkeypatch.setattr(simpleness, "generated_ideal",
                        lambda *args: ideals.append(1) or generated(*args))
    assert is_congruence_simple(R) and is_ideal_simple(R)
    assert (len(closures), len(ideals)) == (63, 63)
    monkeypatch.setattr(simpleness, "CLOSURE_BUDGET", 10 * 127 * 127)
    for decider, work in ((is_congruence_simple, "congruence-simple decision"),
                          (is_ideal_simple, "ideal-simple decision")):
        with pytest.raises(SizeGuardExceeded,
                           match=rf"^{work} is bounded at CLOSURE_BUDGET = 161290; asked "
                                 r"for 177419 table cells \(11 closures at order 127\)$"):
            decider(R)
    assert (len(closures), len(ideals)) == (73, 73)


def test_generated_ideal_examples(B, e_c3, e_m3):
    assert generated_ideal(B, []).members == frozenset({0})
    # distributive case: any nonzero endomorphism generates everything
    H = e_c3.hemiring
    for x in range(H.order):
        if x == H.zero:
            continue
        assert generated_ideal(H, [x]).is_full
    # the diamond: members of the generated submonoid span exactly it
    F = build_F_M(e_m3.lattice)
    f_indices = {e_m3.endo_index(m) for m in F.maps}
    seed = sorted(f_indices - {e_m3.hemiring.zero})[0]
    I = generated_ideal(e_m3.hemiring, [seed])
    assert I.members == frozenset(f_indices)
    assert not I.is_full


@pytest.mark.parametrize("seed", [[-1], [2], [1.7], [1, 1.0], [True]])
def test_generated_ideal_rejects_malformed_seeds(B, seed):
    # B has order 2: -1 and 2 fall outside [0, 2), floats and bools are
    # not element indices, and none of them is coerced
    with pytest.raises(ValueError, match=r"^seed entry .* is not an element index in \[0, 2\)$"):
        generated_ideal(B, seed)


def test_generated_ideal_rejects_an_unknown_sidedness_before_closing(B, monkeypatch):
    # it used to close under + alone and only then fail in IdealSubset
    def closure(*args, **kwargs):
        raise AssertionError("closed before the sidedness was checked")
    monkeypatch.setattr(simpleness, "_subset_closure", closure)
    with pytest.raises(ValueError, match=r"^bad sidedness 'both'$"):
        generated_ideal(B, [1], "both")


def test_all_ideals_rejects_an_unknown_sidedness_first(B, monkeypatch):
    # the one-element walk has no seeds, so it used to return
    # [IdealSubset([0], bogus)]; on B the budget was checked first
    monkeypatch.setattr(simpleness, "CLOSURE_BUDGET", 0)
    for R in (FiniteHemiring([[0]], [[0]]), B):
        with pytest.raises(ValueError, match=r"^bad sidedness 'bogus'$"):
            all_ideals(R, "bogus")


@pytest.mark.parametrize("x", [1.7, 1.0, True, np.float64(0.0), -1, 2])
def test_ideal_membership_rejects_non_elements(B, x):
    # 1.7 in generated_ideal(B, [1]) used to be True
    I = generated_ideal(B, [1])
    with pytest.raises(ValueError, match=r"^element .* is not an element index in \[0, 2\)$"):
        x in I
    assert np.int64(1) in I and 1 in I


def test_each_ideal_check_raises_its_own_error(z4, m2b, monkeypatch):
    # {0, 1} of Z/4 is not an ideal: its closure adds 2 and 3
    with pytest.raises(ValueError, match=r"^not a validated ideal: its closure adds 2$"):
        bourne_congruence(z4, IdealSubset([0, 1], "two-sided", 4))
    with pytest.raises(ValueError, match=r"^not a left ideal: its closure adds 2$"):
        left_ideal_semimodule(z4, IdealSubset([0, 1], "left", 4))
    # in the trivial semiring r * 0 = 1 for every r, so J is empty: no zero
    trivial = FiniteHemiring([[0]], [[0]], zero=0, one=0)
    with pytest.raises(ValueError, match=r"^J is not a left ideal: its closure adds 0$"):
        aic_max_ideal(trivial)
    # a "hom" with image {0, E_11}: closed under + in M_2(B), but E_11 E_12 = E_12 (2)
    H, e11 = m2b.hemiring, m2b.unit(0, 0)
    monkeypatch.setattr(semimodules, "hom_semimodules", lambda P, Q: [(H.zero, e11)])
    with pytest.raises(InvariantViolation,
                       match=r"^trace is not a two-sided ideal: its closure adds 2$"):
        trace_ideal(H, regular_semimodule(H))


def test_generated_ideal_is_the_least_ideal_containing_the_seed(plain_hemirings_upto3, B, two):
    for R in list(plain_hemirings_upto3) + [B, two]:
        for side in ("left", "right", "two-sided"):
            ideals = brute_force_ideals(R, side)
            for k in range(R.order + 1):
                for seed in itertools.combinations(range(R.order), k):
                    # brute_force_ideals lists by size, so the first one
                    # containing the seed is the least one
                    least = next(I for I in ideals if I.members >= set(seed))
                    assert generated_ideal(R, seed, side) == least, (R.name, side, seed)


def test_all_ideals_against_subset_oracle(plain_hemirings_upto3, B, two):
    for R in list(plain_hemirings_upto3) + [B, two]:
        for side in ("left", "right", "two-sided"):
            assert all_ideals(R, side) == brute_force_ideals(R, side)


def test_ideal_simple_examples(B, e_c3, e_m3):
    assert is_ideal_simple(B) and is_simple(B)
    assert is_simple(e_c3.hemiring)
    assert is_congruence_simple(e_m3.hemiring)
    assert not is_ideal_simple(e_m3.hemiring)
    assert not is_simple(e_m3.hemiring)


BAD_MEMBERS = [([0, 1.7], 3), ([0, True], 3), ([0, 5], 3), ([-1], 3), ([0, 1.2], 2)]


@pytest.mark.parametrize("members, order", BAD_MEMBERS)
def test_ideal_subset_rejects_non_element_members(members, order):
    # [0, 1.7] and [0, True] used to hold {0, 1}; [0, 5] at order 3 made
    # mask() raise IndexError
    with pytest.raises(ValueError, match=r"^ideal member .* is not an element index in \[0, \d\)$"):
        IdealSubset(members, "left", order)
    I = IdealSubset(np.array([0, 1], dtype=np.uint8), "left", order)
    assert I.members == {0, 1} and all(type(x) is int for x in I.members)


@pytest.mark.parametrize("members, order", [([0], 2.5), ([], -1), ([], 0), ([0], True),
                                            ([0], np.float64(2))])
def test_ideal_subset_rejects_a_bad_order(members, order):
    # IdealSubset([0], "left", 2.5) used to be accepted and made mask()
    # raise a numpy TypeError; IdealSubset([], "left", -1) was accepted too
    with pytest.raises(ValueError, match=r"^ideal order must be a positive integer; got "):
        IdealSubset(members, "left", order)
    I = IdealSubset([0], "left", np.int64(2))
    assert type(I.order) is int and I.mask().tolist() == [True, False]


@pytest.mark.parametrize("members", [[0, 1.2], [0, True], [0, 2]])
def test_bourne_congruence_gets_no_coerced_ideal(B, members):
    # bourne_congruence(B, IdealSubset([0, 1.2], ...)) used to return a congruence
    with pytest.raises(ValueError, match=r"^ideal member .* is not an element index in \[0, 2\)$"):
        bourne_congruence(B, IdealSubset(members, "two-sided", 2))


def test_bourne_congruence_examples(B, e_m3):
    zero_ideal = IdealSubset([0], "two-sided", 2)
    assert is_zerosumfree(B)
    assert bourne_congruence(B, zero_ideal).is_diagonal
    full = IdealSubset(range(2), "two-sided", 2)
    assert bourne_congruence(B, full).is_universal
    # nonzero proper ideal of the diamond endomorphism semiring: universal
    F = build_F_M(e_m3.lattice)
    f_indices = {e_m3.endo_index(m) for m in F.maps}
    I = IdealSubset(f_indices, "two-sided", e_m3.order)
    cong = bourne_congruence(e_m3.hemiring, I)
    assert cong.is_universal
    for x in f_indices:
        assert cong.same(x, e_m3.hemiring.zero)


def test_bourne_identifies_ideal_with_zero(idem_hemirings_upto4):
    for R in idem_hemirings_upto4:
        for I in all_ideals(R, "two-sided"):
            cong = bourne_congruence(R, I)
            for x in I.members:
                assert cong.same(x, R.zero)


def test_subtractive(B, z4):
    assert is_subtractive(B, IdealSubset([0], "two-sided", 2))
    evens = IdealSubset([0, 2], "two-sided", 4)
    assert ideal_violation(z4, evens.members, "two-sided") is None
    assert is_subtractive(z4, evens)


def test_hom_kernels_are_subtractive_ideals(plain_hemirings_upto3):
    from hemirings import hom_search
    rings = list(plain_hemirings_upto3)
    for R in rings[:8]:
        for S in rings[:8]:
            for h in hom_search(R, S):
                ker = h.kernel()
                assert ideal_violation(R, ker, "two-sided") is None
                assert is_subtractive(R, IdealSubset(ker, "two-sided", R.order))


def test_tau_congruence(semilattices_upto5, endo_cache):
    # with a top element the collapsing congruence is universal; on the
    # one-element semilattice it is the diagonal (same thing at order 1)
    for M in semilattices_upto5:
        E = endo_cache(M)
        tau = tau_congruence(E)
        assert tau.is_universal
        zero_idx = E.hemiring.zero
        for m in range(M.order):
            const = tuple(0 if x == 0 else m for x in range(M.order))
            # e_{0,m} is tau-related to the zero map (choose a = m)
            assert tau.same(E.endo_index(const), zero_idx)
    trivial = endo_cache(FiniteSemilattice([[0]], name="pt"))
    t = tau_congruence(trivial)
    assert t.is_diagonal and t.is_universal


def test_radical_boolean_and_division(B):
    assert radical_left(B).members == frozenset({0})


def test_aic_max_ideal_agrees_with_radical(idem_hemirings_upto4):
    from hemirings import is_aic
    seen_nonzero = False
    for R in idem_hemirings_upto4:
        if not R.is_semiring or not is_aic(R):
            continue
        J = aic_max_ideal(R)
        assert J.members == radical_left(R).members
        if len(J.members) > 1:
            seen_nonzero = True
    assert seen_nonzero


def test_chain3_min_radical():
    R = chain3_min_semiring()
    J = aic_max_ideal(R)
    assert J.members == frozenset({0, 1})
    assert radical_left(R).members == J.members


def test_ideal_and_congruence_simpleness_agree_on_finite_commutative(
        plain_hemirings_upto3, idem_hemirings_upto4):
    for R in list(plain_hemirings_upto3) + list(idem_hemirings_upto4):
        if R.is_semiring and R.is_commutative():
            assert is_ideal_simple(R) == is_congruence_simple(R), R.name
