"""Cross-checks of the vectorized engines against naive reference code."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from hemirings import (
    EndoSemiring,
    FiniteHemiring,
    FiniteSemilattice,
    PartialOrder,
    all_congruences,
    all_ideals,
    boolean_B,
    bourne_congruence,
    build_E_M,
    build_F_M,
    check_hemiring_axioms,
    corner,
    double_centralizer_check,
    enumerate_hemirings,
    enumerate_semilattices,
    finite_field,
    generated_ideal,
    hom_search,
    hom_semimodules,
    induced_order,
    integers_mod,
    is_additively_idempotent,
    is_congruence_simple,
    is_dedekind_finite,
    is_distributive,
    is_division_semiring,
    is_ideal_simple,
    is_isomorphic,
    is_lattice_ordered,
    is_simple,
    is_zerosumfree,
    left_ideal_semimodule,
    matrix_semiring,
    minimal_left_ideals,
    natural_order,
    principal_congruence,
    radical_left,
    regular_semimodule,
    tau_congruence,
    try_lattice,
)
from hemirings import constructions, core, simpleness
from hemirings.constructions import HEMIRING_IDEMPOTENT_BOUND, SEMILATTICE_ORDER_BOUND, \
    corner_congruence_to_ring
from hemirings.core import (
    InvariantViolation,
    SizeGuardExceeded,
    _classes,
    _lex_least_relabeling,
    _map_search,
    _wl_colors,
    canonical_form,
)
from hemirings.lattices import (_distributive_lattice, _pack_maps, endo_enumerate,
                                generator_maps, semilattice_violation)
from hemirings.semimodules import dense_embedding_search
from hemirings.simpleness import (
    Congruence,
    IdealSubset,
    _compat_closure,
    _merge,
    _sweep_order,
    _tables,
)
from hemirings.verify import _boolean_matrices, _catalog_semirings, _semilattices

from conftest import (
    chain3_min_semiring,
    chain_semilattice,
    congruence_violation,
    direct_product,
    ideal_violation,
    naive_lex_least,
    relabeled,
    unchecked_hemiring,
)


def first_failure(law, *ranges):
    """The lexicographically first argument tuple at which ``law`` is false."""
    return next((args for args in itertools.product(*ranges) if not law(*args)), None)


def naive_axiom_witnesses(add, mul, zero, one=None):
    """Per-axiom loop reference for the hemiring axioms: (axiom, first
    violation) in the checker's order."""
    r = range(len(add))

    def at(e, law):    # an element check reports (zero or one, x)
        w = first_failure(law, r)
        return None if w is None else (e, *w)

    out = [
        ("add-commutative", first_failure(lambda a, b: add[a][b] == add[b][a], r, r)),
        ("add-associative", first_failure(
            lambda a, b, c: add[add[a][b]][c] == add[a][add[b][c]], r, r, r)),
        ("zero-neutral", at(zero, lambda x: add[zero][x] == x)),
        ("mul-associative", first_failure(
            lambda a, b, c: mul[mul[a][b]][c] == mul[a][mul[b][c]], r, r, r)),
        ("left-distributive", first_failure(
            lambda a, b, c: mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]], r, r, r)),
        ("right-distributive", first_failure(
            lambda a, b, c: mul[add[b][c]][a] == add[mul[b][a]][mul[c][a]], r, r, r)),
        ("zero-absorbing", at(zero, lambda x: mul[zero][x] == zero and mul[x][zero] == zero)),
    ]
    if one is not None:
        out.append(("one-identity", at(one, lambda x: mul[one][x] == x and mul[x][one] == x)))
    return out


def naive_principal_congruence(R, a, b):
    """Worklist closure over explicit pairs, no numpy."""
    n = R.order
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    work = [(a, b)]
    while work:
        x, y = work.pop()
        rx, ry = find(x), find(y)
        if rx == ry:
            continue
        parent[max(rx, ry)] = min(rx, ry)
        for c in range(n):
            work.append((int(R.add[x, c]), int(R.add[y, c])))
            work.append((int(R.mul[c, x]), int(R.mul[c, y])))
            work.append((int(R.mul[x, c]), int(R.mul[y, c])))
    return Congruence([find(x) for x in range(n)])


def perturbed(table, rng, symmetric=False):
    """A copy of ``table`` with one random cell (and its mirror, when
    ``symmetric``) set to a random value."""
    out = [list(row) for row in table]
    n = len(out)
    i, j, v = rng.randrange(n), rng.randrange(n), rng.randrange(n)
    out[i][j] = v
    if symmetric:
        out[j][i] = v
    return out


def test_axiom_checker_against_naive_on_random_tables(plain_hemirings_upto3,
                                                      idem_hemirings_upto4, monkeypatch):
    # random tables fail early; catalog tables with one cell changed fail
    # (if at all) anywhere.  Small slab sizes split these tables into
    # several slabs, as the default size does from order 26 on.
    rng = random.Random(2024)
    cases = []
    for _ in range(300):
        n = rng.randint(1, 6)
        add = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        mul = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        cases.append((add, mul, rng.randrange(n), rng.choice([None, rng.randrange(n)])))
    for R in list(plain_hemirings_upto3) + list(idem_hemirings_upto4):
        add, mul = R.add.tolist(), R.mul.tolist()
        cases += [(perturbed(add, rng), mul, R.zero, R.one),
                  (add, perturbed(mul, rng), R.zero, R.one)]
    wants = [naive_axiom_witnesses(*case) for case in cases]
    for slab in (core._SLAB_CELLS, 1, 20):
        monkeypatch.setattr(core, "_SLAB_CELLS", slab)
        for case, want in zip(cases, wants):
            report = check_hemiring_axioms(*case)
            assert [(c.axiom, c.witness) for c in report.checks] == want
            assert [c.ok for c in report.checks] == [w is None for _, w in want]
    failing = sum(any(w is not None for _, w in want) for want in wants)
    assert 300 < failing < len(cases)


def test_axiom_checker_accepts_catalog(plain_hemirings_upto3):
    for R in plain_hemirings_upto3:
        naive = naive_axiom_witnesses(R.add.tolist(), R.mul.tolist(), R.zero, R.one)
        assert all(w is None for _, w in naive)


def literal_zerosumfree(R):
    return all(R.add[x, y] != R.zero or x == y == R.zero
               for x in R.elements() for y in R.elements())


def literal_dedekind_finite(R):
    return R.one is None or all(R.mul[a, b] != R.one or R.mul[b, a] == R.one
                                for a in R.elements() for b in R.elements())


def literal_division(R):
    if R.one is None:
        raise ValueError("no one")
    return all(x == R.zero or any(R.mul[x, y] == R.one and R.mul[y, x] == R.one
                                  for y in R.elements())
               for x in R.elements())


def test_element_predicates_against_definitions(plain_hemirings_upto3, idem_hemirings_upto4,
                                                B, m2b):
    """The vectorised zerosumfree, Dedekind-finite and division tests
    against loops over their definitions.  A finite monoid is always
    Dedekind-finite, so multiplications with one cell changed (outside the
    axioms) supply the other verdict."""
    algebras = list(plain_hemirings_upto3) + list(idem_hemirings_upto4)
    algebras += [finite_field(q) for q in (2, 3, 4, 5)] + [integers_mod(n) for n in range(2, 9)]
    algebras += [m2b.hemiring] + [matrix_semiring(finite_field(q), 2).hemiring for q in (2, 3)]
    algebras += [direct_product(R, boolean_B()) for R in algebras if R.order <= 16]
    rng = random.Random(31)
    algebras += [unchecked_hemiring(R.add, perturbed(R.mul.tolist(), rng), R.zero, R.one)
                 for R in algebras if R.one is not None for _ in range(3)]
    seen = set()
    for R in algebras:
        verdicts = is_zerosumfree(R), is_dedekind_finite(R)
        assert verdicts == (literal_zerosumfree(R), literal_dedekind_finite(R))
        if R.one is None:
            with pytest.raises(ValueError, match="requires a multiplicative identity"):
                is_division_semiring(R)
        else:
            verdicts += (is_division_semiring(R),)
            assert verdicts[2] == literal_division(R)
        seen |= set(enumerate(verdicts))
    assert seen == {(i, v) for i in range(3) for v in (True, False)}


def full_scan_witnesses(add, mul, zero, one=None):
    """The checker's (axiom, witness) list with its four three-variable laws
    taken from the kernel's scan over the whole cube."""
    add, mul = np.asarray(add, dtype=np.int32), np.asarray(mul, dtype=np.int32)
    n = len(add)
    laws = {"add-associative": core._associative(add),
            "mul-associative": core._associative(mul),
            "left-distributive": core._distributive(mul, add, add),
            "right-distributive": core._distributive(mul.T, add, add)}
    return [(c.axiom, core._law_witness(laws[c.axiom], (n, n, n))
             if c.axiom in laws else c.witness)
            for c in check_hemiring_axioms(add, mul, zero, one).checks]


@pytest.fixture(scope="module")
def large_hemirings(semilattices_upto5, endo_cache):
    """Hemirings of order > 25, so that the checker takes the reduced test:
    E_M and F_M of every order-5 semilattice, M_2(GF(3)), and E_M x B and
    E_M x GF(2) for the order-43 E_M."""
    out = []
    for M in semilattices_upto5:
        if M.order == 5:
            E, F = endo_cache(M).hemiring, build_F_M(M).hemiring
            out += [E] if F.order == E.order else [E, F]
    E = next(R for R in out if R.order == 43)
    out += [matrix_semiring(finite_field(3), 2).hemiring,
            direct_product(E, boolean_B()), direct_product(E, finite_field(2))]
    assert all(R.order ** 3 > core._SLAB_CELLS for R in out)
    return out


CUBIC_LAWS = ("add-associative", "mul-associative", "left-distributive", "right-distributive")


def left_regular_band(letters):
    """The words over ``letters`` without a repeated letter, shortest
    first, as (add, mul): x + y is x followed by the letters of y not in
    x (the free left regular band, with the empty word as zero), and x * y
    keeps the letters of x that occur in y.  + is associative but not
    commutative, * is associative and right distributive, and left
    distributivity holds whenever a and b are the empty word or a letter
    (the additive generators) but fails at a = "ab", b = "b", c = "a"."""
    words = ["".join(w) for k in range(len(letters) + 1)
             for w in itertools.permutations(letters, k)]
    index = {w: i for i, w in enumerate(words)}
    add = [[index[x + "".join(ch for ch in y if ch not in x)] for y in words] for x in words]
    mul = [[index["".join(ch for ch in x if ch in y)] for y in words] for x in words]
    return add, mul


def fails_with_arguments_in(mul, add, gens):
    """Whether left distributivity fails with a and b in ``gens``, and
    whether mul-associativity fails with a, b and c in it."""
    mul, add, g = np.asarray(mul), np.asarray(add), np.asarray(gens)
    mg = mul[g]
    left = mg[:, add[g]] != add[mg[:, g, None], mg[:, None, :]]
    ab = mg[:, g]
    assoc = mul[ab][:, :, g] != mg[:, ab]
    return bool(left.any()), bool(assoc.any())


def test_reduced_axiom_decision_on_large_perturbations(large_hemirings, monkeypatch):
    for slab in (1, 1 << 14):   # slabs of one generator plane and of many
        monkeypatch.setattr(core, "_SLAB_CELLS", slab)
        assert_reduced_decision_is_exact(large_hemirings)


def assert_reduced_decision_is_exact(large_hemirings):
    """Valid hemirings of order > 25 and changed copies of them get exactly
    the witnesses of the scan over the whole cube.  The copies:
    one-cell perturbations of add and of mul; mul cells (x, y) with x and
    y outside the additive generating set G, which break left
    distributivity only at first arguments outside G and mul-associativity
    only outside G^3; and three products that break a single
    three-variable law of an additively idempotent one: s(ab) breaks
    mul-associativity alone, and ab = rho(a) (ab = rho(b)) with rho
    idempotent but not additive breaks right (left) distributivity alone.
    Last, the non-commutative + of ``left_regular_band``, over which left
    distributivity holds on G^2 but not everywhere."""
    rng = random.Random(13)
    failing, alone, outside_only = set(), set(), set()
    for R in large_hemirings:
        n, add, mul = R.order, R.add.tolist(), R.mul.tolist()
        assert full_scan_witnesses(add, mul, R.zero, R.one) == [
            (c.axiom, None) for c in check_hemiring_axioms(add, mul, R.zero, R.one).checks]
        cases = [(perturbed(add, rng, k % 2 == 1), mul) for k in range(20)]
        cases += [(add, perturbed(mul, rng)) for _ in range(20)]
        gens = core._generating_set(R.add)
        outside = sorted(set(range(n)) - set(gens.tolist()))
        for _ in range(3):
            m = [list(row) for row in mul]
            x, y = rng.choice(outside), rng.choice(outside)
            m[x][y] = rng.choice([v for v in range(n) if v != m[x][y]])
            assert fails_with_arguments_in(m, add, gens) == (False, False)
            cases.append((add, m))
        for _ in range(3 if is_additively_idempotent(R) else 0):
            s, j = rng.randrange(n), rng.randrange(n)
            rho = np.where(np.arange(n) == j, j, R.zero)
            cases += [(add, R.mul[s][R.mul].tolist()),
                      (add, np.repeat(rho[:, None], n, axis=1).tolist()),
                      (add, np.repeat(rho[None, :], n, axis=0).tolist())]
        for a, m in cases:
            report = check_hemiring_axioms(a, m, R.zero, R.one)
            want = full_scan_witnesses(a, m, R.zero, R.one)
            assert [(c.axiom, c.witness) for c in report.checks] == want
            broken = {axiom for axiom, w in want if w is not None} & set(CUBIC_LAWS)
            failing |= broken
            if len(broken) == 1:
                alone |= broken
            if a is add:    # G is that of R
                left, assoc = fails_with_arguments_in(m, a, gens)
                if "left-distributive" in broken and not left:
                    outside_only.add("left-distributive")
                if "mul-associative" in broken and not assoc:
                    outside_only.add("mul-associative")
    assert failing == set(CUBIC_LAWS)
    assert alone >= {"mul-associative", "left-distributive", "right-distributive"}
    assert outside_only == {"left-distributive", "mul-associative"}

    add, mul = left_regular_band("abcd")
    n = len(add)
    assert n ** 3 > core._SLAB_CELLS
    assert core._generating_set(np.array(add)).tolist() == [0, 1, 2, 3, 4]
    assert fails_with_arguments_in(mul, add, [0, 1, 2, 3, 4]) == (False, False)
    want = full_scan_witnesses(add, mul, 0)
    assert [axiom for axiom, w in want if w is not None] == [
        "add-commutative", "left-distributive"]
    assert [(c.axiom, c.witness) for c in check_hemiring_axioms(add, mul, 0).checks] == want


def naive_closure(T, gens):
    """The elements reached from ``gens`` by the table T, pair by pair."""
    closed = set(gens)
    while True:
        new = {T[x][y] for x in closed for y in closed} - closed
        if not new:
            return closed
        closed |= new


def naive_irreducibles(T):
    """The z that are no T[x][y] with x != z and y != z."""
    reducible = {v for x, row in enumerate(T) for y, v in enumerate(row) if v not in (x, y)}
    return set(range(len(T))) - reducible


def test_generating_set_generates_and_holds_the_irreducibles(
        plain_hemirings_upto3, idem_hemirings_upto4, large_hemirings):
    # (table, whether it is a semilattice, which its irreducibles generate)
    rng = random.Random(8)
    tables = [(R.add.tolist(), is_additively_idempotent(R))
              for R in list(plain_hemirings_upto3) + list(idem_hemirings_upto4)
              + large_hemirings]
    for _ in range(200):
        n = rng.randint(1, 12)
        tables.append(([[rng.randrange(n) for _ in range(n)] for _ in range(n)], False))
    greedy = 0
    for T, semilattice in tables:
        gens = core._generating_set(np.array(T, dtype=np.int32)).tolist()
        irreducible = naive_irreducibles(T)
        assert len(set(gens)) == len(gens)
        assert irreducible <= set(gens)
        assert naive_closure(T, gens) == set(range(len(T)))
        if semilattice:
            assert set(gens) == irreducible
        greedy += set(gens) != irreducible
    assert greedy >= 50


def round_subset_closure(mask, T, actions=()):
    """Round-loop reference for ``core._subset_closure``: each round applies
    T to every pair of elements marked at its start, and the actions to
    every such element, until a round marks nothing new."""
    mask = mask.copy()
    while True:
        idx = np.flatnonzero(mask)
        mask[T[np.ix_(idx, idx)]] = True
        for A in actions:
            mask[A[:, idx]] = True
        if np.count_nonzero(mask) == idx.size:
            return mask


def test_subset_closure_against_round_reference(plain_hemirings_upto3, idem_hemirings_upto4,
                                                large_hemirings):
    """The semi-naive closure marks what the round loop marks: under + and
    * of both catalogs and of the large hemirings (so under many
    non-commutative tables), with no action, the left products and both;
    under the non-commutative + and * of ``left_regular_band``; and under
    random tables with random actions.  Each starts from a few random
    elements, and is then resumed (``done``) from its closure plus one more
    element."""
    rng = random.Random(31)
    cases = []
    for R in list(plain_hemirings_upto3) + list(idem_hemirings_upto4) + large_hemirings:
        for T in (R.add, R.mul):
            cases += [(T, actions) for actions in ((), (R.mul,), (R.mul, R.mul.T))]
    add, mul = (np.array(T, dtype=np.int32) for T in left_regular_band("abcd"))
    cases += [(add, ()), (mul, ()), (add, (mul,))]
    for _ in range(200):
        n = rng.randint(1, 12)
        T = np.array([[rng.randrange(n) for _ in range(n)] for _ in range(n)], dtype=np.int32)
        actions = tuple(np.array([[rng.randrange(n) for _ in range(n)]
                                  for _ in range(rng.randint(1, 4))], dtype=np.int32)
                        for _ in range(rng.randint(0, 2)))
        cases.append((T, actions))
    asymmetric, grown = 0, []
    for T, actions in cases:
        n = len(T)
        asymmetric += not (T == T.T).all()
        mask = np.zeros(n, dtype=bool)
        mask[rng.sample(range(n), rng.randint(1, min(n, 3)))] = True
        want = round_subset_closure(mask, T, actions)
        assert (core._subset_closure(mask, T, actions) == want).all()
        resumed = want.copy()
        resumed[rng.randrange(n)] = True
        assert (core._subset_closure(resumed, T, actions, done=want)
                == round_subset_closure(resumed, T, actions)).all()
        grown.append(want.sum() - mask.sum())
    assert asymmetric > 300 and max(grown) > 50


def naive_semilattice_violation(join, zero):
    r = range(len(join))
    laws = [
        ("idempotent", first_failure(lambda x: join[x][x] == x, r)),
        ("commutative", first_failure(lambda a, b: join[a][b] == join[b][a], r, r)),
        ("associative", first_failure(
            lambda a, b, c: join[join[a][b]][c] == join[a][join[b][c]], r, r, r)),
        ("zero-neutral", first_failure(lambda x: join[zero][x] == x, r)),
    ]
    return next(((law, w) for law, w in laws if w is not None), None)


def test_semilattice_laws_against_naive(monkeypatch):
    """semilattice_violation on every semilattice of order <= 6 and on
    seeded perturbations of each; is_distributive on the lattice of each
    semilattice, against the literal triple loop; under several slab
    sizes."""
    rng = random.Random(31)
    tables, lattices = [], []
    for n in range(1, 7):
        for M in enumerate_semilattices(n):
            join = M.join.tolist()
            tables.append((join, M.zero))
            tables += [(perturbed(join, rng, symmetric), M.zero)
                       for symmetric in (False, True, True)]
            L = try_lattice(M)
            meet, r = L.meet.tolist(), range(n)
            lattices.append((L, first_failure(
                lambda a, b, c: meet[a][join[b][c]] == join[meet[a][b]][meet[a][c]],
                r, r, r) is None))
    wants = [naive_semilattice_violation(*t) for t in tables]
    for slab in (core._SLAB_CELLS, 1, 20):
        monkeypatch.setattr(core, "_SLAB_CELLS", slab)
        assert [semilattice_violation(*t) for t in tables] == wants
        assert [is_distributive(L) for L, _ in lattices] == [d for _, d in lattices]
    assert {w and w[0] for w in wants} == {
        None, "idempotent", "commutative", "associative", "zero-neutral"}
    assert 0 < sum(d for _, d in lattices) < len(lattices)


def test_principal_congruence_against_naive(plain_hemirings_upto3,
                                            idem_hemirings_upto4, z4):
    pool = list(plain_hemirings_upto3) + list(idem_hemirings_upto4) + [z4]
    for R in pool:
        for a in range(R.order):
            for b in range(a + 1, R.order):
                assert principal_congruence(R, a, b) == \
                    naive_principal_congruence(R, a, b)


def test_principal_congruence_against_naive_on_endos(e_c3):
    H = e_c3.hemiring
    for a in range(H.order):
        for b in range(a + 1, H.order):
            assert principal_congruence(H, a, b) == \
                naive_principal_congruence(H, a, b)


def naive_is_congruence_simple(R):
    """Every pair generates the universal congruence (no early exit)."""
    return all(naive_principal_congruence(R, a, b).is_universal
               for a in range(R.order) for b in range(a + 1, R.order))


@pytest.fixture(scope="module")
def order4_catalogs(idem_hemirings_upto4):
    """The plain order-4 catalog (one past the shipped bound) and the
    additively idempotent one, each with one seeded relabelling: the
    deciders' earlier-witness pre-passes depend on the element order."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(constructions, "HEMIRING_ORDER_BOUND", 4)
        base = enumerate_hemirings(4)
    base += [R for R in idem_hemirings_upto4 if R.order == 4]
    rng = random.Random(13)
    return base + [relabeled(R, rng.sample(range(R.order), R.order)) for R in base]


def test_congruence_simple_against_naive(B, m2b, e_c3, z4, semilattices_upto5, endo_cache,
                                         order4_catalogs):
    base = [z4, integers_mod(6), m2b.hemiring, direct_product(e_c3.hemiring, B)]
    for M in semilattices_upto5:
        if M.order <= 4:
            base += [endo_cache(M).hemiring, build_F_M(M).hemiring]
    # the early exit depends on pair order, and relabelling moves the first
    # pair that does not generate the universal congruence
    rng = random.Random(11)
    algebras = list(base)
    for R in base:
        algebras += [relabeled(R, rng.sample(range(R.order), R.order)) for _ in range(2)]
    algebras += order4_catalogs
    verdicts = [is_congruence_simple(R) for R in algebras]
    assert verdicts == [naive_is_congruence_simple(R) for R in algebras]
    assert True in verdicts and False in verdicts


def test_ideal_simple_against_definition(semilattices_upto5, endo_cache, order4_catalogs):
    algebras = list(order4_catalogs)
    for M in semilattices_upto5:
        if M.order <= 4:
            algebras += [endo_cache(M).hemiring, build_F_M(M).hemiring]
    verdicts = [is_ideal_simple(R) for R in algebras]
    assert verdicts == [len(all_ideals(R)) <= 2 for R in algebras]
    assert True in verdicts and False in verdicts


def index_order_congruence_simple(R):
    """``is_congruence_simple`` sweeping pairs in index order: the same
    earlier-witness pre-pass and early-stopping closure on the original
    labels."""
    n = R.order
    ids = np.arange(n)
    tables = _tables(R)
    rows = np.concatenate(tables, axis=1)
    for a in range(n - 1):
        bs = ids[a + 1:]
        lo = np.minimum(rows[a], rows[a + 1:])
        hi = np.maximum(rows[a], rows[a + 1:])
        earlier = (lo < a) | ((lo == a) & (hi < bs[:, None]))
        settled = ((lo != hi) & earlier).any(axis=1)
        for b in bs[~settled]:
            labels = ids.copy()
            labels[b] = a
            for labels in _compat_closure(tables, labels):
                if ((labels * n + ids < a * n + b) & (labels != ids)).any():
                    break
            else:
                if labels.any():
                    return False
    return True


def index_order_ideal_simple(R):
    """``is_ideal_simple`` sweeping nonzero elements in index order."""
    ids = np.arange(R.order)
    rows = np.concatenate([R.mul.T, R.mul], axis=1)
    settled = ((rows != R.zero) & (rows < ids[:, None])).any(axis=1)
    return all(x == R.zero or generated_ideal(R, [x]).is_full for x in ids[~settled])


@pytest.fixture(scope="module")
def sweep_order_inputs(semilattices_upto5, endo_cache):
    """E_M and F_M of every order-5 semilattice (orders 42-70), their
    products with B, and M_2(GF(3)), each with two seeded relabellings:
    orders where the sweep order changes which pairs run a closure."""
    base = []
    for M in semilattices_upto5:
        if M.order == 5:
            E, F = endo_cache(M).hemiring, build_F_M(M).hemiring
            base += [E] if F.order == E.order else [E, F]
    base += [direct_product(R, boolean_B()) for R in base]
    base.append(matrix_semiring(finite_field(3), 2).hemiring)
    rng = random.Random(17)
    return [[R] + [relabeled(R, rng.sample(range(R.order), R.order)) for _ in range(2)]
            for R in base]


def test_sweep_order_deciders_against_index_order(sweep_order_inputs):
    seen = set()
    for copies in sweep_order_inputs:
        for R in copies:
            assert _sweep_order(R)[0][0] == R.zero
        cs = [is_congruence_simple(R) for R in copies]
        isim = [is_ideal_simple(R) for R in copies]
        assert cs == [index_order_congruence_simple(R) for R in copies]
        assert isim == [index_order_ideal_simple(R) for R in copies]
        assert isim == [all(generated_ideal(R, [x]).is_full
                            for x in range(R.order) if x != R.zero) for R in copies]
        # a relabelling never changes a verdict
        assert len(set(cs)) == 1 and len(set(isim)) == 1
        seen.add((cs[0], isim[0]))
    assert {(True, True), (False, False)} <= seen


def per_row_congruence_simple(R):
    """``is_congruence_simple`` with a one-pass pre-pass: the tables
    relabelled through the sweep order, then one numpy pass per row a over
    all 3n images of the pairs (a, b), and the same early-stopping closure
    on the pairs it leaves."""
    n = R.order
    ids = np.arange(n)
    order, rank = _sweep_order(R)
    cells = np.ix_(order, order)
    tables = tuple(rank[T[cells]] for T in _tables(R))
    narrow = np.min_scalar_type(n)
    rows = np.concatenate(tables, axis=1).astype(narrow)
    later = ids.astype(narrow)[:, None]
    for a in range(n - 1):
        bs = ids[a + 1:]
        lo = np.minimum(rows[a], rows[a + 1:])
        hi = np.maximum(rows[a], rows[a + 1:])
        earlier = (lo < a) | ((lo == a) & (hi < later[a + 1:]))
        settled = ((lo != hi) & earlier).any(axis=1)
        for b in bs[~settled]:
            labels = ids.copy()
            labels[b] = a
            for labels in simpleness._compat_closure(tables, labels):
                if ((labels * n + ids < a * n + b) & (labels != ids)).any():
                    break
            else:
                if labels.any():
                    return False
    return True


@pytest.fixture(scope="module")
def order6_endos():
    """E_M and F_M of the order-6 semilattices with |E_M| <= 128 (orders
    98-120), each with two seeded relabellings."""
    base = []
    for M in _semilattices(6):
        if M.order == 6 and (E := build_E_M(M).hemiring).order <= 128:
            F = build_F_M(M).hemiring
            base += [E] if F.order == E.order else [E, F]
    rng = random.Random(23)
    return [[relabeled(R, rng.sample(range(R.order), R.order)) for _ in range(2)] for R in base]


def unsettled_by_definition(tables):
    """The pairs (a, b), a < b, in lexicographic order, with no image under
    a column of ``tables`` that is a pair of distinct elements before
    (a, b), one row a at a time."""
    rows = np.concatenate(tables, axis=1)
    out = []
    for a in range(len(rows) - 1):
        bs = np.arange(a + 1, len(rows))
        lo, hi = np.minimum(rows[a], rows[a + 1:]), np.maximum(rows[a], rows[a + 1:])
        earlier = (lo < a) | ((lo == a) & (hi < bs[:, None]))
        out += [(a, int(b)) for b in bs[~((lo != hi) & earlier).any(axis=1)]]
    return out


def test_two_pass_pre_pass_against_per_row(sweep_order_inputs, order6_endos, order4_catalogs,
                                           m2b, monkeypatch):
    """Both pre-passes settle the same pairs: the same verdicts, and the
    same pairs (a, b) reach a closure in the same order.  Below order 10
    the first pass reads every image; M_2(B) and the order-4 catalogs have
    pairs that only its tie case (an image (a, h), a < h < b) settles.
    Slabs of 16 pairs put many pairs on a slab boundary."""
    closed = []
    compat_closure = simpleness._compat_closure

    def recording(tables, labels):
        b = int(np.flatnonzero(labels != np.arange(labels.size))[0])
        closed.append((int(labels[b]), b))
        return compat_closure(tables, labels)

    monkeypatch.setattr(simpleness, "_compat_closure", recording)
    rng = random.Random(29)
    small = [m2b.hemiring] + [relabeled(m2b.hemiring, rng.sample(range(16), 16)) for _ in range(2)]
    verdicts = set()
    for R in [R for copies in sweep_order_inputs + order6_endos + [small, order4_catalogs]
              for R in copies]:
        closed.clear()
        want = per_row_congruence_simple(R), list(closed)
        order, rank = _sweep_order(R)
        tables = tuple(rank[T[np.ix_(order, order)]] for T in _tables(R))
        unsettled = unsettled_by_definition(tables)
        for cells in (core._SLAB_CELLS, 3 * simpleness._PHASE1_WIDTH * 16):
            monkeypatch.setattr(core, "_SLAB_CELLS", cells)
            closed.clear()
            assert (is_congruence_simple(R), closed) == want
            assert list(simpleness._unsettled_pairs(tables)) == unsettled
        verdicts.add(want[0])
    assert verdicts == {True, False}


def naive_merge(labels, xs, ys):
    """Python union-find from ``labels``; returns least-element labels."""
    parent = list(range(len(labels)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for x, y in list(enumerate(labels)) + list(zip(xs, ys)):
        rx, ry = find(int(x)), find(int(y))
        parent[max(rx, ry)] = min(rx, ry)
    return [find(x) for x in range(len(labels))]


def test_merge_against_naive_union_find():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(1, 30)
        blocks = [rng.randrange(n) for _ in range(n)]
        labels = np.array([blocks.index(v) for v in blocks])   # least element of each block
        before = labels.copy()
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))]
        xs = np.array([p[0] for p in pairs], dtype=np.intp)
        ys = np.array([p[1] for p in pairs], dtype=np.intp)
        assert _merge(labels, xs, ys).tolist() == naive_merge(labels, xs, ys)
        assert (labels == before).all()


def table_pass_compat_closure(tables, labels):
    """Pass-loop reference for ``simpleness._compat_closure``: each pass
    reads the rows of every non-representative in one table and merges its
    bad pairs before the next table, until a pass over all three changes
    nothing; the final labels."""
    ids = np.arange(labels.size)
    while True:
        changed = False
        for T in tables:
            rows = np.flatnonzero(labels != ids)
            a = labels[T[rows]]
            b = labels[T[labels[rows]]]
            bad = a != b
            if bad.any():
                labels = _merge(labels, a[bad], b[bad])
                changed = True
        if not changed:
            return labels


def test_compat_closure_against_table_pass_reference(plain_hemirings_upto3,
                                                     idem_hemirings_upto4, sweep_order_inputs,
                                                     order6_endos, B):
    """The incremental closure ends at the pass loop's labels, from every
    pair of every member of both catalogs and from seeded pairs, and
    seeded sets of three pairs, on E_M and F_M of order 42-120, their
    products with B (order 84-140), M_2(GF(3)) and seeded products of
    catalog members.  Every labels it yields is a congruence-coarsening
    of the last in least-element form, and the last is a congruence."""
    catalog = list(plain_hemirings_upto3) + list(idem_hemirings_upto4)
    rng = random.Random(37)
    factors = [R for R in catalog if R.order > 1]
    products = [direct_product(*rng.sample(factors, rng.choice((2, 3)))) for _ in range(10)]
    large = [R for copies in sweep_order_inputs + order6_endos for R in copies[:1]]
    seeds = []
    for R in catalog:
        seeds += [(R, [a], [b]) for a, b in itertools.combinations(range(R.order), 2)]
    for R in large + products:
        pairs = [rng.sample(range(R.order), 2) for _ in range(12)]
        seeds += [(R, [a], [b]) for a, b in pairs[:9]]
        seeds.append((R, [a for a, _ in pairs[9:]], [b for _, b in pairs[9:]]))
    proper = 0
    for R, xs, ys in seeds:
        tables = _tables(R)
        start = _merge(np.arange(R.order), xs, ys)
        want = table_pass_compat_closure(tables, start)
        labels = start
        for step in _compat_closure(tables, labels):
            assert (step[labels] == step).all() and (step[step] == step).all()
            assert (step <= np.arange(R.order)).all() and (step != labels).any()
            labels = step
        assert (labels == want).all()
        assert simpleness.is_congruence(R, Congruence(labels))
        proper += 1 < len(set(labels.tolist())) < R.order
    assert len(seeds) > 1000 and proper > 100


def transitive_partition(related):
    """The partition given by the transitive closure of a reflexive,
    symmetric boolean relation, by Warshall's algorithm."""
    reach = [list(map(bool, row)) for row in related]
    n = len(reach)
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    reach[i][j] = reach[i][j] or reach[k][j]
    return Congruence([row.index(True) for row in reach])


def test_congruence_join_against_equivalence_join(plain_hemirings_upto3,
                                                  idem_hemirings_upto4, B, z4):
    """join is the equivalence generated by the union, on every pair of
    congruences of the small catalogs and of Z/4 x B."""
    pairs = 0
    for R in list(plain_hemirings_upto3) + list(idem_hemirings_upto4) + [direct_product(z4, B)]:
        congruences = all_congruences(R)
        r = range(R.order)
        for c, d in itertools.product(congruences, repeat=2):
            related = [[c.same(x, y) or d.same(x, y) for y in r] for x in r]
            assert c.join(d) == transitive_partition(related), R.name
            pairs += 1
    assert pairs > 1000


def test_congruence_check_against_definition(plain_hemirings_upto3, idem_hemirings_upto4):
    """A partition is a congruence iff the first ``_compat_closure`` round
    merges nothing, as the literal check ``congruence_violation`` decides:
    every congruence of both small catalogs, seeded random partitions of
    them and of every E_M and F_M of order <= 70, the tau congruences of
    cor3_8, and the Bourne congruences of every two-sided ideal and the
    lifted corner congruences of the prop5_3 inputs."""
    rng = random.Random(43)
    catalog = list(plain_hemirings_upto3) + list(idem_hemirings_upto4)
    cases = [(R, c) for R in catalog for c in all_congruences(R)]
    endos = [E.hemiring for M in _semilattices(SEMILATTICE_ORDER_BOUND)
             for E in (build_E_M(M), build_F_M(M)) if E.order <= 70]
    for R in catalog + endos:
        for _ in range(4):
            blocks = rng.randint(1, R.order)
            cases.append((R, Congruence([rng.randrange(blocks) for _ in range(R.order)])))
    cases += [(E.hemiring, tau_congruence(E)) for E in map(build_E_M, _semilattices(5))]
    for R in _catalog_semirings(3) + [_boolean_matrices(2)]:
        cases += [(R, bourne_congruence(R, I)) for I in all_ideals(R, "two-sided")]
        for e in R.idempotents():
            c = corner(R, e)
            cases += [(R, corner_congruence_to_ring(R, c, g)) for g in all_congruences(c.hemiring)]
    congruences = 0
    for R, part in cases:
        verdict = simpleness.is_congruence(R, part)
        assert verdict == (congruence_violation(R, part.labels) is None), (R.name, part.labels)
        congruences += verdict
    assert (len(cases), congruences) == (1625, 1256)


def test_ideal_check_against_definition(plain_hemirings_upto3, idem_hemirings_upto4, B, z4,
                                        m2b):
    """A set is an ideal iff ``generated_ideal`` adds nothing to it, as the
    literal check ``ideal_violation`` decides: every subset of the plain
    catalog to order 3, the idempotent one to order 4, B, Z/4 and M_2(B)
    (of size <= 3 above order 6), under each sidedness."""
    cases = ideals = 0
    for R in plain_hemirings_upto3 + idem_hemirings_upto4 + [B, z4, m2b.hemiring]:
        sizes = range(R.order + 1) if R.order <= 6 else range(4)
        for side in ("left", "right", "two-sided"):
            for k in sizes:
                for subset in itertools.combinations(range(R.order), k):
                    closed = generated_ideal(R, subset, side).members == set(subset)
                    assert closed == (ideal_violation(R, subset, side) is None), \
                        (R.name, side, subset)
                    cases += 1
                    ideals += closed
    assert (cases, ideals) == (9243, 2170)


def test_bourne_congruence_against_definition(plain_hemirings_upto3, semilattices_upto5,
                                             endo_cache):
    algebras = list(plain_hemirings_upto3)
    algebras += [endo_cache(M).hemiring for M in semilattices_upto5 if M.order <= 4]
    for R in algebras:
        n = R.order
        for I in all_ideals(R, "two-sided"):
            # x ~ y iff x + a = y + b for some a, b in I
            related = [[any(R.add[x, a] == R.add[y, b] for a in I.members for b in I.members)
                        for y in range(n)] for x in range(n)]
            assert bourne_congruence(R, I) == transitive_partition(related), R.name


def test_tau_congruence_against_definition(semilattices_upto5, endo_cache):
    for M in semilattices_upto5:
        if M.order > 4:
            continue
        for E in (endo_cache(M), build_F_M(M)):
            # f ~ g iff f(x) v a = g(x) v a for every x, for some a
            related = [[any(all(M.join[f[x], a] == M.join[g[x], a] for x in range(M.order))
                            for a in range(M.order))
                        for g in E.maps] for f in E.maps]
            assert tau_congruence(E) == transitive_partition(related), M.name


def test_partial_order_meet_absent():
    # N-shaped poset: 0 < a, b < c, d with c, d incomparable: c ^ d fails
    leq = np.zeros((5, 5), dtype=bool)
    for i in range(5):
        leq[i, i] = True
    for i in (1, 2, 3, 4):
        leq[0, i] = True
    for i in (1, 2):
        leq[i, 3] = leq[i, 4] = True
    po = PartialOrder(leq)
    assert po.meet(3, 4) is None
    assert po.meet_table() is None


def pairwise_meet_table(po):
    """The meet table from the literal definition, one pair at a time."""
    n = po.order
    out = np.empty((n, n), dtype=np.int32)
    for a in range(n):
        for b in range(n):
            m = po.meet(a, b)
            if m is None:
                return None
            out[a, b] = m
    return out


def random_poset(rng, n, density):
    """A seeded random partial order on a shuffled carrier."""
    perm = rng.sample(range(n), n)
    leq = np.eye(n, dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                leq[perm[i], perm[j]] = True
    for m in range(n):
        leq |= leq[:, m, None] & leq[None, m, :]
    return PartialOrder(leq)


def test_meet_table_against_pairwise_meet(semilattices_upto5, endo_cache):
    rng = random.Random(5)
    lattices = [natural_order(endo_cache(M).hemiring) for M in semilattices_upto5]
    posets = [random_poset(rng, rng.randint(1, 9), rng.random()) for _ in range(200)]
    without_meets = 0
    for po in lattices + posets:
        want = pairwise_meet_table(po)
        got = po.meet_table()
        if want is None:
            without_meets += 1
            assert got is None
        else:
            assert got is not None and (got == want).all()
    assert all(po.meet_table() is not None for po in lattices)
    assert without_meets >= 50
    # the lattice try_lattice builds, on every catalog semilattice
    for n in range(1, SEMILATTICE_ORDER_BOUND + 1):
        for M in enumerate_semilattices(n):
            assert (try_lattice(M).meet == pairwise_meet_table(induced_order(M))).all(), M.name


def natural_orders(n):
    """Every partial order on 0..n-1 with least element 0 in which x < y
    implies x < y as integers, as boolean leq matrices: the strict
    relations on the pairs 0 < i < j in the order of itertools.product
    (bit set: i < j, the first pair most significant), kept if transitive."""
    pairs = list(itertools.combinations(range(1, n), 2))
    for bits in itertools.product((False, True), repeat=len(pairs)):
        leq = np.eye(n, dtype=bool)
        leq[0] = True
        for (i, j), bit in zip(pairs, bits):
            leq[i, j] = bit
        if not ((leq.astype(int) @ leq.astype(int) > 0) & ~leq).any():
            yield leq


def catalog_semilattices(n):
    """The semilattice catalog the way it was first built: the natural
    orders, their join tables where every pair has a least upper bound,
    and the canonical join tables named in that order, listed sorted."""
    joins = [pairwise_meet_table(PartialOrder(leq.T))
             for leq in natural_orders(n)]
    joins = np.array([J for J in joins if J is not None])
    names = {}
    for key, _ in _lex_least_relabeling(joins[:, None], 0):
        names.setdefault(key, f"sl{n}_{len(names):03d}")
    return [(names[key], np.array(key).reshape(n, n).tolist()) for key in sorted(names)]


def test_semilattice_catalog_against_natural_orders(monkeypatch):
    """Names, join tables and their order against the old path, at every
    shipped order and one past the bound (53 classes at order 7)."""
    monkeypatch.setattr(constructions, "SEMILATTICE_ORDER_BOUND", SEMILATTICE_ORDER_BOUND + 1)
    for n in range(1, SEMILATTICE_ORDER_BOUND + 2):
        got = [(M.name, M.join.tolist()) for M in enumerate_semilattices(n)]
        assert got == catalog_semilattices(n), n
    assert len(got) == 53


def test_lattice_ordered_against_meet_table(plain_hemirings_upto3, idem_hemirings_upto4,
                                            semilattices_upto5, endo_cache):
    base = list(plain_hemirings_upto3) + list(idem_hemirings_upto4)
    base += [E for M in semilattices_upto5
             for E in (endo_cache(M).hemiring, build_F_M(M).hemiring)]
    rng = random.Random(17)
    algebras = base + [relabeled(R, rng.sample(range(R.order), R.order)) for R in base]
    verdicts = []
    for R in algebras:
        want = False
        if is_additively_idempotent(R):
            po = natural_order(R)
            meets = po.meet_table()
            want = meets is not None and bool(po.leq[R.mul, meets].all())
        verdicts.append(is_lattice_ordered(R))
        assert verdicts[-1] == want, R.name
    assert True in verdicts and False in verdicts


def test_partial_order_validation():
    with pytest.raises(ValueError):
        PartialOrder(np.array([[True, True], [True, True]]))   # not antisymmetric
    with pytest.raises(ValueError):
        PartialOrder(np.array([[False]]))                      # not reflexive
    bad = np.eye(3, dtype=bool)
    bad[0, 1] = bad[1, 2] = True                               # not transitive
    with pytest.raises(ValueError):
        PartialOrder(bad)


def test_map_search_against_brute_force(m3, n5, z4):
    # random visit orders and candidate domains; the kernel must yield exactly
    # the preserving maps within the domains, in visit-order lexicographic order
    rng = random.Random(3)
    for tables in ((m3.join,), (n5.join,), (z4.add, z4.mul)):
        n = tables[0].shape[0]
        for _ in range(40):
            order = rng.sample(range(n), n)
            domains = [sorted(rng.sample(range(n), rng.randint(1, n))) for _ in range(n)]
            injective = rng.random() < 0.5
            want = [f for f in itertools.product(*domains)
                    if (not injective or len(set(f)) == n)
                    and all(f[T[x, y]] == T[f[x], f[y]]
                            for T in tables for x in range(n) for y in range(n))]
            got = list(_map_search(n, order, domains, tables=[(T, T) for T in tables],
                                   injective=injective))
            assert got == sorted(want, key=lambda f: [f[x] for x in order])


def automorphism_count(tables, zero):
    """Relabelings fixing zero that leave the tables unchanged."""
    n = tables[0].shape[0]
    count = 0
    for perm in itertools.permutations(range(n)):
        p = np.asarray(perm)
        if p[zero] == zero and all((p[T] == T[np.ix_(p, p)]).all() for T in tables):
            count += 1
    return count


def relabelled_concatenation(tables, p):
    """The tables with element x renamed p[x], concatenated row-major."""
    pa = np.asarray(p)
    out = []
    for T in tables:
        T2 = np.empty_like(T)
        T2[np.ix_(pa, pa)] = pa[T]
        out += T2.ravel().tolist()
    return out


def fixes_zero_row(T, zero):
    """Zero's row is neutral or absorbing: every relabeling fixing zero
    leaves it as it is."""
    return bool((T[zero] == np.arange(len(T))).all() or (T[zero] == zero).all())


def test_lex_least_relabeling_against_naive(plain_hemirings_upto3, idem_hemirings_upto4,
                                            semilattices_upto5, e_c3, monkeypatch):
    """Batches of one and mixed batches of (add, mul) pairs and of join
    tables, order-6 and order-8 catalog products with relabelled copies,
    and seeded tables whose zero row changes under relabeling, under several
    slab sizes."""
    rng = random.Random(7)
    algebras = list(plain_hemirings_upto3) + list(idem_hemirings_upto4) + [e_c3.hemiring]
    algebras += [relabeled(R, rng.sample(range(R.order), R.order)) for R in algebras[-40:]]
    cases = [([(R.add, R.mul)], R.zero) for R in algebras]
    # mixed batches: same order and zero, in a seeded order
    groups = {}
    for R in algebras:
        groups.setdefault((R.order, R.zero), []).append((R.add, R.mul))
    for (n, zero), batch in groups.items():
        rng.shuffle(batch)
        cases.append((batch, zero))
    joins = {}
    for M in semilattices_upto5:
        perm = rng.sample(range(M.order), M.order)
        join = np.empty_like(M.join)
        join[np.ix_(perm, perm)] = np.asarray(perm)[M.join]
        joins.setdefault((M.order, perm[M.zero]), []).append((join,))
        cases.append(([(join,)], perm[M.zero]))
    cases += [(batch, zero) for (n, zero), batch in joins.items()]
    # the order-4 idempotent batch holds tables with trivial and with
    # non-trivial automorphism groups
    counts = {automorphism_count(tables, 0) for tables in groups[(4, 0)]}
    assert 1 in counts and max(counts) > 1

    # seeded tables of orders 5-8 whose zero row is neither neutral nor
    # absorbing, so every row is scored: random ones, and products with many
    # automorphisms whose addition's zero row is made constant or mixed
    # (part neutral, part absorbing), so ties survive the first rows
    catalog = {R.name: R for R in list(plain_hemirings_upto3) + list(idem_hemirings_upto4)}
    gen = np.random.default_rng(11)
    first = len(cases)
    for n, tuples in ((5, 3), (6, 3), (7, 2), (8, 1)):
        zero = int(gen.integers(n))
        cases.append(([tuple(gen.integers(0, n, (2, n, n))) for _ in range(tuples)], zero))
    P = direct_product(*(catalog[name] for name in ("hr2_000", "hr2_000", "hr2_003")))
    constant, mixed = P.add.copy(), P.add.copy()
    constant[P.zero] = 5
    mixed[P.zero, 4:] = P.zero
    cases.append(([(constant, P.mul), (mixed, P.mul)], P.zero))
    Q = relabeled(P, rng.sample(range(P.order), P.order))
    mixed = Q.add.copy()
    mixed[Q.zero, Q.add[Q.zero] > 3] = Q.zero
    cases.append(([(mixed, Q.mul)], Q.zero))
    for batch, zero in cases[first:]:
        assert not any(fixes_zero_row(tables[0], zero) for tables in batch)
    # a batch in which one tuple's zero row is fixed and the other's is not
    cases.append(([(P.add, P.mul), (constant, P.mul)], P.zero))

    want = [[naive_lex_least(tables, zero) for tables in batch] for batch, zero in cases]

    # order-6 and order-8 catalog products, in one batch per order and each
    # with a relabelled copy, which has the same least form
    products = [direct_product(*(catalog[name] for name in names)) for names in (
        ("hr2_001", "hr3_010"), ("hr2_003", "hr3_017"), ("ai2_001", "ai3_004"),
        ("hr2_000", "hr2_003", "hr2_003"), ("hr2_002", "ai4_007"))]
    assert automorphism_count((products[3].add, products[3].mul), products[3].zero) > 1
    product_forms = [naive_lex_least((R.add, R.mul), R.zero) for R in products]
    for n in (6, 8):
        batch = [(R.add, R.mul) for R in products if R.order == n]
        cases.append((batch, 0))
        want.append([form for R, form in zip(products, product_forms) if R.order == n])
    for R, form in zip(products, product_forms):
        copy = relabeled(R, rng.sample(range(R.order), R.order))
        cases.append(([(copy.add, copy.mul)], copy.zero))
        want.append([form])
    for slab in (core._SLAB_CELLS, 1, 20):
        monkeypatch.setattr(core, "_SLAB_CELLS", slab)
        for (batch, zero), forms in zip(cases, want):
            got = list(_lex_least_relabeling(batch, zero))
            assert [flat for flat, _ in got] == forms
            for tables, (flat, p) in zip(batch, got):
                # the returned relabeling attains the least form
                assert p[zero] == 0 and relabelled_concatenation(tables, p) == list(flat)
    for R in algebras:
        [(flat, p)] = _lex_least_relabeling([(R.add, R.mul)], R.zero)
        add, mul, one = canonical_form(R)
        assert add + mul == flat and one == (None if R.one is None else p[R.one])


def test_zero_first_relabelings_are_shared_and_read_only():
    """The relabelings of one order are built once, list every permutation
    fixing 0 in ``itertools.permutations`` order with its inverse, and
    cannot be written through."""
    for n in range(1, 9):
        q, p = core._zero_first_relabelings(n)
        assert core._zero_first_relabelings(n)[0] is q
        assert not q.flags.writeable and not p.flags.writeable
        with pytest.raises(ValueError):
            q[0, 0] = 1
        with pytest.raises(ValueError):
            p[0, 0] = 1
        perms = [(0, *(v + 1 for v in perm)) for perm in itertools.permutations(range(n - 1))]
        assert [tuple(row) for row in q.tolist()] == perms
        assert (np.take_along_axis(p, q.astype(np.intp), axis=1) == np.arange(n)).all()


def recursive_table_search(table, cells, add=None, symmetric=False, floors=None):
    """Depth-first reference for ``_table_search``, one partial table at a
    time: fill ``cells`` in order with values ascending (cell k from
    ``floors[k]``, else 0, to n-1) and drop a partial table as soon as a
    fully assigned associativity (or, given ``add``, distributivity)
    instance fails."""
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
            out.append(t.reshape(n, n).tolist())
            return
        p, q = flat[k], mirror[k]
        known[p] = known[q] = True
        for v in range(floors[k] if floors else 0, n):
            t[p] = t[q] = v
            if consistent():
                extend(k + 1)
        known[p] = known[q] = False
        t[p] = t[q] = 0

    extend(0)
    return out


def test_table_search_against_recursive_oracle(m3, idem_hemirings_upto4, monkeypatch):
    """Ordered lists of completions (of neutral rows and columns, of join
    tables with a fixed top and floors, of zero rows and columns over
    every additive monoid of an order in one call, each row with its
    monoid, and of catalog tables with cells freed), under several slab
    sizes; under the same sizes, the row slabs of ``matrix_semiring`` (M_2
    of GF(3) and of an order-3 semiring) and of ``_pack_maps`` (E_M of the
    diamond lattice) against their loop references."""
    monoid_searches = []
    for n in range(1, 5):
        neutral = np.zeros((n, n), dtype=np.int32)
        neutral[0, :] = neutral[:, 0] = np.arange(n)
        cells = [(i, j) for i in range(1, n) for j in range(i, n)]
        monoid_searches.append((neutral, cells,
                                recursive_table_search(neutral, cells, symmetric=True)))
    join_searches = []
    for n in range(1, 6):
        join = np.full((n, n), n - 1, dtype=np.int32)
        join[0, :] = join[:, 0] = join[np.arange(n), np.arange(n)] = np.arange(n)
        cells = [(i, j) for i in range(1, n - 1) for j in range(i + 1, n - 1)]
        floors = [j for _, j in cells]
        join_searches.append((join, cells, floors, recursive_table_search(
            join, cells, symmetric=True, floors=floors)))
    mul_searches = []
    for n, idem in itertools.product(range(1, 5), (False, True)):
        adds = constructions._commutative_monoids(n, idem)
        cells = [(i, j) for i in range(1, n) for j in range(1, n)]
        mul_searches.append((adds, [
            [add.tolist(), mul] for add in adds
            for mul in recursive_table_search(np.zeros((n, n), dtype=np.int32), cells, add=add)]))
    assert [len(adds) for adds, _ in mul_searches] == [1, 1, 2, 1, 5, 1, 19, 2]
    # catalog multiplications with three cells freed, every other one with
    # a given cell changed, which only the full check of the first level sees
    rng = random.Random(34)
    partial = []
    for k, R in enumerate(rng.sample([R for R in idem_hemirings_upto4 if R.order == 4], 12)):
        n = R.order
        mul = R.mul.copy()
        inner = [(i, j) for i in range(1, n) for j in range(1, n)]
        cells = rng.sample(inner, 3)
        if k % 2:
            i, j = rng.choice([cell for cell in inner if cell not in cells])
            mul[i, j] = (mul[i, j] + 1) % n
        partial.append((mul, cells, R.add, recursive_table_search(mul, cells, add=R.add)))
    assert 0 < sum(not want for *_, want in partial) < len(partial)
    matrices = []
    for R in (finite_field(3), chain3_min_semiring()):
        add, mul, zero, one = naive_matrix_tables(R, 2)
        matrices.append((R, (add.tolist(), mul.tolist(), zero, one)))
    endo_maps = endo_enumerate(m3)
    for slab in (core._SLAB_CELLS, 1, 300):
        monkeypatch.setattr(core, "_SLAB_CELLS", slab)
        for neutral, cells, want in monoid_searches:
            got = constructions._table_search(neutral, cells, symmetric=True)
            assert got.tolist() == want
        for join, cells, floors, want in join_searches:
            got = constructions._table_search(join, cells, symmetric=True, floors=floors)
            assert got.tolist() == want
        for adds, want in mul_searches:
            assert constructions._multiplications(adds).tolist() == want
        for mul, cells, add, want in partial:
            got = constructions._table_search(mul, cells, adds=add[None])
            assert got[:, 1].tolist() == want and (got[:, 0] == add).all()
        for R, want in matrices:
            H = matrix_semiring(R, 2).hemiring
            assert (H.add.tolist(), H.mul.tolist(), H.zero, H.one) == want
        assert_same_packing(m3.join, m3.zero, endo_maps)


@pytest.mark.parametrize("order, idempotent", [
    *((n, False) for n in range(1, 5)),
    *((n, True) for n in range(1, 5)),
    pytest.param(5, True, marks=pytest.mark.slow),
])
def test_multiplication_counts_against_orbit_counts(order, idempotent, monkeypatch):
    """Orbit counting: Aut(A) acts on the multiplications over an additive
    monoid A, and the stabiliser of one is Aut(R) of the hemiring R it
    makes, so the search finds sum |Aut(A)| / |Aut(R)| labelled
    multiplications over A, the sum over the catalog classes R whose
    additive reduct is isomorphic to A.  Aut(A) is that of A with zero
    multiplication; both groups come from ``hom_search``, and the reducts
    are matched by the canonical form of their zero-multiplication
    hemiring."""
    monkeypatch.setattr(constructions, "HEMIRING_ORDER_BOUND", 4)
    monkeypatch.setattr(constructions, "HEMIRING_IDEMPOTENT_BOUND", 5)
    adds = constructions._commutative_monoids(order, idempotent)
    found = constructions._multiplications(adds)[:, 0]
    zero_mul = lambda add: FiniteHemiring(add, np.zeros_like(add))
    reducts = {}
    for R in enumerate_hemirings(order, additively_idempotent=idempotent):
        reducts.setdefault(canonical_form(zero_mul(R.add)), []).append(R)
    assert len(reducts) == len(adds)
    autos = lambda R: len(hom_search(R, R, injective=True))
    for add in adds:
        A = zero_mul(add)
        orbits = sum(Fraction(autos(A), autos(R)) for R in reducts[canonical_form(A)])
        assert (found == add).all(axis=(1, 2)).sum() == orbits


def brute_force_homs(R, S, unital=False):
    """Every map R -> S preserving zero, add and mul (and one when asked)."""
    n, m = R.order, S.order
    out = []
    for f in itertools.product(range(m), repeat=n):
        if f[R.zero] != S.zero:
            continue
        if unital and (R.one is None or S.one is None or f[R.one] != S.one):
            continue
        if all(f[R.add[x, y]] == S.add[f[x], f[y]] and f[R.mul[x, y]] == S.mul[f[x], f[y]]
               for x in range(n) for y in range(n)):
            out.append(f)
    return out


def test_hom_search_against_brute_force(plain_hemirings_upto3, B):
    algebras = list(plain_hemirings_upto3) + [B]
    for R in algebras:
        for S in algebras:
            for unital in (False, True):
                first = [R.zero] + ([R.one] if unital and R.one not in (None, R.zero) else [])
                visit = first + [x for x in range(R.order) if x not in first]
                homs = sorted(brute_force_homs(R, S, unital),
                              key=lambda f: [f[x] for x in visit])
                surj = [f for f in homs if len(set(f)) == S.order]
                inj = [f for f in homs if len(set(f)) == R.order]
                for kwargs, want in (({}, homs), ({"surjective": True}, surj),
                                     ({"injective": True}, inj)):
                    got = [h.map for h in hom_search(R, S, unital=unital, **kwargs)]
                    assert got == want, (R.name, S.name, unital, kwargs)


def brute_force_module_homs(M, N):
    """Every additive, zero-preserving, R-equivariant map M -> N, in order."""
    n = M.order
    out = []
    for f in itertools.product(range(N.order), repeat=n):
        if f[M.zero] != N.zero:
            continue
        if all(f[M.add[x, y]] == N.add[f[x], f[y]] for x in range(n) for y in range(n)) \
                and all(f[M.action[r, x]] == N.action[r, f[x]]
                        for r in range(M.ring.order) for x in range(n)):
            out.append(f)
    return out


def test_semimodule_searches_against_brute_force(B, m2b, e_c3):
    for R in (m2b.hemiring, e_c3.hemiring, B):
        ideals = minimal_left_ideals(R)
        modules = [left_ideal_semimodule(R, I) for I in ideals]
        for M in modules:
            for N in modules + [regular_semimodule(R)]:
                assert hom_semimodules(M, N) == brute_force_module_homs(M, N)
        for I, M in zip(ideals, modules):
            # End(I_D): additive zero-preserving maps commuting with every d in D
            D = hom_semimodules(M, M)
            n = M.order
            bicom = [g for g in itertools.product(range(n), repeat=n)
                     if g[M.zero] == M.zero
                     and all(g[M.add[x, y]] == M.add[g[x], g[y]]
                             for x in range(n) for y in range(n))
                     and all(g[d[i]] == d[g[i]] for d in D for i in range(n))]
            rep = double_centralizer_check(R, I)
            assert (rep.endo_count, rep.bicommutant_count) == (len(D), len(bicom))


# ------------------------------------------------- construction kernels

def naive_pack_maps(add, zero, maps):
    """Loop reference for ``lattices._pack_maps``: one dict lookup per
    table cell, the same checks in the same order."""
    maps = sorted(set(maps))
    if not maps:
        raise ValueError("no maps to package")
    n = add.shape[0]
    arr = core._index_array(np.array(maps), n, "map")
    if arr.shape != (len(maps), n):
        raise ValueError(f"maps must have length {n}")
    bad = core._first(arr[:, zero] != zero)
    if bad is not None:
        raise ValueError(f"map {maps[bad[0]]} does not fix zero {zero}")
    bad = core._first(arr[:, add] != add[arr[:, :, None], arr[:, None, :]])
    if bad is not None:
        f, x, y = bad
        raise ValueError(f"map {maps[f]} does not preserve addition at ({x}, {y})")
    index = {f: i for i, f in enumerate(maps)}
    k = len(maps)
    sums = np.empty((k, k), dtype=np.int32)
    comp = np.empty((k, k), dtype=np.int32)
    try:
        for i, f in enumerate(arr):
            sums[i] = [index[g] for g in map(tuple, add[f, arr].tolist())]  # f(x) + g(x)
            comp[i] = [index[g] for g in map(tuple, f[arr].tolist())]       # f(g(x))
    except KeyError:
        raise ValueError("carrier is not closed under join/composition") from None
    zero_map = index.get((zero,) * n)
    if zero_map is None:
        raise ValueError("maps do not include the zero map")
    return maps, index, sums, comp, zero_map, index.get(tuple(range(n)))


def naive_matrix_tables(R, n):
    """Loop reference for ``matrix_semiring``: (add, mul, zero, one), one
    row x at a time, each entry summed k by k from the base zero."""
    b, cells = R.order, n * n
    N = b ** cells
    weights = b ** np.arange(cells, dtype=np.int64)
    digits = np.array([[x // b ** c % b for c in range(cells)] for x in range(N)],
                      dtype=np.int32)
    D3 = digits.reshape(N, n, n)
    add = np.empty((N, N), dtype=np.int32)
    mul = np.empty((N, N), dtype=np.int32)
    for x in range(N):
        add[x] = R.add[digits[x][None, :], digits].astype(np.int64) @ weights
        a = D3[x]
        acc = np.full((N, n, n), R.zero, dtype=np.int32)
        for i in range(n):
            for j in range(n):
                col = acc[:, i, j]
                for k in range(n):
                    col = R.add[col, R.mul[a[i, k], D3[:, k, j]]]
                acc[:, i, j] = col
        mul[x] = acc.reshape(N, cells).astype(np.int64) @ weights
    zero = int(R.zero * weights.sum())
    one = None if R.one is None else int(
        (np.where(np.eye(n, dtype=bool), R.one, R.zero).ravel() * weights).sum())
    return add, mul, zero, one


def naive_corner_tables(R, e):
    """Loop reference for ``corner``: (members, add, mul, zero, one) of eRe,
    one dict lookup per cell."""
    members = tuple(sorted({int(R.mul[R.mul[e, x], e]) for x in range(R.order)}))
    pos = {m: i for i, m in enumerate(members)}
    add = [[pos[int(R.add[x, y])] for y in members] for x in members]
    mul = [[pos[int(R.mul[x, y])] for y in members] for x in members]
    return members, add, mul, pos[R.zero], pos[e]


def assert_same_packing(add, zero, maps):
    want, got = naive_pack_maps(add, zero, maps), _pack_maps(add, zero, maps)
    assert want[0] == got[0] and want[1] == got[1] and want[4:] == got[4:]
    assert np.array_equal(want[2], got[2]) and np.array_equal(want[3], got[3])


def packing_outcome(add, zero, maps):
    try:
        naive_pack_maps(add, zero, maps)
    except ValueError as exc:
        return str(exc)
    return None


def test_pack_maps_against_loop_reference(B, m2b):
    # E_M and F_M of every semilattice of order <= 6
    for n in range(1, SEMILATTICE_ORDER_BOUND + 1):
        for M in enumerate_semilattices(n):
            assert_same_packing(M.join, M.zero, endo_enumerate(M))
            assert_same_packing(M.join, M.zero, build_F_M(M).maps)
    # the modules whose endomorphisms the double centralizer suite packs
    rings = [R for R in _catalog_semirings(HEMIRING_IDEMPOTENT_BOUND) if is_simple(R)]
    rings += [m2b.hemiring, build_E_M(FiniteSemilattice(
        [[0, 1, 2], [1, 1, 2], [2, 2, 2]])).hemiring]
    modules = [left_ideal_semimodule(R, I) for R in rings for I in minimal_left_ideals(R)]
    assert len(modules) == 8
    # an order-16 module: a trie of 16 levels, whose 16 images as base-16
    # digits would overflow an int64 code
    big = regular_semimodule(m2b.hemiring)
    assert big.order ** big.order >= 2 ** 63
    for M in modules + [big]:
        assert_same_packing(M.add, M.zero, hom_semimodules(M, M))
    # the same errors on bad sets of the order-16 module
    maps = hom_semimodules(big, big)
    rng = random.Random(14)
    bad_sets = [maps[:i] + maps[i + 1:] for i in rng.sample(range(len(maps)), 6)]
    bad_sets += [maps + [tuple(rng.randrange(big.order) for _ in range(big.order))]]
    outcomes = [packing_outcome(big.add, big.zero, s) for s in bad_sets]
    assert "carrier is not closed under join/composition" in outcomes
    for s, outcome in zip(bad_sets, outcomes):
        if outcome is None:
            assert_same_packing(big.add, big.zero, s)
        else:
            with pytest.raises(ValueError) as exc:
                _pack_maps(big.add, big.zero, s)
            assert str(exc.value) == outcome


@pytest.mark.parametrize("maps", [
    [], [(0, 1, 2)], [(0, 0, 0), (2, 2, 2)], [(0, 0, 0), (0, 2, 1)],
    [(0, 0, 0), (0, 1, 1), (0, 0, 2)], [(0, 0, 0), (0, 1, 3)], [(0, 0), (0, 1)],
    # the only miss agrees with a member on every image but the last, so the
    # prefix trie loses it at its last level: the sum (0, 1, 2), then the
    # composition (0, 0, 1)
    [(0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 1, 1)],
    [(0, 0, 0), (0, 0, 2), (0, 1, 1), (0, 1, 2)],
    # ... or on every image but the first nonzero one, lost at the first
    # level past the fixed zero: the composition (0, 1, 1)
    [(0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 2, 2)],
])
def test_pack_maps_rejects_bad_maps_like_loop_reference(c3, maps):
    want = packing_outcome(c3.join, c3.zero, maps)
    assert want is not None
    with pytest.raises(ValueError) as exc:
        _pack_maps(c3.join, c3.zero, maps)
    assert str(exc.value) == want


def test_matrix_semiring_and_corners_against_loop_reference(plain_hemirings_upto3,
                                                            idem_hemirings_upto4):
    """M_n(R) for every catalog base R with |R|^(n^2) <= 512, and the corner
    at every idempotent of each M_2(R).  The order-4 idempotent catalog
    (129 bases, about 9 s through the loop references) is sampled."""
    rng = random.Random(12)
    order4 = [R for R in idem_hemirings_upto4 if R.order == 4]
    bases = {}    # the catalogs share their canonical tables
    for R in (plain_hemirings_upto3 + [R for R in idem_hemirings_upto4 if R.order < 4]
              + rng.sample(order4, 8)):
        bases.setdefault((R.add.tobytes(), R.mul.tobytes(), R.one), R)
    corners = 0
    for R in bases.values():
        for n in (1, 2, 3):
            if R.order ** (n * n) > 512:
                continue
            M = matrix_semiring(R, n)
            H = M.hemiring
            add, mul, zero, one = naive_matrix_tables(R, n)
            assert np.array_equal(H.add, add) and np.array_equal(H.mul, mul)
            assert (H.zero, H.one) == (zero, one)
            if n != 2:
                continue
            for e in H.idempotents():
                c = corner(H, e)
                members, cadd, cmul, czero, cone = naive_corner_tables(H, e)
                assert c.members == members
                assert c.hemiring.add.tolist() == cadd and c.hemiring.mul.tolist() == cmul
                assert (c.hemiring.zero, c.hemiring.one) == (czero, cone)
                corners += 1
    assert corners > 500


def per_element_lift(R, c, gamma):
    """Per-element reference for ``corner_congruence_to_ring``: a's
    signature is its [r, s] -> gamma-label of e r a s e, and each element
    takes the least element with its signature."""
    e = c.e
    er = R.mul[e]                       # r -> e*r
    glabels = np.asarray(gamma.labels, dtype=np.int32)
    sigs: dict[bytes, int] = {}
    labels = np.empty(R.order, dtype=np.int32)
    for a in range(R.order):
        era = R.mul[er, a]               # r -> e*r*a
        erase = R.mul[R.mul[era], e]     # [r, s] -> e*r*a*s*e
        sig = glabels[c.position[erase]].tobytes()
        labels[a] = sigs.setdefault(sig, a)
    return Congruence(labels)


def test_corner_lift_against_per_element_reference():
    """Every corner congruence at every idempotent of the prop5_3 inputs and
    of M_2(GF(3)), and of a seeded relabelling of each."""
    rng = random.Random(29)
    base = _catalog_semirings(3) + [_boolean_matrices(2),
                                    matrix_semiring(finite_field(3), 2).hemiring]
    lifts = 0
    for R in base + [relabeled(R, rng.sample(range(R.order), R.order)) for R in base]:
        for e in R.idempotents():
            c = corner(R, e)
            for gamma in all_congruences(c.hemiring):
                assert corner_congruence_to_ring(R, c, gamma) == per_element_lift(R, c, gamma), \
                    (R.name, e, gamma.labels)
                lifts += 1
    assert lifts == 174


# ------------------------------------- sub-objects against their old walks

def frontier_F_M(M):
    """Frontier-join reference for ``build_F_M``: each round joins the maps
    new in the last round with all maps found, in one numpy operation."""
    n = M.order
    arr = new = np.array(generator_maps(M), dtype=np.int32)
    row = np.dtype((np.void, arr.itemsize * n))   # one map as one comparable value
    while len(new):
        joined = np.concatenate([arr, M.join[new[:, None, :], arr[None, :, :]].reshape(-1, n)])
        _, first = np.unique(joined.view(row).ravel(), return_index=True)
        new = joined[first[first >= len(arr)]]
        arr = joined[first]
    return EndoSemiring(M, map(tuple, arr.tolist()), name=f"F_{M.name or M.order}")


def test_build_F_M_against_frontier_closure(m3, n5):
    lattices = list(_semilattices(SEMILATTICE_ORDER_BOUND)) + [chain_semilattice(7), m3, n5]
    assert len(lattices) == 28
    for M in lattices:
        want, got = frontier_F_M(M), build_F_M(M)
        assert got.maps == want.maps, M.name
        W, G = want.hemiring, got.hemiring
        assert np.array_equal(G.add, W.add) and np.array_equal(G.mul, W.mul), M.name
        assert (G.zero, G.one, G.name) == (W.zero, W.one, W.name), M.name


def lattice_minimal_left_ideals(R):
    """Lattice-filter reference for ``minimal_left_ideals``: the minimal
    nonzero members of the whole left-ideal lattice."""
    ideals = [I for I in all_ideals(R, "left") if not I.is_zero]
    return [I for I in ideals if not any(J.members < I.members for J in ideals)]


def test_minimal_left_ideals_against_lattice_filter(plain_hemirings_upto3,
                                                    idem_hemirings_upto4, m2b):
    rings = plain_hemirings_upto3 + idem_hemirings_upto4 + [m2b.hemiring]
    for M in _semilattices(SEMILATTICE_ORDER_BOUND):
        rings += [E.hemiring for E in (build_E_M(M), build_F_M(M)) if E.order <= 40]
    assert len(rings) > 150
    for R in rings:
        assert minimal_left_ideals(R) == lattice_minimal_left_ideals(R), R.name


def quadratic_radical_left(R):
    """Pairwise-filter reference for ``radical_left``: the intersection of
    the proper left ideals that lie strictly inside no other proper one."""
    n = R.order
    subs = [I.members for I in all_ideals(R, "left") if not I.is_full]
    maximal = [S for S in subs if not any(S < T for T in subs)]
    if not maximal:
        return IdealSubset(range(n), "left", n)
    return IdealSubset(frozenset.intersection(*maximal), "left", n)


def test_radical_left_against_quadratic_filter(plain_hemirings_upto3, idem_hemirings_upto4):
    catalog = {R.name: R for R in plain_hemirings_upto3}
    P = direct_product(*(catalog[name] for name in ("hr2_000", "hr2_000", "hr3_000", "hr3_000")))
    radicals = set()
    for R in list(plain_hemirings_upto3) + list(idem_hemirings_upto4) + [P]:
        rad = radical_left(R)
        assert rad == quadratic_radical_left(R), R.name
        radicals.add((rad.is_zero, rad.is_full))
    assert {(True, False), (False, False)} <= radicals      # zero and proper nonzero radicals
    assert sorted(radical_left(P).members) == [0, 8, 17, 26, 35]


def frontier_join_closure(bottom, principals, join, kind: str) -> set:
    """Frontier reference for ``simpleness._join_closure``: each round joins
    the elements found in the last round with every principal element."""
    found = {bottom}
    frontier = [bottom]
    while frontier:
        nxt = []
        for c in frontier:
            for p in principals:
                j = join(c, p)
                if j not in found:
                    found.add(j)
                    nxt.append(j)
                    if len(found) > simpleness.LATTICE_BOUND:
                        raise SizeGuardExceeded(f"{kind} lattice enumeration bounded at "
                                                 f"{simpleness.LATTICE_BOUND} {kind}s")
        frontier = nxt
    return found


def frontier_congruences(R):
    n = R.order
    principals = {principal_congruence(R, a, b) for a in range(n) for b in range(a + 1, n)}
    found = frontier_join_closure(Congruence.diagonal(n), principals, Congruence.join,
                                  "congruence")
    return sorted(found, key=lambda c: c.labels)


def frontier_ideals(R, sidedness):
    n = R.order

    def plus(I, J):
        if J <= I:
            return I
        sums = R.add[sorted(I.members)][:, sorted(J.members)]
        return IdealSubset(sums.ravel().tolist(), sidedness, n)

    principals = {generated_ideal(R, [x], sidedness) for x in range(n) if x != R.zero}
    found = frontier_join_closure(IdealSubset([R.zero], sidedness, n), principals, plus, "ideal")
    return sorted(found, key=lambda I: (len(I.members), sorted(I.members)))


def test_lattice_walks_against_frontier_walk(plain_hemirings_upto3, idem_hemirings_upto4,
                                             e_c3, B, monkeypatch):
    """The one pass over the principals gives the frontier walk's lattices,
    list for list, on both catalogs, on E_M and F_M of order <= 70, on
    E_C3 x E_C3 x B (order 72) and on seeded products of catalog members of
    order <= 40.  The congruence reference closes every pair, so it also
    checks that the covering pairs of an idempotent algebra suffice.  The
    reference is slow, so the sample is small and a product whose lattices
    pass 3000 elements is skipped."""
    catalog = list(plain_hemirings_upto3) + list(idem_hemirings_upto4)
    algebras = list(catalog)
    for M in _semilattices(SEMILATTICE_ORDER_BOUND):
        algebras += [E.hemiring for E in (build_E_M(M), build_F_M(M)) if E.order <= 70]
    algebras.append(direct_product(e_c3.hemiring, e_c3.hemiring, B))
    factors = [R for R in catalog if R.order > 1]
    rng = random.Random(5)
    products = []
    while len(products) < 12:
        P = direct_product(*rng.sample(factors, rng.choice((2, 3, 4))))
        if P.order <= 40:
            products.append(P)
    monkeypatch.setattr(simpleness, "LATTICE_BOUND", 3000)
    sidednesses = ("two-sided", "left", "right")
    sizes = []
    for R in algebras + products:
        try:
            lattices = [all_congruences(R)] + [all_ideals(R, s) for s in sidednesses]
        except SizeGuardExceeded:
            assert R in products
            continue
        assert lattices[0] == frontier_congruences(R), R.name
        for s, ideals in zip(sidednesses, lattices[1:]):
            assert ideals == frontier_ideals(R, s), (R.name, s)
        sizes.append(max(map(len, lattices)))
    assert len(sizes) > 180 and max(sizes) > 500


@pytest.mark.slow
def test_congruence_walk_against_frontier_walk_past_order_100(e_c3, B):
    """The covering-pair walk gives the all-pairs reference's congruence
    lattice on E_C4 x E_C3 (order 120, 4 congruences) and on
    E_C3 x E_C3 x B x B (order 144, 16).  The reference takes about 5 and
    9 s."""
    E_C4 = build_E_M(chain_semilattice(4)).hemiring
    for R, count in ((direct_product(E_C4, e_c3.hemiring), 4),
                     (direct_product(e_c3.hemiring, e_c3.hemiring, B, B), 16)):
        lattice = all_congruences(R)
        assert len(lattice) == count and lattice == frontier_congruences(R), R.order


def test_covers_against_matrix_product(plain_hemirings_upto3, idem_hemirings_upto4):
    """``_covers`` keeps the x < y with no element strictly between, the
    pairs where the float32 product formerly used counted none, on the
    natural orders of the additively idempotent members of both catalogs
    and of E_M and F_M of order <= 140, and on random partial orders."""
    rng = random.Random(41)
    algebras = [R for R in list(plain_hemirings_upto3) + list(idem_hemirings_upto4)
                if is_additively_idempotent(R)]
    for M in _semilattices(6):
        algebras += [E.hemiring for E in (build_E_M(M), build_F_M(M)) if E.order <= 140]
    orders = [natural_order(R).leq for R in algebras]
    orders += [random_poset(rng, rng.randint(1, 30), rng.random()).leq for _ in range(100)]
    for leq in orders:
        lt = leq & ~np.eye(len(leq), dtype=bool)
        m = lt.astype(np.float32)
        assert (simpleness._covers(lt) == (lt & ((m @ m) == 0))).all()
    assert max(map(len, orders)) > 130 and len(orders) > 250


def sorted_dict_classes(rows):
    """Each row's rank among the sorted distinct rows, and the least index
    of a row equal to it, by a sorted set and a first-seen dict."""
    keys = [tuple(r) for r in rows.tolist()]
    rank = {k: i for i, k in enumerate(sorted(set(keys)))}
    least = {}
    for i, k in enumerate(keys):
        least.setdefault(k, i)
    return [rank[k] for k in keys], [least[k] for k in keys]


def test_classes_against_dict_references():
    rng = np.random.default_rng(28)
    for trial in range(3000):
        n, m = int(rng.integers(1, 40)), int(rng.integers(1, 6))
        lo, hi = int(rng.integers(-6, 1)), int(rng.integers(1, 7))
        rows = rng.integers(lo, hi, size=(n, 1 if trial % 4 == 0 else m))
        rank, least = _classes(rows)
        assert (rank.tolist(), least.tolist()) == sorted_dict_classes(rows), rows


def dict_rename(labels):
    """The least-element labels of a partition given by any labels: the
    first element seen with each label names its block."""
    least = {}
    return tuple(least.setdefault(v, x) for x, v in enumerate(labels))


def test_congruence_labels_against_dict_rename():
    rng = np.random.default_rng(29)
    for dtype in (np.int8, np.uint8, np.int32, np.int64):
        for _ in range(200):
            n = int(rng.integers(1, 30))
            labels = rng.integers(0, int(rng.integers(1, 100)), size=n).astype(dtype)
            assert Congruence(labels).labels == dict_rename(labels.tolist()), labels


def loop_wl_colors(R):
    """Colour refinement as a Python loop over tuples of colours: the
    reference for ``core._wl_colors``, which codes each tuple as one
    integer and ranks the rows in numpy."""
    n = R.order
    idx = np.arange(n)
    colors = [ (int(x == R.zero), int(R.one is not None and x == R.one),
                int(R.add[x, x] == x), int(R.mul[x, x] == x)) for x in idx ]
    key = {c: i for i, c in enumerate(sorted(set(colors)))}
    col = [key[c] for c in colors]
    while True:
        sigs = []
        for x in range(n):
            neigh = sorted((col[y], col[R.add[x, y]], col[R.mul[x, y]], col[R.mul[y, x]])
                           for y in range(n))
            sigs.append((col[x], tuple(neigh)))
        key = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [key[s] for s in sigs]
        if new == col:
            return tuple(col)
        col = new


def test_colour_refinement_against_loop(plain_hemirings_upto3, idem_hemirings_upto4):
    """Both catalogs, E_M and F_M of every catalog semilattice, M_2 of B,
    GF(2) and GF(3), 45 catalog products of order 6 or 8, and a seeded
    relabelling of each up to order 120 (the loop takes about 70 ms on
    each E_M of order 234 or 252)."""
    catalog = list(plain_hemirings_upto3) + list(idem_hemirings_upto4)
    algebras = list(catalog)
    for M in _semilattices(SEMILATTICE_ORDER_BOUND):
        algebras += [build_E_M(M).hemiring, build_F_M(M).hemiring]
    algebras += [matrix_semiring(R, 2).hemiring
                 for R in (boolean_B(), finite_field(2), finite_field(3))]
    rng = random.Random(28)
    by_order = {n: [R for R in catalog if R.order == n] for n in (2, 3, 4)}
    for shape in [(2, 3), (2, 4), (2, 2, 2)] * 15:
        algebras.append(direct_product(*(rng.choice(by_order[n]) for n in shape)))
    perm = np.random.default_rng(28).permutation
    for R in algebras:
        for A in (R, relabeled(R, perm(R.order))) if R.order <= 120 else (R,):
            assert _wl_colors(A) == loop_wl_colors(A), R.name
    assert len(algebras) == 269 and max(R.order for R in algebras) == 252


_GF_IRREDUCIBLE = {
    4: (2, (1, 1)),    # x^2 + x + 1 over GF(2)
    8: (2, (1, 1, 0)),  # x^3 + x + 1 over GF(2)
    9: (3, (1, 0)),    # x^2 + 1 over GF(3)
}


def loop_finite_field(q: int) -> FiniteHemiring:
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


def test_finite_field_labelling_against_loop():
    """Every field order: the same tables, labels and dtype as the
    per-element polynomial loop, so element x stays the polynomial with the
    base-p digits of x on every order, not only up to isomorphism."""
    for q in constructions.FIELD_ORDERS:
        F, ref = finite_field(q), loop_finite_field(q)
        assert (F.add == ref.add).all() and (F.mul == ref.mul).all(), q
        assert (F.zero, F.one, F.name) == (ref.zero, ref.one, ref.name)
        assert F.add.dtype == F.mul.dtype == ref.add.dtype == np.int32
    assert constructions.FIELD_ORDERS == (2, 3, 4, 5, 7, 8, 9)


def catalog_endo_witness(R):
    """The former ``verify._endo_witness``: the first catalog distributive
    lattice M with E_M isomorphic to R."""
    for M in _semilattices(min(R.order, SEMILATTICE_ORDER_BOUND)):
        H = build_E_M(M).hemiring
        if _distributive_lattice(M) and H.order == R.order and is_isomorphic(R, H) is not None:
            return M.name
    return None


def catalog_fm_witness(R):
    """The former ``thm5_7`` F_M scan: the first catalog semilattice M of
    order below the bound with F_M isomorphic to R."""
    for M in _semilattices(SEMILATTICE_ORDER_BOUND - 1):
        H = build_F_M(M).hemiring
        if H.order == R.order and is_isomorphic(R, H) is not None:
            return M.name
    return None


def literal_dense_image(R, M, rows):
    """The kind of a faithful dense image, from the definitions: rows[r] is
    r's action on (M, join), R -> End(M) is an injective hemiring map whose
    image holds every e_{a,b}, and the image is compared with all
    join-preserving self-maps (brute force) and with the join-closure of
    the e_{a,b}."""
    n, join = M.order, M.join
    leq = join == np.arange(n)[None, :]              # leq[x, y]: x v y = y
    maps = np.array(list(itertools.product(range(n), repeat=n)))
    endos = maps[(maps[:, M.zero] == M.zero)
                 & (maps[:, join] == join[maps[:, :, None], maps[:, None, :]]).all(axis=(1, 2))]
    endos = {tuple(f) for f in endos.tolist()}
    e_ab = {tuple(M.zero if leq[x, a] else b for x in range(n)) for a in range(n) for b in range(n)}
    image = set(rows)
    assert len(rows) == R.order == len(image)
    assert e_ab <= image <= endos
    for r, s in itertools.product(range(R.order), repeat=2):
        assert rows[R.add[r, s]] == tuple(join[rows[r], rows[s]].tolist())
        assert rows[R.mul[r, s]] == tuple(rows[r][rows[s][x]] for x in range(n))
    f_m, frontier = set(e_ab), set(e_ab)
    while frontier:
        frontier = {tuple(join[f, g].tolist()) for f in frontier for g in f_m} - f_m
        f_m |= frontier
    distributive = is_distributive(try_lattice(M))
    return "endo" if distributive and image == endos else "fm" if image == f_m else "dense"


@pytest.fixture(scope="module")
def relabeled_endos(semilattices_upto5):
    """E_M and F_M of every semilattice of order 2 to 5, each under one
    seeded relabelling (the one-element algebra has no nonzero left ideal
    to act on)."""
    rng = random.Random(31)
    return [relabeled(R, rng.sample(range(R.order), R.order))
            for M in semilattices_upto5 if M.order > 1
            for R in (build_E_M(M).hemiring, build_F_M(M).hemiring)]


def test_dense_embedding_names_against_catalog_searches(relabeled_endos):
    """On both default catalogs and the relabelled E_M and F_M, the E_M
    and F_M witnesses read off the dense action name the semilattice that
    the former catalog isomorphism searches found, and the image has the
    kind its definition gives."""
    from hemirings.verify import _catalog, _witness
    for R in [R for R in _catalog(4) if R.order > 1] + relabeled_endos:
        assert _witness(R, "endo") == catalog_endo_witness(R), R.name
        assert _witness(R, "endo", "fm") == catalog_fm_witness(R), R.name
        found = dense_embedding_search(R)
        if found is not None:
            assert literal_dense_image(R, found[1], found[2]) == found[0], R.name


def test_dense_embedding_exists_iff_congruence_simple(idem_hemirings_upto4, relabeled_endos):
    """Zumbraegel's classification on idempotent instances with nonzero
    multiplication: a faithful dense action on a minimal left ideal exists
    iff R is congruence-simple.  The two-element zero-multiplication
    hemiring is congruence-simple with no such action."""
    pool = [R for R in idem_hemirings_upto4 if not R.has_zero_multiplication()]
    for R in pool + relabeled_endos:
        assert (dense_embedding_search(R) is not None) == is_congruence_simple(R), R.name
    R = constructions.two_zero_mult()
    assert is_congruence_simple(R) and dense_embedding_search(R) is None
