import random
import subprocess
import sys

import numpy as np
import pytest

from hemirings import (
    FiniteSemilattice,
    InvariantViolation,
    boolean_B,
    build_E_M,
    finite_field,
    integers_mod,
    matrix_semiring,
    simpleness,
    two_zero_mult,
)
from hemirings.verify import (
    classify,
    dense_embedding_search,
    run_suite,
    suite_names,
)

from conftest import chain_semilattice, chain3_min_semiring, direct_product, relabeled


def test_all_suites_confirm_at_default_bounds():
    for name in suite_names():
        rep = run_suite(name)
        assert rep.verdict == "confirmed", f"{name}: {rep.verdict}"


def test_unknown_suite():
    with pytest.raises(KeyError):
        run_suite("thm9_9")


@pytest.mark.parametrize("max_order", [0, -3])
def test_non_positive_max_order_rejected(max_order):
    # an empty sweep must not read as a confirmation
    for name in suite_names():
        with pytest.raises(ValueError, match="max-order"):
            run_suite(name, max_order)


@pytest.mark.parametrize("max_order", [2.0, True], ids=["2.0", "True"])
def test_non_integer_max_order_rejected(max_order):
    # both used to raise TypeError inside the suite
    with pytest.raises(ValueError, match=rf"^suite thm3_3: max-order must be an integer; "
                                         rf"got {max_order!r}$"):
        run_suite("thm3_3", max_order)


def test_numpy_integer_max_order():
    assert run_suite("thm3_3", np.int64(2)).render("structured") == \
        run_suite("thm3_3", 2).render("structured")


def test_oversized_bound_reports_skipped():
    rep = run_suite("thm3_3", 9)
    assert rep.verdict == "skipped(size)"
    assert not rep.records


def test_report_rendering_formats():
    rep = run_suite("thm6_7")
    s = rep.render("structured")
    assert s.startswith("suite: thm6_7")
    assert s.rstrip().endswith("verdict: confirmed")
    t = rep.render("text")
    assert "confirmed" in t and "[ok]" in t


def test_dense_embedding_search_on_endo_semiring():
    # the dense-subhemiring branch is vacuous on the order <= 4 catalogs,
    # so exercise it directly with an order-6 instance: E_C3 acts on a
    # minimal left ideal P = C3 as all of E_C3
    import hemirings.verify as verify
    E = build_E_M(chain_semilattice(3)).hemiring
    kind, M, rows = dense_embedding_search(E)
    assert kind == "endo" and len(set(rows)) == E.order
    assert M.order == 3 and all(M.leq(a, b) or M.leq(b, a) for a in range(3) for b in range(3))
    assert verify._witness(E, "endo") == "sl3_000"


def test_dense_embedding_search_rejects_zero_mult():
    # the two-element zero-multiplication hemiring is congruence-simple but
    # admits no dense embedding; it falls under the order<=2 branch
    assert dense_embedding_search(two_zero_mult()) is None


def test_thm2_2_covers_the_order_two_hemirings():
    rep = run_suite("thm2_2")
    assert len(rep.records) == 2
    assert all(dict(r.fields)["branch"] == "order<=2" for r in rep.records)


def test_thm5_7_fm_witnesses():
    rep = run_suite("thm5_7")
    fm = {r.name: dict(r.fields) for r in rep.records if r.name.endswith("/fm")}
    assert len(fm) == 2
    kinds = sorted(f["fm-witness"] for f in fm.values())
    assert kinds == ["skipped", "sl2_000"]


def test_thm5_10_has_matrix_and_endo_instances():
    rep = run_suite("thm5_10")
    names = {r.name for r in rep.records}
    assert any(n.startswith("M_2(B)/") for n in names)
    assert any(n.startswith("E_C3/") for n in names)


def test_records_carry_fingerprints():
    rep = run_suite("cor5_8")
    for r in rep.records:
        assert dict(r.fields).get("fingerprint")


def test_inline_witness_round_trips_to_the_deciders(B):
    from hemirings.verify import _tables_inline, parse_tables_inline
    from hemirings import is_simple, matrix_semiring
    for R in (B, matrix_semiring(B, 2).hemiring):
        back = parse_tables_inline(_tables_inline(R))
        assert back == R
        assert is_simple(back)


@pytest.mark.parametrize("text, state, key", [
    ("order=1;zero=0;add=0;mul=0", "missing", "one"),
    ("order=1;zero=0;one=-;add=0;mul=0;junk=3", "unknown", "junk"),
])
def test_parse_tables_inline_names_a_missing_or_unknown_key(text, state, key):
    # a missing key used to raise a bare KeyError, an unknown one was ignored
    from hemirings.verify import parse_tables_inline
    with pytest.raises(ValueError, match=rf"^inline tables: {state} key '{key}'$"):
        parse_tables_inline(text)
    assert parse_tables_inline("order=1;zero=0;one=-;add=0;mul=0").order == 1


def _raising(exc):
    def corner_ideal_to_ring(*args):
        raise exc
    return corner_ideal_to_ring


def test_prop5_3_reports_only_invariant_violations(monkeypatch):
    import hemirings.verify as verify
    monkeypatch.setattr(verify, "corner_ideal_to_ring",
                        _raising(InvariantViolation("corner ideal correspondence failed")))
    rep = run_suite("prop5_3", 2)
    assert rep.records and not any(r.ok for r in rep.records)
    assert ("error", "corner ideal correspondence failed") in rep.records[0].fields
    # anything else is a bug in the program, never a counterexample
    for exc in (AssertionError("bug"), KeyError(3)):
        monkeypatch.setattr(verify, "corner_ideal_to_ring", _raising(exc))
        with pytest.raises(type(exc)):
            run_suite("prop5_3", 2)


def test_cor5_8_finds_every_supported_field(monkeypatch):
    # a simple ring of order 4 is GF(4); the suite must name it, not report
    # a counterexample
    import hemirings.verify as verify
    R = relabeled(finite_field(4), [0, 3, 1, 2])
    monkeypatch.setattr(verify, "_catalog_semirings", lambda max_order: [R])
    rep = run_suite("cor5_8", 4)
    assert rep.verdict == "confirmed"
    assert [dict(r.fields)["witness"] for r in rep.records] == ["matrix:n=1,GF(4)"]


def test_failed_records_carry_their_tables(monkeypatch):
    import hemirings.verify as verify
    from hemirings.verify import parse_tables_inline
    monkeypatch.setattr(verify, "dense_embedding_search", lambda R: None)
    catalog = {R.name: R for R in verify._hemirings(4, True)}
    fm = [r for r in run_suite("thm5_7").records if r.name.endswith("/fm") and not r.ok]
    assert fm
    for r in fm:
        assert parse_tables_inline(dict(r.fields)["witness"]) == catalog[r.name[:-len("/fm")]]
    # cor5_8's witness field names the match, so the tables go under their own key
    failed = [r for r in run_suite("cor5_8").records if not r.ok]
    assert failed
    for r in failed:
        keys = [k for k, _ in r.fields]
        assert keys.count("witness") == keys.count("tables") == 1
        assert dict(r.fields)["witness"] == "none"
        assert parse_tables_inline(dict(r.fields)["tables"]).order == int(dict(r.fields)["order"])


def test_classify_boolean(B):
    got = dict(classify(B))
    assert got["simple"] == "true"
    assert got["division"] == "true"
    assert got["iso-to-B"] == "true"


def test_classify_skips_on_large_order(monkeypatch):
    """Past ``CLOSURE_BUDGET`` the three simpleness fields are skipped and
    every other field is still decided."""
    E = build_E_M(chain_semilattice(4)).hemiring   # order 20
    full = classify(E)
    assert dict(full)["simple"] == "true"
    monkeypatch.setattr(simpleness, "CLOSURE_BUDGET", 20 * 20 - 1)
    got = classify(E)
    skipped = ("congruence-simple", "ideal-simple", "simple")
    assert got == ([f for f in full if f[0] not in skipped + ("iso-to-B",)]
                   + [(key, "skipped(size)") for key in skipped])


def test_classify_decides_above_order_128():
    """Thm 3.3 (E_M is simple iff M is a distributive lattice), Cor 3.8
    (E_M is congruence-simple for every M) and Monico's simple M_n(F_q),
    at orders 234-512."""
    sl6_000 = FiniteSemilattice([[0, 1, 2, 3, 4, 5],     # top 1 over four atoms
                                 [1, 1, 1, 1, 1, 1],
                                 [2, 1, 2, 1, 1, 1],
                                 [3, 1, 1, 3, 1, 1],
                                 [4, 1, 1, 1, 4, 1],
                                 [5, 1, 1, 1, 1, 5]])
    instances = {"E_sl6_000": (build_E_M(sl6_000).hemiring, "false"),
                 "E_C6": (build_E_M(chain_semilattice(6)).hemiring, "true"),
                 "M_2(GF(4))": (matrix_semiring(finite_field(4), 2).hemiring, "true"),
                 "M_3(B)": (matrix_semiring(boolean_B(), 3).hemiring, "true")}
    for name, (R, ideal_simple) in instances.items():
        got = dict(classify(R))
        assert (got["congruence-simple"], got["ideal-simple"], got["simple"]) \
            == ("true", ideal_simple, ideal_simple), name
    assert [R.order for R, _ in instances.values()] == [234, 252, 256, 512]


def test_classify_semilattice(c3, m3):
    got = dict(classify(c3))
    assert got == {"kind": "semilattice", "order": "3", "lattice": "true",
                   "distributive": "true", "top": "2"}
    got = dict(classify(m3))
    assert got["distributive"] == "false"


def test_classify_flags_zero_multiplication(two):
    got = dict(classify(two))
    assert got["zero-multiplication"] == "true"
    assert got["semiring"] == "false"
    assert got["simple"] == "true"          # literal definition
    assert got["division"] == "n/a"


def test_classify_is_invariant_under_relabelling(B, e_c3, m2b):
    rng = random.Random(19)
    for R in (e_c3.hemiring, m2b.hemiring, direct_product(e_c3.hemiring, B),
              integers_mod(6)):
        want = classify(R)
        inf = dict(want)["infinite-element"]
        for _ in range(2):
            perm = rng.sample(range(R.order), R.order)
            got = dict(classify(relabeled(R, perm)))
            if inf != "none":
                got["infinite-element"] = str(perm.index(int(got["infinite-element"])))
            assert list(got.items()) == want


def test_classify_lattice_ordered_non_simple():
    got = dict(classify(chain3_min_semiring()))
    assert got["lattice-ordered"] == "true"
    assert got["aic"] == "true"
    assert got["congruence-simple"] == "false"


def test_thm5_7_enumerates_no_catalog_endomorphism_set():
    """The E_M and F_M witnesses are read off R's action on a minimal left
    ideal P, so ``thm5_7`` enumerates E_M only for such a P, never for a
    catalog semilattice, counted in a fresh process."""
    code = """if True:
        from hemirings import lattices
        from hemirings.verify import _semilattices, run_suite
        seen = []
        inner = lattices.endo_enumerate
        def counted(M):
            seen.append(M)
            return inner(M)
        lattices.endo_enumerate = counted
        assert run_suite("thm5_7").verdict == "confirmed"
        catalog = _semilattices(5)
        print(sum(any(M is N for N in catalog) for M in seen),
              sum(bool(N._memo.keys() & {"E_M", "F_M"}) for N in catalog), len(seen) > 0)
    """
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["0", "0", "True"]


def test_perfbench_tracer_layers_resolve():
    """Every ``module.function`` that ``perfbench/tracer.py`` wraps exists in
    ``hemirings.<module>``, so a rename fails here before the traced
    benchmark round does.  The file is parsed, not imported."""
    import ast
    import importlib
    from pathlib import Path
    source = (Path(__file__).parents[1] / "perfbench" / "tracer.py").read_text()
    [layers] = [ast.literal_eval(node.value) for node in ast.parse(source).body
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "LAYERS" for t in node.targets)]
    missing = [f"{module}.{name}" for module, names in layers.items() for name in names
               if not callable(getattr(importlib.import_module(f"hemirings.{module}"), name, None))]
    assert layers and not missing
