"""Acceptance suite: one test per criterion, exact predicates throughout,
with a pass/fail line printed per criterion (run with -s to stream them).
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

from hemirings import (
    IdealSubset,
    all_congruences,
    boolean_B,
    build_E_M,
    build_F_M,
    double_centralizer_check,
    e_ab,
    finite_field,
    generated_ideal,
    idempotent_generated,
    integers_mod,
    is_congruence_simple,
    is_ideal_simple,
    matrix_semiring,
    minimal_left_ideals,
    two_zero_mult,
)
from hemirings.verify import _hemirings, _semilattices, run_suite

from conftest import chain_semilattice, diamond_semilattice, ideal_violation


PINNED = json.loads((Path(__file__).parent / "data" / "pinned_outputs.json").read_text())


def _line(num, name, ok):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    return ok


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "hemirings.cli", *args],
                          capture_output=True, text=True)


def test_criterion_01_step_map_composition_identities():
    # exhaustive over all semilattice classes of order <= 5, all a, b, c, d
    # and every endomorphism f; exact equality
    ok = True
    for M in _semilattices(5):
        E = build_E_M(M)
        n = M.order
        zero_map = tuple([0] * n)
        for f in E.maps:
            for a in range(n):
                for b in range(n):
                    eab = e_ab(M, a, b)
                    if tuple(f[eab[x]] for x in range(n)) != e_ab(M, a, f[b]):
                        ok = False
                    fb = f[b]
                    for c in range(n):
                        collapse = M.join[fb, c] == c
                        for d in range(n):
                            ecd = e_ab(M, c, d)
                            comp = tuple(ecd[f[eab[x]]] for x in range(n))
                            want = zero_map if collapse else e_ab(M, a, d)
                            if comp != want:
                                ok = False
    assert _line(1, "step-map composition identities (order <= 5)", ok)


def test_criterion_02_endo_simpleness_iff_distributive():
    rep = run_suite("thm3_3", 5)
    ok = rep.verdict == "confirmed" and len(rep.records) == 10
    assert _line(2, "endo semiring simple <=> ideal-simple <=> distributive", ok)


def test_criterion_03_diamond_reproduction():
    M3 = diamond_semilattice()
    E = build_E_M(M3)
    F = build_F_M(M3)
    H = E.hemiring
    cs = is_congruence_simple(H)
    isim = is_ideal_simple(H)
    members = frozenset(E.endo_index(m) for m in F.maps)
    proper_nonzero = 1 < len(members) < H.order
    is_ideal = ideal_violation(H, members, "two-sided") is None
    ok = cs and not isim and proper_nonzero and is_ideal
    assert _line(3, "diamond endos: congruence-simple, not ideal-simple", ok)


def test_criterion_04_congruence_oracle_equivalence():
    pool = [R for R in list(_hemirings(3, False)) + list(_hemirings(4, True))]
    pool += [boolean_B(), two_zero_mult(), integers_mod(4), finite_field(4)]
    for M in _semilattices(3):
        pool.append(build_E_M(M).hemiring)
    ok = True
    checked = 0
    for R in pool:
        if R.order > 8:
            continue
        checked += 1
        if is_congruence_simple(R) != (len(all_congruences(R)) <= 2):
            ok = False
    ok = ok and checked > 30
    assert _line(4, f"principal-congruence decider == lattice oracle ({checked} algebras)", ok)


def test_criterion_05_matrix_transfer():
    rep = run_suite("prop5_5", 3)
    ok = rep.verdict == "confirmed" and len(rep.records) >= 8
    assert _line(5, "2x2 matrix semiring simpleness transfer", ok)


def test_criterion_06_corner_correspondence():
    rep = run_suite("prop5_3", 3)
    names = {r.name for r in rep.records}
    covered_m2b = sum(1 for n in names if n.startswith("M_2(B)/"))
    ok = rep.verdict == "confirmed" and covered_m2b >= 3
    assert _line(6, "corner ideal/congruence correspondence and transfer", ok)


def test_criterion_07_double_centralizer():
    B = boolean_B()
    ok = double_centralizer_check(B, IdealSubset(range(2), "left", 2)).isomorphism

    M2B = matrix_semiring(B, 2)
    col = generated_ideal(M2B.hemiring, [M2B.unit(0, 0)], "left")
    ok = ok and double_centralizer_check(M2B.hemiring, col).isomorphism

    EC3 = build_E_M(chain_semilattice(3)).hemiring
    ran = 0
    for I in minimal_left_ideals(EC3):
        if idempotent_generated(EC3, I) is None:
            continue
        ok = ok and double_centralizer_check(EC3, I).isomorphism
        ran += 1
    ok = ok and ran >= 1
    assert _line(7, "double centralizer isomorphism on the named instances", ok)


def test_criterion_08_simple_semiring_classification():
    rep = run_suite("cor5_8", 4)
    kinds = sorted(dict(r.fields)["witness"] for r in rep.records)
    ok = (rep.verdict == "confirmed"
          and len(rep.records) == 3
          and kinds == ["endo:sl2_000", "matrix:n=1,GF(2)", "matrix:n=1,GF(3)"])
    assert _line(8, "every simple catalog semiring is M_n(F) or an endo semiring", ok)


def test_criterion_09_chain_and_lattice_ordered_suites():
    rep_a = run_suite("thm6_4_6_5", 4)
    rep_b = run_suite("thm6_7", 4)
    ok = rep_a.verdict == "confirmed" and rep_b.verdict == "confirmed"
    ok = ok and len(rep_a.records) >= 10 and len(rep_b.records) >= 5
    assert _line(9, "chain semiring and lattice-ordered classifications", ok)


def test_criterion_10_determinism(tmp_path):
    ok = True
    # every suite, rendered twice in-process; the first render also matches
    # the recorded report bytes
    for name in ("thm3_3", "cor3_8", "thm2_2", "cor5_8", "prop5_5",
                 "prop5_3", "thm5_10", "thm5_7", "thm6_4_6_5", "thm6_7"):
        a = run_suite(name).render("structured")
        b = run_suite(name).render("structured")
        if a != b or hashlib.sha256(a.encode()).hexdigest() != PINNED["suite_sha256"][name]:
            ok = False
    # fresh processes for representative suites
    for name in ("thm6_7", "cor5_8", "prop5_3"):
        r1 = run_cli("verify", name, "--format", "structured")
        r2 = run_cli("verify", name, "--format", "structured")
        if r1.stdout != r2.stdout or r1.returncode != 0:
            ok = False
    # enumerate twice, byte-identical directory contents
    for kind, order in (("semilattices", "5"), ("hemirings", "3")):
        d1, d2 = tmp_path / f"{kind}1", tmp_path / f"{kind}2"
        run_cli("enumerate", kind, "--order", order, "--out", str(d1))
        run_cli("enumerate", kind, "--order", order, "--out", str(d2))
        names1 = sorted(p.name for p in d1.iterdir())
        names2 = sorted(p.name for p in d2.iterdir())
        if names1 != names2 or not names1:
            ok = False
        else:
            for n in names1:
                if (d1 / n).read_bytes() != (d2 / n).read_bytes():
                    ok = False
    assert _line(10, "byte-identical verify and enumerate outputs", ok)
