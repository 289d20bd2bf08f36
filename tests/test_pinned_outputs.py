"""Exact canonical forms, fingerprints and catalog names, recorded once.

Every suite report prints fingerprints and catalog names, so a change in
any of these values changes the reports.  Two silent ways to break them:
numpy scalars leaking into ``canonical_form`` (under numpy 2 they print as
``np.int32(0)``, which changes every fingerprint), and a change in the order
in which the catalog discovers its classes (``slN_XXX``, ``hrN_XXX`` and
``aiN_XXX`` are numbered in discovery order).  The catalogs one order past
the shipped enumeration bounds are pinned too, with the bounds raised for
the test, and so are the largest opt-in suite reports, ``thm3_3`` and
``cor3_8`` at ``--max-order 6``.  Plain order 5 and idempotent order 6
are pinned by one sha256 of each catalog, in ``slow`` tests (``pytest -m
slow``).  Above order 8 a fingerprint hashes the colour refinement
instead of the canonical form; five such are pinned.  Every
default suite report is pinned in its text render (the CLI's default
format), and every suite's report one order past its bound in both renders.
"""

import hashlib
import json
from pathlib import Path

import pytest

from hemirings import (
    FiniteSemilattice,
    boolean_B,
    build_E_M,
    build_F_M,
    enumerate_hemirings,
    enumerate_semilattices,
    finite_field,
    matrix_semiring,
)
from hemirings import constructions, verify
from hemirings.core import canonical_form, fingerprint
from hemirings.verify import SUITES, run_suite, suite_names

from conftest import chain_semilattice, direct_product

PINNED = json.loads((Path(__file__).parent / "data" / "pinned_outputs.json").read_text())


@pytest.fixture(scope="module")
def pinned_algebras(plain_hemirings_upto3, idem_hemirings_upto4):
    cat = {R.name: R for R in plain_hemirings_upto3 + idem_hemirings_upto4}
    B = boolean_B()
    C3 = FiniteSemilattice([[0, 1, 2], [1, 1, 2], [2, 2, 2]], name="C3")
    return {
        "hr3_005": cat["hr3_005"], "hr3_021": cat["hr3_021"],
        "ai4_048": cat["ai4_048"], "ai4_128": cat["ai4_128"],
        "BxBxB": direct_product(B, B, B),
        "hr2_003xai4_094": direct_product(cat["hr2_003"], cat["ai4_094"]),
        "hr2_001xhr3_010": direct_product(cat["hr2_001"], cat["hr3_010"]),
        "E_C3": build_E_M(C3).hemiring,
    }


def test_canonical_forms_and_fingerprints_pinned(pinned_algebras):
    assert set(pinned_algebras) == set(PINNED["canonical_form"])
    for name, R in pinned_algebras.items():
        add, mul, one = canonical_form(R)
        assert all(type(v) is int for v in add + mul), name
        assert one is None or type(one) is int, name
        assert repr((add, mul, one)) == PINNED["canonical_form"][name], name
        assert fingerprint(R) == PINNED["fingerprint"][name], name


def test_colour_path_fingerprints_pinned():
    # recorded with the Python-loop refinement that tests/test_oracles.py keeps
    sl6 = enumerate_semilattices(6)[0]
    algebras = {
        "E_C7": build_E_M(chain_semilattice(7)).hemiring,
        "E_sl6_000": build_E_M(sl6).hemiring,
        "F_sl6_000": build_F_M(sl6).hemiring,
        "M_2(GF(4))": matrix_semiring(finite_field(4), 2).hemiring,
        "M_3(B)": matrix_semiring(boolean_B(), 3).hemiring,
    }
    assert sl6.name == "sl6_000" and min(R.order for R in algebras.values()) > 8
    assert {name: fingerprint(R) for name, R in algebras.items()} == PINNED["colour_fingerprint"]


def test_catalog_names_and_fingerprints_pinned(plain_hemirings_upto3,
                                               idem_hemirings_upto4):
    hr3 = [[R.name, fingerprint(R)] for R in plain_hemirings_upto3 if R.order == 3]
    ai4 = [[R.name, fingerprint(R)] for R in idem_hemirings_upto4 if R.order == 4]
    assert hr3 == PINNED["hr3"]
    assert ai4 == PINNED["ai4"]


def test_plain_catalog_past_the_shipped_bound(monkeypatch):
    monkeypatch.setattr(constructions, "HEMIRING_ORDER_BOUND", 4)
    catalogs = [enumerate_hemirings(n) for n in range(1, 5)]
    assert [len(c) for c in catalogs] == PINNED["class_counts"]["plain"]
    assert [[R.name, fingerprint(R)] for R in catalogs[3]] == PINNED["hr4"]


def test_idempotent_catalog_past_the_shipped_bound(monkeypatch):
    monkeypatch.setattr(constructions, "HEMIRING_IDEMPOTENT_BOUND", 5)
    catalogs = [enumerate_hemirings(n, additively_idempotent=True) for n in range(1, 6)]
    assert [len(c) for c in catalogs] == PINNED["class_counts"]["idempotent"]
    assert [[R.name, fingerprint(R)] for R in catalogs[4]] == PINNED["ai5"]


def catalog_sha256(catalog) -> str:
    """sha256 of the (name, add, mul, one) list of a catalog, tables row-major."""
    rows = [(R.name, R.add.ravel().tolist(), R.mul.ravel().tolist(), R.one) for R in catalog]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


@pytest.mark.slow
def test_plain_catalog_at_order_5_pinned(monkeypatch):
    # 4717 classes, about 0.3 s
    monkeypatch.setattr(constructions, "HEMIRING_ORDER_BOUND", 5)
    catalog = enumerate_hemirings(5)
    assert len(catalog) == 4717
    assert catalog_sha256(catalog) == PINNED["catalog_sha256"]["hr5"]


@pytest.mark.slow
def test_idempotent_catalog_at_order_6_pinned(monkeypatch):
    # 33,391 classes, about 5 s
    monkeypatch.setattr(constructions, "HEMIRING_IDEMPOTENT_BOUND", 6)
    catalog = enumerate_hemirings(6, additively_idempotent=True)
    assert len(catalog) == 33391
    assert catalog_sha256(catalog) == PINNED["catalog_sha256"]["ai6"]


def test_semilattice_catalog_pinned(monkeypatch):
    # every class of orders 1-6, and of order 7 with the bound raised: the
    # names number the classes in discovery order, and thm3_3 and cor3_8
    # print them
    monkeypatch.setattr(constructions, "SEMILATTICE_ORDER_BOUND", 7)
    digest = lambda M: hashlib.sha256(repr(tuple(M.join.ravel().tolist())).encode()).hexdigest()
    for n in range(1, 8):
        got = [[M.name, digest(M)[:12]] for M in enumerate_semilattices(n)]
        assert got == PINNED["semilattices"][str(n)], n


def test_suite_catalog_pinned(monkeypatch):
    # the classes the hemiring suites walk at max-order 1-4, one entry per
    # class; the two catalogs are joined by construction, with no fingerprint
    def refuse(R):
        raise AssertionError(f"fingerprint({R.name}) while joining the catalogs")
    monkeypatch.setattr(verify, "fingerprint", refuse)
    for k, names in PINNED["suite_catalog"].items():
        assert sorted(R.name for R in verify._catalog.__wrapped__(int(k))) == names, k


def test_thm3_3_at_order_6_pinned():
    # E_M up to order 120: the widest simpleness sweep any suite runs
    report = run_suite("thm3_3", 6).render("structured")
    digest = hashlib.sha256(report.encode()).hexdigest()
    assert digest == PINNED["opt_in_suite_sha256"]["thm3_3 --max-order 6"]


def test_cor3_8_at_order_6_pinned():
    report = run_suite("cor3_8", 6).render("structured")
    digest = hashlib.sha256(report.encode()).hexdigest()
    assert digest == PINNED["opt_in_suite_sha256"]["cor3_8 --max-order 6"]


def test_text_renders_and_skipped_reports_pinned():
    digest = lambda text: hashlib.sha256(text.encode()).hexdigest()
    for name in suite_names():
        got = digest(run_suite(name).render("text"))
        assert got == PINNED["suite_text_sha256"][name], name
    skipped = PINNED["skipped_suite_sha256"]
    assert set(skipped) == {f"{name} --max-order {suite.bound + 1}"
                            for name, suite in SUITES.items()}
    for key, want in skipped.items():
        name, _, order = key.split()
        report = run_suite(name, int(order))
        assert report.verdict == "skipped(size)", key
        for fmt in ("structured", "text"):
            assert digest(report.render(fmt)) == want[fmt], (key, fmt)
