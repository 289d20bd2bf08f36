"""Record the benchmark's reference outputs and stored input tables.

    python3 perfbench/make_reference.py      # from the repository root

Writes ``perfbench/reference.json``.  Run it only at a commit whose outputs
are trusted: the benchmark counts every later mismatch against it as a
failed operation.  It takes a few minutes, most of it in canonical forms
of the order-8 catalog products.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import hemirings as hr                     # noqa: E402
import instances as ins                    # noqa: E402
from run import SUITES, child_env          # noqa: E402

# Class counts per order, from the paper's catalogs.
CATALOG_COUNTS = {"semilattices": [1, 1, 1, 2, 5, 15],
                  "hemirings": [1, 4, 22],
                  "idempotent": [1, 2, 12, 129]}
SMALL_COUNTS = {"semilattices": [1, 1, 1, 2], "hemirings": [1, 4],
                "idempotent": [1, 2, 12]}
EM_ORDER_CAP = 128


def classify_inputs() -> dict:
    semilattices = {}
    for n in (5, 6):
        for M in hr.enumerate_semilattices(n):
            if hr.build_E_M(M).order <= EM_ORDER_CAP:
                semilattices[M.name] = M.join.tolist()
    order3 = {R.name: ins.tables_of(R) for R in hr.enumerate_hemirings(3)
              if R.is_semiring and not hr.is_simple(R)}
    return {"semilattices": semilattices, "order3_nonsimple": order3}


def suite_digests() -> dict:
    out = {}
    for suite in SUITES:
        proc = subprocess.run(
            [sys.executable, "-m", "hemirings.cli", "verify", suite, "--format", "structured"],
            env=child_env(), capture_output=True, check=True)
        out[suite] = hashlib.sha256(proc.stdout).hexdigest()
    return out


def main() -> None:
    ref = {"catalog_counts": CATALOG_COUNTS, "catalog_counts_small": SMALL_COUNTS}
    for kind, counts in CATALOG_COUNTS.items():
        ai = kind == "idempotent"
        for n, want in enumerate(counts, 1):
            got = len(hr.enumerate_semilattices(n) if kind == "semilattices"
                      else hr.enumerate_hemirings(n, additively_idempotent=ai))
            if got != want:
                raise SystemExit(f"{kind} order {n}: {got} classes, expected {want}")
    ref["suites"] = suite_digests()
    ref["classify_inputs"] = classify_inputs()
    ref["classify"] = {R.name: [list(f) for f in hr.classify(R)]
                       for R, _ in ins.classify_pool(ref["classify_inputs"])}
    ref["catalog_factors"] = {
        "hr2": {R.name: ins.tables_of(R) for R in hr.enumerate_hemirings(2)},
        "hr3": {R.name: ins.tables_of(R) for R in hr.enumerate_hemirings(3)},
        "ai4": {R.name: ins.tables_of(R)
                for R in hr.enumerate_hemirings(4, additively_idempotent=True)},
    }
    products = {}
    names = {k: sorted(v) for k, v in ref["catalog_factors"].items()}
    for kind in ins.catalog_pool(names).values():
        for factors in kind:
            P = ins.build_product(ref, factors)
            form = hr.core.canonical_form(P)
            products[ins.product_key(factors)] = {
                "fingerprint": hr.core.fingerprint(P),
                "canonical_form": hashlib.sha256(repr(form).encode()).hexdigest()[:16]}
    ref["catalog_products"] = products
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(ref, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    os.chdir(HERE.parent)
    main()
