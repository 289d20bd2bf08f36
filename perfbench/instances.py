"""Inputs of the benchmark workloads, built from tables stored in
``reference.json`` so that no catalog enumeration runs before the timed
operations of a process.

Every relabelling and every sample is drawn from ``random.Random`` seeded
with a string, which is deterministic across processes and hash seeds.
"""

from __future__ import annotations

import random

import numpy as np

import hemirings as hr

# Classify pool: the congruence-simple instances (full pair sweep) and the
# non-congruence-simple ones (early exit).  Direct products stay within the
# order up to which classify runs the simpleness deciders.
PRODUCT_ORDER_CAP = 128
SMALL_ORDER_CAP = 50
# Each instance is classified under this many relabellings per round, except
# the congruence-simple ones above RELABEL_ORDER_CAP, whose full sweep takes
# seconds: repeats put the median among the early exits and the tail among
# the full sweeps of order 42-70, not on a single operation.
RELABELLINGS = 2
RELABEL_ORDER_CAP = 70


def rng(*key) -> random.Random:
    return random.Random("/".join(str(k) for k in key))


def hemiring_from(entry: dict, name: str) -> hr.FiniteHemiring:
    return hr.FiniteHemiring(entry["add"], entry["mul"], zero=entry["zero"],
                             one=entry["one"], name=name)


def tables_of(R: hr.FiniteHemiring) -> dict:
    return {"add": R.add.tolist(), "mul": R.mul.tolist(), "zero": R.zero,
            "one": R.one}


def direct_product(*factors: hr.FiniteHemiring) -> hr.FiniteHemiring:
    """Componentwise product; element (a, b) has index a * |S| + b."""
    R = factors[0]
    for S in factors[1:]:
        n, m = R.order, S.order
        add = (R.add[:, None, :, None] * m + S.add[None, :, None, :]).reshape(n * m, n * m)
        mul = (R.mul[:, None, :, None] * m + S.mul[None, :, None, :]).reshape(n * m, n * m)
        one = None if R.one is None or S.one is None else R.one * m + S.one
        R = hr.FiniteHemiring(add, mul, zero=R.zero * m + S.zero, one=one,
                              name=f"{R.name}x{S.name}")
    return R


def random_perm(n: int, *key) -> list[int]:
    perm = list(range(n))
    rng(*key).shuffle(perm)
    return perm


def relabel(R: hr.FiniteHemiring, perm) -> hr.FiniteHemiring:
    """The copy of R in which element x is renamed perm[x]."""
    p = np.asarray(perm, dtype=np.int32)
    add = np.empty_like(R.add)
    mul = np.empty_like(R.mul)
    add[np.ix_(p, p)] = p[R.add]
    mul[np.ix_(p, p)] = p[R.mul]
    one = None if R.one is None else int(p[R.one])
    return hr.FiniteHemiring(add, mul, zero=int(p[R.zero]), one=one, name=R.name)


# ------------------------------------------------------------- classify

def classify_pool(inputs: dict, small: bool = False) -> list[tuple[hr.FiniteHemiring, int]]:
    """The named instances of the classify workload, unrelabelled, each with
    its number of relabellings per round.

    ``inputs`` holds the join tables of the order-5 and order-6 semilattices
    with |E_M| <= 128 and the tables of the non-simple order-3 catalog
    semirings.
    """
    simple = []
    for name, join in inputs["semilattices"].items():
        M = hr.FiniteSemilattice(join, zero=0, name=name)
        E = hr.build_E_M(M)
        simple.append(E.hemiring)
        F = hr.build_F_M(M)
        if F.order != E.order:      # F_M = E_M otherwise
            simple.append(F.hemiring)
    B = hr.boolean_B()
    Z2 = hr.finite_field(2)
    for base in (Z2, hr.finite_field(3), B):
        M2 = hr.matrix_semiring(base, 2).hemiring
        M2.name = f"M_2({base.name})"
        simple.append(M2)
    nonsimple = []
    for Y in (B, Z2):
        for X in simple:
            if X.order * Y.order <= PRODUCT_ORDER_CAP:
                nonsimple.append(direct_product(X, Y))
    for name, entry in inputs["order3_nonsimple"].items():
        M2 = hr.matrix_semiring(hemiring_from(entry, name), 2).hemiring
        M2.name = f"M_2({name})"
        nonsimple.append(M2)
    pool = [(R, 1 if R.order > RELABEL_ORDER_CAP else RELABELLINGS) for R in simple]
    pool += [(R, RELABELLINGS) for R in nonsimple]
    if small:
        pool = [(R, 1) for R, _ in pool if R.order <= SMALL_ORDER_CAP]
    return pool


# -------------------------------------------------------------- catalog

# Per round: product kind -> number of sampled items.  "pair6" is an order-2
# times an order-3 catalog hemiring, "pair8" an order-2 times an additively
# idempotent order-4 one, "triple8" three order-2 factors (B^3 among them).
CATALOG_SAMPLE = {"pair6": 8, "pair8": 3, "triple8": 1}
CATALOG_SAMPLE_SMALL = {"pair6": 2}


def catalog_pool(factor_names: dict) -> dict[str, list[tuple[str, ...]]]:
    """Products of catalog members, as tuples of factor names, by kind."""
    o2, o3, a4 = (factor_names[k] for k in ("hr2", "hr3", "ai4"))
    triples = [(a, b, c) for i, a in enumerate(o2) for j, b in enumerate(o2[i:], i)
               for c in o2[j:]]
    return {"pair6": [(a, b) for a in o2 for b in o3],
            "pair8": [(a, b) for a in o2 for b in a4],
            "triple8": triples}


def product_key(factors) -> str:
    return "x".join(factors)


def catalog_plan(reference: dict, seed: int, round_index: int, small: bool) -> list[dict]:
    """The sampled items of one catalog round.

    Each item names a product P, the seeds of two relabellings of P and a
    partner Q of the same kind that is not isomorphic to P (its reference
    fingerprint differs).
    """
    names = {k: sorted(v) for k, v in reference["catalog_factors"].items()}
    pool = catalog_pool(names)
    fps = reference["catalog_products"]
    r = rng("catalog", seed, round_index)
    plan = []
    for kind, count in (CATALOG_SAMPLE_SMALL if small else CATALOG_SAMPLE).items():
        for i in range(count):
            P = r.choice(pool[kind])
            while True:
                Q = r.choice(pool[kind])
                if fps[product_key(Q)]["fingerprint"] != fps[product_key(P)]["fingerprint"]:
                    break
            plan.append({"key": product_key(P), "factors": list(P),
                         "partner": list(Q), "perm_key": [seed, round_index, kind, i]})
    return plan


def build_product(reference: dict, factors) -> hr.FiniteHemiring:
    tables = {}
    for kind in reference["catalog_factors"].values():
        tables.update(kind)
    return direct_product(*(hemiring_from(tables[f], f) for f in factors))
