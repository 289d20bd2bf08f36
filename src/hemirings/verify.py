"""Classification suites: replay the structure theorems for finite
semirings over exhaustively enumerated small instances.

Every suite walks a deterministic catalog, evaluates the two sides of an
equivalence with independent deciders, and emits a line-oriented report.
A counterexample record carries the algebra tables inline so the claim can
be re-checked directly by the deciders.

A suite is a function from max-order to instance records.  It declares its
default max-order, its size bound and any fixed report parameter in
``SUITES``; ``run_suite`` rejects a max-order below 1, returns an empty
``skipped(size)`` report past the bound, and sorts the records by name.
Instances come from one cached source: ``_semilattices`` and ``_hemirings``
(each order enumerated once), ``_catalog`` (both hemiring catalogs,
one entry per class), ``build_E_M`` (memoised in each semilattice) and
``_boolean_matrices``.  E_M and F_M witnesses come from R's own dense
action on a minimal left ideal, named by one catalog lookup (``_witness``).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    FiniteHemiring,
    InvariantViolation,
    SizeGuardExceeded,
    _is_integer,
    _lex_least_relabeling,
    fingerprint,
    infinite_element,
    is_additively_idempotent,
    is_aic,
    is_dedekind_finite,
    is_division_semiring,
    is_isomorphic,
    is_lattice_ordered,
    is_zerosumfree,
)
from .lattices import (
    FiniteSemilattice,
    _distributive_lattice,
    build_E_M,
    is_distributive,
    try_lattice,
)
from .simpleness import (
    all_congruences,
    all_ideals,
    is_congruence_simple,
    is_ideal_simple,
    is_simple,
    aic_max_ideal,
    radical_left,
    tau_congruence,
)
from .constructions import (
    boolean_B,
    corner,
    corner_congruence_to_ring,
    corner_ideal_to_ring,
    enumerate_hemirings,
    enumerate_semilattices,
    finite_field,
    is_full_idempotent,
    FIELD_ORDERS,
    matrix_semiring,
    HEMIRING_IDEMPOTENT_BOUND,
    HEMIRING_ORDER_BOUND,
    SEMILATTICE_ORDER_BOUND,
)
from .semimodules import (
    dense_embedding_search,
    double_centralizer_check,
    idempotent_generated,
    minimal_left_ideals,
)

__all__ = ["InstanceRecord", "VerificationReport", "SUITES", "classify",
           "dense_embedding_search", "parse_tables_inline", "run_suite",
           "suite_names"]


@dataclass(frozen=True)
class InstanceRecord:
    name: str
    fields: tuple[tuple[str, str], ...]
    ok: bool


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    parameters: tuple[tuple[str, str], ...]
    records: tuple[InstanceRecord, ...]
    verdict: str   # confirmed | counterexample | skipped(size)

    def render(self, fmt: str = "structured") -> str:
        if fmt == "text":
            lines = [f"suite {self.suite}: {self.verdict} "
                     f"({len(self.records)} instances)"]
            for r in self.records:
                mark = "ok" if r.ok else "COUNTEREXAMPLE"
                brief = ", ".join(f"{k}={v}" for k, v in r.fields)
                lines.append(f"  [{mark}] {r.name}: {brief}")
            return "\n".join(lines) + "\n"
        lines = [f"suite: {self.suite}"]
        for k, v in self.parameters:
            lines.append(f"parameter {k}: {v}")
        lines.append(f"instances: {len(self.records)}")
        for r in self.records:
            lines.append(f"instance: {r.name}")
            for k, v in r.fields:
                lines.append(f"  {k}: {v}")
            lines.append(f"  ok: {str(r.ok).lower()}")
        lines.append(f"verdict: {self.verdict}")
        return "\n".join(lines) + "\n"


def _b(v: bool) -> str:
    return str(bool(v)).lower()


def _tables_inline(R: FiniteHemiring) -> str:
    add = ",".join(str(int(v)) for v in R.add.ravel())
    mul = ",".join(str(int(v)) for v in R.mul.ravel())
    one = "-" if R.one is None else str(R.one)
    return f"order={R.order};zero={R.zero};one={one};add={add};mul={mul}"


def parse_tables_inline(text: str) -> FiniteHemiring:
    """Rebuild an algebra from a report's inline witness string, so a
    counterexample record can be re-fed to the deciders directly."""
    parts = dict(p.split("=", 1) for p in text.split(";"))
    for key in sorted(parts.keys() ^ {"order", "zero", "one", "add", "mul"}):
        raise ValueError(f"inline tables: {'unknown' if key in parts else 'missing'} key {key!r}")
    n = int(parts["order"])
    add = [int(v) for v in parts["add"].split(",")]
    mul = [int(v) for v in parts["mul"].split(",")]
    one = None if parts["one"] == "-" else int(parts["one"])
    return FiniteHemiring(np.array(add).reshape(n, n), np.array(mul).reshape(n, n),
                          zero=int(parts["zero"]), one=one)


@lru_cache(maxsize=None)
def _semilattices(max_order: int) -> tuple[FiniteSemilattice, ...]:
    """The catalog semilattices up to max_order, each order enumerated once."""
    if max_order < 1:
        return ()
    return _semilattices(max_order - 1) + tuple(enumerate_semilattices(max_order))


@lru_cache(maxsize=None)
def _hemirings(max_order: int, idempotent: bool) -> tuple[FiniteHemiring, ...]:
    """The catalog hemirings up to max_order, each order enumerated once."""
    if max_order < 1:
        return ()
    return _hemirings(max_order - 1, idempotent) + tuple(
        enumerate_hemirings(max_order, additively_idempotent=idempotent))


@lru_cache(maxsize=None)
def _catalog(max_order: int) -> tuple[FiniteHemiring, ...]:
    """The plain catalog, which holds every additively idempotent class of its
    orders, and the idempotent entries of the orders above it: one per class."""
    plain = _hemirings(min(max_order, HEMIRING_ORDER_BOUND), False)
    return plain + tuple(R for R in _hemirings(min(max_order, HEMIRING_IDEMPOTENT_BOUND), True)
                         if R.order > HEMIRING_ORDER_BOUND)


def _catalog_semirings(max_order: int) -> list[FiniteHemiring]:
    """The unital entries of ``_catalog``, one per class."""
    return [R for R in _catalog(max_order) if R.is_semiring]


def _record(name: str, ok: bool, *fields, algebra: FiniteHemiring) -> InstanceRecord:
    """A record of ``algebra``: its fingerprint leads the fields and, on
    failure, its tables close them (as ``tables`` when a ``witness`` field
    already names something else)."""
    fields = (("fingerprint", fingerprint(algebra)),) + fields
    if not ok:
        key = "tables" if any(k == "witness" for k, _ in fields) else "witness"
        fields += ((key, _tables_inline(algebra)),)
    return InstanceRecord(name, fields, ok)


@lru_cache(maxsize=None)
def _boolean_matrices(n: int) -> FiniteHemiring:
    """M_n(B), built once per process."""
    return matrix_semiring(boolean_B(), n).hemiring


def _witness(R: FiniteHemiring, *kinds: str) -> str | None:
    """The catalog name of M when ``dense_embedding_search`` finds
    (kind, M, rows) with kind in ``kinds``: the catalog semilattice whose
    join table is M's canonical join table."""
    found = dense_embedding_search(R)
    if found is None or found[0] not in kinds:
        return None
    M = found[1]
    catalog = _semilattices(M.order)   # SizeGuardExceeded past the catalog
    [(key, _)] = _lex_least_relabeling([(M.join,)], M.zero)
    return next(N.name for N in catalog if N.join.ravel().tolist() == list(key))


# ---------------------------------------------------------------- suites

def suite_thm3_3(max_order: int) -> list[InstanceRecord]:
    """E_M simple <=> E_M ideal-simple <=> M a distributive lattice."""
    records = []
    for M in _semilattices(max_order):
        E = build_E_M(M)
        dist = _distributive_lattice(M)
        ideal_simple = is_ideal_simple(E.hemiring)
        simple = ideal_simple and is_congruence_simple(E.hemiring)
        ok = simple == ideal_simple == dist
        fields = [("order", str(M.order)), ("endo-order", str(E.order)),
                  ("distributive", _b(dist)), ("ideal-simple", _b(ideal_simple)),
                  ("simple", _b(simple))]
        records.append(_record(M.name, ok, *fields, algebra=E.hemiring))
    return records


def suite_cor3_8(max_order: int) -> list[InstanceRecord]:
    """On distributive M all simpleness notions agree (and hold); on
    non-distributive M congruence-simpleness holds while ideal-simpleness
    fails.  The collapsing congruence f ~ g iff f+a = g+a pointwise is
    universal on every finite instance."""
    records = []
    for M in _semilattices(max_order):
        E = build_E_M(M)
        dist = _distributive_lattice(M)
        cs = is_congruence_simple(E.hemiring)
        isim = is_ideal_simple(E.hemiring)
        simple = isim and cs
        tau_universal = tau_congruence(E).is_universal
        if dist:
            ok = cs and isim and simple and tau_universal
        else:
            ok = cs and not isim and tau_universal
        fields = [("order", str(M.order)), ("distributive", _b(dist)),
                  ("congruence-simple", _b(cs)), ("ideal-simple", _b(isim)),
                  ("simple", _b(simple)), ("tau-universal", _b(tau_universal))]
        records.append(_record(M.name, ok, *fields, algebra=E.hemiring))
    return records


def suite_thm2_2(max_order: int) -> list[InstanceRecord]:
    """Every congruence-simple proper hemiring has order <= 2 or embeds as
    a dense subhemiring of the endomorphism semiring of a semilattice."""
    records = []
    for R in _catalog(max_order):
        if not (R.is_proper and is_congruence_simple(R)):
            continue
        if R.order <= 2:
            records.append(_record(
                R.name, True, ("order", str(R.order)), ("branch", "order<=2"),
                algebra=R))
            continue
        lattice = _witness(R, "endo", "fm", "dense")
        fields = [("order", str(R.order)),
                  ("branch", "dense-embedding"),
                  ("embedding", f"catalog:{lattice}" if lattice else "none")]
        records.append(_record(R.name, lattice is not None, *fields, algebra=R))
    return records


def suite_cor5_8(max_order: int) -> list[InstanceRecord]:
    """Every simple catalog semiring is a matrix semiring over a finite
    field or the endomorphism semiring of a distributive lattice."""
    records = []
    for R in _catalog_semirings(max_order):
        if not is_simple(R):
            continue
        witness = None
        if R.is_ring:
            F = finite_field(R.order) if R.order in FIELD_ORDERS else None
            if F is not None and is_isomorphic(R, F) is not None:
                witness = f"matrix:n=1,{F.name}"
        else:
            lattice = _witness(R, "endo")
            if lattice is not None:
                witness = f"endo:{lattice}"
        fields = [("order", str(R.order)), ("ring", _b(R.is_ring)),
                  ("witness", witness or "none")]
        records.append(_record(R.name, witness is not None, *fields, algebra=R))
    return records


def suite_prop5_5(max_order: int) -> list[InstanceRecord]:
    """Congruence-simpleness, ideal-simpleness and simpleness transfer
    between R and M_2(R)."""
    records = []
    for R in _catalog_semirings(max_order):
        M2 = matrix_semiring(R, 2)
        cs_r, cs_m = is_congruence_simple(R), is_congruence_simple(M2.hemiring)
        is_r, is_m = is_ideal_simple(R), is_ideal_simple(M2.hemiring)
        ok = cs_r == cs_m and is_r == is_m
        fields = [("order", str(R.order)), ("matrix-order", str(M2.order)),
                  ("congruence-simple", f"{_b(cs_r)}/{_b(cs_m)}"),
                  ("ideal-simple", f"{_b(is_r)}/{_b(is_m)}"),
                  ("simple", f"{_b(cs_r and is_r)}/{_b(cs_m and is_m)}")]
        records.append(_record(R.name, ok, *fields, algebra=R))
    return records


def _ring_side(R: FiniteHemiring) -> tuple[set, set, bool, bool]:
    """R's two-sided ideals and congruences and its ideal- and
    congruence-simpleness, which the corner of every full idempotent of R
    is compared with."""
    return (set(all_ideals(R, "two-sided")), set(all_congruences(R)),
            is_ideal_simple(R), is_congruence_simple(R))


def _corner_correspondence(R: FiniteHemiring, e: int, ring_side: tuple
                           ) -> tuple[bool, list[tuple[str, str]]]:
    c = corner(R, e)
    full = is_full_idempotent(R, e)
    ideals_c = all_ideals(c.hemiring, "two-sided")
    congs_c = all_congruences(c.hemiring)
    ok = True
    lifted_ideals = set()
    for I in ideals_c:
        J = corner_ideal_to_ring(R, c, I)     # re-checks e(RIR)e = I
        lifted_ideals.add(J)
    lifted_congs = set()
    for g in congs_c:
        th = corner_congruence_to_ring(R, c, g)   # re-checks restriction
        lifted_congs.add(th)
    fields = [("corner-order", str(c.order)), ("full", _b(full)),
              ("corner-ideals", str(len(ideals_c))),
              ("corner-congruences", str(len(congs_c)))]
    if full:
        ideals_r, congs_r, ideal_simple, congruence_simple = ring_side
        surj_i = lifted_ideals == ideals_r
        surj_c = lifted_congs == congs_r
        transfer = (ideal_simple == is_ideal_simple(c.hemiring)
                    and congruence_simple == is_congruence_simple(c.hemiring))
        ok = surj_i and surj_c and transfer
        fields += [("ideal-bijection", _b(surj_i)),
                   ("congruence-bijection", _b(surj_c)),
                   ("simpleness-transfer", _b(transfer))]
    return ok, fields


def suite_prop5_3(max_order: int) -> list[InstanceRecord]:
    """Corner correspondences for every idempotent of the catalog semirings
    and of M_2(B); bijective (and simpleness-preserving) for full ones."""
    records = []
    for R in _catalog_semirings(max_order) + [_boolean_matrices(2)]:
        ring_side = _ring_side(R)
        for e in R.idempotents():
            try:
                ok, fields = _corner_correspondence(R, e, ring_side)
            except InvariantViolation as exc:
                ok, fields = False, [("error", str(exc))]
            records.append(_record(f"{R.name}/e={e}", ok,
                                   ("order", str(R.order)), *fields, algebra=R))
    return records


def suite_thm5_10(max_order: int) -> list[InstanceRecord]:
    """Double centralizer: for a simple semiring and a minimal left ideal
    generated by an idempotent, R -> End(I_D) is an isomorphism."""
    C3 = FiniteSemilattice([[0, 1, 2], [1, 1, 2], [2, 2, 2]], name="C3")
    EC3 = build_E_M(C3).hemiring
    instances = [R for R in _catalog_semirings(max_order) if is_simple(R)]
    records = []
    for R in instances + [_boolean_matrices(2), EC3]:
        for I in minimal_left_ideals(R):
            e = idempotent_generated(R, I)
            if e is None:
                continue
            rep = double_centralizer_check(R, I)
            fields = [("order", str(R.order)),
                      ("ideal-size", str(len(I.members))),
                      ("idempotent", str(e)),
                      ("endos", str(rep.endo_count)),
                      ("bicommutant", str(rep.bicommutant_count)),
                      ("injective", _b(rep.injective)),
                      ("surjective", _b(rep.surjective))]
            records.append(_record(
                f"{R.name}/I={min(x for x in I.members if x != R.zero)}",
                rep.isomorphism, *fields, algebra=R))
    return records


def suite_thm5_7(max_order: int) -> list[InstanceRecord]:
    """A catalog semiring is simple with an infinite element iff it is the
    endomorphism semiring of a distributive lattice; simple proper
    hemirings with nonzero multiplication match some F_M."""
    records = []
    for R in _catalog_semirings(max_order):
        simple = is_simple(R)
        inf = infinite_element(R) is not None
        lattice = _witness(R, "endo")
        ok = (simple and inf) == (lattice is not None)
        fields = [("order", str(R.order)), ("simple", _b(simple)),
                  ("infinite-element", _b(inf)),
                  ("endo-witness", lattice or "none")]
        if simple and inf:
            morita = next((label for label, H in _full_corners()
                           if H.order == R.order and is_isomorphic(R, H) is not None), None)
            fields.append(("corner-witness", morita or "none"))
            ok = ok and morita is not None
        records.append(_record(R.name, ok, *fields, algebra=R))
    # F_M reporting for proper simple hemirings (nonzero multiplication)
    for R in _hemirings(max_order, True):
        if not (R.is_proper and is_simple(R)):
            continue
        if R.has_zero_multiplication():
            records.append(_record(
                R.name + "/fm", True,
                ("order", str(R.order)), ("zero-multiplication", "true"),
                ("fm-witness", "skipped"), algebra=R))
            continue
        # F_M = E_M exactly when M is distributive
        fm = _witness(R, "endo", "fm")
        records.append(_record(
            R.name + "/fm", fm is not None,
            ("order", str(R.order)), ("zero-multiplication", "false"),
            ("fm-witness", fm or "none"), algebra=R))
    return records


def _full_corners():
    """(label, eRe) for each full idempotent e of M_1(B), then of M_2(B)."""
    for n in (1, 2):
        Mn = _boolean_matrices(n)
        for e in Mn.idempotents():
            if is_full_idempotent(Mn, e):
                yield f"M_{n}(B):e={e}", corner(Mn, e).hemiring


def suite_thm6_4_6_5(max_order: int) -> list[InstanceRecord]:
    """Finite chain semirings: ideal-simple iff division; simple iff
    isomorphic to the Boolean semifield; the maximal left ideal formula
    agrees with the radical."""
    B = boolean_B()
    records = []
    for R in _hemirings(max_order, True):
        if not R.is_semiring or not is_aic(R):
            continue
        isim = is_ideal_simple(R)
        div = is_division_semiring(R)
        simple = isim and is_congruence_simple(R)
        iso_b = is_isomorphic(R, B) is not None
        J = aic_max_ideal(R)
        rad = radical_left(R)
        ok = (isim == div) and (simple == iso_b) and (J.members == rad.members)
        fields = [("order", str(R.order)), ("ideal-simple", _b(isim)),
                  ("division", _b(div)), ("simple", _b(simple)),
                  ("iso-to-B", _b(iso_b)),
                  ("max-ideal", str(sorted(J.members))),
                  ("radical", str(sorted(rad.members)))]
        records.append(_record(R.name, ok, *fields, algebra=R))
    return records


def suite_thm6_7(max_order: int) -> list[InstanceRecord]:
    """Lattice-ordered semirings: congruence-simple iff simple iff
    isomorphic to the Boolean semifield."""
    B = boolean_B()
    records = []
    for R in _hemirings(max_order, True):
        if not R.is_semiring or not is_lattice_ordered(R):
            continue
        cs = is_congruence_simple(R)
        simple = is_ideal_simple(R) and cs
        iso_b = is_isomorphic(R, B) is not None
        ok = cs == simple == iso_b
        fields = [("order", str(R.order)), ("congruence-simple", _b(cs)),
                  ("simple", _b(simple)), ("iso-to-B", _b(iso_b))]
        records.append(_record(R.name, ok, *fields, algebra=R))
    return records


@dataclass(frozen=True)
class Suite:
    run: Callable[[int], list[InstanceRecord]]
    default: int                              # max-order when none is given
    bound: int                                # larger max-orders are skipped
    extra: tuple[tuple[str, str], ...] = ()   # fixed report parameters


SUITES = {
    "thm3_3": Suite(suite_thm3_3, 5, SEMILATTICE_ORDER_BOUND),
    "cor3_8": Suite(suite_cor3_8, 5, SEMILATTICE_ORDER_BOUND),
    "thm2_2": Suite(suite_thm2_2, 4, HEMIRING_IDEMPOTENT_BOUND),
    "cor5_8": Suite(suite_cor5_8, 4, HEMIRING_IDEMPOTENT_BOUND),
    "prop5_5": Suite(suite_prop5_5, 3, HEMIRING_ORDER_BOUND, (("n", "2"),)),
    "prop5_3": Suite(suite_prop5_3, 3, HEMIRING_ORDER_BOUND),
    "thm5_10": Suite(suite_thm5_10, 4, HEMIRING_IDEMPOTENT_BOUND),
    "thm5_7": Suite(suite_thm5_7, 4, HEMIRING_IDEMPOTENT_BOUND),
    "thm6_4_6_5": Suite(suite_thm6_4_6_5, 4, HEMIRING_IDEMPOTENT_BOUND),
    "thm6_7": Suite(suite_thm6_7, 4, HEMIRING_IDEMPOTENT_BOUND),
}


def suite_names() -> list[str]:
    return list(SUITES)


def run_suite(name: str, max_order: int | None = None) -> VerificationReport:
    """Run one suite: a max-order past the suite's bound gives an empty
    ``skipped(size)`` report; records are sorted by name."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; known: {', '.join(SUITES)}")
    suite = SUITES[name]
    if max_order is None:
        max_order = suite.default
    if not _is_integer(max_order):
        raise ValueError(f"suite {name}: max-order must be an integer; got {max_order!r}")
    if max_order < 1:
        raise ValueError(f"suite {name}: max-order must be at least 1; got {max_order}")
    params = (("max-order", str(max_order)),) + suite.extra
    if max_order > suite.bound:
        return VerificationReport(name, params, (), "skipped(size)")
    records = tuple(sorted(suite.run(max_order), key=lambda r: r.name))
    verdict = "confirmed" if all(r.ok for r in records) else "counterexample"
    return VerificationReport(name, params, records, verdict)


# ---------------------------------------------------------- classification

def classify(alg) -> list[tuple[str, str]]:
    """Structural summary of a parsed algebra, as ordered key/value pairs; the
    simpleness fields read ``skipped(size)`` when a decider exceeds ``CLOSURE_BUDGET``."""
    if isinstance(alg, FiniteSemilattice):
        lat = try_lattice(alg)
        fields = [("kind", "semilattice"), ("order", str(alg.order)),
                  ("lattice", _b(lat is not None))]
        if lat is not None:
            fields.append(("distributive", _b(is_distributive(lat))))
        fields.append(("top", str(alg.top)))
        return fields

    R: FiniteHemiring = alg
    fields = [("kind", "hemiring"), ("order", str(R.order)),
              ("semiring", _b(R.is_semiring)), ("ring", _b(R.is_ring)),
              ("proper", _b(R.is_proper)),
              ("zero-multiplication", _b(R.has_zero_multiplication())),
              ("commutative", _b(R.is_commutative())),
              ("additively-idempotent", _b(is_additively_idempotent(R))),
              ("zerosumfree", _b(is_zerosumfree(R))),
              ("dedekind-finite", _b(is_dedekind_finite(R)))]
    inf = infinite_element(R)
    fields.append(("infinite-element", "none" if inf is None else str(inf)))
    aic = is_aic(R)
    lo = is_lattice_ordered(R)
    fields.append(("aic", _b(aic)))
    fields.append(("lattice-ordered", _b(lo)))
    if R.one is not None:
        fields.append(("division", _b(is_division_semiring(R))))
    else:
        fields.append(("division", "n/a"))
    try:
        cs = is_congruence_simple(R)
        isim = is_ideal_simple(R)
    except SizeGuardExceeded:
        return fields + [(key, "skipped(size)")
                         for key in ("congruence-simple", "ideal-simple", "simple")]
    fields.append(("congruence-simple", _b(cs)))
    fields.append(("ideal-simple", _b(isim)))
    fields.append(("simple", _b(cs and isim)))
    if lo and R.is_semiring and cs:
        fields.append(("iso-to-B", _b(is_isomorphic(R, boolean_B()) is not None)))
    return fields
