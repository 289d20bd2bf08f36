"""Brute-force completeness oracles for the catalog enumerations.

Classes are compared by ``naive_lex_least``, the literal minimum over all
relabelings, so the oracle shares no code with the batched relabeling the
enumerators dedupe by.
"""

import itertools

import numpy as np

from hemirings import enumerate_hemirings, enumerate_semilattices, is_semilattice
from hemirings.core import check_hemiring_axioms

from conftest import naive_lex_least


def naive_form(R):
    """R's (add, mul) tables under the least relabeling; they fix its one."""
    return naive_lex_least((R.add, R.mul), R.zero)


def identity(mul):
    """The two-sided identity of a multiplication table, or None."""
    n = len(mul)
    return next((e for e in range(n)
                 if all(mul[e][x] == x and mul[x][e] == x for x in range(n))), None)


def brute_force_semilattice_classes(n):
    """Canonical forms of every valid join table on 0..n-1 with zero 0."""
    cells = [(i, j) for i in range(1, n) for j in range(i + 1, n)]
    found = set()
    for values in itertools.product(range(n), repeat=len(cells)):
        t = np.zeros((n, n), dtype=np.int32)
        t[0, :] = np.arange(n)
        t[:, 0] = np.arange(n)
        for i in range(1, n):
            t[i, i] = i
        for (i, j), v in zip(cells, values):
            t[i, j] = t[j, i] = v
        if is_semilattice(t, 0):
            found.add(naive_lex_least((t,), 0))
    return found


def brute_force_hemiring_classes(n):
    """Canonical forms of every valid (add, mul) pair on 0..n-1."""
    add_cells = [(i, j) for i in range(1, n) for j in range(i, n)]
    mul_cells = [(i, j) for i in range(1, n) for j in range(1, n)]
    found = set()
    for avals in itertools.product(range(n), repeat=len(add_cells)):
        add = np.zeros((n, n), dtype=np.int32)
        add[0, :] = np.arange(n)
        add[:, 0] = np.arange(n)
        for (i, j), v in zip(add_cells, avals):
            add[i, j] = add[j, i] = v
        ok = (add == add.T).all()
        for a in range(n):
            ok = ok and (add[add[a], :] == add[a][add]).all()
        if not ok:
            continue
        for mvals in itertools.product(range(n), repeat=len(mul_cells)):
            mul = np.zeros((n, n), dtype=np.int32)
            for (i, j), v in zip(mul_cells, mvals):
                mul[i, j] = v
            if check_hemiring_axioms(add, mul, 0).ok:
                found.add(naive_lex_least((add, mul), 0))
    return found


def test_semilattice_enumeration_complete_upto_5():
    for n in range(1, 6):
        oracle = brute_force_semilattice_classes(n)
        produced = {naive_lex_least((M.join,), M.zero) for M in enumerate_semilattices(n)}
        assert produced == oracle


def test_hemiring_enumeration_complete_upto_3():
    for n in range(1, 4):
        oracle = brute_force_hemiring_classes(n)
        catalog = enumerate_hemirings(n)
        assert {naive_form(R) for R in catalog} == oracle
        assert all(R.one == identity(R.mul) for R in catalog)


def test_idempotent_enumeration_matches_filtered_plain():
    from hemirings import is_additively_idempotent
    for n in range(1, 4):
        plain = {naive_form(R) for R in enumerate_hemirings(n) if is_additively_idempotent(R)}
        idem = {naive_form(R) for R in enumerate_hemirings(n, additively_idempotent=True)}
        assert plain == idem
