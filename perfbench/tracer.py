"""Spans around the public functions of each hemirings module, recorded
from outside the package.

``Tracer.install`` replaces every wrapped function in every loaded
``hemirings`` module namespace that holds it: ``verify``, ``cli``,
``constructions`` and ``semimodules`` import functions by name, so patching
only the defining module would miss their calls.  Spans stay in memory as
(name, start, end, parent) and are written once, by ``Tracer.write``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# The layers: module -> wrapped public functions.
LAYERS = {
    "core": ["check_hemiring_axioms", "canonical_form", "fingerprint",
             "is_isomorphic", "hom_search"],
    "lattices": ["endo_enumerate", "build_E_M", "build_F_M", "is_distributive"],
    "simpleness": ["is_congruence_simple", "principal_congruence",
                   "all_congruences", "is_ideal_simple", "generated_ideal",
                   "all_ideals", "tau_congruence", "radical_left"],
    "constructions": ["enumerate_semilattices", "enumerate_hemirings",
                      "matrix_semiring", "corner", "is_full_idempotent"],
    "semimodules": ["minimal_left_ideals", "double_centralizer_check",
                    "hom_semimodules"],
    "verify": ["run_suite", "classify", "dense_embedding_search"],
    "cli": ["main"],
}

SPAN_NAMES = [f"{m}.{f}" for m, fs in LAYERS.items() for f in fs]

# Outcome counters: span name -> (counter name, value taken from the result).
OUTCOMES = {
    "core.is_isomorphic": ("found", lambda r: int(r is not None)),
    "simpleness.is_congruence_simple": ("true", lambda r: int(r is True)),
    "constructions.enumerate_hemirings": ("classes", len),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, float, float, int]] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []

    def _wrap(self, name_id: int, fn):
        spans, stack = self.spans, self._stack
        name = SPAN_NAMES[name_id]
        outcome = OUTCOMES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append((name_id, 0.0, 0.0, parent))
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name_id, start, end, parent)
            if outcome is not None:
                key = f"{name}.{outcome[0]}"
                self.counters[key] = self.counters.get(key, 0) + outcome[1](result)
            return result

        return traced

    def install(self) -> None:
        """Bind a wrapper for each layer function into every hemirings
        namespace (the package and its modules) that holds the original."""
        for module in LAYERS:
            importlib.import_module(f"hemirings.{module}")
        modules = [m for n, m in sys.modules.items()
                   if n == "hemirings" or n.startswith("hemirings.")]
        for name_id, span in enumerate(SPAN_NAMES):
            module, fn_name = span.split(".")
            original = getattr(sys.modules[f"hemirings.{module}"], fn_name)
            wrapper = self._wrap(name_id, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def summary(self, since: float = float("-inf")) -> dict:
        """Calls, self time and outcome counters per span name, plus the
        time covered by root spans that start at or after ``since``."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = dict.fromkeys(SPAN_NAMES, 0)
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        covered = 0.0
        for i, (name_id, start, end, parent) in enumerate(self.spans):
            name = SPAN_NAMES[name_id]
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
            if parent < 0 and start >= since:
                covered += end - start
        return {"calls": calls, "self_s": self_s, "counters": dict(self.counters),
                "covered_s": covered}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": SPAN_NAMES,
                       "fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)
