"""Worker process of the benchmark: one fresh interpreter per task.

    python perfbench/child.py '<json task>'

The task's ``kind`` is ``import``, ``classify``, ``catalog`` or ``suite``.
The last line of standard output is one JSON object with the task's
timings and raw outputs; ``run.py`` compares those against the reference.
Setup time is measured from before ``import hemirings``, so this file
imports only the standard library at module level.
"""

import contextlib
import hashlib
import io
import json
import sys
import time


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def timed(ops: list, fn, record: dict, samples) -> object:
    """Run one operation, recording its latency or the exception it raised,
    and the calibration sample before it."""
    record["calib"] = samples.index()
    start = time.perf_counter()
    try:
        result = fn()
    except Exception as exc:           # counted as a failed operation
        result = None
        record["error"] = f"{type(exc).__name__}: {exc}"
    record["latency_s"] = time.perf_counter() - start
    ops.append(record)
    samples.after_op()
    return result


def start_tracer(task: dict):
    if not task.get("trace"):
        return None
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    return tracer


def finish(out: dict, tracer, task: dict, ops_start: float) -> dict:
    if tracer is not None:
        out["trace"] = tracer.summary(since=ops_start)
        tracer.write(task["spans_path"])
    return out


def task_import(task: dict) -> dict:
    t0 = time.perf_counter()
    import hemirings
    setup = time.perf_counter() - t0
    import numpy
    return {"setup_s": setup, "numpy": numpy.__version__,
            "hemirings": hemirings.__version__,
            "python": sys.version.split()[0]}


def task_classify(task: dict) -> dict:
    t0 = time.perf_counter()
    import hemirings as hr
    import instances as ins
    tracer = start_tracer(task)
    ref = load(task["reference"])
    seed, rnd = task["seed"], task["round"]
    batch = []
    for R, copies in ins.classify_pool(ref["classify_inputs"], task["small"]):
        for copy in range(copies):
            perm = ins.random_perm(R.order, "classify", seed, rnd, R.name, copy)
            batch.append((R.name, perm, ins.relabel(R, perm)))
    ins.rng("classify-order", seed, rnd).shuffle(batch)
    setup = time.perf_counter() - t0
    if task.get("setup_only"):
        return {"setup_s": setup}
    import calib
    ops: list = []
    samples = calib.Samples()
    ops_start = time.perf_counter()
    for name, perm, R in batch:
        record = {"name": name, "perm": perm}
        fields = timed(ops, lambda: hr.classify(R), record, samples)
        if fields is not None:
            record["fields"] = [list(f) for f in fields]
    samples.close()
    return finish({"setup_s": setup, "ops": ops, "calib_s": samples.values}, tracer,
                  task, ops_start)


def is_isomorphism(R, S, f) -> bool:
    import numpy as np
    m = np.asarray(f)
    if len(set(f)) != R.order or m[R.zero] != S.zero:
        return False
    if R.one is not None and m[R.one] != S.one:
        return False
    return bool((S.add[np.ix_(m, m)] == m[R.add]).all()
                and (S.mul[np.ix_(m, m)] == m[R.mul]).all())


def task_catalog(task: dict) -> dict:
    t0 = time.perf_counter()
    import hemirings as hr
    import instances as ins
    tracer = start_tracer(task)
    ref = load(task["reference"])
    seed, rnd, small = task["seed"], task["round"], task["small"]
    items = []
    for item in ins.catalog_plan(ref, seed, rnd, small):
        P = ins.build_product(ref, item["factors"])
        Q = ins.build_product(ref, item["partner"])
        key = item["perm_key"]
        P1 = ins.relabel(P, ins.random_perm(P.order, "sigma1", *key))
        P2 = ins.relabel(P, ins.random_perm(P.order, "sigma2", *key))
        Q3 = ins.relabel(Q, ins.random_perm(Q.order, "sigma3", *key))
        items.append((item["key"], P1, P2, Q3))
    setup = time.perf_counter() - t0
    counts = ref["catalog_counts_small" if small else "catalog_counts"]
    enumerations = [
        ("enumerate_semilattices", lambda n: hr.enumerate_semilattices(n), "semilattices"),
        ("enumerate_hemirings", lambda n: hr.enumerate_hemirings(n), "hemirings"),
        ("enumerate_hemirings_ai",
         lambda n: hr.enumerate_hemirings(n, additively_idempotent=True), "idempotent"),
    ]
    import calib
    ops: list = []
    samples = calib.Samples()
    ops_start = time.perf_counter()
    for op, fn, kind in enumerations:
        for n in range(1, len(counts[kind]) + 1):
            record = {"op": op, "key": str(n)}
            found = timed(ops, lambda: fn(n), record, samples)
            if found is not None:
                record["value"] = len(found)
    for key, P1, P2, Q3 in items:
        record = {"op": "fingerprint", "key": key}
        record["value"] = timed(ops, lambda: hr.core.fingerprint(P1), record, samples)
        record = {"op": "canonical_form", "key": key}
        form = timed(ops, lambda: hr.core.canonical_form(P2), record, samples)
        if form is not None:
            record["value"] = hashlib.sha256(repr(form).encode()).hexdigest()[:16]
        record = {"op": "is_isomorphic", "key": key}
        iso = timed(ops, lambda: hr.is_isomorphic(P2, P1), record, samples)
        record["value"] = iso is not None and is_isomorphism(P2, P1, iso.map)
        record = {"op": "is_isomorphic_partner", "key": key}
        iso = timed(ops, lambda: hr.is_isomorphic(P1, Q3), record, samples)
        record["value"] = "error" not in record and iso is None
    samples.close()
    return finish({"setup_s": setup, "ops": ops, "calib_s": samples.values}, tracer,
                  task, ops_start)


def task_suite(task: dict) -> dict:
    """One suite through ``hemirings.cli.main``, traced."""
    import hemirings.cli
    tracer = start_tracer(task)
    buf = io.StringIO()
    ops_start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = hemirings.cli.main(["verify", task["suite"], "--format", "structured"])
    out = {"exit": code,
           "sha256": hashlib.sha256(buf.getvalue().encode()).hexdigest()}
    return finish(out, tracer, task, ops_start)


TASKS = {"import": task_import, "classify": task_classify,
         "catalog": task_catalog, "suite": task_suite}


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    result = TASKS[spec["kind"]](spec)
    sys.stdout.write(json.dumps(result) + "\n")
