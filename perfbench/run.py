"""Benchmark of the hemirings workbench, end to end and layer by layer.

    python3 perfbench/run.py --workload {suites,classify,catalog} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  One closed-loop parent process runs the
workload's rounds one after another, each in a fresh worker process (at
most one at a time), until ``--seconds`` have passed and the workload's
minimum number of rounds is done.  Every output is checked against
``reference.json``; a mismatch or an exception counts as a failed
operation and does not stop the run.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one round
untraced and the same round traced, and prints per-layer calls and self
time for the public functions of each module (see ``tracer.py``).  The
last line of standard output is the JSON result; details, the environment
and the per-layer table go to earlier lines and to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import calib

HERE = Path(__file__).resolve().parent
OUT_DIR = Path(".bench_out")
SUITES = ["thm3_3", "cor3_8", "thm2_2", "cor5_8", "prop5_5", "prop5_3",
          "thm5_10", "thm5_7", "thm6_4_6_5", "thm6_7"]
SMALL_SUITES = ["prop5_3", "thm6_7"]
WORKLOADS = ("suites", "classify", "catalog")

# op_p50_ms and op_tail_ms are latencies at the quantiles 1/2 and TAIL_Q,
# each estimated as the mean of the QUANTILE_WINDOW order statistics centred on
# its rank; the minimum number of rounds leaves at least ten samples above
# the tail's window.
# For suites the quantile stays below the edge between the seven fast and
# the three slow suites, where one noisy sample would decide the value.
TAIL_Q = {"suites": Fraction(3, 5), "classify": Fraction(4, 5),
          "catalog": Fraction(9, 10)}
QUANTILE_WINDOW = 5
MIN_ROUNDS = {"suites": 3, "classify": 1, "catalog": 3}
# Extra fresh processes that only set up; classify rounds and catalog rounds
# also report their own set-up time.
SETUP_PROBES = {"suites": 5, "classify": 1, "catalog": 0}
CHILD_TIMEOUT_S = 150
LAST_ROUND_START_S = 100      # keeps a run well inside 180 s


def child_env() -> dict:
    """Environment of every worker: the library from ``src``, one BLAS or
    OpenMP thread, fixed hash seed."""
    env = dict(os.environ)
    env.update(PYTHONPATH="src", PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               NUMEXPR_NUM_THREADS="1", VECLIB_MAXIMUM_THREADS="1")
    return env


class Worker:
    """Starts one child at a time and waits for it to end."""

    def __init__(self):
        self.env = child_env()
        self.count = 0

    def run(self, argv: list[str]) -> tuple[subprocess.CompletedProcess | None, float]:
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, env=self.env, capture_output=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:    # run() has killed and reaped it
            proc = None
        return proc, time.perf_counter() - start

    def task(self, task: dict) -> tuple[dict | None, float, str]:
        """Run child.py on a task; its result, wall time and any error."""
        self.count += 1
        if task.get("trace"):
            task["spans_path"] = str(OUT_DIR / f"spans-{task['kind']}-{self.count}.json")
        proc, wall = self.run([sys.executable, str(HERE / "child.py"), json.dumps(task)])
        if proc is None:
            return None, wall, "timeout"
        if proc.returncode != 0:
            return None, wall, proc.stderr.decode(errors="replace")[-2000:]
        return json.loads(proc.stdout.decode().splitlines()[-1]), wall, ""


class Op(NamedTuple):
    name: str
    latency_s: float
    ok: bool
    factor: float     # machine speed factor around the operation (calib.py)

    @property
    def norm_s(self) -> float:
        return self.latency_s / self.factor


class Round:
    def __init__(self):
        self.ops: list[Op] = []
        self.setup_s: list[float] = []     # divided by the speed factor
        self.traces: list[dict] = []
        self.errors: list[str] = []

    @property
    def wall_s(self) -> float:
        return sum(op.latency_s for op in self.ops)

    @property
    def norm_wall_s(self) -> float:
        return sum(op.norm_s for op in self.ops)

    @property
    def speed(self) -> float:
        return statistics.median(op.factor for op in self.ops) if self.ops else 1.0

    def op(self, name: str, latency: float, ok: bool, factor: float, detail: str) -> None:
        self.ops.append(Op(name, latency, ok, factor))
        if not ok:
            self.errors.append(f"{name}: {detail}")

    def child_failed(self, name: str, wall: float, before: float, error: str) -> None:
        self.op(name, wall, False, before / calib.NOMINAL_S,
                f"worker failed: {error.strip()[-300:]}")

    def child_result(self, out: dict, before: float, trace: bool) -> None:
        """Set-up time and trace of a classify or catalog worker."""
        factor = (before + out["calib_s"][0]) / (2 * calib.NOMINAL_S)
        self.setup_s.append(out["setup_s"] / factor)
        if trace:
            self.traces.append(out["trace"])


# ------------------------------------------------------------ workloads

def suites_round(ctx: dict, index: int, trace: bool) -> Round:
    rnd = Round()
    names = list(SMALL_SUITES if ctx["small"] else SUITES)
    random.Random(f"suites/{ctx['seed']}/{index}").shuffle(names)
    before = calib.sample()
    for suite in names:
        want = ctx["ref"]["suites"][suite]
        if trace:
            out, wall, err = ctx["worker"].task({"kind": "suite", "suite": suite,
                                                 "trace": True})
            code, digest = (out["exit"], out["sha256"]) if out else (None, "")
        else:
            proc, wall = ctx["worker"].run(
                [sys.executable, "-m", "hemirings.cli", "verify", suite,
                 "--format", "structured"])
            out, err = proc, "timeout"
            code, digest = (proc.returncode, hashlib.sha256(proc.stdout).hexdigest()
                            ) if proc else (None, "")
        after = calib.sample()
        if out is None:
            rnd.child_failed(suite, wall, before, err)
        else:
            rnd.op(suite, wall, code == 0 and digest == want,
                   (before + after) / (2 * calib.NOMINAL_S),
                   f"exit {code}, sha256 {digest[:12]}")
            if trace:
                rnd.traces.append(out["trace"])
        before = after
    return rnd


def classify_ok(record: dict, want: list) -> bool:
    """Verdict fields equal those of the unrelabelled instance; element
    indices are mapped through the relabelling first."""
    if "error" in record:
        return False
    expected = []
    for key, value in want:
        if key == "infinite-element" and value != "none":
            value = str(record["perm"][int(value)])
        expected.append([key, value])
    return record.get("fields") == expected


def classify_round(ctx: dict, index: int, trace: bool) -> Round:
    rnd = Round()
    before = calib.sample()
    out, wall, err = ctx["worker"].task(dict(ctx["task"], kind="classify", round=index,
                                             trace=trace))
    if out is None:
        rnd.child_failed("classify round", wall, before, err)
        return rnd
    for rec in out["ops"]:
        want = ctx["ref"]["classify"].get(rec["name"])
        rnd.op(rec["name"], rec["latency_s"], want is not None and classify_ok(rec, want),
               calib.factor(out["calib_s"], rec["calib"]),
               rec.get("error", "verdict differs from reference"))
    rnd.child_result(out, before, trace)
    return rnd


CATALOG_COUNT_KEY = {"enumerate_semilattices": "semilattices",
                     "enumerate_hemirings": "hemirings",
                     "enumerate_hemirings_ai": "idempotent"}


def catalog_expected(ref: dict, small: bool, op: str, key: str):
    if op in CATALOG_COUNT_KEY:
        counts = ref["catalog_counts_small" if small else "catalog_counts"]
        return counts[CATALOG_COUNT_KEY[op]][int(key) - 1]
    if op in ("fingerprint", "canonical_form"):
        return ref["catalog_products"][key][op]
    return True      # is_isomorphic found a valid isomorphism / found none


def catalog_round(ctx: dict, index: int, trace: bool) -> Round:
    rnd = Round()
    before = calib.sample()
    out, wall, err = ctx["worker"].task(dict(ctx["task"], kind="catalog", round=index,
                                             trace=trace))
    if out is None:
        rnd.child_failed("catalog round", wall, before, err)
        return rnd
    for rec in out["ops"]:
        want = catalog_expected(ctx["ref"], ctx["small"], rec["op"], rec["key"])
        ok = "error" not in rec and rec.get("value") == want
        rnd.op(f"{rec['op']}({rec['key']})", rec["latency_s"], ok,
               calib.factor(out["calib_s"], rec["calib"]),
               rec.get("error", f"got {rec.get('value')!r}, expected {want!r}"))
    rnd.child_result(out, before, trace)
    return rnd


ROUNDS = {"suites": suites_round, "classify": classify_round,
          "catalog": catalog_round}


# --------------------------------------------------------------- metrics

def tail_rank(n: int, q: Fraction) -> int:
    """Nearest rank (1-based) of quantile q among n samples: ceil(q * n)."""
    return max(-(-q.numerator * n // q.denominator), 1)


def quantile(values: list[float], q: Fraction) -> float:
    """Mean of the QUANTILE_WINDOW order statistics centred on q's nearest rank,
    which damps the noise of any single sample."""
    ordered = sorted(values)
    centre = tail_rank(len(ordered), q) - 1
    lo = max(centre - QUANTILE_WINDOW // 2, 0)
    window = ordered[lo:lo + QUANTILE_WINDOW]
    return sum(window) / len(window)


def end_to_end(workload: str, rounds: list[Round], setup: list[float],
               attempted: int, failed: int) -> tuple[dict, dict]:
    """Times are divided by the speed factor measured around them
    (``calib.py``); ``details`` keeps the raw figures."""
    latencies = [op.norm_s for r in rounds for op in r.ops]
    q = TAIL_Q[workload]
    beyond = len(latencies) - tail_rank(len(latencies), q) - QUANTILE_WINDOW // 2
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(r.norm_wall_s for r in rounds), "s"),
        "op_p50_ms": (quantile(latencies, Fraction(1, 2)) * 1000, "ms"),
        "op_tail_ms": (quantile(latencies, q) * 1000, "ms"),
        "peak_rss_mb": (peak, "MB"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
    }
    raw = [op.latency_s for r in rounds for op in r.ops]
    details = {"rounds": len(rounds), "ops": len(latencies),
               "tail_percentile": float(q * 100), "tail_samples": len(latencies),
               "tail_samples_beyond": max(beyond, 0),
               "setup_samples": len(setup),
               "speed": [r.speed for r in rounds],
               "raw_wall_s": [r.wall_s for r in rounds],
               "raw_op_p50_ms": quantile(raw, Fraction(1, 2)) * 1000,
               "raw_op_tail_ms": quantile(raw, q) * 1000,
               "op_ms": sorted((op.norm_s * 1000, op.name) for r in rounds for op in r.ops)}
    return metrics, details


def per_layer(untraced: Round, traced: Round) -> dict:
    """Calls and self time per wrapped function in the traced round, and
    the trace's coverage and overhead against the same round untraced."""
    from tracer import SPAN_NAMES
    calls = dict.fromkeys(SPAN_NAMES, 0)
    self_s = dict.fromkeys(SPAN_NAMES, 0.0)
    counters: dict[str, int] = {}
    covered = 0.0
    for t in traced.traces:
        for name in SPAN_NAMES:
            calls[name] += t["calls"][name]
            self_s[name] += t["self_s"][name]
        for key, value in t["counters"].items():
            counters[key] = counters.get(key, 0) + value
        covered += t["covered_s"]
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.self_s"] = (self_s[name] / traced.speed, "s")

    def ratio(span: str, outcome: str) -> float:
        return counters.get(f"{span}.{outcome}", 0) / calls[span] if calls[span] else 0.0

    metrics["core.is_isomorphic.found_ratio"] = (ratio("core.is_isomorphic", "found"), "ratio")
    metrics["simpleness.is_congruence_simple.true_ratio"] = (
        ratio("simpleness.is_congruence_simple", "true"), "ratio")
    metrics["constructions.enumerate_hemirings.classes"] = (
        counters.get("constructions.enumerate_hemirings.classes", 0), "count")
    metrics["trace.coverage"] = (covered / traced.wall_s if traced.wall_s else 0.0, "ratio")
    metrics["trace.overhead_s"] = (
        traced.norm_wall_s - untraced.norm_wall_s, "s")
    return metrics


# ----------------------------------------------------------- environment

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git when there is one."""
    git = Path(".git")
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ------------------------------------------------------------------ main

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--reference", default=str(HERE / "reference.json"),
                   help="reference outputs (the self-test passes a corrupted copy)")
    p.add_argument("--small", action="store_true",
                   help="self-test size: small inputs, one round")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not Path("src/hemirings/__init__.py").is_file():
        sys.stderr.write("run from the repository root: src/hemirings not found\n")
        return 2
    with open(args.reference, encoding="utf-8") as fh:
        ref = json.load(fh)
    OUT_DIR.mkdir(exist_ok=True)
    worker = Worker()
    ctx = {"ref": ref, "seed": args.seed, "small": args.small, "worker": worker,
           "task": {"seed": args.seed, "small": args.small,
                    "reference": str(Path(args.reference).resolve())}}

    # warm-up: byte-compiles the package and fills the file cache
    versions, _, err = worker.task({"kind": "import"})
    if versions is None:
        sys.stderr.write(f"cannot import hemirings: {err}\n")
        return 2

    run_round = ROUNDS[args.workload]
    rounds: list[Round] = []
    setup: list[float] = []
    if args.trace:
        rounds = [run_round(ctx, 0, False), run_round(ctx, 0, True)]
    else:
        for _ in range(1 if args.small else SETUP_PROBES[args.workload]):
            before = calib.sample()
            if args.workload == "classify":
                out, _, err = worker.task(dict(ctx["task"], kind="classify", round=0,
                                               setup_only=True))
            else:
                out, _, err = worker.task({"kind": "import"})
            if out is None:
                sys.stderr.write(f"set-up probe failed: {err}\n")
                return 2
            setup.append(out["setup_s"] * 2 * calib.NOMINAL_S / (before + calib.sample()))
        min_rounds = 1 if args.small else MIN_ROUNDS[args.workload]
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            rounds.append(run_round(ctx, len(rounds), False))
            now = time.perf_counter()
            # stop when another round like the last would overrun --seconds
            if len(rounds) >= min_rounds and 2 * now - start - round_start > args.seconds:
                break
            if now - start > LAST_ROUND_START_S:
                break
    for r in rounds:
        setup.extend(r.setup_s)

    attempted = sum(len(r.ops) for r in rounds)
    failed = sum(1 for r in rounds for op in r.ops if not op.ok)
    env = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
           "nproc": os.cpu_count(), "cpu_model": cpu_model(),
           "python": versions["python"], "numpy": versions["numpy"],
           "hemirings": versions["hemirings"], "commit": git_commit(),
           "child_threads": 1, "workers_at_once": 1}
    if args.trace:
        metrics = per_layer(rounds[0], rounds[1])
        details = {"raw_wall_s": [r.wall_s for r in rounds],
                   "speed": [r.speed for r in rounds]}
        table = sorted((k for k in metrics if k.endswith(".self_s")),
                       key=lambda k: -metrics[k][0])
        for k in table:
            calls = metrics[k[:-len("self_s")] + "calls"][0]
            if calls:
                print(f"layer {k[:-7]:45s} calls {calls:8d}  self {metrics[k][0]:9.4f} s")
    else:
        metrics, details = end_to_end(args.workload, rounds, setup, attempted, failed)
    errors = [e for r in rounds for e in r.errors]
    for e in errors[:20]:
        print(f"failed: {e}")
    print("env: " + json.dumps(env))
    print("details: " + json.dumps({k: v for k, v in details.items() if k != "op_ms"}))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    with open(OUT_DIR / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, "details": details, "errors": errors, "result": result},
                  fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
