"""Self-test of the benchmark at a small size.

    python3 perfbench/selftest.py      # from the repository root

For each workload it checks that a small untraced run prints every
end-to-end metric of BENCHMARK.json, and a small traced run every
per-layer metric, each with its unit and with no failed operation; that a
run against a reference with one corrupted entry still finishes and counts
the mismatch as a failed operation; and that the benchmark exits non-zero
without a result where the package sources are missing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

OUT = Path(".bench_out")
REFERENCE = Path("perfbench/reference.json")
TIMEOUT_S = 170


def corrupt(ref: dict, workload: str) -> None:
    """Change one reference entry that the small run of the workload checks."""
    if workload == "suites":
        ref["suites"]["prop5_3"] = "0" * 64
    elif workload == "classify":
        fields = ref["classify"]["M_2(GF(2))"]
        fields[[k for k, _ in fields].index("order")][1] = "17"
    else:
        ref["catalog_counts_small"]["hemirings"][1] += 1


def run(args: list[str], cwd: str = ".") -> tuple[int, str]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=TIMEOUT_S)
    return proc.returncode, proc.stdout


def result_of(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def check(cond: bool, message: str, problems: list) -> None:
    print(("ok   " if cond else "FAIL ") + message)
    if not cond:
        problems.append(message)


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    OUT.mkdir(exist_ok=True)
    problems: list[str] = []
    for w in spec["workloads"]:
        name = w["name"]
        base = ["--workload", name, "--seed", "1", "--seconds", "1", "--small"]
        for trace in (0, 1):
            code, out = run(base + ["--trace", str(trace)])
            check(code == 0, f"{name} trace {trace}: exit 0", problems)
            if code != 0:
                continue
            res = result_of(out)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == wanted[trace], f"{name} trace {trace}: every metric with its unit",
                  problems)
            check(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                  f"{name} trace {trace}: no failed operation", problems)
        ref = json.loads(REFERENCE.read_text())
        corrupt(ref, name)
        bad = OUT / f"reference-corrupt-{name}.json"
        bad.write_text(json.dumps(ref))
        code, out = run(base + ["--trace", "0", "--reference", str(bad)])
        check(code == 0, f"{name} corrupted reference: run finishes", problems)
        if code == 0:
            res = result_of(out)
            check(res["failed"] >= 1 and not res["correct"]
                  and res["metrics"]["ok_frac"]["value"] < 1,
                  f"{name} corrupted reference: failure counted", problems)

    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir()
    shutil.copy("BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    code, out = run(["--workload", "classify", "--seed", "1", "--seconds", "1",
                     "--trace", "0"], cwd=str(bare))
    check(code != 0 and not out.strip(), "without sources: non-zero exit, no result",
          problems)
    shutil.rmtree(bare)

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
