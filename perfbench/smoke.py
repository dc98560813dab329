"""Smoke test of the benchmark itself, at tiny sizes (about half a minute).

    python3 perfbench/smoke.py

For every workload it checks that ``--trace 0`` prints every end-to-end
metric and ``--trace 1`` every per-layer metric of BENCHMARK.json, each
with its declared unit; that deliberately corrupted references make
operations fail, so the correctness gate is live; and that a directory
holding only the benchmark, without the package sources, exits non-zero
without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_work" / "smoke"


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke: FAILED: {message}")


def run(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "1",
                           "--tiny", *args], cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess, label: str) -> dict:
    check(proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"], f"{label}: keys")
    check(result["attempted"] >= 1, f"{label}: nothing attempted")
    return result


def corrupted_references(path: Path) -> None:
    """Every reference off by 0.1%."""
    refs = json.loads((HERE / "references.json").read_text(encoding="utf-8"))
    for table in ("transition", "tie_return"):
        refs[table] = {k: repr(float(v) * 1.001) for k, v in refs[table].items()}
    for entry in refs["chain"].values():
        entry["consensus"] *= 1.001
    path.write_text(json.dumps(refs), encoding="utf-8")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    try:
        bad_refs = SCRATCH / "corrupted.json"
        corrupted_references(bad_refs)
        for workload in (w["name"] for w in spec["workloads"]):
            for trace, units in declared.items():
                label = f"{workload} --trace {trace}"
                result = result_of(run(["--workload", workload, "--trace", str(trace)]), label)
                printed = {k: v["unit"] for k, v in result["metrics"].items()}
                check(printed == units, f"{label}: metrics {printed} != {units}")
                check(result["correct"] and result["failed"] == 0, f"{label}: operations failed")
            label = f"{workload} with corrupted references"
            result = result_of(run(["--workload", workload, "--references", str(bad_refs)]), label)
            share = result["metrics"]["ok_op_share"]["value"]
            check(result["failed"] > 0 and not result["correct"] and share < 1.0,
                  f"{label}: the correctness gate did not fire")
            print(f"smoke: {workload}: ok ({result['failed']} of {result['attempted']} "
                  f"operations fail on corrupted references)")

        bare = SCRATCH / "bare"
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        shutil.copy(HERE / "references.json", bare / "perfbench")
        proc = run(["--workload", "exact"], cwd=bare)
        check(proc.returncode != 0 and "metrics" not in proc.stdout,
              "a directory without src/ must exit non-zero without a result")
        print("smoke: a directory without the package exits", proc.returncode)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
        try:
            SCRATCH.parent.rmdir()
        except OSError:
            pass  # a benchmark run still uses it
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
