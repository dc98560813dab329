"""smpsim benchmark: repeated single-process passes of one workload.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 50 --trace 0

Every pass is a fresh interpreter (``one_pass.py``) running with
``workers=1`` and single-threaded BLAS/OpenMP, so the transition memo cache
and log-factorial table start cold, as for a ``smpsim`` CLI user.  Passes
are started until ``--seconds`` would be exceeded (at least three).
``pass_s`` is the fastest pass (best of k): on a shared machine
interference only ever slows a pass down.  ``setup_s`` and ``peak_rss_mb``
are medians over the passes.  Units are read from ``BENCHMARK.json``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes, all at the first pass seed so every traced
pass repeats the same work, and prints the per-layer metrics of the fastest
traced pass; ``trace.pass_s`` is that pass's time and ``trace.overhead_s``
that minus the fastest untraced pass.

Standard output carries one provenance record, one record per pass, and
as its last line the result object.  The exit status is 0 when a result
is printed, 2 for bad arguments or a checkout without ``src/smpsim``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("mc-sampling", "exact")
MIN_PASSES = 3
#: A run must end within 180 s: no interpreter is started that is expected
#: to end later than this many seconds into the run, even below the minimum
#: pass count, and each is killed 20 s after it.
DEADLINE_S = 150.0
THREAD_ENV = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
}


def pass_seed(workload: str, seed: int, index: int) -> int:
    """Master seed of pass ``index``: a fixed function of the run's seed."""
    digest = hashlib.sha256(f"smpsim-bench:{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(args) -> dict:
    try:
        loadavg = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        loadavg = None
    affinity = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "git_sha": git_sha(), "src_sha256": source_digest(),
        "nproc": os.cpu_count(), "nproc_available": len(affinity) if affinity else None,
        "loadavg_start": loadavg, "python": sys.version.split()[0],
        "child_thread_env": THREAD_ENV,
    }


def run_one(args, index: int, seed: int, mode: str, prov: dict, timeout: float) -> dict:
    """One child interpreter in ``mode`` (plain or traced).

    A crash or timeout yields a record marked ``crashed``; ``summarise``
    counts every operation of that pass as failed.
    """
    result_file = args.work_dir / f"result-{index}.json"
    env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(SRC)}
    cmd = [
        sys.executable, str(HERE / "one_pass.py"), "--workload", args.workload,
        "--seed", str(seed), "--trace", "1" if mode == "traced" else "0",
        "--references", str(args.references), "--result-file", str(result_file),
        "--provenance", json.dumps(prov),
    ] + (["--tiny"] if args.tiny else [])
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
        lines = proc.stdout.strip().splitlines()
        record = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        if record is None:
            sys.stderr.write(proc.stderr)
    except subprocess.TimeoutExpired:
        record = None
        print(f"pass {index} timed out after {timeout:.0f} s", file=sys.stderr)
    if record is None:
        record = {"seed": seed, "crashed": True}
    record.update(index=index, mode=mode, wall_s=time.perf_counter() - start)
    return record


def run_passes(args, prov: dict) -> list[dict]:
    """Start passes until the next would overrun ``--seconds``."""
    start = time.perf_counter()
    records: list[dict] = []

    def fits(limit: float) -> bool:
        """Whether another interpreter is expected to end by ``limit``."""
        if not records:
            return True
        elapsed = time.perf_counter() - start
        return elapsed + statistics.median(r["wall_s"] for r in records) <= min(limit, DEADLINE_S)

    def launch(mode: str, seed: int) -> bool:
        elapsed = time.perf_counter() - start
        record = run_one(args, len(records), seed, mode, prov,
                         timeout=max(DEADLINE_S + 20.0 - elapsed, 1.0))
        print(json.dumps(record))
        records.append(record)
        return not record.get("crashed")

    if args.trace:
        # untraced and traced passes alternate, all at the first pass seed
        seed = pass_seed(args.workload, args.seed, 0)
        while (len(records) < 4 and fits(DEADLINE_S)) or fits(args.seconds):
            if not launch("traced" if len(records) % 2 else "plain", seed):
                break
        return records
    while (len(records) < MIN_PASSES and fits(DEADLINE_S)) or fits(args.seconds):
        if not launch("plain", pass_seed(args.workload, args.seed, len(records))):
            break
    return records


def summarise(args, records: list[dict], units: dict[str, str]) -> dict:
    passes = [r for r in records if not r.get("crashed")]
    # Every pass of a run asks the same questions, so a crashed pass failed
    # as many operations as a completed one checked.
    ops_per_pass = max(r["ops"] for r in passes)
    attempted = sum(ops_per_pass if r.get("crashed") else r["ops"] for r in records)
    failed = sum(ops_per_pass if r.get("crashed") else len(r["failed"]) for r in records)
    if args.trace:
        traced = [r for r in passes if r["mode"] == "traced"]
        plain = [r for r in passes if r["mode"] == "plain"]
        fastest = min(traced, key=lambda r: r["pass_s"], default=None)
        metrics = dict(fastest["layers"]) if fastest else {}
        pass_traced = fastest["pass_s"] if fastest else 0.0
        pass_plain = min(r["pass_s"] for r in plain) if plain else 0.0
        metrics["trace.pass_s"] = pass_traced
        metrics["trace.overhead_s"] = pass_traced - pass_plain
    else:
        digits = [r["correct_digits"] for r in passes if r["correct_digits"] is not None]
        metrics = {
            "setup_s": statistics.median(r["setup_s"] for r in passes),
            "pass_s": min(r["pass_s"] for r in passes),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in passes),
            "ok_op_share": (attempted - failed) / attempted,
            "correct_digits": min(digits) if digits else 0.0,
        }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrunken sizes for the smoke test")
    parser.add_argument("--references", type=Path, default=HERE / "references.json")
    args = parser.parse_args(argv)
    if not (SRC / "smpsim" / "__init__.py").is_file():
        print(f"no smpsim sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    prov = provenance(args)
    print(json.dumps({"provenance": prov}))
    args.work_dir = WORK / str(os.getpid())
    args.work_dir.mkdir(parents=True, exist_ok=True)
    try:
        records = run_passes(args, prov)
    finally:
        shutil.rmtree(args.work_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    if not any(not r.get("crashed") for r in records):
        print("no pass completed; no result", file=sys.stderr)
        return 1
    result = summarise(args, records, units)
    m = result["metrics"]
    print(f"{args.workload}: {len(records)} interpreters, {result['failed']} of "
          f"{result['attempted']} operations failed", file=sys.stderr)
    for name, entry in m.items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
