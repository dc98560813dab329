"""One benchmark pass in a fresh interpreter: set up, run, check, report.

Run by ``run.py`` with ``src`` on ``PYTHONPATH``; prints one JSON record.
The memo cache and log-factorial table of ``smpsim`` start cold here, as
they do for every ``smpsim`` command a user runs.

    python3 perfbench/one_pass.py --workload exact --seed 7 --trace 0 \
        --references perfbench/references.json --result-file out.json
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time

_T0 = time.perf_counter()

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import smpsim  # noqa: E402
from smpsim import analytics, engine, experiments, io, model, rng  # noqa: E402

#: Sizes per workload.  ``tiny`` keeps the questions and shrinks them for
#: the smoke test; the references cover both.
SIZES = {
    "full": {
        "mc-sampling": {"tie_n": [400, 1600], "tie_trials": 300_000, "per_agent_trials": 300_000},
        "exact": {
            "chain_n": 500, "qs": [0.2, 0.5, 0.8],
            "grid_n": [10_000, 100_000], "offsets": list(range(0, 381, 20)),
        },
    },
    "tiny": {
        "mc-sampling": {"tie_n": [400, 1600], "tie_trials": 20_000, "per_agent_trials": 20_000},
        "exact": {"chain_n": 50, "qs": [0.5], "grid_n": [10_000], "offsets": [0, 380]},
    },
}

TIE_Q = 0.5
GRID_Q = 0.5
ROUNDS = 3
#: Relative error above which an exact value counts as a failed operation.
EXACT_TOLERANCE = 1e-9
#: Half-width of the band, in standard errors, that a Monte Carlo rate must
#: fall in around its reference.
SE_BAND = 5.0
#: Cap of ``correct_digits``: relative error below 1e-16 reads as 16.
MAX_DIGITS = 16.0


def build_configs(workload: str) -> dict:
    if workload == "mc-sampling":
        network = model.NetworkModel(q=TIE_Q)
        return {"per_agent": model.ProtocolConfig(n=2, delta=0, rounds=1, network=network)}
    return {}


# --------------------------------------------------------------------------
# The timed questions of each workload; every call goes through the module
# attribute so that traced runs see it.
# --------------------------------------------------------------------------


def pass_mc_sampling(size: dict, configs: dict, seed: int):
    sweep = experiments.return_to_symmetry_rate(size["tie_n"], TIE_Q, size["tie_trials"], seed)
    trials = size["per_agent_trials"]
    zeros = experiments.final_zeros_sample(
        configs["per_agent"], trials, seed, mode=engine.MODE_PER_AGENT
    )
    per_agent = tuple(
        experiments.SweepRow(
            n=2, delta=0, q=TIE_Q, rounds=1, event=f"per_agent_zeros={k}",
            estimate=experiments.Estimate.from_counts(int(count), trials),
        )
        for k, count in enumerate(np.bincount(zeros, minlength=5))
    )
    return experiments.SweepResult(
        kind="return_to_symmetry", rows=sweep.rows + per_agent, metadata=sweep.metadata
    )


def pass_exact(size: dict, configs: dict, seed: int):
    rows = []
    n = size["chain_n"]
    for q in size["qs"]:
        p_cons, _ = engine.exact_chain_consensus_probability(n, 0, q, ROUNDS)
        rows.append(
            experiments.SweepRow(n=n, delta=0, q=q, rounds=ROUNDS, event="consensus", exact=p_cons)
        )
    for n in size["grid_n"]:
        for a in size["offsets"]:
            for event, fn in (("keep_zero", analytics.keep_zero_probability),
                              ("adopt_zero", analytics.adopt_zero_probability)):
                rows.append(
                    experiments.SweepRow(n=n, delta=a, q=GRID_Q, rounds=1, event=event,
                                         exact=fn(n + a, n - a, GRID_Q))
                )
    return experiments.SweepResult(kind="exact_queries", rows=tuple(rows))


PASSES = {"mc-sampling": pass_mc_sampling, "exact": pass_exact}


def run_pass(workload, size, configs, seed, manifest_config, result_path):
    """The timed pass: the workload's questions plus one result-file round trip."""
    payload = PASSES[workload](size, configs, seed)
    manifest = io.RunManifest.create(
        master_seed=seed, config=manifest_config,
        command_line=f"perfbench {workload} --seed {seed}",
    )
    written = io.ResultFile(manifest=manifest, payload=payload)
    io.write_results(written, "json", result_path)
    return written, io.read_result_file(result_path)


# --------------------------------------------------------------------------
# Correctness checks, run after the timed pass with tracing off.  Each
# operation yields (name, passed, digits): digits is -log10 of the relative
# error against a 40-digit reference, or None for a statistical check.
# --------------------------------------------------------------------------


def digits_of(value: float, reference: float) -> float:
    rel = abs(value - reference) / abs(reference)
    return MAX_DIGITS if rel == 0.0 else min(MAX_DIGITS, -math.log10(rel))


def exact_check(name: str, value: float, reference: float):
    digits = digits_of(value, reference)
    return name, digits >= -math.log10(EXACT_TOLERANCE), digits


def within_band(successes: int, trials: int, p: float) -> bool:
    """|successes/trials - p| within SE_BAND standard errors of the rate."""
    sd = math.sqrt(p * (1.0 - p) / trials)
    if sd == 0.0:
        return successes == round(p * trials)
    return abs(successes / trials - p) <= SE_BAND * sd


def transition_checks(refs: dict, points):
    """Kernel values the pass used, against their 40-digit references."""
    out = []
    for kind, z, o, q in points:
        fn = analytics.keep_zero_probability if kind == "keep" else analytics.adopt_zero_probability
        key = f"{kind}:{z}:{o}:{q}"
        out.append(exact_check(key, fn(z, o, q), float(refs["transition"][key])))
    return out


def check_mc_sampling(size, payload, refs):
    rows = {(r.n, r.event): r for r in payload.rows}
    out = []
    for n in size["tie_n"]:
        law = engine.aggregated_round_distribution(model.OpinionCounts(n, n), TIE_Q)
        p_tie = float(law.probabilities[n])
        name, exact_ok, digits = exact_check(
            f"tie_law:{n}", p_tie, float(refs["tie_return"][f"{n}:{TIE_Q}"])
        )
        est = rows[n, "returned_to_tie"].estimate
        out.append((f"return_to_tie:{n}", exact_ok and within_band(est.successes, est.trials, p_tie),
                    digits))
    exh = engine.exhaustive_round_distribution(model.OpinionCounts(2, 2), TIE_Q).probabilities
    bins_ok = all(
        within_band(rows[2, f"per_agent_zeros={k}"].estimate.successes,
                    size["per_agent_trials"], float(exh[k]))
        for k in range(5)
    )
    out.append(("per_agent_histogram:2", bins_ok, None))
    points = [(kind, n, n, TIE_Q) for n in size["tie_n"] for kind in ("keep", "adopt")]
    return out + transition_checks(refs, points)


def check_exact(size, payload, refs):
    out = []
    for row in payload.rows:
        if row.event == "consensus":
            ref = refs["chain"][f"{row.n}:0:{row.q}:{row.rounds}"]
            # The chain reference is an independent double-precision
            # computation, so it gates failures but does not feed digits.
            name, ok, _ = exact_check(f"chain:{row.n}:{row.q}", row.exact, ref["consensus"])
            out.append((name, ok, None))
        else:
            kind = row.event.split("_")[0]
            key = f"{kind}:{row.n + row.delta}:{row.n - row.delta}:{row.q}"
            out.append(exact_check(key, row.exact, float(refs["transition"][key])))
    return out


CHECKS = {"mc-sampling": check_mc_sampling, "exact": check_exact}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PASSES))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--references", required=True)
    parser.add_argument("--result-file", required=True)
    parser.add_argument("--provenance", default="{}", help="JSON object stored in the manifest")
    args = parser.parse_args(argv)

    size = SIZES["tiny" if args.tiny else "full"][args.workload]
    configs = build_configs(args.workload)
    setup_s = time.perf_counter() - _T0

    with open(args.references, encoding="utf-8") as fh:
        refs = json.load(fh)
    manifest_config = {"workload": args.workload, "tiny": args.tiny, "sizes": size,
                       "provenance": json.loads(args.provenance)}
    tracer = None
    if args.trace:
        import spans  # benchmark code, kept out of the untraced interpreter

        tracer = spans.Tracer()
        tracer.install((analytics, engine, experiments, io, rng))
        tracer.enabled = True

    start = time.perf_counter()
    written, read_back = run_pass(
        args.workload, size, configs, args.seed, manifest_config, args.result_file
    )
    pass_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.enabled = False

    checks = CHECKS[args.workload](size, written.payload, refs)
    checks.append(("result_file_round_trip", read_back == written, None))
    os.remove(args.result_file)
    digits = [d for _, _, d in checks if d is not None]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "pass_s": pass_s,
        "peak_rss_mb": peak_rss_mb,
        "ops": len(checks),
        "failed": [name for name, ok, _ in checks if not ok],
        "correct_digits": min(digits) if digits else None,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__, "smpsim": smpsim.__version__},
        "layers": tracer.metrics() if tracer is not None else None,
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
