"""Self-verification suite: one runnable check per acceptance criterion.

Each criterion is a deterministic function of (master_seed, workers) with
its tolerances pinned here.  ``run_verification`` executes a selection,
prints one pass/fail line per criterion, and writes one result file per
criterion whose bytes depend only on the seed (worker counts never change
any draw, and timing information is kept out of the files).
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import DEFAULT_MASTER_SEED, analytics, io
from .engine import (
    CountDistribution,
    aggregated_round_distribution,
    exact_chain_consensus_probability,
    exhaustive_round_distribution,
    MODE_PER_AGENT,
)
from .experiments import (
    Estimate,
    estimate_event_probability,
    final_zeros_sample,
    return_to_symmetry_rate,
    symmetry_break_statistics,
    theorem2_suite,
)
from .model import NetworkModel, OpinionCounts, ProtocolConfig

__all__ = [
    "CriterionResult", "CRITERIA", "criterion_result_file", "run_criterion", "run_verification",
]

# Independently computed (40-digit arithmetic) reference for the closed-form
# single-round error bound at (n=100, A=50, q=0.5).
_PROP1_REFERENCE_100_50 = 1.290950527245596e-3

# Exact three-round consensus probability from a tie at n = 10^4, per q.
# Regenerate with tests/oracles.py: consensus_from_tie_probability(10_000, q, 3)
# (scipy.stats.binom only, no smpsim code; minutes per q).
_P3_REFERENCE_10000 = {
    0.2: 0.9932539395807196,
    0.5: 0.9715859008369633,
    0.8: 0.8866878989034689,
}

_PHI_SQRT2 = analytics.std_normal_cdf(math.sqrt(2.0))


@dataclass(frozen=True)
class CriterionResult:
    criterion: int
    title: str
    passed: bool
    details: dict[str, Any]
    elapsed_seconds: float


def _criterion_1(seed: int, workers: int) -> tuple[bool, dict[str, Any]]:
    """Exhaustive-oracle equivalence for tiny systems, both sampling paths."""
    max_diff = 0.0
    for total in (2, 4, 6):
        for z in range(total + 1):
            counts = OpinionCounts(zeros=z, ones=total - z)
            for q in (0.25, 0.5, 0.75):
                exh = exhaustive_round_distribution(counts, q)
                agg = aggregated_round_distribution(counts, q)
                diff = float(np.abs(exh.probabilities - agg.probabilities).max())
                max_diff = max(max_diff, diff)
    conv_ok = max_diff <= 1e-12

    tv_values = {}
    trials = 1_000_000
    for delta, q in ((0, 0.5), (1, 0.25)):
        config = ProtocolConfig(n=2, delta=delta, rounds=1, network=NetworkModel(q=q))
        zeros = final_zeros_sample(
            config, trials, seed, workers=workers, mode=MODE_PER_AGENT
        )
        empirical = CountDistribution(np.bincount(zeros, minlength=5) / trials)
        exact = exhaustive_round_distribution(config.initial_state(), q)
        tv_values[f"delta={delta},q={q}"] = empirical.total_variation(exact)
    tv_ok = all(v <= 0.01 for v in tv_values.values())

    return conv_ok and tv_ok, {
        "max_entrywise_diff": max_diff,
        "entrywise_tolerance": 1e-12,
        "per_agent_tv": tv_values,
        "tv_tolerance": 0.01,
        "per_agent_trials": trials,
    }


def _criterion_2(seed: int, workers: int) -> tuple[bool, dict[str, Any]]:
    """Single-round majority consensus under a strong n^(3/4) imbalance."""
    n, delta, q = 10_000, 1_000, 0.5
    config = ProtocolConfig(n=n, delta=delta, rounds=1, network=NetworkModel(q=q))
    err = estimate_event_probability(
        config, "majority_consensus_failure", 100_000, seed, workers=workers
    )
    bound = analytics.prop1_error_bound(n, delta, q)
    value_100_50 = analytics.prop1_error_bound(100, 50, 0.5)
    calculator_ok = (
        abs(value_100_50 / _PROP1_REFERENCE_100_50 - 1.0) < 5e-4
        and format(value_100_50, ".4g") == "0.001291"
    )
    return (err.successes == 0) and calculator_ok, {
        "failures": err.successes,
        "trials": err.trials,
        "bound_at_point": bound,
        "bound_value_100_50": value_100_50,
        "bound_reference_100_50": _PROP1_REFERENCE_100_50,
    }


def _criterion_3(seed: int, workers: int) -> tuple[bool, dict[str, Any]]:
    """Growth-rate trichotomy via exact keep probabilities, no sampling."""
    n, q = 10_000, 0.5
    keep, _ = analytics.transition_values(2 * n, [n, n + 100, n + 1_000], q)
    p_tied, p_sqrt, p_power = keep.tolist()
    ok_tied = 0.5 < p_tied < 0.52
    ok_sqrt = abs(p_sqrt - _PHI_SQRT2) <= 0.01
    ok_power = p_power >= 0.999
    return ok_tied and ok_sqrt and ok_power, {
        "p_tied": p_tied,
        "p_sqrt_scaled": p_sqrt,
        "p_power": p_power,
        "normal_cdf_sqrt2": _PHI_SQRT2,
        "tolerances": {"tied": "(0.5, 0.52)", "sqrt": 0.01, "power": 0.999},
    }


def _criterion_4(seed: int, workers: int) -> tuple[bool, dict[str, Any]]:
    """Round-1 fluctuation law from a tie: variance near 1/2, mean near 0."""
    stats = symmetry_break_statistics(10_000, 0.5, 10_000, seed, workers=workers)
    ok = 0.45 <= stats.variance <= 0.55 and -0.03 <= stats.mean <= 0.03
    return ok, {
        "mean": stats.mean,
        "variance": stats.variance,
        "trials": stats.trials,
        "variance_window": [0.45, 0.55],
        "mean_window": [-0.03, 0.03],
    }


def _criterion_5(seed: int, workers: int) -> tuple[bool, dict[str, Any]]:
    """Three rounds from a tie: the rate matches its exact value and rises toward 1.

    Theorem 1 promises consensus with probability approaching 1 and no rate
    at any finite n, so each q is checked against the model's own exact
    three-round probability: the Wilson interval must cover the pinned
    P3(10^4, q), and the exact chain must rise from n = 100 to n = 500 with
    the n = 10^4 interval lying above P3(500, q).
    """
    n, trials = 10_000, 1_000
    checks = {}
    ok = True
    for q, exact in _P3_REFERENCE_10000.items():
        config = ProtocolConfig(n=n, delta=0, rounds=3, network=NetworkModel(q=q))
        est = estimate_event_probability(config, "consensus", trials, seed, workers=workers)
        chain_100, _ = exact_chain_consensus_probability(100, 0, q, 3)
        chain_500, _ = exact_chain_consensus_probability(500, 0, q, 3)
        covers = est.covers(exact)
        rising = chain_100 < chain_500 < est.ci_low
        passed = covers and rising
        ok = ok and passed
        checks[f"q={q}"] = {
            "rate": est.p_hat,
            "ci": [est.ci_low, est.ci_high],
            "exact": exact,
            "exact_chain": {"100": chain_100, "500": chain_500},
            "passed": passed,
        }
    return ok, {"checks": checks, "n": n, "trials_per_q": trials}


def _criterion_6(seed: int, workers: int) -> tuple[bool, dict[str, Any]]:
    """Two-round consensus from a tie: rates shrink with n; exact chain in CI."""
    grid = (100, 200, 1_000, 10_000, 100_000)
    suite = theorem2_suite(0.5, grid, 1_000, seed, workers=workers)
    rows = {r.n: r for r in suite.rows}
    mono_ok = True
    mono_chain = [rows[n] for n in (100, 1_000, 10_000, 100_000)]
    for prev, nxt in zip(mono_chain, mono_chain[1:]):
        if nxt.estimate.p_hat > prev.estimate.ci_high:
            mono_ok = False
    row_200 = rows[200]
    chain_ok = row_200.exact is not None and row_200.estimate.covers(row_200.exact)
    return mono_ok and chain_ok, {
        "estimates": {str(n): rows[n].estimate.p_hat for n in grid},
        "ci": {str(n): [rows[n].estimate.ci_low, rows[n].estimate.ci_high] for n in grid},
        "exact_at_200": row_200.exact,
        "monotone_within_ci": mono_ok,
        "exact_inside_ci": chain_ok,
    }


def _criterion_7(seed: int, workers: int) -> tuple[bool, dict[str, Any]]:
    """Round-1 spread from a tie stays under the 2 exp(-B^2/n) bound."""
    n, q, trials = 10_000, 0.5, 100_000
    stats = symmetry_break_statistics(
        n, q, trials, seed, deltas=(1.0, 2.0, 3.0), workers=workers
    )
    checks = {}
    ok = True
    for b in (100, 200, 300):
        delta = b / math.sqrt(n)
        est = Estimate.from_counts(stats.outside_counts[delta], trials)
        frac, half_width = est.p_hat, est.half_width
        bound = analytics.prop4_bound(n, b)
        passed = frac <= bound + half_width
        ok = ok and passed
        checks[f"B={b}"] = {
            "empirical": frac,
            "bound": bound,
            "ci_half_width": half_width,
            "passed": passed,
        }
    return ok, {"checks": checks, "trials": trials}


def _criterion_8(seed: int, workers: int) -> tuple[bool, dict[str, Any]]:
    """Exact single-round consensus probability never exceeds its bound."""
    n, q = 200, 0.5
    checks = {}
    ok = True
    for c in (0, 10, 50):
        p_cons, _ = exact_chain_consensus_probability(n, c, q, 1)
        bound = analytics.prop5_bound(n, c, q)
        passed = p_cons <= bound
        ok = ok and passed
        checks[f"C={c}"] = {"exact": p_cons, "bound": bound, "passed": passed}
    return ok, {"checks": checks, "agents": 2 * n}


def _criterion_9(seed: int, workers: int) -> tuple[bool, dict[str, Any]]:
    """Analytic invariants: divergence inequalities, PMF brackets, keep-probability bracket."""
    grid = np.round(np.arange(0.01, 1.0, 0.01), 10)
    pinsker_ok = True
    reverse_ok = True
    for a in grid:
        for b in grid:
            kl = analytics.kl_bernoulli(float(a), float(b))
            gap = (a - b) ** 2
            if kl < 2.0 * gap:
                pinsker_ok = False
            if kl > (2.0 / min(b, 1.0 - b)) * gap + 1e-12:
                reverse_ok = False

    stirling_ok = True
    worst_margin = math.inf
    for p in (0.1, 0.3, 0.5, 0.7, 0.9):
        for m in range(2, 201):
            pmf = np.exp(analytics._log_pmf_array(m, p)[1:m])
            lower, upper = np.array([analytics.pmf_stirling_bounds(m, p, k) for k in range(1, m)]).T
            if np.any(pmf < lower) or np.any(pmf > upper):
                stirling_ok = False
            worst_margin = min(worst_margin, float((pmf / lower).min()), float((upper / pmf).min()))

    pn_ok = True
    sandwich_ok = True
    for q in (0.25, 0.5, 0.75):
        for n in range(1, 501):
            p_n = analytics.keep_zero_probability(n, n, q)
            if p_n < 0.5 - 1e-12:
                pn_ok = False
            if n >= 2:
                lower, upper = analytics.pn_sandwich(n, q)
                if not (lower - 1e-12 <= p_n <= upper):
                    sandwich_ok = False

    ok = pinsker_ok and reverse_ok and stirling_ok and pn_ok and sandwich_ok
    return ok, {
        "pinsker": pinsker_ok,
        "reverse_pinsker": reverse_ok,
        "stirling_brackets": stirling_ok,
        "stirling_worst_margin": worst_margin,
        "keep_probability_at_least_half": pn_ok,
        "keep_probability_in_sandwich": sandwich_ok,
    }


def _criterion_10(seed: int, workers: int) -> tuple[bool, dict[str, Any]]:
    """Return-to-tie probability decays like 1/sqrt(n): 4x agents halve it."""
    trials = 1_000_000
    sweep = return_to_symmetry_rate((100, 400, 1_600), 0.5, trials, seed, workers=workers)
    rates = {row.n: row.estimate.p_hat for row in sweep.rows}
    ratios = {
        "100_vs_400": rates[100] / rates[400],
        "400_vs_1600": rates[400] / rates[1_600],
    }
    ok = all(1.6 <= r <= 2.4 for r in ratios.values())
    return ok, {
        "rates": {str(n): r for n, r in rates.items()},
        "ratios": ratios,
        "ratio_window": [1.6, 2.4],
        "trials_per_point": trials,
    }


def _criterion_11(seed: int, workers: int) -> tuple[bool, dict[str, Any]]:
    """Repeated verify runs are byte-identical at any worker count."""
    sub_criteria = "4,8"
    contents: list[dict[str, bytes]] = []
    exit_codes = []
    # the reruns import this package, not whichever smpsim a bare interpreter finds
    path = (str(Path(__file__).resolve().parents[1]), os.environ.get("PYTHONPATH"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    with tempfile.TemporaryDirectory() as tmp:
        for i, w in enumerate((1, 1, 2)):
            out_dir = Path(tmp) / f"run{i}"
            cmd = [
                sys.executable, "-m", "smpsim", "verify",
                "--criteria", sub_criteria,
                "--seed", str(seed),
                "--workers", str(w),
                "--out-dir", str(out_dir),
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
            exit_codes.append(proc.returncode)
            files = sorted(out_dir.glob("criterion_*.json"))
            contents.append({f.name: f.read_bytes() for f in files})
    identical = contents[0] == contents[1] == contents[2]
    complete = all(len(c) == 2 for c in contents)
    runs_ok = all(code == 0 for code in exit_codes)
    return identical and complete and runs_ok, {
        "sub_criteria": sub_criteria,
        "worker_counts": [1, 1, 2],
        "files_per_run": [sorted(c.keys()) for c in contents],
        "byte_identical": identical,
        "exit_codes": exit_codes,
    }


CRITERIA: dict[int, tuple[str, Callable[[int, int], tuple[bool, dict[str, Any]]]]] = {
    1: ("exhaustive-oracle equivalence", _criterion_1),
    2: ("single-round bound and zero failures", _criterion_2),
    3: ("keep-probability trichotomy", _criterion_3),
    4: ("symmetry-break fluctuation law", _criterion_4),
    5: ("three-round consensus rate", _criterion_5),
    6: ("two-round consensus decay with exact chain", _criterion_6),
    7: ("round-1 spread bound", _criterion_7),
    8: ("single-round consensus bound via exact chain", _criterion_8),
    9: ("analytic invariants", _criterion_9),
    10: ("return-to-tie 1/sqrt(n) decay", _criterion_10),
    11: ("byte-identical reruns at any worker count", _criterion_11),
}

#: Named criterion groups for `verify <name>`.
SUITES: dict[str, tuple[int, ...]] = {
    "all": tuple(sorted(CRITERIA)),
    "oracles": (1, 8),
    "theorem1": (2, 5),
    "theorem2": (6,),
    "properties": (9,),
    "fluctuations": (4, 7, 10),
    "determinism": (11,),
}


def run_criterion(
    criterion: int, seed: int = DEFAULT_MASTER_SEED, workers: int = 1
) -> CriterionResult:
    if criterion not in CRITERIA:
        raise ValueError(f"unknown criterion {criterion}, expected 1..{len(CRITERIA)}")
    title, fn = CRITERIA[criterion]
    start = time.perf_counter()
    passed, details = fn(seed, workers)
    elapsed = time.perf_counter() - start
    return CriterionResult(
        criterion=criterion, title=title, passed=passed, details=details,
        elapsed_seconds=elapsed,
    )


def criterion_result_file(result: CriterionResult, seed: int) -> io.ResultFile:
    """The result file ``run_verification`` writes for one criterion run at ``seed``."""
    manifest = io.RunManifest.create(
        master_seed=seed,
        config={"criterion": result.criterion, "title": result.title},
        command_line=f"verify --criteria {result.criterion} --seed {seed}",
    )
    payload = {"passed": result.passed, "details": result.details}
    return io.ResultFile(manifest=manifest, payload=payload)


def run_verification(
    criteria: list[int] | None = None,
    seed: int = DEFAULT_MASTER_SEED,
    workers: int = 1,
    out_dir: str | Path | None = None,
) -> list[CriterionResult]:
    """Run the selected criteria, print one line each, write result files.

    Result files carry no timing or worker-count information: payloads are
    worker-invariant by construction, so the files are byte-identical for
    any worker count at a fixed seed.
    """
    ids = sorted(criteria) if criteria else sorted(CRITERIA)
    unknown = sorted(set(ids) - set(CRITERIA))
    if unknown:  # fail before any criterion runs
        raise ValueError(f"unknown criteria {unknown}, expected 1..{len(CRITERIA)}")
    results = []
    for cid in ids:
        result = run_criterion(cid, seed=seed, workers=workers)
        results.append(result)
        status = "PASS" if result.passed else "FAIL"
        print(f"criterion {cid:2d} ({result.title}): {status}  [{result.elapsed_seconds:.1f}s]")
        if out_dir is not None:
            out_dir = Path(out_dir)
            out_dir.mkdir(parents=True, exist_ok=True)
            io.write_results(
                criterion_result_file(result, seed), "json", out_dir / f"criterion_{cid:02d}.json"
            )
    failed = [r.criterion for r in results if not r.passed]
    if failed:
        print(f"FAILED criteria: {', '.join(map(str, failed))}")
    else:
        print("all criteria passed")
    return results
