"""Monte Carlo estimation with confidence intervals, plus preset sweeps.

Estimates are binomial proportions with Wilson score intervals (95% by
default; Clopper-Pearson available), which stay honest at observed rates
of exactly 0 or 1 - the strongly asymmetric presets produce both.

Trials are split into fixed-size chunks processed either inline or by a
process pool.  Every chunk is keyed by absolute trial indices and returns
its trials' final zero-counts; estimates count ``model.event_mask`` over
them, and counting is associative, so results are identical for any
worker count.
"""

from __future__ import annotations

import math
import os
import struct
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from statistics import NormalDist
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from . import analytics
from .engine import (
    MODE_AGGREGATED,
    UnsupportedSizeError,
    check_run_size,
    exact_chain_consensus_probability,
    run_trials_batch,
)
from .model import EVENT_NAMES, AsymmetryRegime, NetworkModel, ProtocolConfig, event_mask

__all__ = [
    "Estimate",
    "SweepRow",
    "SweepResult",
    "wilson_interval",
    "clopper_pearson_interval",
    "estimate_event_probability",
    "trichotomy_sweep",
    "theorem1_suite",
    "theorem2_suite",
    "max_error_sweep",
    "return_to_symmetry_rate",
    "EVENT_NAMES",
]

CHUNK_TRIALS = 1 << 16


def _check_counts(successes: int, trials: int) -> None:
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes must be in [0, trials], got {successes}/{trials}")


def _check_interval(trials: int, confidence: float, method: str) -> None:
    """Fail on an interval ``method`` cannot give for ``trials`` at ``confidence``.

    Clopper-Pearson bounds come from binomial tails of ``trials`` trials,
    so they need trials below ``MAX_BINOMIAL_TRIALS``.
    """
    if method not in _INTERVALS:
        raise ValueError(f"unknown interval method {method!r}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if method == "clopper_pearson" and trials >= analytics.MAX_BINOMIAL_TRIALS:
        raise ValueError(
            f"clopper_pearson intervals need trials below 2^27 = {analytics.MAX_BINOMIAL_TRIALS}, "
            f"got trials={trials}"
        )


def wilson_interval(successes: int, trials: int, confidence: float = 0.95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    _check_counts(successes, trials)
    _check_interval(trials, confidence, "wilson")
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    p_hat = successes / trials
    denom = 1.0 + z * z / trials
    center = (p_hat + z * z / (2.0 * trials)) / denom
    margin = (z / denom) * math.sqrt(p_hat * (1.0 - p_hat) / trials + z * z / (4.0 * trials * trials))
    # the score interval hits the endpoints exactly at observed rates 0 and 1;
    # rounding in center - margin must not push the interval past p_hat
    low = 0.0 if successes == 0 else max(0.0, min(center - margin, p_hat))
    high = 1.0 if successes == trials else min(1.0, max(center + margin, p_hat))
    return low, high


#: The doubles in [0, 1] are the bit patterns 0.._ONE_BITS, in the same order.
_ONE_BITS = struct.unpack("<q", struct.pack("<d", 1.0))[0]


def _double(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def _crossing(holds) -> tuple[float, float]:
    """Adjacent doubles (x, y) in [0, 1] with holds(x) false and holds(y) true.

    ``holds`` is false at 0 and true at 1.  One bisection over the bit
    patterns of the doubles in between: at most 62 steps.
    """
    below, above = 0, _ONE_BITS
    while above - below > 1:
        mid = (below + above) // 2
        if holds(_double(mid)):
            above = mid
        else:
            below = mid
    return _double(below), _double(above)


def clopper_pearson_interval(
    successes: int, trials: int, confidence: float = 0.95
) -> tuple[float, float]:
    """Exact (conservative) binomial interval of Clopper and Pearson (1934).

    With alpha = 1 - confidence, low is the largest p with P{Bin(trials, p)
    >= successes} <= alpha/2 and high the smallest p with P{Bin(trials, p)
    <= successes} <= alpha/2, each tail from ``analytics._binomial_tail``:
    both bounds are rounded outward against the computed tail.  Observed
    rates 0 and 1 give the exact end points 0 and 1.
    """
    _check_counts(successes, trials)
    _check_interval(trials, confidence, "clopper_pearson")
    half_alpha = (1.0 - confidence) / 2.0

    def tail(p: float, upper: bool) -> float:
        return analytics._binomial_tail(trials, p, successes, upper)

    low = 0.0 if successes == 0 else _crossing(lambda p: tail(p, True) > half_alpha)[0]
    high = 1.0 if successes == trials else _crossing(lambda p: tail(p, False) <= half_alpha)[1]
    return low, high


_INTERVALS = {"wilson": wilson_interval, "clopper_pearson": clopper_pearson_interval}


@dataclass(frozen=True)
class Estimate:
    """A Monte Carlo proportion with its confidence interval."""

    successes: int
    trials: int
    p_hat: float
    ci_low: float
    ci_high: float
    confidence: float = 0.95
    method: str = "wilson"

    def __post_init__(self) -> None:
        if not 0.0 <= self.ci_low <= self.p_hat <= self.ci_high <= 1.0:
            raise ValueError("interval must satisfy 0 <= low <= p_hat <= high <= 1")

    @classmethod
    def from_counts(
        cls,
        successes: int,
        trials: int,
        confidence: float = 0.95,
        method: str = "wilson",
    ) -> "Estimate":
        _check_interval(trials, confidence, method)
        low, high = _INTERVALS[method](successes, trials, confidence)
        return cls(
            successes=successes,
            trials=trials,
            p_hat=successes / trials,
            ci_low=low,
            ci_high=high,
            confidence=confidence,
            method=method,
        )

    @property
    def half_width(self) -> float:
        return (self.ci_high - self.ci_low) / 2.0

    def covers(self, p: float) -> bool:
        return self.ci_low <= p <= self.ci_high


@dataclass(frozen=True)
class SweepRow:
    """One point of a sweep: identification plus estimate/exact/bound payloads."""

    n: int
    delta: int | None
    q: float
    rounds: int | None
    event: str
    estimate: Estimate | None = None
    exact: float | None = None
    bound: analytics.BoundReport | None = None
    extra: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class SweepResult:
    kind: str
    rows: tuple[SweepRow, ...]
    metadata: dict[str, Any] = field(default_factory=dict)


# --------------------------------------------------------------------------
# Chunked trial running
# --------------------------------------------------------------------------


def _final_zeros_chunk(args) -> np.ndarray:
    start, size, config, master_seed, mode = args
    ids = np.arange(start, start + size, dtype=np.uint64)
    # a copy, so the chunk's whole trajectory is freed before the next one
    return run_trials_batch(config, ids, master_seed, mode=mode)[-1].copy()


def _check_run(trials: int, config: ProtocolConfig, mode: str) -> None:
    """Fail on a bad trial count or an oversized run before any chunk starts."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    check_run_size(config, mode)


def _pool_size(workers: int, chunks: int) -> int:
    """Worker processes worth starting: never more than chunks or CPUs."""
    return max(1, min(workers, chunks, os.cpu_count() or 1))


def _map_chunks(fn, trials: int, workers: int, *fixed) -> Iterator:
    """``fn((start, size, *fixed))`` over the chunks of ``trials``, in trial order.

    Chunks are made as results are taken, so memory does not grow with
    ``trials``: inline, one chunk is held at a time; a pool has at most two
    chunks per worker in flight.
    """
    args = (
        (start, min(CHUNK_TRIALS, trials - start), *fixed)
        for start in range(0, trials, CHUNK_TRIALS)
    )
    size = _pool_size(workers, -(-trials // CHUNK_TRIALS))
    if size <= 1:
        yield from map(fn, args)
        return
    with ProcessPoolExecutor(max_workers=size) as pool:
        in_flight = deque()
        for a in args:
            in_flight.append(pool.submit(fn, a))
            if len(in_flight) == 2 * size:
                yield in_flight.popleft().result()
        while in_flight:
            yield in_flight.popleft().result()


def estimate_event_probability(
    config: ProtocolConfig,
    event: str,
    trials: int,
    master_seed: int,
    *,
    workers: int = 1,
    mode: str = MODE_AGGREGATED,
    confidence: float = 0.95,
    method: str = "wilson",
) -> Estimate:
    """Estimate P{event} over independent runs of ``config``; ``event`` is one of EVENT_NAMES."""
    _check_run(trials, config, mode)
    _check_interval(trials, confidence, method)
    initial = config.initial_state()
    event_mask(event, initial, ())  # an unknown event fails before any trial runs
    chunks = _map_chunks(_final_zeros_chunk, trials, workers, config, master_seed, mode)
    successes = sum(int(np.count_nonzero(event_mask(event, initial, z))) for z in chunks)
    return Estimate.from_counts(successes, trials, confidence, method)


def final_zeros_sample(
    config: ProtocolConfig,
    trials: int,
    master_seed: int,
    *,
    workers: int = 1,
    mode: str = MODE_AGGREGATED,
) -> np.ndarray:
    """Final-round zero-counts of ``trials`` independent runs, in trial order."""
    _check_run(trials, config, mode)
    chunks = _map_chunks(_final_zeros_chunk, trials, workers, config, master_seed, mode)
    return np.concatenate(list(chunks))


# --------------------------------------------------------------------------
# Preset experiments
# --------------------------------------------------------------------------


def trichotomy_sweep(
    regime: AsymmetryRegime, n_grid: Sequence[int], q: float
) -> SweepResult:
    """Exact single-round keep probabilities along a growth regime.

    No sampling: each point is keep_zero_probability(n + a_n, n - a_n, q),
    reported next to the regime's predicted limit.
    """
    rows = []
    limit = regime.limit(q)
    for n in n_grid:
        a_n = regime.offset(n)
        p_n = analytics.keep_zero_probability(n + a_n, n - a_n, q)
        rows.append(
            SweepRow(
                n=n, delta=a_n, q=q, rounds=1, event="keep_zero", exact=p_n,
                extra={"predicted_limit": limit},
            )
        )
    return SweepResult(
        kind="trichotomy",
        rows=tuple(rows),
        metadata={
            "regime": regime.kind,
            "alpha": regime.alpha,
            "beta": regime.beta,
            "case": regime.fact1_case(),
            "predicted_limit": limit,
            "limit_label": "limit (asymptotic reading)" if regime.fact1_case() == 2 else "limit",
            "offset_rounding": "ceil",
        },
    )


def _mc_row(
    n: int, delta: int, q: float, rounds: int, event: str, trials: int, master_seed: int,
    workers: int,
) -> SweepRow:
    """One Monte Carlo sweep point: P{event} estimated from (n + delta, n - delta).

    Callers add a bound or an exact value with ``dataclasses.replace``.
    """
    config = ProtocolConfig(n=n, delta=delta, rounds=rounds, network=NetworkModel(q=q))
    est = estimate_event_probability(config, event, trials, master_seed, workers=workers)
    return SweepRow(n=n, delta=delta, q=q, rounds=rounds, event=event, estimate=est)


def _exact_consensus(n: int, delta: int, q: float, rounds: int) -> float | None:
    """The exact chain's P{consensus}, or None where n is past its ceiling."""
    try:
        return exact_chain_consensus_probability(n, delta, q, rounds)[0]
    except UnsupportedSizeError:
        return None


def _check_theorem_q(q: float) -> None:
    if not 0.0 < q < 1.0:
        raise ValueError(f"theorem presets need q strictly inside (0, 1), got {q}")


def theorem1_suite(
    q: float,
    n_grid: Sequence[int],
    master_seed: int,
    *,
    trials_single_round: int = 100_000,
    trials: int = 1_000,
    alpha: float = 1.0,
    workers: int = 1,
) -> SweepResult:
    """Three achievability presets: one, two and three communication rounds.

    The single-round preset runs ``trials_single_round`` trials and the
    multi-round ones ``trials`` each.  Each starts from its regime's a_n:

    1. one round from ceil(n^(3/4)): majority-consensus error rate next to
       its Prop. 1 bound, which needs a_n < n, so n >= 4;
    2. two rounds from ceil(alpha sqrt(n)) <= n: majority-consensus rate;
    3. three rounds from a tie: consensus rate.
    """
    _check_theorem_q(q)
    one_round = AsymmetryRegime(kind="power", beta=0.75)
    presets = (
        (one_round, 1, "majority_consensus_failure", trials_single_round),
        (AsymmetryRegime(kind="sqrt_scaled", alpha=alpha), 2, "majority_consensus", trials),
        (AsymmetryRegime(kind="zero"), 3, "consensus", trials),
    )
    for n in n_grid:
        if one_round.offset(n) >= n:
            raise ValueError(f"theorem1 needs ceil(n^(3/4)) < n for the Prop. 1 bound, got n={n}")
        for regime, *_ in presets:
            regime.offset(n)
    rows = []
    for n in n_grid:
        for regime, rounds, event, preset_trials in presets:
            delta = regime.offset(n)
            row = _mc_row(n, delta, q, rounds, event, preset_trials, master_seed, workers)
            if regime is one_round:
                row = replace(row, bound=analytics.BoundReport(
                    bound_name="prop1",
                    parameters={"n": n, "A": delta, "q": q},
                    bound_value=analytics.prop1_error_bound(n, delta, q),
                    empirical_value=row.estimate.p_hat,
                ))
            rows.append(row)
    return SweepResult(
        kind="theorem1", rows=tuple(rows),
        metadata={"alpha": alpha, "offset_rounding": "ceil"},
    )


def theorem2_suite(
    q: float,
    n_grid: Sequence[int],
    trials: int,
    master_seed: int,
    *,
    workers: int = 1,
) -> SweepResult:
    """Two-round consensus rate from a tie, with the 3/n^c(q) envelope.

    Rows carry the exact chain value alongside the estimate wherever the
    system is small enough for the exact chain.
    """
    _check_theorem_q(q)
    rows = []
    for n in n_grid:
        row = _mc_row(n, 0, q, 2, "consensus", trials, master_seed, workers)
        bound = analytics.BoundReport(
            bound_name="theorem2_envelope",
            parameters={"n": n, "q": q, "exponent": analytics.envelope_exponent(q)},
            bound_value=analytics.theorem2_envelope(n, q),
            empirical_value=row.estimate.p_hat,
        )
        rows.append(replace(row, exact=_exact_consensus(n, 0, q, 2), bound=bound))
    return SweepResult(
        kind="theorem2", rows=tuple(rows),
        metadata={"envelope_exponent": analytics.envelope_exponent(q)},
    )


def max_error_sweep(
    n: int,
    q: float,
    rounds: int,
    trials_per_point: int,
    master_seed: int,
    *,
    deltas: Iterable[int] | None = None,
    workers: int = 1,
) -> SweepResult:
    """Consensus error probability across initial imbalances delta in 0..n.

    Exchangeability reduces the maximum over all 2^(2n) initial states to a
    sweep over the imbalance.  Rows carry the exact chain error when the
    system is small enough.
    """
    deltas = range(n + 1) if deltas is None else list(deltas)
    if not deltas:
        raise ValueError("deltas must not be empty")
    rows = []
    for offset, delta in enumerate(deltas):
        # distinct seeds per point so points are independent
        row = _mc_row(n, delta, q, rounds, "consensus_failure", trials_per_point,
                      master_seed + offset, workers)
        p_consensus = _exact_consensus(n, delta, q, rounds)
        rows.append(row if p_consensus is None else replace(row, exact=1.0 - p_consensus))
    argmax_row = max(rows, key=lambda r: r.estimate.p_hat)
    return SweepResult(
        kind="max_error", rows=tuple(rows),
        metadata={"argmax_delta": argmax_row.delta, "argmax_p_hat": argmax_row.estimate.p_hat},
    )


def return_to_symmetry_rate(
    n_grid: Sequence[int],
    q: float,
    trials: int,
    master_seed: int,
    *,
    workers: int = 1,
) -> SweepResult:
    """Probability that round 1 lands back on an exact tie, per n.

    The estimates are overlaid with a fitted c/sqrt(n) curve; the fit
    constant is the average of p_hat * sqrt(n) across the grid.
    """
    if len(n_grid) == 0:
        raise ValueError("n_grid must not be empty")
    rows = []
    for n in n_grid:
        config = ProtocolConfig(n=n, delta=0, rounds=1, network=NetworkModel(q=q))
        zeros = final_zeros_sample(config, trials, master_seed, workers=workers)
        successes = int(np.count_nonzero(zeros == n))
        est = Estimate.from_counts(successes, trials)
        rows.append(
            SweepRow(n=n, delta=0, q=q, rounds=1, event="returned_to_tie", estimate=est)
        )
    fit_c = float(np.mean([r.estimate.p_hat * math.sqrt(r.n) for r in rows]))
    rows = tuple(replace(r, extra={"sqrt_fit": fit_c / math.sqrt(r.n)}) for r in rows)
    return SweepResult(kind="return_to_symmetry", rows=rows, metadata={"sqrt_fit_c": fit_c})
