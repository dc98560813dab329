"""Trial runners and exact oracles for the round dynamics.

Two sampling paths produce protocol runs:

* the aggregated path draws the next zero-count directly as
  Bin(z, p_keep_zero) + Bin(o, p_adopt_zero), valid because per-receiver
  loss patterns are disjoint sets of i.i.d. variables; each round takes
  keep/adopt for all its distinct zero-counts from one call to
  ``analytics.transition_values``, the evaluator and memo the exact
  oracles use too;
* the per-agent path simulates every receiver's received counts and applies
  the decision rule, serving as the reference implementation; it holds
  three trials x agents matrices per batch, so it stops at
  ``PER_AGENT_MAX_AGENTS``.

Both return the zero-count of every trial after every round as one
(rounds + 1, trials) array; ``model.event_mask`` scores its last row, and
``run_trial`` wraps one column as a ``TrialOutcome``.

Two oracles pin the dynamics down exactly: an exhaustive enumeration of
all loss patterns for systems of up to 6 agents, and an exact Markov chain
on the zero-count for systems of up to 1000 agents.  The chain builds its
one-round row laws lazily and keeps a row only while a later full round
may reuse it; its last round needs only the masses at the two consensus
counts, which it takes in closed form from the rows' end entries, so three
rounds from a point mass hold one row.

All runs are keyed by (master_seed, trial); batching trials or changing
worker counts never changes any draw.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import analytics
from .model import OpinionCounts, ProtocolConfig, event_mask, majority_update
from .rng import sample_binomial_lanes

__all__ = [
    "UnsupportedSizeError",
    "TrialOutcome",
    "CountDistribution",
    "run_trial",
    "run_trials_batch",
    "aggregated_round_distribution",
    "exhaustive_round_distribution",
    "exact_chain_consensus_probability",
    "EXHAUSTIVE_MAX_AGENTS",
    "EXACT_CHAIN_MAX_AGENTS",
    "PER_AGENT_MAX_AGENTS",
]

EXHAUSTIVE_MAX_AGENTS = 6
EXACT_CHAIN_MAX_AGENTS = 1000
# The per-agent path holds three int8 matrices of trials x 2n per batch (the
# tiled bits, the active rows and their update); at the estimate chunk of
# 2^16 trials and 2n = 1000 that is 3 * 65,536 * 1000 bytes, about 197 MB.
PER_AGENT_MAX_AGENTS = 1000

MODE_AGGREGATED = "aggregated"
MODE_PER_AGENT = "per_agent"


class UnsupportedSizeError(ValueError):
    """The requested system size exceeds an oracle's practical ceiling."""


@dataclass(frozen=True)
class TrialOutcome:
    """One protocol run: per-round counts plus the consensus verdicts."""

    trajectory: tuple[OpinionCounts, ...]
    consensus: bool
    majority_consensus: bool
    final_value: int | None

    def __post_init__(self) -> None:
        totals = {c.total for c in self.trajectory}
        if len(totals) != 1:
            raise ValueError("trajectory does not conserve the agent count")


@dataclass(frozen=True)
class CountDistribution:
    """Exact law of a zero-count over the support 0..2n."""

    probabilities: np.ndarray

    def __post_init__(self) -> None:
        probs = np.asarray(self.probabilities, dtype=np.float64)
        object.__setattr__(self, "probabilities", probs)
        if probs.ndim != 1 or len(probs) < 3:
            raise ValueError("need probabilities over a support 0..2n with 2n >= 2")
        if np.any(probs < -1e-12):
            raise ValueError("probabilities must be nonnegative")
        if abs(probs.sum() - 1.0) > 1e-10:
            raise ValueError(f"probabilities sum to {probs.sum()}, not 1")

    @property
    def total(self) -> int:
        """Number of agents 2n."""
        return len(self.probabilities) - 1

    def total_variation(self, other: "CountDistribution") -> float:
        if self.total != other.total:
            raise ValueError("supports differ")
        return 0.5 * float(np.abs(self.probabilities - other.probabilities).sum())


# --------------------------------------------------------------------------
# Sampling paths
# --------------------------------------------------------------------------


def _aggregated_rounds(
    zeros0: np.ndarray,
    total: int,
    q: float,
    rounds: int,
    master_seed: int,
    trial_ids: np.ndarray,
) -> np.ndarray:
    """Zero-count trajectories (rounds+1, T) for the aggregated path."""
    z = zeros0.astype(np.int64).copy()
    traj = np.empty((rounds + 1, len(z)), dtype=np.int64)
    traj[0] = z
    for round_index in range(1, rounds + 1):
        active = (z > 0) & (z < total)
        if np.any(active):
            zs = z[active]
            p00, p10 = analytics.transition_values(total, zs, q)
            kept = sample_binomial_lanes(
                zs, p00, master_seed, trial_ids[active], round_index, np.uint64(0)
            )
            gained = sample_binomial_lanes(
                total - zs, p10, master_seed, trial_ids[active], round_index, np.uint64(1)
            )
            z[active] = kept + gained
        traj[round_index] = z
    return traj


def _per_agent_rounds(
    bits0: np.ndarray,
    q: float,
    rounds: int,
    master_seed: int,
    trial_ids: np.ndarray,
) -> np.ndarray:
    """Zero-count trajectories (rounds+1, T) for the per-agent path.

    Each receiver draws its delivered zero- and one-counts from its own
    (trial, round, agent-side) stream; independence across receivers holds
    because every message's loss is a distinct i.i.d. variable.
    """
    bits = np.tile(np.asarray(bits0, dtype=np.int8), (len(trial_ids), 1))
    total = bits.shape[1]
    q_prime = 1.0 - q
    traj = np.empty((rounds + 1, len(trial_ids)), dtype=np.int64)
    traj[0] = total - bits.sum(axis=1)
    for round_index in range(1, rounds + 1):
        z = total - bits.sum(axis=1)
        active = (z > 0) & (z < total)
        if np.any(active):
            rows = np.flatnonzero(active)
            sub = bits[rows]
            z_act = z[rows]
            o_act = total - z_act
            new = sub.copy()
            for j in range(total):
                own_zero = sub[:, j] == 0
                m0 = z_act - own_zero
                m1 = o_act - (~own_zero)
                d0 = sample_binomial_lanes(
                    m0, q_prime, master_seed, trial_ids[rows], round_index, np.uint64(2 * j)
                )
                d1 = sample_binomial_lanes(
                    m1, q_prime, master_seed, trial_ids[rows], round_index, np.uint64(2 * j + 1)
                )
                n0 = d0 + own_zero
                n1 = d1 + ~own_zero
                new[:, j] = np.where(n0 > n1, 0, np.where(n1 > n0, 1, sub[:, j]))
            bits[rows] = new
        traj[round_index] = total - bits.sum(axis=1)
    return traj


def _check_per_agent_size(config: ProtocolConfig) -> None:
    """Raise UnsupportedSizeError if ``config`` has more agents than the per-agent path holds."""
    if config.initial_state().total > PER_AGENT_MAX_AGENTS:
        raise UnsupportedSizeError(
            f"per-agent mode supports at most {PER_AGENT_MAX_AGENTS} agents "
            f"(n <= {PER_AGENT_MAX_AGENTS // 2}), got n={config.n}"
        )


def run_trials_batch(
    config: ProtocolConfig,
    trial_ids,
    master_seed: int,
    mode: str = MODE_AGGREGATED,
) -> np.ndarray:
    """Zero-counts (rounds + 1, len(trial_ids)), one column per trial id.

    Row 0 is the initial state and row r the state after round r.  All
    draws are counter-addressed, so the output is bit-identical however the
    ids are split into batches.
    """
    trial_ids = np.asarray(trial_ids, dtype=np.uint64)
    initial = config.initial_state()
    q = config.network.q
    if mode == MODE_AGGREGATED:
        zeros0 = np.full(len(trial_ids), initial.zeros)
        return _aggregated_rounds(
            zeros0, initial.total, q, config.rounds, master_seed, trial_ids
        )
    if mode == MODE_PER_AGENT:
        _check_per_agent_size(config)
        bits0 = (0,) * initial.zeros + (1,) * initial.ones
        return _per_agent_rounds(bits0, q, config.rounds, master_seed, trial_ids)
    raise ValueError(f"unknown mode {mode!r}")


def run_trial(
    config: ProtocolConfig,
    trial_index: int,
    master_seed: int,
    mode: str = MODE_AGGREGATED,
) -> TrialOutcome:
    """One deterministic protocol run for (master_seed, trial_index)."""
    zeros = run_trials_batch(config, [trial_index], master_seed, mode=mode)[:, 0]
    initial = config.initial_state()
    total = initial.total
    return TrialOutcome(
        trajectory=tuple(OpinionCounts(zeros=int(z), ones=total - int(z)) for z in zeros),
        consensus=bool(event_mask("consensus", initial, zeros[-1])),
        majority_consensus=bool(event_mask("majority_consensus", initial, zeros[-1])),
        final_value={total: 0, 0: 1}.get(int(zeros[-1])),
    )


# --------------------------------------------------------------------------
# Exact oracles
# --------------------------------------------------------------------------


def _round_laws(total: int, zs, p00, p10) -> Iterator[tuple[int, np.ndarray]]:
    """Exact one-round laws Bin(z, p00) * Bin(total - z, p10) of the zero-count.

    Yields one (lo, law) per entry of ``zs``, in order and lazily: law[i] is
    the probability of lo + i zeros, and every count outside the window has
    probability below the smallest double.  Both binomials are evaluated on
    their windows.
    """
    zs = np.asarray(zs)
    windows = analytics._windows(
        np.column_stack([zs, total - zs]).ravel(), np.column_stack([p00, p10]).ravel()
    )
    for (lo_keep, keep), (lo_gain, gain) in zip(windows, windows):
        yield lo_keep + lo_gain, np.convolve(np.exp(keep), np.exp(gain))


def aggregated_round_distribution(counts: OpinionCounts, q: float) -> CountDistribution:
    """Exact one-round law Bin(z, p_keep) * Bin(o, p_adopt) of the zero-count."""
    p00, p10 = analytics.transition_values(counts.total, [counts.zeros], q)
    ((lo, part),) = _round_laws(counts.total, [counts.zeros], p00, p10)
    law = np.zeros(counts.total + 1)
    law[lo : lo + len(part)] = part
    return CountDistribution(probabilities=law)


def exhaustive_round_distribution(counts: OpinionCounts, q: float) -> CountDistribution:
    """Ground-truth one-round law by enumerating every message-loss pattern.

    Each receiver's next opinion depends only on the losses of its own
    2n - 1 incoming messages, and those sets are disjoint across receivers,
    so the full 2^(2n(2n-1)) pattern space is enumerated receiver by
    receiver (2^(2n-1) patterns each) and combined as a product law.
    """
    total = counts.total
    if total > EXHAUSTIVE_MAX_AGENTS:
        raise UnsupportedSizeError(
            f"exhaustive oracle supports at most {EXHAUSTIVE_MAX_AGENTS} agents, got {total}"
        )
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    z, o = counts.zeros, counts.ones

    def p_next_zero(own: int) -> float:
        senders0 = z - (own == 0)
        senders1 = o - (own == 1)
        n_msgs = senders0 + senders1
        prob0 = 0.0
        for mask in range(1 << n_msgs):
            delivered0 = bin(mask & ((1 << senders0) - 1)).count("1")
            delivered = bin(mask).count("1")
            delivered1 = delivered - delivered0
            n0 = delivered0 + (own == 0)
            n1 = delivered1 + (own == 1)
            if majority_update(own, n0, n1) == 0:
                prob0 += (1.0 - q) ** delivered * q ** (n_msgs - delivered)
        return prob0

    dist = np.ones(1)
    for own, holders in ((0, z), (1, o)):
        if holders == 0:
            continue
        p0 = p_next_zero(own)
        for _ in range(holders):
            dist = np.convolve(dist, np.array([1.0 - p0, p0]))
    # dist[k] currently indexes the number of next-round zeros
    padded = np.zeros(total + 1)
    padded[: len(dist)] = dist
    return CountDistribution(probabilities=padded)


def exact_chain_consensus_probability(
    n: int, delta: int, q: float, rounds: int
) -> tuple[float, float]:
    """Exact (P{consensus}, P{majority consensus}) via the count Markov chain.

    The start distribution is a point mass at n + delta.  Each full round,
    every round but the last, adds for every live z in ascending order the
    kernel row at z (the convolution Bin(z, p_keep) * Bin(2n - z, p_adopt),
    kept on its window) weighted by the mass at z.  keep/adopt come from
    one ``analytics.transition_values`` call per round, at that round's
    live z (in a full round, those without a kept row).  Rows are built
    lazily, and a row is kept only while another full round follows, so
    three rounds from a point mass hold one row.  Only counts 0 and 2n
    matter after the last round: their masses from z are the end entries
    of the row at z, exp(z log(1 - p_keep)) exp(o log(1 - p_adopt)) and
    exp(z log p_keep) exp(o log p_adopt) with o = 2n - z, summed over the
    live z in the same order, so the last round builds no row.  Consensus
    states are absorbing rows, exact point masses.
    """
    total = 2 * n
    if total > EXACT_CHAIN_MAX_AGENTS:
        raise UnsupportedSizeError(
            f"exact chain supports at most {EXACT_CHAIN_MAX_AGENTS} agents, got {total}"
        )
    if abs(delta) > n:
        raise ValueError(f"|delta| must be <= n, got {delta}")
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    dist = np.zeros(total + 1)
    dist[n + delta] = 1.0
    rows: dict[int, tuple[int, np.ndarray]] = {}
    for full_round in range(1, rounds):
        live = np.flatnonzero(dist > 0.0).tolist()
        missing = np.array([z for z in live if z not in rows], dtype=np.int64)
        laws = _round_laws(total, missing, *analytics.transition_values(total, missing, q))
        keep_rows = full_round < rounds - 1
        new = np.zeros(total + 1)
        for z in live:
            lo, part = rows[z] if z in rows else next(laws)
            if keep_rows:
                rows[z] = lo, part
            new[lo : lo + len(part)] += dist[z] * part
        dist = new
    live = np.flatnonzero(dist > 0.0)
    p00, p10 = analytics.transition_values(total, live, q)
    keep_ends = np.exp(analytics._end_log_pmfs(live, p00))
    gain_ends = np.exp(analytics._end_log_pmfs(total - live, p10))
    # cumsum adds in z order, as adding each row in turn does; np.sum would add pairwise
    at_zero, at_total = np.cumsum(dist[live] * (keep_ends * gain_ends), axis=1)[:, -1].tolist()
    p_consensus = at_zero + at_total
    if delta > 0:
        p_majority = at_total
    elif delta < 0:
        p_majority = at_zero
    else:
        p_majority = p_consensus
    return min(p_consensus, 1.0), min(p_majority, 1.0)
