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
rounds from a point mass hold one row.  Most last-round states are
decided: a Chernoff bound shows that they reach one consensus with
probability within 2^-60 of 1, so their end masses are exactly (1.0, 0.0)
or (0.0, 1.0), and only the other states need keep/adopt.  It stops once
every live state is absorbing.  States lighter than the floor 2^-80 get
no row, and rows built for the last full round are cut where their weight
makes the tails negligible; the solve bounds the mass this drops, and its
result is returned only if the bound is at most 2^-55 of each
probability, else the unpruned solve's result is.

Both sampling paths hold a (rounds + 1) x trials trajectory, so a Monte
Carlo run stops at ``_MONTE_CARLO_MAX_ROUNDS`` rounds.  This module owns
the ceilings of its paths and oracles: ``check_run_size`` and the oracles
check them before any work, and an UnsupportedSizeError names the
parameters past one.

All runs are keyed by (master_seed, trial); batching trials or changing
worker counts never changes any draw.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import compress

import numpy as np

from . import analytics
from .model import (
    NetworkModel, OpinionCounts, ProtocolConfig, event_mask, majority_rule, majority_update,
)
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
# Both sampling paths hold one (rounds + 1) x trials int64 trajectory per
# batch; at the estimate chunk of 2^16 trials, 255 rounds make 256 rows of
# 2^19 bytes, 128 MiB.  The exact chain holds no trajectory and has no ceiling.
_MONTE_CARLO_MAX_ROUNDS = 255
#: States lighter than this get no row in the exact chain (see
#: ``exact_chain_consensus_probability``).
_CHAIN_FLOOR = 2.0**-80
#: Largest dropped-mass bound, as a share of both chain probabilities, at
#: which a pruned chain result is returned.
_CHAIN_CERTIFIED_SHARE = 2.0**-55
#: ``_decided_ends`` decides a last-round state when bounds on the
#: probabilities of its losing outcome, summed over its agents, are below
#: _DECIDED_SHARE, and their logs, summed likewise, below _DECIDED_LOG.
_DECIDED_SHARE = 2.0**-60
_DECIDED_LOG = -750.0

MODE_AGGREGATED = "aggregated"
MODE_PER_AGENT = "per_agent"


class UnsupportedSizeError(ValueError):
    """A run past a practical size ceiling.

    ``names`` are the parameters whose value is past it, and the message
    is their names joined by " + ", then ``detail``: "rounds must be at
    most 255 for a Monte Carlo run, got 256".
    """

    def __init__(self, names: tuple[str, ...], detail: str):
        super().__init__(names, detail)  # as args, so that the error pickles
        self.names = names
        self.detail = detail

    def __str__(self) -> str:
        return f"{' + '.join(self.names)} {self.detail}"


def _at_most(names: tuple[str, ...], value: int, limit: int, where: str) -> None:
    """Raise UnsupportedSizeError if ``value``, of the parameters ``names``, is past ``limit``."""
    if value > limit:
        raise UnsupportedSizeError(names, f"must be at most {limit} {where}, got {value}")


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

    Each agent side gets its own sampler call.  One call per round over all
    2 * 2n groups draws the same bytes, but it was slower: on 300,000
    trials at n = 2 (the per-agent part of the ``mc-sampling`` benchmark)
    it took 0.94-1.06 s against 0.24-0.32 s (2-core x86-64, numpy 2.4).
    A call's lanes are then not in counter order, so ``rng.philox4x64``
    lexsorts and gathers the 8 x 65,536 lanes of each chunk (0.51 of
    1.08 s under cProfile), and ``rng._invert`` groups them by (m, p)
    (0.14 s).
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
                new[:, j] = majority_rule(sub[:, j], n0, n1)
            bits[rows] = new
        traj[round_index] = total - bits.sum(axis=1)
    return traj


def check_run_size(config: ProtocolConfig, mode: str) -> None:
    """Fail before any work if a Monte Carlo run of ``config`` in ``mode`` cannot be made.

    UnsupportedSizeError names ``rounds`` past ``_MONTE_CARLO_MAX_ROUNDS``
    or, in per-agent mode, ``n`` past half of ``PER_AGENT_MAX_AGENTS``;
    ValueError names an unknown mode.
    """
    if mode not in (MODE_AGGREGATED, MODE_PER_AGENT):
        raise ValueError(f"unknown mode {mode!r}")
    _at_most(("rounds",), config.rounds, _MONTE_CARLO_MAX_ROUNDS, "for a Monte Carlo run")
    if mode == MODE_PER_AGENT:
        _at_most(
            ("n",), config.n, PER_AGENT_MAX_AGENTS // 2,
            f"with mode {MODE_PER_AGENT}, which supports at most {PER_AGENT_MAX_AGENTS} agents",
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
    ids are split into batches.  ``check_run_size`` runs before any array
    is built.
    """
    check_run_size(config, mode)
    trial_ids = np.asarray(trial_ids, dtype=np.uint64)
    initial = config.initial_state()
    q = config.network.q
    if mode == MODE_AGGREGATED:
        zeros0 = np.full(len(trial_ids), initial.zeros)
        return _aggregated_rounds(
            zeros0, initial.total, q, config.rounds, master_seed, trial_ids
        )
    bits0 = (0,) * initial.zeros + (1,) * initial.ones
    return _per_agent_rounds(bits0, q, config.rounds, master_seed, trial_ids)


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


def _round_laws(
    total: int, zs, p00, p10, log_tail=analytics._WINDOW_LOG_TAIL
) -> Iterator[tuple[int, np.ndarray]]:
    """Exact one-round laws Bin(z, p00) * Bin(total - z, p10) of the zero-count.

    Yields one (lo, law) per entry of ``zs``, in order and lazily: law[i] is
    the probability of lo + i zeros.  Both binomials are evaluated on their
    ``analytics._windows`` windows for ``log_tail`` (a scalar or one value
    per entry of ``zs``), outside which each tail holds less than
    exp(-log_tail), so a law lacks less than 4 exp(-log_tail) of its mass;
    at the default, less than the smallest double.
    """
    zs = np.asarray(zs)
    windows = analytics._windows(
        np.column_stack([zs, total - zs]).ravel(),
        np.column_stack([p00, p10]).ravel(),
        np.repeat(np.broadcast_to(log_tail, zs.shape), 2),
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
    _at_most(("zeros", "ones"), total, EXHAUSTIVE_MAX_AGENTS, "for the exhaustive oracle")
    NetworkModel(q=q)
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

    The arguments are checked as a ``ProtocolConfig``, and n past half of
    ``EXACT_CHAIN_MAX_AGENTS`` raises UnsupportedSizeError naming ``n``.
    The start distribution is a point mass at n + delta.  Each full round,
    every round but the last, adds for every live z in ascending order the
    kernel row at z (the convolution Bin(z, p_keep) * Bin(2n - z, p_adopt),
    kept on its window) weighted by the mass at z.  keep/adopt come from
    one ``analytics.transition_values`` call per round, at that round's
    live z.  Rows are built lazily, and a row is kept only while another
    full round follows, so three rounds from a point mass hold one row.
    Only counts 0 and 2n matter after the last round: their masses from z
    are the end entries of the row at z, exp(z log(1 - p_keep))
    exp(o log(1 - p_adopt)) and exp(z log p_keep) exp(o log p_adopt) with
    o = 2n - z, summed over the live z in the same order, so the last round
    builds no row.  Where a Chernoff bound decides the last round from z
    (``_decided_ends``), those two masses are their correctly rounded
    values, (1.0, 0.0) or (0.0, 1.0), and keep/adopt are evaluated only at
    the undecided z: at 2n = 1000, three rounds from a tie decide 692 of
    the last round's 1001 live states at q = 0.5 and 410 at q = 0.8.  A
    decision toward count 0 gives the bytes the kernel's keep/adopt give;
    one toward 2n replaces a keep^z adopt^o that the kernel, a few ulps
    low near 1, put up to about 1e-12 below 1.0.  So one round from
    (500, 160) at q = 0.5 returns exactly 1.0, but 1 - P is still not a
    failure probability: the true one there is 8.6e-22, and P carries the
    kernel's absolute error wherever it is not decided.  A state whose row
    is the point mass at itself is absorbing (0 and 2n always are); once
    every live state is, the law stops changing and the chain stops.

    The solve is pruned at the floor ``_CHAIN_FLOOR`` = 2^-80: a state
    lighter than it is not live, so it gets no row and no keep/adopt, and
    a row built for the last full round, which keeps no rows, drops each
    binomial tail below weight * exp(-L) with L = log(weight / floor).  The
    mass dropped is at most the pruned states' mass plus 4 weight exp(-L)
    per trimmed row.  The pruned result is returned only if that bound is
    at most ``_CHAIN_CERTIFIED_SHARE`` = 2^-55 of both probabilities, well
    under an ulp of either; otherwise the same solve runs with the floor
    at 0, which prunes nothing and builds every row on its 1e-340 windows.
    """
    ProtocolConfig(n=n, delta=delta, rounds=rounds, network=NetworkModel(q=q))
    _at_most(
        ("n",), n, EXACT_CHAIN_MAX_AGENTS // 2,
        f"for the exact chain, which supports at most {EXACT_CHAIN_MAX_AGENTS} agents",
    )
    p_consensus, p_majority, dropped = _chain(n, delta, q, rounds, _CHAIN_FLOOR)
    # p_majority <= p_consensus, so this certifies both; a zero value only with nothing dropped
    if dropped > _CHAIN_CERTIFIED_SHARE * p_majority:
        p_consensus, p_majority, _ = _chain(n, delta, q, rounds, 0.0)
    return min(p_consensus, 1.0), min(p_majority, 1.0)


def _decided_ends(total: int, zs, q: float) -> np.ndarray:
    """(2, len(zs)) masses at counts 0 and ``total`` one round after each z of ``zs``.

    Where a Chernoff (1952) bound, ``analytics._transition_log_bounds``,
    decides the round, the masses are their correctly rounded values:
    (1.0, 0.0) when K and A, bounds on keep and adopt at z, have
    z K + o A < _DECIDED_SHARE = 2^-60 and z ln K + o ln A < _DECIDED_LOG
    = -750, and (0.0, 1.0) when the same test passes at the mirror state
    total - z: swapping the labels 0 and 1 makes keep and adopt there
    1 - adopt and 1 - keep at z, so z is decided toward total exactly when
    total - z is decided toward 0.  The mass at 0, (1 - keep)^z
    (1 - adopt)^o, is then at least 1 - (z keep + o adopt) > 1 - 2^-60,
    and doubles above 1 - 2^-54 round to 1.0; the mass at 2n, keep^z
    adopt^o, is below e^-750, under half the smallest subnormal
    (e^-745.13), so it rounds to 0.0.  The factor-64 margin between 2^-60
    and 2^-54 also covers the kernel's own relative error, at most
    8.3 u (1 + |ln P|) measured with u = 2^-53 (5e-13 deep in the tails):
    where the low side decides, the kernel's keep and adopt give the same
    1.0 and 0.0 (np.exp returns 1.0 on [-2^-60, 0] and 0.0 from -750
    down), so a low-side decision changes no byte.  Undecided states, and
    z = 0 and z = total, get NaN.  Temporaries are O(len(zs)).
    """
    zs = np.asarray(zs, dtype=np.int64)
    ends = np.full((2, len(zs)), np.nan)
    inner = np.flatnonzero((zs > 0) & (zs < total))
    both = np.concatenate([zs[inner], total - zs[inner]])  # each z, then its mirror
    log_keep, log_adopt = analytics._transition_log_bounds(total, both, q)
    z = both.astype(np.float64)
    o = total - z
    certain = (z * np.exp(log_keep) + o * np.exp(log_adopt) < _DECIDED_SHARE) & (
        z * log_keep + o * log_adopt < _DECIDED_LOG
    )
    for decided, masses in zip(certain.reshape(2, -1), ((1.0, 0.0), (0.0, 1.0))):
        ends[:, inner[decided]] = np.array(masses)[:, None]
    return ends


def _chain(n: int, delta: int, q: float, rounds: int, floor: float) -> tuple[float, float, float]:
    """(P{consensus}, P{majority consensus}, bound on the mass dropped) with ``floor``.

    The solve of ``exact_chain_consensus_probability``, states lighter than
    ``floor`` pruned; at floor 0 nothing is dropped and the bound is 0.
    """
    total = 2 * n
    dist = np.zeros(total + 1)
    dist[n + delta] = 1.0
    dropped = 0.0
    rows: dict[int, tuple[int, np.ndarray]] = {}
    for round_index in range(1, rounds + 1):
        live = np.flatnonzero(dist > 0.0)
        light = dist[live] < floor
        dropped += float(dist[live[light]].sum())
        live = live[~light]
        if round_index == rounds:
            break
        p00, p10 = analytics.transition_values(total, live, q)
        absorbing = ((p00 == 1.0) | (live == 0)) & ((p10 == 0.0) | (live == total))
        if absorbing.all():
            break
        # Rows of a full round are kept, at full width, for later full rounds
        # that reach the same z.  A variant that kept none, rebuilding each
        # full round's rows trimmed by weight as the last one's are, moved one
        # value by 1 ulp and, on a 2-core host, took 0.41-0.44 s instead of
        # 0.58-0.76 s for 5 rounds from a tie at 2n = 1000 over five q (peak
        # traced memory 3.5 MB instead of 9.3 MB), the same for 3 rounds, but
        # 1.7-1.8 s instead of 0.14-0.17 s for n = 3, q = 0.999, 3000 rounds
        # and 0.086-0.090 s instead of 0.025-0.028 s for n = 7, q = 0.9, 300
        # rounds: slowly mixing chains revisit the same z in every round.
        keep_rows = round_index < rounds - 1
        missing = np.array([z not in rows for z in live.tolist()], dtype=bool)
        log_tail = analytics._WINDOW_LOG_TAIL
        if not keep_rows:
            weight = dist[live[missing]]
            with np.errstate(divide="ignore"):
                log_tail = np.minimum(np.log(weight / floor), log_tail)
            dropped += float(np.sum(4.0 * weight * np.exp(-log_tail)))
        laws = _round_laws(total, live[missing], p00[missing], p10[missing], log_tail)
        new = np.zeros(total + 1)
        for z in live.tolist():
            lo, part = rows[z] if z in rows else next(laws)
            if keep_rows:
                rows[z] = lo, part
            new[lo : lo + len(part)] += dist[z] * part
        laws.close()  # frees its last pass's scratch before the next round's evaluation
        dist = new
    # the last round's masses at 0 and 2n: decided, or the end entries of the row at z
    ends = _decided_ends(total, live, q)
    undecided = np.flatnonzero(np.isnan(ends[0]))
    zs = live[undecided]
    p00, p10 = analytics.transition_values(total, zs, q)
    keep_ends = np.exp(analytics._end_log_pmfs(zs, p00))
    gain_ends = np.exp(analytics._end_log_pmfs(total - zs, p10))
    ends[:, undecided] = keep_ends * gain_ends
    # cumsum adds in z order, as adding each row in turn does; np.sum would add pairwise
    masses = np.cumsum(dist[live] * ends, axis=1)[:, -1].tolist()
    initial = OpinionCounts(zeros=n + delta, ones=n - delta)
    p_consensus, p_majority = (
        sum(compress(masses, event_mask(e, initial, [0, total])))
        for e in ("consensus", "majority_consensus")
    )
    return p_consensus, p_majority, dropped
