"""Trial runners and exact oracles for the round dynamics.

Two sampling paths produce protocol runs:

* the aggregated path draws the next zero-count directly as
  Bin(z, p_keep_zero) + Bin(o, p_adopt_zero), valid because per-receiver
  loss patterns are disjoint sets of i.i.d. variables; each round takes
  keep/adopt for all its distinct zero-counts from one call to
  ``analytics.transition_values``, the evaluator and memo the exact
  oracles use too;
* the per-agent path simulates every receiver's received counts and applies
  the decision rule, serving as the reference implementation; it holds one
  agents x trials matrix of opinions per batch, so it stops at
  ``PER_AGENT_MAX_AGENTS``.

Both run their rounds on rows of a per-thread workspace: two rows take
turns holding the current and the next zero-counts, and the draws go into
the third, so a batch of up to 2^16 trials faults in no new pages for
them and its memory does not grow with the rounds.  The first round, from
the one initial state, draws from scalar m and p.  ``run_trials_batch``
copies every round into a new (rounds + 1, trials) array, and
``run_trial`` wraps one column of it as a ``TrialOutcome``;
``final_zeros_into``, which every Monte Carlo chunk of ``experiments``
runs through, writes only the last round into its caller's array, and
``model.event_mask`` scores it.

Two oracles pin the dynamics down exactly: an exhaustive enumeration of
all loss patterns for systems of up to 6 agents, and an exact Markov chain
on the zero-count for systems of up to 1000 agents, whose lazy rows,
closed-form last round, decided states and certified pruning
``exact_chain_consensus_probability`` describes.

A trajectory holds rounds + 1 rows, so a Monte Carlo run stops at
``_MONTE_CARLO_MAX_ROUNDS`` rounds, and the exact chain, whose cost grows
with the rounds until its law stops changing, at ``_CHAIN_MAX_ROUNDS``.
This module owns the ceilings of its paths and oracles:
``check_run_size`` and the oracles check them before any work, and an
UnsupportedSizeError names the parameters past one.

All runs are keyed by (master_seed, trial); batching trials or changing
worker counts never changes any draw.
"""

from __future__ import annotations

import threading
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import compress

import numpy as np

# the sampler is called as rng.sample_binomial_lanes: perfbench/spans.py
# wraps an engine-level sampler name with a counter that takes no out=
from . import analytics, rng
from .model import (
    NetworkModel, OpinionCounts, ProtocolConfig, event_mask, majority_rule, majority_update,
)

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
# The per-agent path holds one int8 matrix of 2n x trials opinions per
# batch; at the estimate chunk of 2^16 trials and 2n = 1000 that is
# 1000 * 65,536 bytes, about 66 MB.
PER_AGENT_MAX_AGENTS = 1000
# ``run_trials_batch`` returns one (rounds + 1) x trials int64 trajectory;
# at the estimate chunk of 2^16 trials, 255 rounds make 256 rows of 2^19
# bytes, 128 MiB.  Estimates hold two workspace rows per thread whatever the
# rounds, and keep the same ceiling, since every Monte Carlo run is checked
# by ``check_run_size``.
_MONTE_CARLO_MAX_ROUNDS = 255
# A full round of the exact chain at 2n = 1000 with all 1001 states live
# took 3-4 ms once its rows were built, and 0.10-0.13 s in the round that
# builds them (q = 0.2, 0.5 and 0.8, floor 0; 2-core x86-64, numpy 2.4, one
# BLAS thread).  10,000 rounds therefore cost at most about 40 s per solve,
# and twice that when the pruned solve is not certified and the unpruned
# one runs; a chain whose every live state is absorbing stops earlier.
_CHAIN_MAX_ROUNDS = 10_000
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

_workspace = threading.local()

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


def _live(z: np.ndarray, total: int):
    """Index of the trials whose zero-count ``z`` is not absorbed (neither 0 nor ``total``).

    A slice when every trial is live, as in most rounds of a run from an
    interior state, so that indexing with it gathers and scatters nothing.
    """
    live = (z > 0) & (z < total)
    return slice(None) if np.count_nonzero(live) == len(z) else np.flatnonzero(live)


def _zero_count_rows(size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Three int64 rows of ``size`` lanes for one batch of rounds.

    Up to ``rng._WORKSPACE_LANES`` lanes (a ``CHUNK_TRIALS`` chunk) they
    are views of this thread's workspace, made on its first batch and
    reused by every later one, so a batch faults in no new pages for them;
    a larger batch gets new rows.  Two rows take turns holding the current
    and the next zero-counts and the third holds draws, so no caller keeps
    one past its batch.
    """
    if size > rng._WORKSPACE_LANES:
        return tuple(np.empty((3, size), dtype=np.int64))
    rows = getattr(_workspace, "rows", None)
    if rows is None:
        rows = _workspace.rows = np.empty((3, rng._WORKSPACE_LANES), dtype=np.int64)
    return tuple(rows[:, :size])


def _aggregated_rounds(
    zeros0: int,
    total: int,
    q: float,
    rounds: int,
    master_seed: int,
    trial_ids: np.ndarray,
    out: np.ndarray,
) -> Iterator[np.ndarray]:
    """Zero-counts after each round of the aggregated path, the last round's in ``out``.

    Every trial starts at ``zeros0``, so round 1 draws from scalar z, keep
    and adopt.  Kept zeros are drawn into the next row and gained ones into
    the third, then added; a round with absorbed trials draws its live
    trials into the third row and the current one, which it has copied
    into the next row first, and scatters their sum.  A yielded row before
    the last is valid until the next one is yielded.
    """
    rows = _zero_count_rows(len(trial_ids))
    z = zeros0
    for round_index in range(1, rounds + 1):
        row = out if round_index == rounds else rows[round_index % 2]
        if np.ndim(z) == 0 and not 0 < z < total:  # an absorbed start
            row.fill(z)
            z = row
            yield row
            continue
        live = slice(None) if np.ndim(z) == 0 else _live(z, total)
        zs = z if np.ndim(z) == 0 else z[live]
        ids = trial_ids[live]
        if isinstance(live, slice):
            kept, gained = row, rows[2]
        else:
            row[...] = z  # z's row is free from here on: its live counts are in zs
            kept, gained = rows[2][: len(ids)], z[: len(ids)]
        if ids.size:
            p00, p10 = analytics.transition_values(total, zs, q)
            rng.sample_binomial_lanes(
                zs, p00, master_seed, ids, round_index, np.uint64(0), out=kept
            )
            rng.sample_binomial_lanes(
                total - zs, p10, master_seed, ids, round_index, np.uint64(1), out=gained
            )
            kept += gained
            if not isinstance(live, slice):
                row[live] = kept
        z = row
        yield row


def _per_agent_rounds(
    bits0: tuple[int, ...],
    q: float,
    rounds: int,
    master_seed: int,
    trial_ids: np.ndarray,
    out: np.ndarray,
) -> Iterator[np.ndarray]:
    """Zero-counts after each round of the per-agent path, the last round's in ``out``.

    Each receiver draws its delivered zero- and one-counts from its own
    (trial, round, agent-side) stream; independence across receivers holds
    because every message's loss is a distinct i.i.d. variable.  The bits
    are agent-major, one int8 row of trials per agent, 2n x trials bytes
    per batch.  An agent's draws depend only on its own bit and the
    round's zero-counts, so ``model.majority_rule`` updates its row in
    place.  Every trial starts in the state ``bits0``, so in round 1 each
    agent's bit, m and p are scalars.  The draws go into the third
    workspace row and the next one, which is written only after the round.

    Each agent side gets its own sampler call.  In a round from a single
    state every trial gives an agent side the same (m, p), so each call
    takes ``rng.sample_binomial_lanes``' one-pair path: one cached CDF
    searched in place.  One call per round over all 2 * 2n groups draws
    the same bytes, but it mixes the sides' (m, p), so the sampler sorts
    all its lanes by (m, p), gathers them and scatters the draws back; it
    took about twice as long when it was measured.  On 300,000 trials at
    n = 2 (the per-agent part of the ``mc-sampling`` benchmark) this path
    takes 0.08 s (best of seven warm calls, 2-core x86-64, numpy 2.4).
    """
    total = len(bits0)
    bits = np.empty((total, len(trial_ids)), dtype=np.int8)
    rows = _zero_count_rows(len(trial_ids))
    q_prime = 1.0 - q
    z = bits0.count(0)
    for round_index in range(1, rounds + 1):
        row = out if round_index == rounds else rows[round_index % 2]
        first = np.ndim(z) == 0
        live = slice(None) if first else _live(z, total)
        ids, z_act = (trial_ids, z) if first else (trial_ids[live], z[live])
        if first and not 0 < z < total:  # an absorbed start
            bits[...] = np.array(bits0, dtype=np.int8)[:, None]
        elif ids.size:
            o_act = total - z_act
            d0, d1 = rows[2][: len(ids)], row[: len(ids)]
            for j in range(total):
                own = bits0[j] if first else bits[j, live]
                own_zero, own_one = own == 0, own != 0
                rng.sample_binomial_lanes(
                    z_act - own_zero, q_prime, master_seed, ids, round_index, np.uint64(2 * j),
                    out=d0,
                )
                rng.sample_binomial_lanes(
                    o_act - own_one, q_prime, master_seed, ids, round_index,
                    np.uint64(2 * j + 1), out=d1,
                )
                d0 += own_zero
                d1 += own_one
                if isinstance(live, slice):
                    majority_rule(own, d0, d1, out=bits[j])
                else:
                    bits[j, live] = majority_rule(own, d0, d1, out=own)
        np.sum(bits, axis=0, dtype=np.int64, out=row)
        np.subtract(total, row, out=row)
        z = row
        yield row


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


def _checked_trial_ids(config: ProtocolConfig, trial_ids, mode: str) -> np.ndarray:
    """``trial_ids`` as uint64, after ``check_run_size``.

    Ids that are not nonnegative integers (bool and float included) raise a
    ValueError naming ``trial_ids``.
    """
    check_run_size(config, mode)
    return analytics._integer_array(trial_ids, "trial_ids", np.uint64)


def _rounds(
    config: ProtocolConfig, trial_ids: np.ndarray, master_seed: int, mode: str, out: np.ndarray
) -> Iterator[np.ndarray]:
    """The zero-counts after each round of ``config``, from ``mode``'s path; the last in ``out``."""
    initial = config.initial_state()
    q = config.network.q
    if mode == MODE_AGGREGATED:
        return _aggregated_rounds(
            initial.zeros, initial.total, q, config.rounds, master_seed, trial_ids, out
        )
    bits0 = (0,) * initial.zeros + (1,) * initial.ones
    return _per_agent_rounds(bits0, q, config.rounds, master_seed, trial_ids, out)


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
    is built; ids that are not nonnegative integers (bool and float
    included) raise a ValueError naming ``trial_ids``.  The array is new
    on every call.
    """
    trial_ids = _checked_trial_ids(config, trial_ids, mode)
    traj = np.empty((config.rounds + 1, len(trial_ids)), dtype=np.int64)
    traj[0] = config.initial_state().zeros
    for row, zeros in zip(traj[1:], _rounds(config, trial_ids, master_seed, mode, traj[-1])):
        row[...] = zeros
    return traj


def final_zeros_into(
    out: np.ndarray,
    config: ProtocolConfig,
    trial_ids,
    master_seed: int,
    mode: str = MODE_AGGREGATED,
) -> np.ndarray:
    """Write the last row of ``run_trials_batch(config, trial_ids, ...)`` into ``out``; return it.

    The package's Monte Carlo chunks run through here: ``out`` is a
    C-contiguous int64 array of len(trial_ids) lanes that the caller
    allocates once, and the rounds before the last live in this thread's
    workspace (``_zero_count_rows``), so a chunk's memory does not grow
    with ``config.rounds``.  The checks are ``run_trials_batch``'s.
    """
    trial_ids = _checked_trial_ids(config, trial_ids, mode)
    if not (
        isinstance(out, np.ndarray) and out.dtype == np.int64
        and out.shape == trial_ids.shape and out.flags.c_contiguous
    ):
        raise ValueError(f"out must be a C-contiguous int64 array of shape {trial_ids.shape}")
    for _ in _rounds(config, trial_ids, master_seed, mode, out):
        pass
    return out


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
    ``analytics._windows`` windows for the scalar ``log_tail``, outside
    which each tail holds less than exp(-log_tail), so a law lacks less
    than 4 exp(-log_tail) of its mass; at the default, less than the
    smallest double.
    """
    zs = np.asarray(zs)
    windows = analytics._windows(
        np.column_stack([zs, total - zs]).ravel(), np.column_stack([p00, p10]).ravel(), log_tail
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

    The arguments are checked as a ``ProtocolConfig``; n past half of
    ``EXACT_CHAIN_MAX_AGENTS`` raises UnsupportedSizeError naming ``n``, and
    rounds past ``_CHAIN_MAX_ROUNDS`` = 10,000 one naming ``rounds``.
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
    one toward 2n replaces a keep^z adopt^o that the kernel, up to tens of
    ulps low near 1, put up to about 1e-12 below 1.0.  So one round from
    (500, 160) at q = 0.5 returns exactly 1.0, but 1 - P is still not a
    failure probability: the true one there is 8.6e-22, and P carries the
    kernel's absolute error wherever it is not decided.  A state whose row
    is the point mass at itself is absorbing (0 and 2n always are); once
    every live state is, the law stops changing and the chain stops.

    The solve is pruned at the floor ``_CHAIN_FLOOR`` = 2^-80: a state
    lighter than it is not live, so it gets no row and no keep/adopt, and
    every row, kept or not, is built on windows for L = -log floor, outside
    which each binomial holds less than floor per side.  A row that misses
    a count of 0..2n lacks less than 4 floor of its mass at any weight, so
    the mass dropped is at most the pruned states' mass plus, each round,
    4 floor times the live mass whose row is cut.  The pruned result is
    returned only if that bound is at most ``_CHAIN_CERTIFIED_SHARE`` =
    2^-55 of both probabilities, well under an ulp of either; otherwise the
    same solve runs with the floor at 0, which prunes nothing and builds
    every row on its 1e-340 windows.
    """
    ProtocolConfig(n=n, delta=delta, rounds=rounds, network=NetworkModel(q=q))
    _at_most(
        ("n",), n, EXACT_CHAIN_MAX_AGENTS // 2,
        f"for the exact chain, which supports at most {EXACT_CHAIN_MAX_AGENTS} agents",
    )
    _at_most(("rounds",), rounds, _CHAIN_MAX_ROUNDS, "for the exact chain")
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
    (e^-745.13), so it rounds to 0.0.  The margins 2^-60 to 2^-54 and
    e^-750 to e^-745.13 also cover the kernel's own error below 1/2, within
    12 u (1 + |ln P|) with u = 2^-53, so under 1e-12 relative above 1e-300:
    where the low side decides, the kernel's keep and adopt give the same
    1.0 and 0.0 for 2n up to 1000, so a low-side decision changes no byte.
    Undecided states, and z = 0 and z = total, get NaN.  Temporaries are
    O(len(zs)).
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
    ``floor`` pruned and every row cut at L = -log floor (at floor 0, on its
    1e-340 window); at floor 0 nothing is dropped and the bound is 0.
    """
    total = 2 * n
    dist = np.zeros(total + 1)
    dist[n + delta] = 1.0
    dropped = 0.0
    # exp(-L) is the floor: every positive double floor is above the 1e-340 tail
    log_tail = -np.log(floor) if floor else analytics._WINDOW_LOG_TAIL
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
        keep_rows = round_index < rounds - 1
        missing = np.array([z not in rows for z in live.tolist()], dtype=bool)
        laws = _round_laws(total, live[missing], p00[missing], p10[missing], log_tail)
        new = np.zeros(total + 1)
        cut_weight = 0.0
        for z in live.tolist():
            lo, part = rows[z] if z in rows else next(laws)
            if keep_rows:
                rows[z] = lo, part
            if lo > 0 or lo + len(part) <= total:  # the row misses a count of 0..2n
                cut_weight += dist[z]
            new[lo : lo + len(part)] += dist[z] * part
        laws.close()  # frees its last pass's scratch before the next round's evaluation
        dropped += 4.0 * floor * cut_weight
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
