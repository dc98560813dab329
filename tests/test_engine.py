import ast
import hashlib
import inspect
import math
import pickle
import signal
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from smpsim import analytics, cli, engine, experiments, verify
from smpsim.engine import (
    CountDistribution,
    TrialOutcome,
    UnsupportedSizeError,
    MODE_AGGREGATED,
    MODE_PER_AGENT,
    PER_AGENT_MAX_AGENTS,
    aggregated_round_distribution,
    exact_chain_consensus_probability,
    exhaustive_round_distribution,
    final_zeros_into,
    run_trial,
    run_trials_batch,
)
from smpsim.model import NetworkModel, OpinionCounts, ProtocolConfig, event_mask

from oracles import (
    binomial_inversion,
    chain_forward_loop,
    chain_mpmath,
    consensus_from_tie_probability,
    global_pattern_round_law,
    philox4x64,
)

SEED = 20_240_601
#: The q values of the exact chain's byte-equality grid.
CHAIN_QS = (0.0, 1e-9, 0.05, 0.5, 0.95, 1.0 - 1e-9, 1.0)
#: Absolute error bounds, in units of u = 2^-53, of the chain against the
#: 50-digit chain on the byte grid's cases with n <= 20.  Measured worst:
#: 7.4 u at q = 0.95, 6.9 u at 0.5, 5.4 u at 0.05, 0.16 u at 1 - 1e-9, 0 at
#: q = 0 and 1, and 269 u at q = 1e-9, where P{consensus} ~ 4e-7 is carried
#: by 1 - keep ~ 6e-9 and the kernel's keep is good to a few ulps of 1, not
#: of 1 - keep.  Relative precision for small values needs complements
#: carried through the chain.
MPMATH_CHAIN_ULPS = {1e-9: 320.0}
MPMATH_CHAIN_DEFAULT_ULPS = 10.0
#: (n, delta, q) of the pruning check: the byte-equality grid, then 2n = 500
#: and 1000 from a tie.
PRUNING_GRID = [
    (n, delta, q) for n in (1, 2, 3, 7, 40, 100) for q in CHAIN_QS
    for delta in sorted({-n, -1, 0, 1, n})
] + [(n, 0, q) for n in (250, 500) for q in (0.2, 0.5, 0.8, 0.95, 0.99)]


class TestExhaustiveOracle:
    def test_point_masses(self):
        dist = exhaustive_round_distribution(OpinionCounts(2, 0), 0.3)
        assert dist.probabilities[2] == pytest.approx(1.0, abs=1e-15)
        dist = exhaustive_round_distribution(OpinionCounts(1, 1), 0.7)
        assert dist.probabilities[1] == pytest.approx(1.0, abs=1e-15)

    def test_against_global_pattern_enumeration(self):
        # the receiver-factorized enumeration must equal a literal walk over
        # every one of the 2^(2n(2n-1)) loss masks
        for zeros, ones in [(2, 2), (3, 1), (1, 3), (4, 0), (1, 1)]:
            for q in (0.25, 0.5, 0.8):
                law = global_pattern_round_law(zeros, ones, q)
                dist = exhaustive_round_distribution(OpinionCounts(zeros, ones), q)
                assert np.allclose(dist.probabilities, law, atol=1e-12)

    def test_two_two_matches_transition_convolution(self):
        dist = exhaustive_round_distribution(OpinionCounts(2, 2), 0.5)
        p_keep = analytics.keep_zero_probability(2, 2, 0.5)
        p_adopt = analytics.adopt_zero_probability(2, 2, 0.5)
        assert p_keep == pytest.approx(0.875, abs=1e-13)
        expected = np.convolve(
            [(1 - p_keep) ** 2, 2 * p_keep * (1 - p_keep), p_keep**2],
            [(1 - p_adopt) ** 2, 2 * p_adopt * (1 - p_adopt), p_adopt**2],
        )
        assert np.allclose(dist.probabilities, expected, atol=1e-12)

    def test_size_limit(self):
        with pytest.raises(UnsupportedSizeError):
            exhaustive_round_distribution(OpinionCounts(4, 4), 0.5)

    @pytest.mark.parametrize("q", [1.5, -0.5, float("nan")])
    def test_q_checked_as_a_network_model(self, q):
        with pytest.raises(ValueError) as network_error:
            NetworkModel(q=q)
        with pytest.raises(ValueError) as oracle_error:
            exhaustive_round_distribution(OpinionCounts(1, 1), q)
        assert str(oracle_error.value) == str(network_error.value)

    def test_aggregated_equivalence_all_tiny_systems(self):
        for total in (2, 4, 6):
            for z in range(total + 1):
                counts = OpinionCounts(z, total - z)
                for q in (0.25, 0.5, 0.75):
                    exh = exhaustive_round_distribution(counts, q)
                    agg = aggregated_round_distribution(counts, q)
                    assert np.abs(exh.probabilities - agg.probabilities).max() <= 1e-12


class TestCountDistribution:
    def test_validation(self):
        with pytest.raises(ValueError):
            CountDistribution(probabilities=np.array([0.5, 0.4]))  # support too small
        with pytest.raises(ValueError):
            CountDistribution(probabilities=np.array([0.5, 0.6, 0.2]))  # sums to 1.3
        with pytest.raises(ValueError):
            CountDistribution(probabilities=np.array([-0.1, 0.6, 0.5]))

    def test_total_variation(self):
        a = CountDistribution(probabilities=np.array([0.5, 0.25, 0.25]))
        b = CountDistribution(probabilities=np.array([0.25, 0.25, 0.5]))
        assert a.total_variation(b) == pytest.approx(0.25)
        assert a.total == 2
        wider = CountDistribution(probabilities=np.array([0.25, 0.25, 0.25, 0.25, 0.0]))
        with pytest.raises(ValueError, match="supports differ"):
            a.total_variation(wider)


def _one_round(counts, q, trials, mode):
    """Zero-count trajectories (2, trials) of one round from ``counts``."""
    n, delta = counts.total // 2, (counts.zeros - counts.ones) // 2
    cfg = ProtocolConfig(n=n, delta=delta, rounds=1, network=NetworkModel(q=q))
    return run_trials_batch(cfg, range(trials), SEED, mode=mode)


MODES = [MODE_AGGREGATED, MODE_PER_AGENT]


class TestOneRound:
    @pytest.mark.parametrize("mode", MODES)
    def test_conserves_total(self, mode):
        zeros = _one_round(OpinionCounts(30, 20), 0.4, 50, mode)
        assert np.all(zeros[0] == 30)
        assert np.all((zeros[1] >= 0) & (zeros[1] <= 50))
        assert len(np.unique(zeros[1])) > 1

    @pytest.mark.parametrize("mode", MODES)
    def test_absorbing(self, mode):
        for counts in (OpinionCounts(10, 0), OpinionCounts(0, 8)):
            zeros = _one_round(counts, 0.37, 20, mode)
            assert np.all(zeros[1] == counts.zeros)

    @pytest.mark.parametrize("mode", MODES)
    def test_split_pair_invariant(self, mode):
        assert np.all(_one_round(OpinionCounts(1, 1), 0.6, 20, mode)[1] == 1)

    @pytest.mark.parametrize("mode", MODES)
    def test_no_delivery_keeps_state(self, mode):
        # bits (0, 1, 1, 0, 1, 0): nothing is delivered at q = 1
        assert np.all(_one_round(OpinionCounts(3, 3), 1.0, 20, mode)[1] == 3)

    @pytest.mark.parametrize("mode", MODES)
    def test_reliable_network(self, mode):
        # bits (0, 0, 0, 1) reach consensus on 0; a tie (0, 0, 1, 1) stays put
        assert np.all(_one_round(OpinionCounts(3, 1), 0.0, 20, mode)[1] == 4)
        assert np.all(_one_round(OpinionCounts(2, 2), 0.0, 20, mode)[1] == 2)


class TestRunTrial:
    def test_split_state_never_consensus(self):
        cfg = ProtocolConfig(n=1, delta=0, rounds=10, network=NetworkModel(q=0.5))
        for trial in range(30):
            out = run_trial(cfg, trial, SEED)
            assert not out.consensus
            assert out.trajectory[-1] == OpinionCounts(1, 1)

    def test_absorbing_start(self):
        cfg = ProtocolConfig(n=2, delta=2, rounds=1, network=NetworkModel(q=0.9))
        out = run_trial(cfg, 0, SEED)
        assert out.consensus and out.majority_consensus
        assert out.final_value == 0

    def test_reliable_tie_is_constant(self):
        cfg = ProtocolConfig(n=100, delta=0, rounds=3, network=NetworkModel(q=0.0))
        out = run_trial(cfg, 0, SEED)
        assert all(c == OpinionCounts(100, 100) for c in out.trajectory)
        assert not out.consensus

    def test_trajectory_shape_and_conservation(self):
        cfg = ProtocolConfig(n=40, delta=3, rounds=4, network=NetworkModel(q=0.3))
        out = run_trial(cfg, 7, SEED)
        assert len(out.trajectory) == 5
        assert all(c.total == 80 for c in out.trajectory)
        assert out.trajectory[0] == OpinionCounts(43, 37)

    def test_determinism_and_batch_equivalence(self):
        cfg = ProtocolConfig(n=50, delta=1, rounds=3, network=NetworkModel(q=0.5))
        a = run_trial(cfg, 11, SEED)
        b = run_trial(cfg, 11, SEED)
        assert a == b
        batch = run_trials_batch(cfg, np.arange(20, dtype=np.uint64), SEED)
        assert batch.shape == (4, 20)
        assert [c.zeros for c in a.trajectory] == batch[:, 11].tolist()
        # splitting the batch does not change any lane
        left = run_trials_batch(cfg, np.arange(10, dtype=np.uint64), SEED)
        right = run_trials_batch(cfg, np.arange(10, 20, dtype=np.uint64), SEED)
        assert np.array_equal(batch, np.concatenate([left, right], axis=1))

    def test_per_agent_mode(self):
        cfg = ProtocolConfig(n=3, delta=1, rounds=2, network=NetworkModel(q=0.4))
        out = run_trial(cfg, 2, SEED, mode=MODE_PER_AGENT)
        assert len(out.trajectory) == 3
        assert out.trajectory[0] == OpinionCounts(4, 2)
        assert out == run_trial(cfg, 2, SEED, mode=MODE_PER_AGENT)

    def test_early_exit_padding(self):
        cfg = ProtocolConfig(n=2, delta=2, rounds=5, network=NetworkModel(q=0.2))
        out = run_trial(cfg, 0, SEED)
        assert len(out.trajectory) == 6
        assert all(c == OpinionCounts(4, 0) for c in out.trajectory)

    def test_outcome_flags_match_predicates(self):
        # at q = 0.8 some lanes of (5, 3) reach consensus in three rounds and some do not
        cfg = ProtocolConfig(n=4, delta=1, rounds=3, network=NetworkModel(q=0.8))
        final = run_trials_batch(cfg, np.arange(200, dtype=np.uint64), SEED)[-1]
        cons = event_mask("consensus", cfg.initial_state(), final)
        maj = event_mask("majority_consensus", cfg.initial_state(), final)
        assert cons.any() and not cons.all()
        for lane in range(0, 200, 17):
            out = run_trial(cfg, lane, SEED)
            assert out.consensus == bool(cons[lane])
            assert out.majority_consensus == bool(maj[lane])
            assert out.final_value == {8: 0, 0: 1}.get(int(final[lane]))

    def test_per_agent_ceiling_checked_before_work(self, monkeypatch):
        def no_rounds(*args, **kwargs):
            raise AssertionError("the per-agent path ran past its ceiling")

        monkeypatch.setattr(engine, "_per_agent_rounds", no_rounds)
        n = PER_AGENT_MAX_AGENTS // 2 + 1
        cfg = ProtocolConfig(n=n, delta=0, rounds=1, network=NetworkModel(q=0.5))
        with pytest.raises(UnsupportedSizeError, match=f"^n must be at most {n - 1} .*, got {n}$"):
            run_trials_batch(cfg, range(4), SEED, mode=MODE_PER_AGENT)
        # the aggregated path has no such ceiling
        assert run_trials_batch(cfg, range(4), SEED).shape == (2, 4)

    def test_size_error_names_its_parameters_and_pickles(self):
        # a refusal may cross a process boundary; it keeps its names and message
        cfg = ProtocolConfig(n=2, delta=0, rounds=256, network=NetworkModel(q=0.5))
        with pytest.raises(UnsupportedSizeError) as refusal:
            engine.check_run_size(cfg, MODE_AGGREGATED)
        copy = pickle.loads(pickle.dumps(refusal.value))
        assert copy.names == refusal.value.names == ("rounds",)
        assert str(copy) == str(refusal.value) == (
            "rounds must be at most 255 for a Monte Carlo run, got 256"
        )

    def test_unknown_mode_refused(self):
        cfg = ProtocolConfig(n=2, delta=0, rounds=1, network=NetworkModel(q=0.5))
        with pytest.raises(ValueError, match="^unknown mode 'bogus'$"):
            engine.check_run_size(cfg, "bogus")

    @pytest.mark.parametrize(
        "ids,message",
        [
            ([7.9], "trial_ids must hold integers, got dtype float64"),
            ([True], "trial_ids must hold integers, got dtype bool"),
            ([3, -1], "trial_ids must be nonnegative"),
        ],
    )
    def test_trial_ids_must_be_nonnegative_integers(self, ids, message):
        cfg = ProtocolConfig(n=2, delta=0, rounds=1, network=NetworkModel(q=0.5))
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_trials_batch(cfg, ids, SEED)
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_trial(cfg, ids[-1], SEED)
        assert run_trials_batch(cfg, [], SEED).shape == (2, 0)

    @pytest.mark.parametrize("mode", MODES)
    def test_rounds_ceiling_checked_before_work(self, monkeypatch, mode):
        def no_rounds(*args, **kwargs):
            raise AssertionError("a trajectory was built past the rounds ceiling")

        monkeypatch.setattr(engine, "_aggregated_rounds", no_rounds)
        monkeypatch.setattr(engine, "_per_agent_rounds", no_rounds)
        rounds = engine._MONTE_CARLO_MAX_ROUNDS + 1
        cfg = ProtocolConfig(n=2, delta=0, rounds=rounds, network=NetworkModel(q=0.5))
        with pytest.raises(UnsupportedSizeError, match=f"^rounds must be at most .*, got {rounds}$"):
            run_trials_batch(cfg, range(4), SEED, mode=mode)


#: sha256 of the int64 bytes of ``run_trials_batch`` trajectories at SEED,
#: trials first..first + count - 1: the aggregated ones recorded before the
#: sampler decided one (m, p) per call, the per-agent ones by version 0.4.0,
#: whose agent pairs share a Philox block per round (before it, one block
#: per agent side).  Keyed by (mode, n, delta, q, rounds, first, count): per
#: agent from a tie, from delta = 1, with live and absorbed trials mixed
#: (n = 3, q = 0.1, three rounds) and at q = 0.9; aggregated from a tie at
#: n = 400 and 1600 (one-pair calls), three rounds at n = 1000, four at
#: n = 40 (live and absorbed mixed), and q = 0 and 1.
PINNED_TRAJECTORY_SHA256 = {
    (MODE_PER_AGENT, 2, 0, 0.5, 1, 0, 10_000):
        "2a738472d676acb76fb2f3993760e128f12b4d1fe5ab036ae38e77f9a11a8825",
    (MODE_PER_AGENT, 2, 1, 0.5, 2, 70000, 10_000):
        "871e33d1e8aada5727316334652147fb248e5584914d3f3df96ed8a6ca1d3b81",
    (MODE_PER_AGENT, 3, 1, 0.1, 3, 0, 9_000):
        "89bd6e10270838672e2f19ba51d301634db0c683c43747b469293ad11047cf86",
    (MODE_PER_AGENT, 5, 2, 0.9, 2, 123, 2_000):
        "7bb805241563b00211976073be77403f388e35ad1f6f33bb330c1e5da2217479",
    (MODE_AGGREGATED, 400, 0, 0.5, 1, 0, 10_000):
        "f14493aeb14c126cb14ef403a70fd29661737429955ef30e64b9ba71a6e019f6",
    (MODE_AGGREGATED, 1600, 0, 0.5, 1, 65000, 10_000):
        "8e02d61a58b582442033d2e7865efeaf7bd0545b82ed6464f76234fe15d41166",
    (MODE_AGGREGATED, 1000, 0, 0.8, 3, 0, 10_000):
        "bf77f48cae7a4bb8f5b0055fde734fb273fa3ede4d4b1ef39f5602ec9dd8091d",
    (MODE_AGGREGATED, 40, 1, 0.5, 4, 3, 5_000):
        "161d5788cfc872bd2fe3df697ca336ba3a3d12f17c48a7afd20093f9085a97f4",
    (MODE_AGGREGATED, 30, 3, 0.0, 2, 0, 3_000):
        "bb402e47f3a7b7b283f87c5adb7d6c5df05d63c56a32fbd5704e764bddfc17a6",
    (MODE_AGGREGATED, 30, 3, 1.0, 2, 0, 3_000):
        "95bdc18b4574c99286fc1aaadb031856dd5d16b1a511e912fe1cf1d8870dd6b1",
}


@pytest.mark.parametrize("case", sorted(PINNED_TRAJECTORY_SHA256), ids=str)
def test_pinned_trajectories(case):
    mode, n, delta, q, rounds, first, count = case
    config = ProtocolConfig(n=n, delta=delta, rounds=rounds, network=NetworkModel(q=q))
    trials = np.arange(first, first + count, dtype=np.uint64)
    traj = run_trials_batch(config, trials, SEED, mode=mode)
    assert traj.dtype == np.int64 and traj.shape == (rounds + 1, count)
    assert hashlib.sha256(traj.tobytes()).hexdigest() == PINNED_TRAJECTORY_SHA256[case]


@pytest.mark.parametrize("case", sorted(PINNED_TRAJECTORY_SHA256), ids=str)
def test_final_zeros_are_the_last_trajectory_row(case):
    mode, n, delta, q, rounds, first, count = case
    config = ProtocolConfig(n=n, delta=delta, rounds=rounds, network=NetworkModel(q=q))
    trials = np.arange(first, first + count, dtype=np.uint64)
    out = np.full(count, -1, dtype=np.int64)
    assert final_zeros_into(out, config, trials, SEED, mode) is out
    assert np.array_equal(out, run_trials_batch(config, trials, SEED, mode=mode)[-1])


def _per_agent_by_hand(n: int, delta: int, q: float, rounds: int, trials: np.ndarray, seed: int):
    """Zero-counts (rounds + 1, trials) of the per-agent path, recomputed from its block rule.

    Side group g = 2j + s of agent j (s = 0 for delivered zeros, 1 for
    ones) reads word g mod 4 of the Philox block (trial, 0, round, g // 4)
    keyed by (seed mod 2^64, "smp-sim\x01"); the blocks come from the
    uint64 Philox of ``oracles`` and each draw inverts scipy's CDF at the
    word's top 53 bits.  Every agent of every trial draws, absorbed ones
    included, since an absorbed state keeps its opinions under the rule.
    """
    domain = int.from_bytes(b"smp-sim\x01", "big")
    total = 2 * n
    bits = np.repeat(np.array([0] * (n + delta) + [1] * (n - delta))[:, None], trials.size, axis=1)
    rows = [np.count_nonzero(bits == 0, axis=0)]
    for round_index in range(1, rounds + 1):
        z = rows[-1]
        blocks = [philox4x64(trials, 0, round_index, b, seed % 2**64, domain) for b in range(n)]
        new = np.empty_like(bits)
        for j, own in enumerate(bits):
            delivered = []
            for s, (sent, own_sent) in enumerate([(z, own == 0), (total - z, own == 1)]):
                g = 2 * j + s
                u = (blocks[g // 4][g % 4] >> np.uint64(11)) * 2.0**-53
                m = sent - own_sent
                draws = np.empty(trials.size, dtype=np.int64)
                for value in np.unique(m):
                    lanes = m == value
                    draws[lanes] = binomial_inversion(int(value), 1.0 - q, u[lanes])
                delivered.append(draws + own_sent)
            n0, n1 = delivered
            new[j] = np.where(n1 > n0, 1, np.where(n0 > n1, 0, own))
        bits = new
        rows.append(np.count_nonzero(bits == 0, axis=0))
    return np.array(rows)


@pytest.mark.parametrize(
    "n,delta,q,rounds",
    [(2, 0, 0.5, 1), (3, 1, 0.5, 1), (3, 1, 0.3, 3)],
    ids=["n=2 tie", "n=3 delta=1", "n=3 three rounds"],
)
def test_per_agent_draws_follow_the_block_rule(n, delta, q, rounds):
    # round 1 from one state searches one-pair sides; the later rounds of the
    # three-round case give each side many m, some trials absorbed, so its
    # sides go through the mixed path
    config = ProtocolConfig(n=n, delta=delta, rounds=rounds, network=NetworkModel(q=q))
    trials = np.arange(500, 2500, dtype=np.uint64)
    traj = run_trials_batch(config, trials, SEED, mode=MODE_PER_AGENT)
    expected = _per_agent_by_hand(n, delta, q, rounds, trials, SEED)
    assert np.array_equal(traj, expected)
    if rounds > 1:
        live = (traj[1:-1] > 0) & (traj[1:-1] < 2 * n)
        assert live.any() and not live.all() and np.unique(traj[1]).size > 2


class TestRoundWorkspace:
    """Rounds run on rows of a per-thread workspace that no result shares."""

    #: (mode, n, delta, q, rounds, trials): one round from a single state on
    #: each path, and multi-round runs whose absorbed trials put later rounds
    #: on the sampler's mixed path
    CASES = [
        (MODE_AGGREGATED, 400, 0, 0.5, 1, 9_000),
        (MODE_PER_AGENT, 2, 0, 0.5, 1, 9_000),
        (MODE_AGGREGATED, 40, 1, 0.5, 4, 5_000),
        (MODE_PER_AGENT, 3, 1, 0.1, 3, 3_000),
    ]

    def test_threads_running_at_once_get_the_bytes_of_sequential_calls(self):
        # more threads than cores, with a short switch interval, so that
        # rounds interleave; each thread also writes final zero-counts
        runs = [
            (ProtocolConfig(n=n, delta=d, rounds=r, network=NetworkModel(q=q)),
             np.arange(7, 7 + trials, dtype=np.uint64), mode)
            for mode, n, d, q, r, trials in self.CASES
        ]
        expected = [run_trials_batch(c, ids, SEED, mode=mode) for c, ids, mode in runs]
        barrier = threading.Barrier(len(runs))
        mismatches = []

        def run(i):
            config, ids, mode = runs[i]
            out = np.empty(ids.size, dtype=np.int64)
            barrier.wait(timeout=30)
            for _ in range(4):
                if not np.array_equal(run_trials_batch(config, ids, SEED, mode=mode), expected[i]):
                    mismatches.append((i, "batch"))
                final_zeros_into(out, config, ids, SEED, mode)
                if not np.array_equal(out, expected[i][-1]):
                    mismatches.append((i, "final"))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(runs))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []

    @pytest.mark.parametrize("mode", MODES)
    def test_batches_kept_alive_share_no_memory(self, mode):
        config = ProtocolConfig(n=3, delta=1, rounds=3, network=NetworkModel(q=0.3))
        ids = np.arange(500, dtype=np.uint64)
        first = run_trials_batch(config, ids, SEED, mode=mode)
        second = run_trials_batch(config, ids, SEED, mode=mode)
        assert np.array_equal(first, second)
        assert not np.shares_memory(first, second)
        assert not any(np.shares_memory(first, row) for row in engine._zero_count_rows(ids.size))

    @pytest.mark.parametrize("mode", MODES)
    def test_empty_trial_ids(self, mode):
        config = ProtocolConfig(n=3, delta=1, rounds=3, network=NetworkModel(q=0.3))
        assert run_trials_batch(config, [], SEED, mode=mode).shape == (4, 0)
        empty = np.empty(0, dtype=np.int64)
        assert final_zeros_into(empty, config, [], SEED, mode) is empty

    @pytest.mark.parametrize(
        "out",
        [np.empty(4, dtype=np.int32), np.empty(3, dtype=np.int64), np.empty(8, dtype=np.int64)[::2]],
        ids=["int32", "short", "strided"],
    )
    def test_final_zeros_refuse_an_out_of_the_wrong_kind(self, out):
        config = ProtocolConfig(n=3, delta=1, rounds=2, network=NetworkModel(q=0.3))
        with pytest.raises(ValueError, match=r"^out must be a C-contiguous int64 array of shape"):
            final_zeros_into(out, config, range(4), SEED)


def test_engine_sends_philox_ascending_trials_on_one_path(monkeypatch):
    """Every Philox call of the engine holds ascending trials on one (round, group).

    Sampler blocks come from ``rng._stream``, the one stream of one-pair and
    mixed sides, which takes lanes in any order, but lanes out of that
    order split a call into more, shorter runs.  The wrapper sits
    on the module global, so an engine change that sends other lanes fails
    here instead of running slower; the call count fails if sampler blocks
    stop passing through it.
    """
    from smpsim import rng

    calls = []
    inner = rng._stream

    def recording(size, master_seed, trial, round_index, group, visit):
        calls.append((np.asarray(trial), round_index, group))
        return inner(size, master_seed, trial, round_index, group, visit)

    monkeypatch.setattr(rng, "_stream", recording)
    aggregated = ProtocolConfig(n=40, delta=1, rounds=3, network=NetworkModel(q=0.5))
    run_trials_batch(aggregated, np.arange(3, 203, dtype=np.uint64), SEED)
    per_agent = ProtocolConfig(n=3, delta=1, rounds=2, network=NetworkModel(q=0.4))
    run_trials_batch(per_agent, np.arange(50, dtype=np.uint64), SEED, mode=MODE_PER_AGENT)
    tie = ProtocolConfig(n=2, delta=0, rounds=1, network=NetworkModel(q=0.5))
    trials = experiments.CHUNK_TRIALS + 100
    experiments.estimate_event_probability(tie, "consensus", trials, SEED)
    # aggregated, two calls per round: 3 rounds and 1 round x 2 chunks; per
    # agent, one call per agent pair and round: 2 rounds x 3 pairs
    assert len(calls) == 2 * 3 + 2 * 3 + 2 * 2
    assert max(c0.size for c0, *_ in calls) == experiments.CHUNK_TRIALS
    for c0, *high in calls:
        assert all(np.ndim(c) == 0 for c in high)
        assert c0.ndim == 1 and np.all(c0[1:] > c0[:-1])


class TestTrialOutcomeType:
    def test_conservation_check(self):
        with pytest.raises(ValueError):
            TrialOutcome(
                trajectory=(OpinionCounts(2, 2), OpinionCounts(3, 3)),
                consensus=False,
                majority_consensus=False,
                final_value=None,
            )


class TestExactChain:
    def test_split_pair(self):
        p_cons, p_maj = exact_chain_consensus_probability(1, 0, 0.5, 3)
        assert p_cons == 0.0 and p_maj == 0.0

    def test_matches_exhaustive_at_two_two(self):
        p_cons, _ = exact_chain_consensus_probability(2, 0, 0.5, 1)
        exact = exhaustive_round_distribution(OpinionCounts(2, 2), 0.5).probabilities
        assert p_cons == pytest.approx(float(exact[0] + exact[4]), abs=1e-9)

    def test_more_rounds_help_from_tie(self):
        p2, _ = exact_chain_consensus_probability(50, 0, 0.5, 2)
        p3, _ = exact_chain_consensus_probability(50, 0, 0.5, 3)
        assert p3 > p2

    def test_absorbing_start(self):
        p_cons, p_maj = exact_chain_consensus_probability(5, 5, 0.5, 2)
        assert p_cons == pytest.approx(1.0, abs=1e-12)
        assert p_maj == pytest.approx(1.0, abs=1e-12)

    def test_majority_respects_sign(self):
        p_cons_pos, p_maj_pos = exact_chain_consensus_probability(10, 3, 0.4, 2)
        p_cons_neg, p_maj_neg = exact_chain_consensus_probability(10, -3, 0.4, 2)
        assert p_cons_pos == pytest.approx(p_cons_neg, abs=1e-12)
        assert p_maj_pos == pytest.approx(p_maj_neg, abs=1e-12)
        assert p_maj_pos <= p_cons_pos

    def test_size_limit(self):
        with pytest.raises(UnsupportedSizeError):
            exact_chain_consensus_probability(501, 0, 0.5, 1)

    @pytest.mark.parametrize(
        "n, delta, q, rounds", [(3, True, 0.5, 2), (3, 0, 0.5, 2.0), (-1, 0, 0.5, 1), (2.5, 0, 0.5, 1)]
    )
    def test_arguments_checked_as_a_protocol_config(self, n, delta, q, rounds):
        with pytest.raises(ValueError) as config_error:
            ProtocolConfig(n=n, delta=delta, rounds=rounds, network=NetworkModel(q=q))
        with pytest.raises(ValueError) as chain_error:
            exact_chain_consensus_probability(n, delta, q, rounds)
        assert type(chain_error.value) is ValueError
        assert str(chain_error.value) == str(config_error.value)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 40, 100])
    def test_bytes_equal_the_forward_loop(self, n):
        # the closed-form last round, rows built lazily, keep/adopt at the
        # live z only and the stop at absorbing states give, with the floor
        # at 0, the bytes of storing every row and advancing the whole law
        # every round
        for q in CHAIN_QS:
            for delta in sorted({-n, -1, 0, 1, n}):
                reference = chain_forward_loop(
                    n, delta, q, 6, analytics.transition_values, analytics._windows,
                    engine._decided_ends,
                )
                for rounds, expected in enumerate(reference, start=1):
                    *got, dropped = engine._chain(n, delta, q, rounds, 0.0)
                    got = [min(v, 1.0).hex() for v in got]
                    assert got == [v.hex() for v in expected], (q, delta, rounds)
                    assert dropped == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_matches_the_50_digit_chain(self, n):
        mpmath = pytest.importorskip("mpmath")

        for q in CHAIN_QS:
            bound = MPMATH_CHAIN_ULPS.get(q, MPMATH_CHAIN_DEFAULT_ULPS) * 2.0**-53
            for delta in sorted({-n, -1, 0, 1, n}):
                for rounds, exact in enumerate(chain_mpmath(n, delta, q, 6), start=1):
                    got = exact_chain_consensus_probability(n, delta, q, rounds)
                    for value, want in zip(got, exact):
                        assert abs(mpmath.mpf(value) - want) <= bound, (q, delta, rounds, value)

    def test_last_round_decides_certain_states(self, monkeypatch):
        # three rounds from a tie at 2n = 1000: the Chernoff certificate
        # settles most last-round states (692 of 1001), and only the rest
        # reach the kernel
        asked, decided = [], []
        real_values, real_decided = analytics.transition_values, engine._decided_ends

        def values(total, zs, q):
            asked.append(len(zs))
            return real_values(total, zs, q)

        def decide(total, zs, q):
            ends = real_decided(total, zs, q)
            decided.append(ends.copy())  # the chain fills in the undecided entries
            return ends

        monkeypatch.setattr(analytics, "transition_values", values)
        monkeypatch.setattr(engine, "_decided_ends", decide)
        exact_chain_consensus_probability(500, 0, 0.5, 3)
        (ends,) = decided
        assert asked[-1] == np.isnan(ends[0]).sum() < ends.shape[1] / 2

    @pytest.mark.parametrize("q", [0.2, 0.5, 0.8])
    def test_low_side_decisions_keep_the_kernels_bytes(self, q, monkeypatch):
        # where the rule gives (1.0, 0.0), the kernel's own end masses are
        # the same doubles; where it gives (0.0, 1.0), they are up to 1.4e-12
        # from them: z times the kernel's error of a few ulps near 1
        monkeypatch.setattr(analytics, "_MEMO", {})
        total = 1000
        zs = np.arange(total + 1)
        decided = engine._decided_ends(total, zs, q)
        keep, adopt = analytics.transition_values(total, zs, q)
        kernel = np.exp(analytics._end_log_pmfs(zs, keep)) * np.exp(
            analytics._end_log_pmfs(total - zs, adopt)
        )
        low, high = decided[0] == 1.0, decided[1] == 1.0
        assert low.sum() > 200 and high.sum() > 200
        assert np.array_equal(kernel[:, low], decided[:, low])
        assert np.abs(kernel[:, high] - decided[:, high]).max() < 1e-11

    def test_one_decided_round_is_exactly_certain(self):
        # one round from (500, 160) at q = 0.5: the true failure probability
        # is 8.6e-22, so P{consensus} rounds to 1.0; the kernel's keep, 7 ulps
        # below 1, gave 1 - 7.8e-13
        assert exact_chain_consensus_probability(500, 160, 0.5, 1) == (1.0, 1.0)

    @pytest.mark.parametrize("n, delta, q", PRUNING_GRID)
    def test_pruned_chain_is_within_its_bound(self, n, delta, q):
        # the floor and the trimmed rows move a value by at most the mass
        # they report dropped, plus one rounding; a returned value either
        # certifies or is the unpruned solve's own bytes
        for rounds in range(1, 7):
            unpruned = engine._chain(n, delta, q, rounds, 0.0)[:2]
            *pruned, dropped = engine._chain(n, delta, q, rounds, engine._CHAIN_FLOOR)
            for got, exact in zip(pruned, unpruned):
                assert abs(got - exact) <= dropped + math.ulp(exact), (rounds, got, exact)
            returned = exact_chain_consensus_probability(n, delta, q, rounds)
            if dropped <= engine._CHAIN_CERTIFIED_SHARE * min(pruned):
                assert returned == tuple(min(v, 1.0) for v in pruned)
            else:
                assert returned == tuple(min(v, 1.0) for v in unpruned)

    def test_dropped_mass_counts_each_trimmed_row(self):
        # two rounds from a point mass of weight 1, every row cut at
        # L = -log(floor): at 2n = 4 the round-1 row spans 0..4 and every
        # count it reaches is above the floor, so nothing is dropped; at
        # 2n = 1000 the row is cut, and the bound is its 4 exp(-L) plus the
        # mass of the counts it reaches below the floor
        floor = engine._CHAIN_FLOOR
        *_, dropped = engine._chain(2, 0, 0.5, 2, floor)
        assert dropped == 0.0
        log_tail = -math.log(floor)
        p00, p10 = analytics.transition_values(1000, [500], 0.5)
        ((lo, law),) = engine._round_laws(1000, [500], p00, p10, log_tail)
        assert lo > 0 and lo + len(law) <= 1000
        light = law[law < floor].sum()
        *_, dropped = engine._chain(500, 0, 0.5, 2, floor)
        assert dropped == pytest.approx(4 * math.exp(-log_tail) + light, rel=1e-12, abs=0.0)

    def test_pruning_pays_off_at_the_cap(self):
        # at 2n = 1000 the round-1 law from a tie is positive at every count,
        # but only 319 counts reach the floor
        dist = aggregated_round_distribution(OpinionCounts(500, 500), 0.5).probabilities
        assert np.count_nonzero(dist) == 1001
        assert np.count_nonzero(dist >= engine._CHAIN_FLOOR) == 319
        *_, dropped = engine._chain(500, 0, 0.5, 3, engine._CHAIN_FLOOR)
        assert 0.0 < dropped <= engine._CHAIN_CERTIFIED_SHARE * 0.89

    def test_uncertified_value_falls_back_to_the_unpruned_bytes(self):
        # P2 ~ 3.1e-12 is too small for the dropped-mass bound to certify it
        unpruned = engine._chain(40, 0, 0.95, 2, 0.0)[:2]
        *pruned, dropped = engine._chain(40, 0, 0.95, 2, engine._CHAIN_FLOOR)
        assert dropped > engine._CHAIN_CERTIFIED_SHARE * min(pruned)
        assert pruned != unpruned
        got = exact_chain_consensus_probability(40, 0, 0.95, 2)
        assert [v.hex() for v in got] == [v.hex() for v in unpruned]
        assert got[0] == pytest.approx(3.08e-12, rel=1e-3, abs=0.0)

    def test_three_rounds_at_the_cap_hold_little_memory(self, monkeypatch):
        # from a point mass, three rounds keep one row law and build none for
        # the last round; storing every row peaked near 10 MB
        monkeypatch.setattr(analytics, "_MEMO", {})
        tracemalloc.start()
        try:
            exact_chain_consensus_probability(500, 0, 0.8, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000

    @pytest.mark.parametrize("q", [0.05, 0.2, 0.5, 0.8, 0.95])
    def test_five_rounds_at_the_cap_free_each_round(self, q, monkeypatch):
        # rows kept for later full rounds are cut at the floor's tail, and
        # each round's row generator is closed before the next round's
        # keep/adopt evaluation: keeping rows at the full 1e-340 width peaked
        # at 5.9-9.3 MB over these q, and leaving each generator open at
        # 5.4-6.4 MB
        monkeypatch.setattr(analytics, "_MEMO", {})
        tracemalloc.start()
        try:
            exact_chain_consensus_probability(500, 0, q, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000

    def test_stops_once_every_live_state_is_absorbing(self, monkeypatch):
        # 10^8 rounds, now past the rounds ceiling, would take hours; at the
        # ceiling each full round evaluates keep/adopt once, and the alarm
        # fails the test after 1 s
        def too_slow(signum, frame):
            raise TimeoutError("the chain ran on past absorption")

        evaluations = []
        transition_values = analytics.transition_values
        monkeypatch.setattr(
            analytics, "transition_values",
            lambda *args: evaluations.append(args) or transition_values(*args),
        )
        rounds = engine._CHAIN_MAX_ROUNDS
        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        try:
            # at 2n = 4 the chain is absorbed after a few hundred rounds
            assert exact_chain_consensus_probability(2, 0, 0.5, rounds) == (1.0, 1.0)
            # a split pair and an undelivered network are fixed points from the start
            assert exact_chain_consensus_probability(1, 0, 0.5, rounds) == (0.0, 0.0)
            assert exact_chain_consensus_probability(50, 3, 1.0, rounds) == (0.0, 0.0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        assert len(evaluations) < 1000

    def test_consensus_rows_are_exact_point_masses(self):
        for z, total in [(0, 20), (20, 20)]:
            row = aggregated_round_distribution(
                OpinionCounts(zeros=z, ones=total - z), 0.35
            ).probabilities
            assert row[z] == 1.0
            assert row.sum() == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            exact_chain_consensus_probability(10, 11, 0.5, 1)
        with pytest.raises(ValueError):
            exact_chain_consensus_probability(10, 0, 0.5, 0)

    @pytest.mark.parametrize("n", [25, 100])
    @pytest.mark.parametrize("q", [0.2, 0.5, 0.8])
    def test_three_rounds_from_tie_match_scipy_oracle(self, n, q):
        # the oracle behind criterion 5's pinned n = 10^4 values: scipy
        # binomials only, with the last round in closed form
        p_cons, _ = exact_chain_consensus_probability(n, 0, q, 3)
        assert p_cons == pytest.approx(consensus_from_tie_probability(n, q, 3), abs=1e-9)

    @pytest.mark.parametrize("q", [0.2, 0.5, 0.8])
    def test_criterion_5_references_match_the_chain(self, monkeypatch, q):
        # criterion 5 pins P3(10^4, q) from the scipy oracle above; the chain
        # agrees at 2n = 20,000. The agent ceiling is a cost limit, lifted
        # here only to compute the reference (about 1 s per q)
        monkeypatch.setattr(engine, "EXACT_CHAIN_MAX_AGENTS", 20_000)
        monkeypatch.setattr(analytics, "_MEMO", {})
        p_cons, _ = exact_chain_consensus_probability(10_000, 0, q, 3)
        assert p_cons == pytest.approx(verify._P3_REFERENCE_10000[q], rel=2e-12, abs=0.0)


class TestPerAgentVsExhaustive:
    def test_total_variation_small_sample(self):
        # 2n = 4, 100k per-agent trials against the exact law (the million-
        # trial version is an acceptance criterion)
        cfg = ProtocolConfig(n=2, delta=0, rounds=1, network=NetworkModel(q=0.5))
        batch = run_trials_batch(cfg, np.arange(100_000, dtype=np.uint64), SEED, mode=MODE_PER_AGENT)
        empirical = np.bincount(batch[-1], minlength=5) / 100_000
        exact = exhaustive_round_distribution(OpinionCounts(2, 2), 0.5).probabilities
        tv = 0.5 * np.abs(empirical - exact).sum()
        assert tv <= 0.02

    def test_aggregated_matches_exhaustive_distribution(self):
        cfg = ProtocolConfig(n=2, delta=1, rounds=1, network=NetworkModel(q=0.25))
        batch = run_trials_batch(cfg, np.arange(100_000, dtype=np.uint64), SEED)
        empirical = np.bincount(batch[-1], minlength=5) / 100_000
        exact = exhaustive_round_distribution(OpinionCounts(3, 1), 0.25).probabilities
        tv = 0.5 * np.abs(empirical - exact).sum()
        assert tv <= 0.02

    def test_per_agent_matches_aggregated_law_beyond_oracle_sizes(self):
        # 2n = 20 is far outside the enumeration oracle; the per-agent path
        # must still reproduce the exact convolution law
        cfg = ProtocolConfig(n=10, delta=2, rounds=1, network=NetworkModel(q=0.5))
        batch = run_trials_batch(
            cfg, np.arange(100_000, dtype=np.uint64), SEED, mode=MODE_PER_AGENT
        )
        empirical = np.bincount(batch[-1], minlength=21) / 100_000
        exact = aggregated_round_distribution(OpinionCounts(12, 8), 0.5).probabilities
        tv = 0.5 * np.abs(empirical - exact).sum()
        assert tv <= 0.02


class TestChainCeiling:
    @pytest.mark.parametrize("rounds", [engine._CHAIN_MAX_ROUNDS + 1, 10**8, 2**63 - 1])
    def test_rounds_past_the_ceiling_never_reach_the_chain(self, monkeypatch, rounds):
        # 10^8 rounds at q = 1 - 1e-9 ran until a 10 s timeout killed them
        def no_chain(*args):
            raise AssertionError("the chain ran past its rounds ceiling")

        monkeypatch.setattr(engine, "_chain", no_chain)
        with pytest.raises(UnsupportedSizeError) as refusal:
            exact_chain_consensus_probability(3, 0, 0.999999999, rounds)
        assert refusal.value.names == ("rounds",)
        assert str(refusal.value) == (
            f"rounds must be at most {engine._CHAIN_MAX_ROUNDS} for the exact chain, got {rounds}"
        )

    def test_rounds_at_the_ceiling_are_solved(self, monkeypatch):
        calls = []
        monkeypatch.setattr(engine, "_chain", lambda *args: calls.append(args) or (1.0, 1.0, 0.0))
        assert exact_chain_consensus_probability(3, 0, 0.5, engine._CHAIN_MAX_ROUNDS) == (1.0, 1.0)
        assert calls == [(3, 0, 0.5, engine._CHAIN_MAX_ROUNDS, engine._CHAIN_FLOOR)]

    def test_thousand_agent_chain(self):
        # largest supported system; also a sanity point for the round story:
        # two rounds from a tie rarely finish, a third round usually does
        p2, _ = exact_chain_consensus_probability(500, 0, 0.5, 2)
        p3, _ = exact_chain_consensus_probability(500, 0, 0.5, 3)
        assert 0.0 < p2 < 0.01
        assert p3 > 0.8


class TestEnginePrivatesStayInside:
    @pytest.mark.parametrize("module", [cli, experiments], ids=lambda m: m.__name__)
    def test_no_private_engine_imports(self, module):
        # the engine checks and words every size ceiling; other modules reach
        # it through public names only, so none can re-word or skip a check:
        # neither `from .engine import _x` nor `engine._x` after `from . import engine`
        tree = ast.parse(inspect.getsource(module))
        private = [
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module in ("engine", "smpsim.engine")
            for alias in node.names
            if alias.name.startswith("_")
        ] + [
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "engine" and node.attr.startswith("_")
        ]
        assert private == []
