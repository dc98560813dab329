import concurrent.futures
import functools
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from smpsim import analytics, engine, experiments
from smpsim.engine import (
    MODE_AGGREGATED,
    MODE_PER_AGENT,
    UnsupportedSizeError,
    exact_chain_consensus_probability,
)
from smpsim.experiments import (
    CHUNK_TRIALS,
    Estimate,
    _map_chunks,
    _pool_size,
    clopper_pearson_interval,
    estimate_event_probability,
    final_zeros_sample,
    max_error_sweep,
    return_to_symmetry_rate,
    theorem1_suite,
    theorem2_suite,
    trichotomy_sweep,
    wilson_interval,
)
from smpsim.model import AsymmetryRegime, NetworkModel, ProtocolConfig

from oracles import clopper_pearson_mpmath

SEED = 77_001


def _config(n, delta, rounds, q):
    return ProtocolConfig(n=n, delta=delta, rounds=rounds, network=NetworkModel(q=q))


class TestIntervals:
    def test_wilson_frozen_example(self):
        low, high = wilson_interval(50, 100)
        assert low == pytest.approx(0.4038315303659956, abs=1e-12)
        assert high == pytest.approx(0.5961684696340044, abs=1e-12)

    def test_wilson_extremes(self):
        low, high = wilson_interval(0, 40)
        assert low == 0.0 and 0.0 < high < 0.15
        low, high = wilson_interval(40, 40)
        assert 0.85 < low < 1.0 and high == 1.0

    def test_wilson_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(7, 5)

    @pytest.mark.parametrize("interval", [wilson_interval, clopper_pearson_interval])
    @pytest.mark.parametrize("successes,trials", [(5, 3), (-1, 10)])
    def test_successes_outside_trials_rejected(self, interval, successes, trials):
        with pytest.raises(ValueError, match=r"successes must be in \[0, trials\]"):
            interval(successes, trials)

    @pytest.mark.parametrize("interval", [wilson_interval, clopper_pearson_interval])
    @pytest.mark.parametrize("confidence", [0.0, 1.0, 1.5, -0.5, math.nan])
    def test_confidence_outside_unit_interval_rejected(self, interval, confidence):
        with pytest.raises(ValueError, match=r"confidence must be in \(0, 1\)"):
            interval(3, 10, confidence)

    def test_clopper_pearson_needs_trials_below_the_binomial_ceiling(self):
        with pytest.raises(ValueError, match="trials below 2\\^27"):
            clopper_pearson_interval(1, analytics.MAX_BINOMIAL_TRIALS)

    def test_clopper_pearson_contains_wilson_point(self):
        for s, t in [(0, 20), (3, 17), (20, 20), (50, 100)]:
            w_low, w_high = wilson_interval(s, t)
            c_low, c_high = clopper_pearson_interval(s, t)
            assert c_low <= s / t <= c_high
            # exact interval is at least as wide
            assert c_high - c_low >= (w_high - w_low) - 1e-9

    def test_estimate_type(self):
        est = Estimate.from_counts(3, 10)
        assert est.p_hat == 0.3
        assert est.ci_low <= est.p_hat <= est.ci_high
        with pytest.raises(ValueError):
            Estimate.from_counts(3, 10, method="magic")

    def test_interval_must_hold_the_estimate(self):
        with pytest.raises(ValueError, match="0 <= low <= p_hat <= high <= 1"):
            Estimate(successes=3, trials=10, p_hat=0.3, ci_low=0.4, ci_high=0.5)


#: (successes, trials) checked against 50-digit roots: both ends and their
#: neighbours at every size, the golden estimate (282, 300) and the points
#: where scipy's beta quantiles are furthest from the roots.
MPMATH_POINTS = [
    (0, 1), (1, 1),
    (0, 17), (1, 17), (2, 17), (8, 17), (16, 17), (17, 17),
    (0, 300), (1, 300), (109, 300), (152, 300), (282, 300), (299, 300), (300, 300),
    (0, 1000), (1, 1000), (333, 1000), (999, 1000), (1000, 1000),
    (0, 10**6), (1, 10**6), (10**6 - 1, 10**6), (10**6, 10**6),
]
#: Measured worst distance from the 50-digit roots at MPMATH_POINTS: 5.2 ulps,
#: the low bound at (1, 1000) and confidence 0.999999.
MPMATH_ULPS = 8


def _ulps_from(x: float, root) -> float:
    import mpmath

    with mpmath.workdps(50):
        return float(abs(mpmath.mpf(x) - root) / math.ulp(float(root)))


@functools.lru_cache(maxsize=None)
def _grid(trials: int, confidence: float = 0.95) -> tuple[tuple[float, float], ...]:
    """Clopper-Pearson intervals at every successes = 0..trials."""
    return tuple(clopper_pearson_interval(s, trials, confidence) for s in range(trials + 1))


class TestClopperPearson:
    @pytest.mark.parametrize("confidence", [0.5, 0.95, 0.999999])
    @pytest.mark.parametrize("successes,trials", MPMATH_POINTS)
    def test_within_ulps_of_50_digit_roots(self, successes, trials, confidence):
        pytest.importorskip("mpmath")
        got = clopper_pearson_interval(successes, trials, confidence)
        want = clopper_pearson_mpmath(successes, trials, confidence)
        assert (got[0] == 0.0) if successes == 0 else _ulps_from(got[0], want[0]) <= MPMATH_ULPS
        assert (got[1] == 1.0) if successes == trials else _ulps_from(got[1], want[1]) <= MPMATH_ULPS

    @pytest.mark.parametrize("confidence", [0.5, 0.95, 0.999999])
    @pytest.mark.parametrize("successes,trials", [(1, 17), (282, 300), (333, 1000), (1, 10**6)])
    def test_rounded_outward_against_the_computed_tail(self, successes, trials, confidence):
        half_alpha = (1.0 - confidence) / 2.0
        low, high = clopper_pearson_interval(successes, trials, confidence)
        upper = functools.partial(analytics._binomial_tail, trials, s=successes, upper=True)
        lower = functools.partial(analytics._binomial_tail, trials, s=successes, upper=False)
        assert upper(low) <= half_alpha < upper(math.nextafter(low, 1.0))
        assert lower(high) <= half_alpha < lower(math.nextafter(high, 0.0))

    @pytest.mark.parametrize("trials", [1, 2, 17, 300])
    def test_matches_scipy_beta_quantiles(self, trials):
        # scipy's quantiles are themselves up to 168 ulps (2.1e-14 relative)
        # from the 50-digit roots, at (152, 300) and 95%; the ulp-level check
        # is the mpmath test above
        beta = pytest.importorskip("scipy.stats").beta
        half_alpha = 0.025
        for s, (low, high) in enumerate(_grid(trials)):
            want_low = 0.0 if s == 0 else beta.ppf(half_alpha, s, trials - s + 1)
            want_high = 1.0 if s == trials else beta.isf(half_alpha, s + 1, trials - s)
            assert low == pytest.approx(want_low, rel=5e-14, abs=0.0), s
            assert high == pytest.approx(want_high, rel=5e-14, abs=0.0), s

    @pytest.mark.parametrize("trials", [1, 2, 17, 300])
    def test_mirrors_the_complementary_count(self, trials):
        # low(s) + high(n - s) = 1 up to rounding; measured worst 2.25 ulps of
        # the larger bound, at (66, 300)
        grid = _grid(trials)
        for s, (low, _) in enumerate(grid):
            mirror = grid[trials - s][1]
            error = abs(Fraction(low) + Fraction(mirror) - 1)
            assert error <= 4 * Fraction(math.ulp(max(low, mirror))), s

    @pytest.mark.parametrize("successes,trials", [(0, 17), (1, 17), (8, 17), (282, 300), (1, 10**6)])
    def test_higher_confidence_nests_a_wider_interval(self, successes, trials):
        intervals = [clopper_pearson_interval(successes, trials, c) for c in (0.5, 0.95, 0.999999)]
        for (low, high), (wider_low, wider_high) in zip(intervals, intervals[1:]):
            assert wider_low <= low and high <= wider_high
            assert wider_high - wider_low > high - low

    def test_estimates_with_scipy_blocked(self):
        # the library and `smpsim estimate --interval clopper_pearson` with
        # every scipy import failing: the golden estimate's interval, both ways
        src = str(Path(experiments.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        code = (
            "import sys; sys.modules['scipy'] = None\n"
            "from smpsim import cli, experiments, model\n"
            "config = model.ProtocolConfig(n=4, delta=2, rounds=2, network=model.NetworkModel(q=0.5))\n"
            "est = experiments.estimate_event_probability(\n"
            "    config, 'majority_consensus', 300, 7, method='clopper_pearson')\n"
            "print(est.ci_low, est.ci_high)\n"
            "sys.exit(cli.main(['estimate', '--n', '4', '--delta', '2', '--q', '0.5', '--rounds', '2',\n"
            "                   '--trials', '300', '--event', 'majority_consensus',\n"
            "                   '--interval', 'clopper_pearson', '--seed', '7']))"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                             check=True, timeout=60)
        assert out.stdout.splitlines() == [
            "0.9068297039280114 0.9640561255848613",
            "P[majority_consensus] = 0.94  (95% CI [0.90683, 0.964056], 282/300)",
        ]


class TestEstimateEventProbability:
    def test_impossible_event(self):
        est = estimate_event_probability(_config(1, 0, 3, 0.5), "consensus", 2_000, SEED)
        assert est.p_hat == 0.0
        assert est.ci_low == 0.0

    def test_certain_event(self):
        est = estimate_event_probability(_config(2, 2, 1, 0.7), "consensus", 500, SEED)
        assert est.p_hat == 1.0
        assert est.ci_high == 1.0

    def test_matches_exact_chain(self):
        for n, delta in [(10, 0), (50, 5)]:
            est = estimate_event_probability(
                _config(n, delta, 2, 0.5), "consensus", 4_000, SEED
            )
            exact, _ = exact_chain_consensus_probability(n, delta, 0.5, 2)
            assert est.covers(exact)

    def test_majority_event_matches_exact_chain(self):
        est = estimate_event_probability(
            _config(20, 3, 2, 0.4), "majority_consensus", 4_000, SEED
        )
        _, exact_majority = exact_chain_consensus_probability(20, 3, 0.4, 2)
        assert est.covers(exact_majority)

    def test_matches_exact_chain_at_high_loss(self):
        # the lossy-network corner: three rounds at q = 0.8, n = 500
        est = estimate_event_probability(_config(500, 0, 3, 0.8), "consensus", 20_000, 424242)
        exact, _ = exact_chain_consensus_probability(500, 0, 0.8, 3)
        assert exact == pytest.approx(0.6069, abs=5e-4)
        assert est.covers(exact)

    def test_majority_vs_consensus_ordering(self):
        est_c = estimate_event_probability(_config(20, 2, 2, 0.5), "consensus", 3_000, SEED)
        est_m = estimate_event_probability(
            _config(20, 2, 2, 0.5), "majority_consensus", 3_000, SEED
        )
        assert est_m.p_hat <= est_c.p_hat

    def test_failure_events_complement(self):
        est = estimate_event_probability(_config(20, 0, 2, 0.5), "consensus", 1_000, SEED)
        fail = estimate_event_probability(
            _config(20, 0, 2, 0.5), "consensus_failure", 1_000, SEED
        )
        assert est.successes + fail.successes == 1_000

    def test_workers_do_not_change_results(self):
        # enough trials for several chunks, so the pool really engages
        est1 = estimate_event_probability(_config(10, 0, 2, 0.5), "consensus", 150_000, SEED, workers=1)
        est2 = estimate_event_probability(_config(10, 0, 2, 0.5), "consensus", 150_000, SEED, workers=2)
        assert est1 == est2

    def test_pool_size_is_clamped(self):
        # computed, never launched: a pool is no larger than chunks or CPUs
        cpus = os.cpu_count() or 1
        assert _pool_size(5000, 3) == min(3, cpus)
        assert _pool_size(5000, 10**6) == cpus
        assert _pool_size(1, 100) == 1
        assert _pool_size(8, 1) == 1
        assert _pool_size(8, 0) == 1

    def test_import_loads_no_process_pool(self):
        # an inline run never starts a pool, so importing the package leaves
        # multiprocessing (and the socket and logging modules it pulls in) unloaded
        src = str(Path(experiments.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        code = ("import sys, smpsim; print(sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'multiprocessing' or m == 'concurrent.futures.process'))")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                             check=True, timeout=60)
        assert out.stdout.strip() == "[]"

    def test_chunks_are_made_as_they_are_run(self, monkeypatch):
        # 2^30 trials are 16,384 chunks; the run stops at the third, holding one
        calls = []

        def batch(out, config, ids, master_seed, mode):
            calls.append(len(ids))
            if len(calls) == 3:
                raise RuntimeError("third chunk")
            out[...] = 0
            return out

        monkeypatch.setattr(experiments, "final_zeros_into", batch)
        tracemalloc.start()
        try:
            with pytest.raises(RuntimeError, match="third chunk"):
                estimate_event_probability(_config(10, 0, 2, 0.5), "consensus", 2**30, SEED)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert calls == [CHUNK_TRIALS] * 3
        assert peak < 2 << 20

    def test_pool_keeps_few_chunks_in_flight(self, monkeypatch):
        # a pool that took every chunk of 2^30 trials at once would hold 16,384 futures
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert _pool_size(2, 2**30 // CHUNK_TRIALS) == 2
        tracemalloc.start()
        chunks = _map_chunks(len, 2**30, 2, "fixed")
        try:
            first = [next(chunks) for _ in range(3)]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            chunks.close()
            tracemalloc.stop()
        assert first == [3, 3, 3]
        assert peak < 2 << 20

    def test_final_zeros_hold_one_row_per_chunk(self):
        # each chunk writes its last row straight into the result; no chunk's
        # (rounds + 1) x 2^16 trajectory is held
        config = _config(50, 0, 3, 0.5)
        peaks = []
        for chunks in (1, 4):
            tracemalloc.start()
            try:
                zeros = final_zeros_sample(config, chunks * CHUNK_TRIALS, SEED)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # three held rows and the result: under twice the result; whole
        # trajectories held until the end cost three times it
        assert zeros.nbytes == 4 * CHUNK_TRIALS * 8
        assert peaks[1] - peaks[0] < 2 * zeros.nbytes

    @pytest.mark.parametrize("mode, n", [(MODE_AGGREGATED, 400), (MODE_PER_AGENT, 2)])
    def test_a_warm_one_round_chunk_holds_little_beyond_its_result(self, mode, n):
        # the rounds run on reused workspace rows and the draws go straight
        # into them; the chunk's zero-counts are written into the result
        config = _config(n, 0, 1, 0.5)
        final_zeros_sample(config, CHUNK_TRIALS, SEED, mode=mode)  # warms workspaces and memos
        tracemalloc.start()
        try:
            zeros = final_zeros_sample(config, CHUNK_TRIALS, SEED + 1, mode=mode)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the 512 KB result and the chunk's 512 KB of trial ids, per agent the
        # 2n x 2^16 bytes of opinions, and 768 KB for the sampler's search
        # and the rule's comparisons (1.3 MB and 1.7 MB were measured; a
        # trajectory, its copies and a concatenation took 5.1 MB and 6.0 MB)
        bits = 2 * n * CHUNK_TRIALS if mode == MODE_PER_AGENT else 0
        assert zeros.nbytes == 512 << 10
        assert peak < 2 * zeros.nbytes + bits + (768 << 10)

    @pytest.mark.parametrize("mode", [MODE_AGGREGATED, MODE_PER_AGENT])
    def test_estimate_memory_does_not_grow_with_rounds(self, mode):
        trials, peaks = 4096, []
        for rounds in (3, 200):
            config = _config(3, 0, rounds, 0.5)
            estimate_event_probability(config, "consensus", trials, SEED, mode=mode)
            tracemalloc.start()
            try:
                estimate_event_probability(config, "consensus", trials, SEED, mode=mode)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # a held trajectory grew by one 32 KB row a round: 6.3 MB more at 200
        assert abs(peaks[1] - peaks[0]) < trials * 8

    def test_final_zeros_from_a_pool_equal_inline_ones(self):
        config = _config(2, 0, 2, 0.5)
        trials = 2 * CHUNK_TRIALS + 5
        inline = final_zeros_sample(config, trials, SEED)
        assert np.array_equal(final_zeros_sample(config, trials, SEED, workers=2), inline)

    @pytest.mark.parametrize("estimate", [True, False])
    @pytest.mark.parametrize(
        "n, rounds, mode, match",
        [
            (501, 1, MODE_PER_AGENT, "^n must be at most 500 .*, got 501$"),
            (2, engine._MONTE_CARLO_MAX_ROUNDS + 1, MODE_AGGREGATED,
             "^rounds must be at most 255 .*, got 256$"),
        ],
        ids=["per-agent-agents", "rounds"],
    )
    def test_ceilings_checked_before_any_chunk(self, monkeypatch, estimate, n, rounds, mode, match):
        # three chunks on two workers would start a process pool; nothing may run
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the ceilings were checked")

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_work)
        monkeypatch.setattr(experiments, "final_zeros_into", no_work)
        config, trials = _config(n, 0, rounds, 0.5), 3 * CHUNK_TRIALS
        with pytest.raises(UnsupportedSizeError, match=match):
            if estimate:
                estimate_event_probability(config, "consensus", trials, SEED, workers=2, mode=mode)
            else:
                final_zeros_sample(config, trials, SEED, workers=2, mode=mode)

    @pytest.mark.parametrize(
        "method, confidence, trials, match",
        [
            ("bogus", 0.95, 3 * CHUNK_TRIALS, "unknown interval method 'bogus'"),
            ("wilson", 1.5, 3 * CHUNK_TRIALS, r"confidence must be in \(0, 1\)"),
            ("clopper_pearson", 0.0, 3 * CHUNK_TRIALS, r"confidence must be in \(0, 1\)"),
            ("clopper_pearson", 0.95, analytics.MAX_BINOMIAL_TRIALS, "trials below 2\\^27"),
        ],
        ids=["method", "wilson-confidence", "clopper-pearson-confidence", "clopper-pearson-trials"],
    )
    def test_interval_checked_before_any_chunk(self, monkeypatch, method, confidence, trials, match):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the interval was checked")

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_work)
        monkeypatch.setattr(experiments, "final_zeros_into", no_work)
        with pytest.raises(ValueError, match=match):
            estimate_event_probability(_config(4, 0, 1, 0.5), "consensus", trials, SEED, workers=2,
                                       confidence=confidence, method=method)

    @pytest.mark.parametrize("estimate", [True, False])
    def test_trials_checked_before_any_chunk(self, monkeypatch, estimate):
        monkeypatch.setattr(experiments, "final_zeros_into", _no_trials)
        with pytest.raises(ValueError, match="^trials must be >= 1$"):
            if estimate:
                estimate_event_probability(_config(4, 0, 1, 0.5), "consensus", 0, SEED)
            else:
                final_zeros_sample(_config(4, 0, 1, 0.5), 0, SEED)

    def test_relabeling_symmetry_within_ci(self):
        est_pos = estimate_event_probability(_config(30, 4, 2, 0.5), "consensus", 4_000, SEED)
        est_neg = estimate_event_probability(_config(30, -4, 2, 0.5), "consensus", 4_000, SEED + 1)
        assert est_pos.ci_low <= est_neg.ci_high and est_neg.ci_low <= est_pos.ci_high

    def test_unknown_event(self, monkeypatch):
        def batch(*args, **kwargs):
            raise AssertionError("a trial ran before the event was checked")

        monkeypatch.setattr(experiments, "final_zeros_into", batch)
        with pytest.raises(ValueError, match="unknown event 'nope'"):
            estimate_event_probability(_config(4, 0, 1, 0.5), "nope", 10, SEED)


class TestWilsonCoverage:
    def test_ci_honesty_against_exact_chain(self):
        # 1000 replications at a point with exact ground truth; the 95%
        # interval must cover it in at least 93% of replications
        n, q, rounds, trials = 2, 0.5, 1, 400
        exact, _ = exact_chain_consensus_probability(n, 0, q, rounds)
        config = _config(n, 0, rounds, q)
        covered = 0
        reps = 1_000
        zeros = final_zeros_sample(config, trials * reps, SEED).reshape(reps, trials)
        hits = ((zeros == 0) | (zeros == 2 * n)).sum(axis=1)
        for h in hits:
            low, high = wilson_interval(int(h), trials)
            covered += low <= exact <= high
        assert covered / reps >= 0.93


class TestTrichotomySweep:
    def test_zero_regime_approaches_half(self):
        sweep = trichotomy_sweep(AsymmetryRegime(kind="zero"), [100, 1_000, 10_000], 0.5)
        values = [r.exact for r in sweep.rows]
        assert values[-1] < values[0]
        assert 0.5 < values[-1] < 0.52
        for row in sweep.rows:
            _, upper = analytics.pn_sandwich(row.n, 0.5)
            assert row.exact <= upper

    def test_sqrt_regime_near_limit(self):
        sweep = trichotomy_sweep(AsymmetryRegime(kind="sqrt_scaled", alpha=1.0), [2_500], 0.5)
        assert sweep.metadata["predicted_limit"] == pytest.approx(0.9213503964748574, abs=1e-12)
        assert abs(sweep.rows[0].exact - sweep.metadata["predicted_limit"]) < 0.02
        assert sweep.metadata["limit_label"] == "limit (asymptotic reading)"

    def test_power_regime_heads_to_one(self):
        sweep = trichotomy_sweep(AsymmetryRegime(kind="power", beta=0.75), [10_000], 0.5)
        assert sweep.rows[0].exact >= 0.999
        assert sweep.metadata["predicted_limit"] == 1.0

    def test_offset_exceeding_n_rejected(self):
        with pytest.raises(ValueError):
            # ceil(10 * sqrt(4)) = 20 > 4
            trichotomy_sweep(AsymmetryRegime(kind="sqrt_scaled", alpha=10.0), [4], 0.5)


class TestSymmetryBreakLaw:
    def test_moderate_size_matches_limit_law(self):
        # round 1 from a tie: (N0 - n)/sqrt(n) has mean 0 and variance about 1/2
        n = 2_500
        zeros = final_zeros_sample(_config(n, 0, 1, 0.5), 20_000, SEED)
        scaled = (zeros - n) / math.sqrt(n)
        assert abs(scaled.mean()) < 0.03
        assert 0.42 <= scaled.var(ddof=1) <= 0.58


def _no_trials(*args, **kwargs):
    raise AssertionError("a trial ran before the inputs were checked")


class TestTheoremSuites:
    def test_theorem1_structure_and_bounds(self):
        sweep = theorem1_suite(
            0.5, [400], SEED,
            trials_single_round=2_000, trials=400,
        )
        assert len(sweep.rows) == 3
        sub1, sub2, sub3 = sweep.rows
        assert sub1.rounds == 1 and sub1.bound is not None
        assert sub1.bound.bound_name == "prop1"
        # bound domination: empirical error under bound + CI half-width
        assert sub1.estimate.p_hat <= sub1.bound.bound_value + sub1.estimate.half_width
        assert sub2.rounds == 2 and sub2.event == "majority_consensus"
        assert sub2.delta == math.ceil(math.sqrt(400))
        assert sub3.rounds == 3 and sub3.event == "consensus"
        assert sub3.estimate.p_hat > 0.5

    def test_two_rounds_with_sqrt_imbalance_reach_majority(self):
        # sqrt(n)-scaled head start plus two rounds is enough at n = 10^4
        config = _config(10_000, 100, 2, 0.5)
        est = estimate_event_probability(config, "majority_consensus", 400, SEED)
        assert est.p_hat >= 0.9

    def test_theorem2_exact_in_ci_and_envelope(self):
        sweep = theorem2_suite(0.5, [50, 100], 5_000, SEED)
        for row in sweep.rows:
            assert row.exact is not None
            assert row.estimate.covers(row.exact)
            assert row.bound.bound_name == "theorem2_envelope"
            assert row.bound.bound_value == pytest.approx(
                3.0 / row.n ** (1.0 / 128.0), rel=1e-12
            )
        assert sweep.rows[0].exact > sweep.rows[1].exact

    @pytest.mark.parametrize("alpha", [0.0, -2.0, 3.0])  # ceil(3 sqrt(4)) = 6 > 4
    def test_theorem1_refuses_alpha_before_any_trial(self, monkeypatch, alpha):
        monkeypatch.setattr(experiments, "final_zeros_into", _no_trials)
        with pytest.raises(ValueError, match="alpha"):
            theorem1_suite(0.5, [16, 4], SEED, trials_single_round=10, trials=10, alpha=alpha)

    @pytest.mark.parametrize("n", [1, 2, 3])  # ceil(n^(3/4)) = n: no start below a_n = n
    def test_theorem1_refuses_n_without_a_prop1_bound_before_any_trial(self, monkeypatch, n):
        monkeypatch.setattr(experiments, "final_zeros_into", _no_trials)
        with pytest.raises(ValueError, match=rf"ceil\(n\^\(3/4\)\) < n .*, got n={n}$"):
            theorem1_suite(0.5, [16, n], SEED, trials_single_round=10, trials=10)

    @pytest.mark.parametrize("q", [0.0, 1.0])
    @pytest.mark.parametrize("theorem", [1, 2])
    def test_theorem_suites_refuse_q_at_the_ends_before_any_trial(self, monkeypatch, theorem, q):
        monkeypatch.setattr(experiments, "final_zeros_into", _no_trials)
        with pytest.raises(ValueError, match=rf"q strictly inside \(0, 1\), got {q}$"):
            if theorem == 1:
                theorem1_suite(q, [16], SEED, trials_single_round=10, trials=10)
            else:
                theorem2_suite(q, [16], 10, SEED)

    def test_past_the_chain_ceiling_rows_have_no_exact(self):
        assert theorem2_suite(0.5, [501], 10, SEED).rows[0].exact is None
        assert max_error_sweep(501, 0.5, 1, 10, SEED, deltas=[0]).rows[0].exact is None


class TestEmptyGrids:
    def test_max_error_sweep_needs_a_delta(self, monkeypatch):
        monkeypatch.setattr(experiments, "final_zeros_into", _no_trials)
        with pytest.raises(ValueError, match="deltas"):
            max_error_sweep(3, 0.5, 1, 10, 1, deltas=[])

    def test_return_to_symmetry_needs_an_n(self, monkeypatch):
        monkeypatch.setattr(experiments, "final_zeros_into", _no_trials)
        with pytest.raises(ValueError, match="n_grid"):
            return_to_symmetry_rate([], 0.5, 10, 1)


class TestMaxErrorSweep:
    def test_small_system_sweep(self):
        sweep = max_error_sweep(12, 0.5, 2, 1_500, SEED, deltas=range(0, 13, 3))
        assert [r.delta for r in sweep.rows] == [0, 3, 6, 9, 12]
        # all-zeros start cannot fail
        last = sweep.rows[-1]
        assert last.estimate.p_hat == 0.0 and last.exact == pytest.approx(0.0, abs=1e-12)
        # exact error is non-increasing in the imbalance on this grid
        exact = [r.exact for r in sweep.rows]
        assert all(b <= a + 1e-12 for a, b in zip(exact, exact[1:]))
        # estimates stay near their exact values
        for r in sweep.rows:
            assert r.estimate.covers(r.exact)
        assert sweep.metadata["argmax_delta"] == 0

    def test_requires_estimates(self):
        sweep = max_error_sweep(6, 0.25, 1, 500, SEED)
        assert len(sweep.rows) == 7


class TestReturnToSymmetry:
    def test_reliable_network_always_returns(self):
        sweep = return_to_symmetry_rate([10, 40], 0.0, 300, SEED)
        for row in sweep.rows:
            assert row.estimate.p_hat == 1.0

    def test_sqrt_decay_fit(self):
        sweep = return_to_symmetry_rate([100, 400], 0.5, 200_000, SEED)
        r100, r400 = sweep.rows
        ratio = r100.estimate.p_hat / r400.estimate.p_hat
        assert 1.6 <= ratio <= 2.4
        assert "sqrt_fit" in r100.extra
        # local-limit heuristic: within a factor 2 of 1/sqrt(pi n 2 p (1-p))
        p_n = analytics.keep_zero_probability(100, 100, 0.5)
        heuristic = 1.0 / math.sqrt(math.pi * 100 * 2.0 * p_n * (1.0 - p_n))
        assert heuristic / 2.0 <= r100.estimate.p_hat <= heuristic * 2.0
