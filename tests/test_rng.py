import hashlib
import inspect
import os
import subprocess
import sys
import threading
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import smpsim
from smpsim import analytics, rng
from smpsim.rng import philox4x64, sample_binomial_lanes, uniform_lanes

U64_MAX = 2**64 - 1


def _u64(*values):
    return [np.array([v], dtype=np.uint64) for v in values]


class TestPhilox:
    @pytest.mark.parametrize(
        "counter,key",
        [
            ((5, 6, 7, 8), (1, 2)),
            ((0, 0, 0, 0), (0, 0)),
            ((2**64 - 1, 123, 456, 789), (987654321, 123456789)),
            ((42, 0, 2**63, 7), (2**64 - 1, 3)),
        ],
    )
    def test_matches_numpy_philox(self, counter, key):
        # numpy's Philox advances the counter before generating, so its first
        # output block corresponds to counter + 1 in the low word
        reference = np.random.Philox(
            counter=np.array(counter, dtype=np.uint64), key=np.array(key, dtype=np.uint64)
        ).random_raw(4)
        wide = sum(w << (64 * i) for i, w in enumerate(counter))
        wide = (wide + 1) % 2**256
        bumped = tuple((wide >> (64 * i)) & (2**64 - 1) for i in range(4))
        oracle = oracles.philox4x64(*_u64(*bumped), key[0], key[1])
        assert [int(w[0]) for w in oracle] == [int(r) for r in reference]

    @pytest.mark.parametrize(
        "c0,c1,c2,c3",
        [
            ([0], 0, 0, 0),  # counter - 1 borrows through every word
            ([0, 1, 2], [5], 6, 7),
            ([U64_MAX], 5, 6, U64_MAX),
            ([U64_MAX, 0, U64_MAX - 3], U64_MAX, U64_MAX, U64_MAX),
            # mixed (c1, c2, c3) in one call
            ([3, 1, 3, 2, 100, 1], [1, 1, 2, 1, 1, 1], 0, [4, 4, 4, 4, 5, 4]),
            ([0, 1, 2, 3], [0, 0, 1, 1], 5, 5),
            # unsorted lanes and duplicates
            ([9, 4, 4, 200, 0, 9, 1], 2, 3, 1),
            ([2, 0, 0], 2, 3, 1),
            (list(range(1000)), 0, 1, 0),
            (list(range(0, 1000, 7)) + list(range(5000, 5300, 90)), 3, 1, 0),
            # sparse lanes: the 2^62 blocks between them are never generated
            ([0, 2**62], 1, 2, 3),
        ],
    )
    def test_matches_oracle(self, c0, c1, c2, c3):
        counters = [np.asarray(c, dtype=np.uint64) for c in (c0, c1, c2, c3)]
        tracemalloc.start()
        try:
            ours = philox4x64(*counters, 987654321, 2**64 - 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        oracle = oracles.philox4x64(*counters, 987654321, 2**64 - 5)
        assert all(np.array_equal(a, b) for a, b in zip(ours, oracle))

    def test_any_lane_order_equals_sorted_lanes(self):
        # shuffled 0..9,999, then repeats and a descending stretch: runs end
        # at every repeat and descent, and each lane keeps its own block
        shuffled = np.random.default_rng(5).permutation(10_000)
        c0 = np.concatenate([shuffled, [17, 17, 9_999, 0], np.arange(300, 200, -1)])
        c0 = c0.astype(np.uint64)
        order = np.argsort(c0, kind="stable")
        given = philox4x64(c0, 1, 2, 3, 11, 22)
        ordered = philox4x64(c0[order], 1, 2, 3, 11, 22)
        for a, b in zip(given, ordered, strict=True):
            assert np.array_equal(a[order], b)

    def test_zero_lanes_give_empty_words(self):
        words = philox4x64(np.array([], dtype=np.uint64), 1, 2, 3, 11, 22)
        assert len(words) == 4
        assert all(w.dtype == np.uint64 and w.shape == (0,) for w in words)

    def test_vector_consistency(self):
        # lane i of a vector call equals a scalar call at that counter
        c0 = np.arange(10, dtype=np.uint64)
        ones = np.ones(10, dtype=np.uint64)
        vec = philox4x64(c0, ones, 2 * ones, 3 * ones, 11, 22)
        for i in range(10):
            scalar = philox4x64(*_u64(i, 1, 2, 3), 11, 22)
            assert [int(w[i]) for w in vec] == [int(w[0]) for w in scalar]

    def test_distinct_paths_differ(self):
        base = uniform_lanes(7, np.uint64(0), np.uint64(0), np.uint64(0))[0]
        for path in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]:
            other = uniform_lanes(7, np.uint64(path[0]), np.uint64(path[1]), np.uint64(path[2]))[0]
            assert other != base

    def test_uniform_range(self):
        u = uniform_lanes(3, np.arange(10_000, dtype=np.uint64), np.uint64(0), np.uint64(0))
        assert u.min() >= 0.0 and u.max() < 1.0
        assert abs(u.mean() - 0.5) < 0.02

    def test_uniform_lanes_match_oracle(self):
        # counter (trial, 0, round, group), key (seed mod 2^64, "smp-sim\x01"),
        # uniform = top 53 bits of word 0
        seed, trial = 2**64 + 12345, np.array([0, 1, 2, 40, 41], dtype=np.uint64)
        domain = int.from_bytes(b"smp-sim\x01", "big")
        word = oracles.philox4x64(trial, 0, 2, 1, seed % 2**64, domain)[0]
        expected = (word >> np.uint64(11)).astype(np.float64) / 2.0**53
        assert np.array_equal(uniform_lanes(seed, trial, np.uint64(2), np.uint64(1)), expected)

    def test_streams_reproducible(self):
        trials = np.arange(32, dtype=np.uint64)
        a = uniform_lanes(9, trials, np.uint64(2), np.uint64(1))
        b = uniform_lanes(9, trials, np.uint64(2), np.uint64(1))
        assert np.array_equal(a, b)


    @pytest.mark.parametrize(
        "lanes",
        ["consecutive", "gapped", "shuffled", "group array"],
    )
    def test_uniforms_made_in_pieces_equal_word_zero(self, lanes):
        # runs longer than a piece, gapped runs whose pieces hold no lane,
        # repeats and descents, and a high word that changes mid-call
        gen = np.random.default_rng(3)
        count = 3 * rng._PIECE + 5
        group = np.uint64(4)
        if lanes == "consecutive":
            trial = np.arange(7, 7 + count, dtype=np.uint64)
        elif lanes == "gapped":
            steps = gen.integers(1, rng._RUN_GAP + 1, count)
            steps[100] = 2 * rng._PIECE  # a gap wider than a piece ends the run
            trial = np.cumsum(steps).astype(np.uint64)
        elif lanes == "shuffled":
            tail = np.array([5, 5, 2**64 - 1, 0], dtype=np.uint64)
            trial = np.concatenate([gen.permutation(count).astype(np.uint64), tail])
        else:
            trial = np.arange(count, dtype=np.uint64)
            group = (trial >= count // 2).astype(np.uint64)
        word = philox4x64(trial, 0, 3, group, 2**64 + 9, rng._DOMAIN)[0]
        expected = (word >> np.uint64(11)).astype(np.float64) / 2.0**53
        assert np.array_equal(uniform_lanes(2**64 + 9, trial, np.uint64(3), group), expected)


class TestSampleBinomial:
    def test_degenerate(self):
        trials = np.arange(100, dtype=np.uint64)
        for m, p, expected in ((0, 0.7, 0), (5, 0.0, 0), (5, 1.0, 5)):
            draws = sample_binomial_lanes(m, p, 5, trials, 0, np.uint64(0))
            assert np.all(draws == expected)

    def test_range(self):
        for m, p in [(3, 0.2), (50, 0.9), (2000, 0.5), (5000, 0.01)]:
            draws = sample_binomial_lanes(
                m, p, 77, np.arange(2_000, dtype=np.uint64), 1, np.uint64(0)
            )
            assert draws.min() >= 0 and draws.max() <= m

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_binomial_lanes(-1, 0.5, 1, np.arange(2, dtype=np.uint64), 0, np.uint64(0))
        with pytest.raises(ValueError):
            sample_binomial_lanes(5, 1.5, 1, np.arange(2, dtype=np.uint64), 0, np.uint64(0))
        with pytest.raises(ValueError):
            sample_binomial_lanes(2**27, 0.5, 1, np.arange(2, dtype=np.uint64), 0, np.uint64(0))
        with pytest.raises(ValueError):
            sample_binomial_lanes(5, np.nan, 1, [0, 1, 2], 1, 0)
        with pytest.raises(ValueError):
            sample_binomial_lanes(5, [0.3, np.nan], 1, [0, 1], 0, np.uint64(0))
        with pytest.raises(ValueError):  # m of 3 lanes for 2 trials
            sample_binomial_lanes([5, 5, 5], 0.3, 1, [0, 1], 0, np.uint64(0))
        with pytest.raises(ValueError, match=r"must broadcast to trial \(3,\)"):  # m of 2 x 3
            sample_binomial_lanes(np.ones((2, 3), dtype=np.int64), 0.3, 1, [0, 1, 2], 1, 0)

    @pytest.mark.parametrize(
        "m,trial,message",
        [
            (40.9, np.arange(50), "m must hold integers, got dtype float64"),
            ([True, False], [0, 1], "m must hold integers, got dtype bool"),
            (40, [3.5], "trial must hold integers, got dtype float64"),
            (40, [True], "trial must hold integers, got dtype bool"),
            (40, [2, -1], "trial must be nonnegative"),
        ],
    )
    def test_m_and_trial_must_be_integers(self, m, trial, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            sample_binomial_lanes(m, 0.3, 1, trial, 1, 0)

    @pytest.mark.parametrize(
        "round_index,group,message",
        [
            (2.9, 0, "round_index must hold integers, got dtype float64"),
            (True, 0, "round_index must hold integers, got dtype bool"),
            (-1, 0, "round_index must be nonnegative"),
            (2, 1.7, "group must hold integers, got dtype float64"),
            (2, np.bool_(True), "group must hold integers, got dtype bool"),
            (2, [0, -3], "group must be nonnegative"),
        ],
    )
    def test_round_and_group_must_be_nonnegative_integers(self, round_index, group, message):
        # checked on the values as passed: 2.9 is no round 2, 1.7 no group 1
        for m, p in ((40, 0.3), ([40, 7], [0.3, 0.6])):
            with pytest.raises(ValueError, match=f"^{message}$"):
                sample_binomial_lanes(m, p, 1, [0, 1], round_index, group)

    def test_integer_round_and_group_of_any_dtype_draw_alike(self):
        trials = np.arange(20, dtype=np.uint64)
        draws = sample_binomial_lanes(40, 0.3, 1, trials, np.uint64(2), np.uint64(1))
        for round_index, group in ((2, 1), (np.int8(2), np.int32(1)), (np.array(2), [1] * 20)):
            again = sample_binomial_lanes(40, 0.3, 1, trials, round_index, group)
            assert np.array_equal(again, draws)

    def test_empty_lanes_accepted(self):
        # np.asarray([]) is float64; an empty call is still no error
        assert sample_binomial_lanes([], 0.3, 1, [], 1, 0).shape == (0,)

    def test_empirical_mean(self):
        draws = sample_binomial_lanes(
            100, 0.3, 123, np.arange(1_000_000, dtype=np.uint64), 1, np.uint64(0)
        )
        assert draws.mean() == pytest.approx(30.0, abs=0.1)

    def test_determinism_and_batch_invariance(self):
        trials = np.arange(1_000, dtype=np.uint64)
        full = sample_binomial_lanes(40, 0.35, 9, trials, 2, np.uint64(1))
        again = sample_binomial_lanes(40, 0.35, 9, trials, 2, np.uint64(1))
        first = sample_binomial_lanes(40, 0.35, 9, trials[:500], 2, np.uint64(1))
        second = sample_binomial_lanes(40, 0.35, 9, trials[500:], 2, np.uint64(1))
        assert np.array_equal(full, again)
        assert np.array_equal(full, np.concatenate([first, second]))

    def test_single_lane_equals_vector_lane(self):
        trials = np.arange(40, dtype=np.uint64)
        for m in (64, 5000):
            vector = sample_binomial_lanes(m, 0.44, 31, trials, 2, np.uint64(1))
            single = sample_binomial_lanes(m, 0.44, 31, trials[17:18], 2, np.uint64(1))
            assert single[0] == vector[17]

    @pytest.mark.parametrize(
        "m,p",
        [
            ([10, 3000, 0, 1500], [0.5, 0.5, 0.9, 0.001]),
            # tables of about 1.1e5 entries: more than one block
            ([10, 2**27 - 1, 0, 10**6, 70_000, 1500, 5, 2**27 - 1],
             [0.5, 0.5, 0.9, 0.3, 0.999, 0.001, 0.2, 1e-6]),
            # one m, p a few ulps apart: one table per distinct p
            ([700] * 6, [0.3, np.nextafter(0.3, 1), 0.3, 0.3 + 2e-12, np.nextafter(0.3, 1), 0.7]),
            # one m with several p, and one p with several m: not one-pair calls
            ([100] * 4, [0.1, 0.4, 0.1, 0.9]),
            ([10, 100, 10, 1000], [0.4] * 4),
        ],
    )
    def test_mixed_lane_parameters(self, m, p):
        m, p = np.array(m, dtype=np.int64), np.array(p, dtype=np.float64)
        trials = np.arange(len(m), dtype=np.uint64)
        draws = sample_binomial_lanes(m, p, 13, trials, 1, np.uint64(0))
        assert np.all(draws >= 0) and np.all(draws <= m)
        for i in range(len(m)):
            alone = sample_binomial_lanes(m[i], p[i], 13, trials[i : i + 1], 1, np.uint64(0))
            assert alone[0] == draws[i]


_LANE_P = st.one_of(
    st.sampled_from([0.0, 1.0, 0.5, 1e-9]),
    st.floats(0.5, 1.0, exclude_min=True),
    st.floats(0.0, 1.0),
)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mixed_call_equals_each_lane_alone(data):
    # repeated trial ids, 1-D and 2-D lanes, scalar or per-lane m and p
    shape = data.draw(st.sampled_from([(1,), (7,), (16,), (2, 5), (3, 4)]))
    size = int(np.prod(shape))
    trial = np.array(data.draw(st.lists(st.integers(0, 5), min_size=size, max_size=size)),
                     dtype=np.uint64).reshape(shape)

    def scalar_or_lanes(values):
        lanes = st.lists(values, min_size=size, max_size=size).map(
            lambda v: np.array(v).reshape(shape))
        return data.draw(st.one_of(values.map(np.array), lanes))

    m = scalar_or_lanes(st.just(0) | st.integers(0, 3000))
    p = scalar_or_lanes(_LANE_P)
    draws = sample_binomial_lanes(m, p, 99, trial, 2, np.uint64(3))
    assert draws.shape == shape and draws.dtype == np.int64
    m_lanes, p_lanes = np.broadcast_to(m, shape), np.broadcast_to(p, shape)
    for i in np.ndindex(shape):
        alone = sample_binomial_lanes(m_lanes[i], p_lanes[i], 99, [trial[i]], 2, np.uint64(3))
        assert alone[0] == draws[i]
        assert 0 <= draws[i] <= m_lanes[i]


@pytest.mark.parametrize("p", [1e-6, 0.5, 1 - 1e-9])
@pytest.mark.parametrize("m", [1, 10, 1000, 10**6, 2**27 - 1])
def test_sampling_window_drops_below_a_uniform_step(m, p):
    lo, hi = analytics._window_bounds(np.array([float(m)]), np.array([p]), rng._SAMPLING_LOG_TAIL)
    assert 0 <= lo[0] <= hi[0] <= m
    assert stats.binom.cdf(lo[0] - 1, m, p) < 2.0**-54
    assert stats.binom.sf(hi[0], m, p) < 2.0**-54


def test_import_loads_no_scipy():
    # the runtime needs numpy only: no module of the package imports scipy
    src = str(Path(smpsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, smpsim; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]"


#: Draws of version 0.2.0 (log-factorial CDF inversion at every (m, p) below),
#: lanes 0..31 at seed 2021, round 3, group 1.  Inversion on Loader windows
#: reads the same uniform per lane and must reproduce them.
PINNED_DRAWS = {
    (1, 0.1): [0, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
               0, 0, 0, 0],
    (1, 0.5): [0, 1, 0, 0, 0, 1, 0, 1, 1, 1, 0, 0, 1, 1, 1, 1, 0, 1, 1, 0, 0, 1, 0, 1, 0, 0, 0, 1,
               1, 1, 1, 0],
    (1, 0.75): [1, 0, 1, 1, 1, 1, 1, 0, 0, 1, 1, 1, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 0, 1, 1, 1, 1,
                1, 1, 1, 1],
    (7, 0.1): [0, 4, 0, 0, 0, 1, 0, 1, 2, 1, 0, 0, 2, 2, 1, 1, 0, 1, 1, 0, 0, 1, 0, 2, 0, 0, 0, 1,
               1, 1, 1, 0],
    (7, 0.5): [2, 7, 3, 3, 3, 4, 3, 5, 5, 4, 3, 3, 5, 5, 5, 5, 2, 4, 4, 3, 3, 4, 3, 5, 2, 3, 2, 4,
               4, 4, 4, 3],
    (7, 0.75): [6, 1, 6, 5, 6, 5, 6, 4, 4, 5, 6, 6, 4, 4, 4, 4, 7, 5, 5, 6, 6, 5, 6, 4, 6, 6, 7, 5,
                5, 5, 5, 6],
    (64, 0.1): [4, 15, 5, 6, 6, 7, 6, 8, 10, 7, 6, 6, 9, 9, 8, 8, 3, 7, 8, 5, 6, 7, 5, 9, 4, 5, 3,
                7, 7, 8, 7, 5],
    (64, 0.5): [28, 45, 31, 32, 31, 33, 31, 35, 38, 33, 31, 31, 36, 36, 35, 35, 26, 33, 34, 30, 31,
                33, 30, 37, 28, 31, 26, 33, 33, 34, 34, 29],
    (64, 0.75): [52, 36, 49, 48, 49, 47, 49, 45, 43, 47, 49, 49, 44, 44, 45, 45, 53, 47, 46, 50,
                 49, 48, 49, 44, 51, 49, 53, 47, 47, 46, 46, 50],
    (1024, 0.1): [93, 134, 99, 101, 100, 104, 100, 110, 117, 104, 100, 100, 112, 112, 110, 110, 88,
                  106, 108, 96, 100, 104, 99, 113, 94, 99, 89, 106, 106, 108, 107, 96],
    (1024, 0.5): [496, 563, 506, 510, 508, 515, 508, 525, 535, 516, 508, 507, 529, 529, 524, 525,
                  488, 518, 521, 502, 508, 514, 506, 530, 497, 506, 489, 518, 518, 521, 520, 502],
    (1024, 0.75): [782, 723, 773, 769, 771, 765, 772, 756, 748, 765, 772, 772, 754, 753, 757, 757,
                   788, 763, 760, 777, 771, 766, 773, 752, 781, 773, 788, 763, 763, 761, 761, 777],
    (5000, 0.001): [3, 13, 4, 5, 4, 5, 4, 7, 8, 5, 4, 4, 7, 7, 7, 7, 2, 6, 6, 4, 4, 5, 4, 8, 3, 4,
                    2, 6, 6, 6, 6, 3],
}


@pytest.mark.parametrize("m,p", sorted(PINNED_DRAWS))
def test_pinned_draws(m, p):
    draws = sample_binomial_lanes(m, p, 2021, np.arange(32, dtype=np.uint64), 3, np.uint64(1))
    assert draws.tolist() == PINNED_DRAWS[(m, p)]


def test_pinned_draws_in_one_mixed_call():
    ms, ps = map(np.array, zip(*PINNED_DRAWS))
    for trial in (0, 7, 31):
        lanes = np.full(len(ms), trial, dtype=np.uint64)
        mixed = sample_binomial_lanes(ms, ps, 2021, lanes, 3, np.uint64(1))
        assert mixed.tolist() == [draws[trial] for draws in PINNED_DRAWS.values()]


def _chi_square_pvalue(m: int, p: float, n_draws: int, seed: int) -> float:
    draws = sample_binomial_lanes(
        m, p, seed, np.arange(n_draws, dtype=np.uint64), 1, np.uint64(0)
    )
    lo, log_pmf = next(analytics._windows(m, p))
    pmf = np.zeros(m + 1)
    pmf[lo : lo + len(log_pmf)] = np.exp(log_pmf)
    observed = np.bincount(draws, minlength=m + 1).astype(float)
    expected = pmf * n_draws
    # pool sparse tails so every cell has expected count >= 5
    dense = expected >= 5
    lo = int(np.argmax(dense))
    hi = len(dense) - int(np.argmax(dense[::-1])) - 1
    obs = np.concatenate([[observed[:lo].sum()], observed[lo : hi + 1], [observed[hi + 1 :].sum()]])
    exp = np.concatenate([[expected[:lo].sum()], expected[lo : hi + 1], [expected[hi + 1 :].sum()]])
    mask = exp > 0
    _, pvalue = stats.chisquare(obs[mask], exp[mask] * obs[mask].sum() / exp[mask].sum())
    return float(pvalue)


@pytest.mark.parametrize(
    "m,p", [(10, 0.5), (100, 0.3), (2000, 0.9), (20_000, 0.5), (100_000, 0.3), (5_000, 0.001)]
)
def test_goodness_of_fit(m, p):
    assert _chi_square_pvalue(m, p, 1_000_000, 1234) > 0.001


# --------------------------------------------------------------------------
# Bucket-table CDF search: a lane's draw is the table entry of its word 0's
# top bits, and every answer must equal the plain binary search at its
# uniform, with the full table and a mixed group's smaller one.
# --------------------------------------------------------------------------

_THRESHOLD = rng._GUIDED_MIN_LANES
_FULL_TABLE = 1 << rng._TABLE_MAX_BITS


def _sampler_cdf(m: int, p: float) -> np.ndarray:
    """The CDF that the sampler searches for Bin(m, p), p <= 1/2."""
    ((_, log_pmf),) = analytics._windows(np.array([m]), np.array([p]), rng._SAMPLING_LOG_TAIL)
    cdf = np.cumsum(np.exp(log_pmf))
    cdf[-1] = 1.0
    return cdf


def _flat_cdf() -> np.ndarray:
    """300 entries below 1e-27 (all in the table's bucket 0), then runs of equal entries."""
    cdf = np.cumsum(np.r_[np.full(300, 1e-30), 0.0, 0.0, 0.25, 0.0, 0.0, 0.25, 0.5])
    cdf[-1] = 1.0
    return cdf


def _bucket_end_cdf() -> np.ndarray:
    """Entries at the last uniform of a bucket, j / G - 2^-53, and at bucket starts."""
    return np.array([2.0**-14 - 2.0**-53, 0.25 - 2.0**-53, 0.25, 0.5 - 2.0**-53, 0.75, 1.0])


def _edge_words(cdf: np.ndarray, size: int) -> np.ndarray:
    """Words of 0, the largest uniform, and both sides of every CDF entry and bucket edge.

    A uniform is (word >> 11) * 2^-53; the bucket edges are those of a
    table of ``size`` entries.  The low 11 bits, which no draw reads, are
    random.
    """
    steps = np.r_[np.ceil(cdf * 2.0**53), np.arange(size) * (2.0**53 / size)]
    near = np.r_[0.0, 2.0**53 - 1, steps - 1, steps, steps + 1]
    near = near[(near >= 0) & (near < 2.0**53)].astype(np.uint64)
    low = np.random.default_rng(len(cdf)).integers(0, 1 << 11, near.size, dtype=np.uint64)
    return (near << np.uint64(11)) | low


def _lanes(words: np.ndarray, count: int, seed: int) -> np.ndarray:
    """``count`` words: every one of ``words`` (while they fit), then random ones, shuffled."""
    rs = np.random.default_rng(seed)
    extra = rs.integers(0, 2**64 - 1, max(count - len(words), 0), dtype=np.uint64, endpoint=True)
    return rs.permutation(np.r_[words, extra][:count])


def _uniforms(words: np.ndarray) -> np.ndarray:
    return (words >> np.uint64(11)) * 2.0**-53


def _tables(cdf: np.ndarray, lanes: int) -> dict:
    """The one-pair table and the table of a mixed group of ``lanes`` lanes."""
    return {
        "full": rng._bucket_table(cdf),
        "group": rng._bucket_table(cdf, 1 << (lanes.bit_length() - 2)),
    }


_SEARCH_CDFS = {
    "m=1": (1, 0.5),
    "m=1 tiny p": (1, 1e-9),
    "m=2": (2, 0.5),
    "m=2 small p": (2, 0.01),
    "m=30": (30, 0.5),
    "m=800": (800, 0.5),
    "m=1e5": (100_000, 0.3),
    "m=1e6": (1_000_000, 0.5),
    "m=1e6 Poisson-like": (1_000_000, 1e-5),
}


@pytest.mark.parametrize("name", [*_SEARCH_CDFS, "flat", "bucket ends"])
@pytest.mark.parametrize("offset", [-1, 0, 1, 12 * _THRESHOLD])
def test_guided_search_equals_binary_search(name, offset):
    special = {"flat": _flat_cdf, "bucket ends": _bucket_end_cdf}
    cdf = special[name]() if name in special else _sampler_cdf(*_SEARCH_CDFS[name])
    # both sides of the threshold and past the workspace; the edge words
    # spread over calls that fit
    count = _THRESHOLD + offset
    for kind, table in _tables(cdf, count).items():
        edges = _edge_words(cdf, len(table))
        for start in range(0, len(edges), count):
            words = _lanes(edges[start : start + count], count, seed=start)
            out = np.empty(count, dtype=np.int64)
            rng._search(cdf, table, words, out)
            assert np.array_equal(out, oracles.cdf_search(cdf, _uniforms(words))), kind


def test_guided_search_writes_into_a_slice():
    cdf = _sampler_cdf(800, 0.5)
    for table in _tables(cdf, 2 * _THRESHOLD).values():
        edges = _edge_words(cdf, len(table))
        words = _lanes(edges, max(2 * _THRESHOLD, len(edges)), seed=1)
        draws = np.full(_THRESHOLD + len(words), -1, dtype=np.int64)
        rng._search(cdf, table, words, draws[_THRESHOLD:])
        assert np.all(draws[:_THRESHOLD] == -1)
        assert np.array_equal(draws[_THRESHOLD:], oracles.cdf_search(cdf, _uniforms(words)))


@settings(max_examples=40, deadline=None)
@given(
    weights=st.lists(
        st.sampled_from([0.0, 1e-300, 1e-20, 1e-3, 0.3, 1.0]) | st.floats(0.0, 1.0),
        min_size=1, max_size=600,
    ),
    steps=st.lists(st.integers(0, 2**53 - 1), max_size=64),
    most=st.integers(0, rng._TABLE_MAX_BITS).map(lambda bits: 1 << bits),
)
def test_guided_search_on_any_cdf(weights, steps, most):
    cdf = np.cumsum(np.r_[weights, 1.0])
    cdf /= cdf[-1]
    cdf[-1] = 1.0
    table = rng._bucket_table(cdf, most)
    words = np.r_[np.array(steps, dtype=np.uint64) << np.uint64(11), _edge_words(cdf, len(table))]
    words = _lanes(words, len(words), seed=len(weights))
    out = np.empty(len(words), dtype=np.int64)
    rng._search(cdf, table, words, out)
    assert np.array_equal(out, oracles.cdf_search(cdf, _uniforms(words)))


def test_bucket_tables_are_read_only_and_sized_to_their_cdf():
    for m, p in _SEARCH_CDFS.values():
        cdf = _sampler_cdf(m, p)
        table = rng._bucket_table(cdf)
        size = len(table)
        assert not table.flags.writeable and size & (size - 1) == 0
        assert size == _FULL_TABLE or size >= rng._TABLE_ENTRIES_PER_STEP * len(cdf) > size // 2
        # a split bucket holds a CDF step, so at most len(cdf) buckets are split
        assert np.count_nonzero(table < 0) <= len(cdf)
        assert len(rng._bucket_table(cdf, 4096)) == min(size, 4096)


def test_mixed_call_with_groups_on_both_sides_of_the_threshold():
    # 800 and 2 each above the threshold, 30 below; each lane equals the oracle at its uniform
    ms = np.r_[np.full(_THRESHOLD + 3, 800), np.full(17, 30), np.full(_THRESHOLD, 2)]
    ps = np.r_[np.full(_THRESHOLD + 3, 0.5), np.full(17, 0.7), np.full(_THRESHOLD, 0.25)]
    order = np.random.default_rng(5).permutation(len(ms))
    ms, ps = ms[order], ps[order]
    trials = np.arange(len(ms), dtype=np.uint64)
    draws = sample_binomial_lanes(ms, ps, 2021, trials, 3, np.uint64(1))
    u = uniform_lanes(2021, trials, np.uint64(3), np.uint64(1))
    for m, p in {(800, 0.5), (30, 0.7), (2, 0.25)}:
        lanes = (ms == m) & (ps == p)
        assert np.array_equal(draws[lanes], oracles.binomial_inversion(m, p, u[lanes]))


#: CRC-32 of the int64 draws of lanes 0..9999 at seed 2021, round 3, group 1,
#: recorded from the binary search before the guided one; every call takes
#: the guided path.
PINNED_GUIDED_CRC32 = {
    (1, 0.3): 486150220,
    (2, 0.5): 3746750464,
    (7, 0.75): 2787604187,
    (800, 0.5): 3984478819,
    (3200, 0.3): 2288906340,
    (5000, 0.001): 331438501,
    (1_000_000, 0.5): 2132769566,
}


@pytest.mark.parametrize("m,p", sorted(PINNED_GUIDED_CRC32))
def test_pinned_draws_on_the_guided_path(m, p):
    trials = np.arange(10_000, dtype=np.uint64)
    assert len(trials) >= _THRESHOLD
    draws = sample_binomial_lanes(m, p, 2021, trials, 3, np.uint64(1))
    u = uniform_lanes(2021, trials, np.uint64(3), np.uint64(1))
    assert np.array_equal(draws, oracles.binomial_inversion(m, p, u))
    assert zlib.crc32(draws.tobytes()) == PINNED_GUIDED_CRC32[(m, p)]


# --------------------------------------------------------------------------
# One-pair calls: m and p each hold one value, decided once per call.
# --------------------------------------------------------------------------

_ONE_PAIRS = [(800, 0.3), (800, 0.7), (3, 0.5), (40, 0.0), (40, 1.0), (0, 0.3), (0, 0.8)]


@pytest.mark.parametrize("lanes", [100, _THRESHOLD + 5])
@pytest.mark.parametrize("m,p", _ONE_PAIRS)
def test_one_pair_as_scalars_arrays_or_in_a_mixed_call(m, p, lanes):
    # a one-pair call (scalars, constant arrays) and a mixed call, sorted
    # into groups, give every lane the same draw
    trials = np.arange(5, 5 + lanes, dtype=np.uint64)
    scalars = sample_binomial_lanes(m, p, 2021, trials, 3, np.uint64(1))
    arrays = sample_binomial_lanes(
        np.full(lanes, m), np.full(lanes, p), 2021, trials, 3, np.uint64(1)
    )
    # a lane of another pair turns the call mixed; the other lanes keep their draws
    ms, ps = np.r_[np.full(lanes, m), 17], np.r_[np.full(lanes, p), 0.45]
    mixed = sample_binomial_lanes(ms, ps, 2021, np.r_[trials, 2], 3, np.uint64(1))
    assert scalars.dtype == arrays.dtype == mixed.dtype == np.int64
    assert np.array_equal(scalars, arrays) and np.array_equal(scalars, mixed[:-1])
    if m == 0 or p in (0.0, 1.0):
        assert np.all(scalars == m * p)
    else:
        u = uniform_lanes(2021, trials, np.uint64(3), np.uint64(1))
        assert np.array_equal(scalars, oracles.binomial_inversion(m, p, u))


def test_one_pair_call_keeps_the_lane_shape():
    trials = np.arange(12, dtype=np.uint64).reshape(3, 4)
    draws = sample_binomial_lanes(np.full((1, 4), 30), 0.6, 9, trials, 1, 2)
    assert draws.shape == (3, 4) and draws.dtype == np.int64
    flat = sample_binomial_lanes(30, 0.6, 9, trials.reshape(-1), 1, 2)
    assert np.array_equal(draws.reshape(-1), flat)


@pytest.mark.parametrize(
    "m, p",
    [
        ([0, 0, 0], [0.3, 0.0, 1.0]),  # m = 0 throughout
        ([4, 0, 9], [0.0, 0.0, 0.0]),  # p = 0 throughout
        ([4, 0, 9], [1.0, 1.0, 1.0]),  # p = 1 throughout
        (np.arange(5)[:, None], [[1.0, 1.0, 1.0]]),  # broadcast to 5 x 3 lanes
    ],
    ids=["m=0", "p=0", "p=1", "2-D"],
)
def test_an_all_certain_mixed_call_reads_no_uniform(monkeypatch, m, p):
    # each draw of such a call is m (p = 1) or 0, as _pair_rule takes it
    def no_uniforms(*args):
        raise AssertionError("uniforms made for draws that are all certain")

    expected = np.broadcast_to(np.where(np.asarray(p) == 1.0, m, 0), np.broadcast(m, p).shape)
    trial = np.arange(expected.size, dtype=np.uint64).reshape(expected.shape)
    monkeypatch.setattr(rng, "_stream", no_uniforms)
    draws = sample_binomial_lanes(m, p, 3, trial, 1, 0)
    assert draws.dtype == np.int64 and np.array_equal(draws, expected)


def test_a_warm_one_pair_call_allocates_little_beyond_its_draws():
    # the blocks are made in pieces and each is searched as it is made: no
    # chunk-sized temporaries (a 2 MB block array, 0.5 MB arrays of uniforms,
    # guide indices and gathered CDF values)
    trials = np.arange(1 << 16, dtype=np.uint64)
    sample_binomial_lanes(400, 0.5, 5, trials, 1, 0)
    tracemalloc.start()
    try:
        draws = sample_binomial_lanes(400, 0.5, 6, trials, 1, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= draws.nbytes + (320 << 10)


#: Bytes of one piece of Philox blocks, 4,096 blocks of four words.
_PIECE_BYTES = rng._PIECE * 4 * 8


@pytest.mark.parametrize("m", [2, 400, 1600])
def test_a_warm_one_pair_call_with_out_makes_no_lane_sized_temporaries(m):
    # a one-pair call draws inside the stream's piece loop: one 128 KB piece
    # of blocks, dropped before the next is made, and piece-sized scratch;
    # no uniforms, guide indices or gathered CDF values for all 65,536 lanes
    # (405 KB at m = 2 for the guided search of float uniforms), and not the
    # piece before (261 KB when it was kept; 136 KB measured with one)
    trials = np.arange(1 << 16, dtype=np.uint64)
    row = np.empty(trials.size, dtype=np.int64)
    sample_binomial_lanes(m, 0.5, 5, trials, 1, 0, out=row)
    tracemalloc.start()
    try:
        sample_binomial_lanes(m, 0.5, 6, trials, 1, 0, out=row)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= _PIECE_BYTES + (32 << 10)


def test_a_warm_four_side_draw_holds_one_piece():
    # the four sides of a per-agent pair search the words of one piece
    trials = np.arange(1 << 16, dtype=np.uint64)
    rows = np.empty((4, trials.size), dtype=np.int64)
    sides = [(m, 0.5, row) for m, row in zip((1, 2, 3, 2), rows)]
    rng._draw_sides(sides, 5, trials, 1, 0)
    tracemalloc.start()
    try:
        rng._draw_sides(sides, 6, trials, 1, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= _PIECE_BYTES + (32 << 10)


@pytest.mark.parametrize("lanes", ["consecutive", "shuffled"])
def test_each_side_of_a_draw_reads_its_own_word(lanes):
    # one-pair, mixed, certain and flipped sides in one call over runs longer
    # than a piece: side s inverts its CDF at word s of the lane's block
    trial = np.arange(9, 9 + 3 * rng._PIECE + 5, dtype=np.uint64)
    if lanes == "shuffled":
        trial = np.random.default_rng(4).permutation(trial)
    mixed_m = np.where(trial % 3 == 0, 7, 12)
    sides = [(9, 0.3, None), (mixed_m, 0.6, None), (0, 0.5, None), (40, 0.8, None)]
    draws = rng._draw_sides(sides, 77, trial, 2, 5)
    words = oracles.philox4x64(trial, 0, 2, 5, 77, rng._DOMAIN)
    for s, (m, p, _) in enumerate(sides):
        m = np.broadcast_to(m, trial.shape)
        expected = np.empty(trial.size, dtype=np.int64)
        for value in np.unique(m):
            lanes_m = m == value
            expected[lanes_m] = oracles.binomial_inversion(int(value), p, _uniforms(words[s][lanes_m]))
        assert np.array_equal(draws[s], expected), s
    assert np.array_equal(draws[0], sample_binomial_lanes(9, 0.3, 77, trial, 2, 5))


def test_one_philox_generator_per_thread(monkeypatch):
    # a thread builds its generator once; later runs set its key and counter
    trials = np.arange(5_000, dtype=np.uint64)
    expected = sample_binomial_lanes(40, 0.3, 1, trials, 1, 0)
    built = []
    philox = np.random.Philox

    def counting(*args, **kwargs):
        built.append(threading.get_ident())
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)
    for seed in (2, 3):
        sample_binomial_lanes(np.arange(5_000) % 7, 0.3, seed, trials, 1, 0)
        uniform_lanes(seed, trials, 1, 0)
        philox4x64(trials, 0, 1, 0, seed, 9)
    assert np.array_equal(sample_binomial_lanes(40, 0.3, 1, trials, 1, 0), expected)
    assert built == []
    drawn = []
    thread = threading.Thread(
        target=lambda: drawn.extend(sample_binomial_lanes(40, 0.3, 1, trials, 1, 0) for _ in range(3))
    )
    thread.start()
    thread.join(timeout=60)
    assert len(built) == 1 and built[0] != threading.get_ident()
    assert len(drawn) == 3 and all(np.array_equal(d, expected) for d in drawn)


@pytest.mark.parametrize("m,p", [(1, 0.5), (2, 0.5), (400, 0.5), (1600, 0.3), (100_000, 0.7)])
def test_one_pair_and_mixed_paths_draw_the_same_bytes(m, p):
    # 2^16 + 3 lanes: the one-pair call searches its cached full table piece
    # by piece, the mixed call (one more lane of another pair) its group's
    # table sized to 2^15 entries at most; both send lanes of split buckets
    # to the binary search
    trials = np.arange(11, 11 + (1 << 16) + 3, dtype=np.uint64)
    one = sample_binomial_lanes(m, p, 77, trials, 2, 1)
    mixed = sample_binomial_lanes(
        np.r_[np.full(trials.size, m), 5], np.r_[np.full(trials.size, p), 0.5],
        77, np.r_[trials, 3], 2, 1,
    )
    assert np.array_equal(one, mixed[:-1])
    _, cdf, table = rng._one_pair_cdf(m, min(p, 1.0 - p))
    words = philox4x64(trials, 0, 2, 1, 77, rng._DOMAIN)[0]
    split = table[words >> np.uint64(65 - len(table).bit_length())] < 0
    assert split.any() == (m != 1)  # 1/2, the one step of Bin(1, 1/2), is a bucket edge
    assert np.array_equal(one, oracles.binomial_inversion(m, p, _uniforms(words)))


def test_threads_drawing_at_once_get_the_bytes_of_sequential_calls():
    # each thread has its own workspace; more threads than cores, with a
    # short switch interval, so that calls interleave inside the sampler
    lanes = np.arange(3, 3 + 12_000, dtype=np.uint64)
    mixed_m = np.where(lanes % 2 == 0, 900, 40)
    calls = [
        (11, 400, 0.5, lanes),
        (12, 1600, 0.3, lanes[:9_000]),
        (13, 25, 0.8, lanes),
        (14, np.tile(mixed_m, 2), 0.45, np.arange(2 * lanes.size, dtype=np.uint64)),
    ]
    expected = [sample_binomial_lanes(m, p, seed, trial, 2, 1) for seed, m, p, trial in calls]
    barrier = threading.Barrier(len(calls))
    mismatches = []

    def draw(i):
        seed, m, p, trial = calls[i]
        barrier.wait(timeout=30)
        for _ in range(20):
            if not np.array_equal(sample_binomial_lanes(m, p, seed, trial, 2, 1), expected[i]):
                mismatches.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=draw, args=(i,)) for i in range(len(calls))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []


def test_uniform_lanes_returns_a_new_array_each_call():
    trials = np.arange(20_000, dtype=np.uint64)
    first = uniform_lanes(5, trials, np.uint64(1), np.uint64(0))
    sample_binomial_lanes(400, 0.5, 5, trials, 1, 0)
    second = uniform_lanes(5, trials, np.uint64(1), np.uint64(0))
    assert np.array_equal(first, second)
    assert not np.shares_memory(first, second)
    assert not any(np.shares_memory(first, a) for a in rng._lane_arrays(trials.size))


def test_one_pair_cdfs_come_from_a_bounded_memo(monkeypatch):
    rng._one_pair_cdf.cache_clear()
    expected_cdf = _sampler_cdf(800, 1.0 - 0.7)
    built = []
    windows = analytics._windows

    def counting(m, p, log_tail):
        built.append((m.tolist(), p.tolist()))
        return windows(m, p, log_tail)

    monkeypatch.setattr(analytics, "_windows", counting)
    trials = np.arange(50, dtype=np.uint64)
    try:
        first = sample_binomial_lanes(800, 0.7, 1, trials, 1, 0)
        # p > 1/2 is cached as 1 - p; the same pair again builds nothing
        assert built == [([800], [1.0 - 0.7])]
        assert np.array_equal(sample_binomial_lanes(800, 0.7, 1, trials, 1, 0), first)
        assert len(built) == 1
        info = rng._one_pair_cdf.cache_info()
        assert (info.hits, info.misses, info.currsize, info.maxsize) == (1, 1, 1, 64)
        _, cdf, table = rng._one_pair_cdf(800, 1.0 - 0.7)
        assert not cdf.flags.writeable and not table.flags.writeable
        assert np.array_equal(cdf, expected_cdf) and len(built) == 1
        assert np.array_equal(table, rng._bucket_table(expected_cdf))
        # 64 other pairs evict (800, 0.3); rebuilding it gives the same draws
        for m in range(10, 74):
            sample_binomial_lanes(m, 0.5, 1, trials, 1, 0)
        assert len(built) == 65 and rng._one_pair_cdf.cache_info().currsize == 64
        assert np.array_equal(sample_binomial_lanes(800, 0.7, 1, trials, 1, 0), first)
        assert built[-1] == ([800], [1.0 - 0.7])
        # mixed calls build their tables anew, in (m, p) order, and leave the cache alone
        info = rng._one_pair_cdf.cache_info()
        sample_binomial_lanes([800, 10], [0.7, 0.5], 1, [0, 1], 1, 0)
        assert built[-1] == ([10, 800], [0.5, 1.0 - 0.7])
        assert rng._one_pair_cdf.cache_info() == info
    finally:
        rng._one_pair_cdf.cache_clear()


def _digest_calls():
    """Direct sampler calls: name -> (m, p, trial), all at seed 2021, round 3, group 1."""
    lanes = np.arange(3000, dtype=np.uint64)
    # certain pairs (m = 0, p = 0, p = 1) between drawn ones, both sides of 1/2
    ms = np.tile([0, 0, 9, 9, 9, 40, 40, 300, 0], 334)[:3000]
    ps = np.tile([0.3, 1.0, 0.0, 1.0, 0.45, 0.6, 0.2, 0.5, 0.0], 334)[:3000]
    # a guided group of 800s and a binary-search group of 30s, shuffled
    order = np.random.default_rng(5).permutation(_THRESHOLD + 103)
    guided_m = np.r_[np.full(_THRESHOLD + 3, 800), np.full(100, 30)][order]
    guided_p = np.r_[np.full(_THRESHOLD + 3, 0.7), np.full(100, 0.4)][order]
    big = np.arange(10_000, dtype=np.uint64)
    return {
        "mixed with certain pairs": (ms, ps, lanes),
        "p and 1 - p at one m": (50, np.tile([0.3, 0.7, 0.5], 1000), lanes),
        "2-D lanes": (
            (np.arange(600) % 37)[None, :],
            np.array([0.2, 0.5, 0.8, 1.0])[:, None],
            np.arange(2400, dtype=np.uint64).reshape(4, 600),
        ),
        "groups on both sides of the threshold": (
            guided_m, guided_p, np.arange(len(order), dtype=np.uint64)
        ),
        "one pair p=0.3": (800, 0.3, big),
        "one pair p=0.5": (800, 0.5, big),
        "one pair p=0.7": (800, 0.7, big),
    }


#: sha256 of the little-endian int64 draws of ``_digest_calls``, recorded
#: before the flip and the certain-draw rule were written once for both
#: one-pair and mixed calls.
PINNED_SAMPLER_SHA256 = {
    "mixed with certain pairs": "b43feba384e9907c0ed8d80e7455bc156314eb5ed89777f09bc059b429a3e6d6",
    "p and 1 - p at one m": "dba3cb5fed4d9cc264a31c75b4e784aada9a7c91f1b84ec3f3fd0aeeda6cba2d",
    "2-D lanes": "cdb414754f4fe1f4c72aeaba203924e076f22ee20fd9ff09f098d0bc694c5946",
    "groups on both sides of the threshold": "c6ea9a9ed65ea3fd2380e5a0f77a967757a1cc1078b4758af50db1f3e8d1bc82",
    "one pair p=0.3": "559abb84ae3ec2e85bedbb21f334a270e0ed1d03b63032c5ced60526046b51a1",
    "one pair p=0.5": "8b8c8c7334c8e7b895a2e2bde2538be32d45fb4810f4885834c7a97bf4c871e1",
    "one pair p=0.7": "f60899bd6c0aae5f3240f52fb436749440fef97c9f0e9bfa4d1004eab34edc1d",
}


@pytest.mark.parametrize("name", sorted(PINNED_SAMPLER_SHA256))
def test_pinned_sampler_digests(name):
    m, p, trial = _digest_calls()[name]
    draws = sample_binomial_lanes(m, p, 2021, trial, 3, np.uint64(1))
    assert draws.shape == trial.shape and draws.dtype == np.int64
    digest = hashlib.sha256(draws.astype("<i8").tobytes()).hexdigest()
    assert digest == PINNED_SAMPLER_SHA256[name]


@pytest.mark.parametrize("name", sorted(PINNED_SAMPLER_SHA256))
def test_out_gets_the_bytes_of_a_call_without_it(name):
    m, p, trial = _digest_calls()[name]
    out = np.full(trial.shape, -1, dtype=np.int64)
    assert sample_binomial_lanes(m, p, 2021, trial, 3, np.uint64(1), out=out) is out
    assert np.array_equal(out, sample_binomial_lanes(m, p, 2021, trial, 3, np.uint64(1)))


def test_out_of_certain_and_empty_calls():
    trial = np.arange(6, dtype=np.uint64)
    out = np.full(6, -1, dtype=np.int64)
    sample_binomial_lanes([0, 5, 7, 0, 5, 7], [0.4, 1.0, 0.0, 1.0, 1.0, 0.0], 1, trial, 1, 0, out=out)
    assert out.tolist() == [0, 5, 0, 0, 5, 0]
    empty = np.empty(0, dtype=np.int64)
    assert sample_binomial_lanes(40, 0.3, 1, [], 1, 0, out=empty) is empty


@pytest.mark.parametrize(
    "out",
    [
        np.empty(10, dtype=np.int32),
        np.empty(10, dtype=np.float64),
        np.empty(9, dtype=np.int64),
        np.empty((10, 1), dtype=np.int64),
        np.empty(20, dtype=np.int64)[::2],
        np.broadcast_to(np.int64(0), (10,)),
        [0] * 10,
    ],
    ids=["int32", "float64", "short", "2-D", "strided", "read-only", "list"],
)
def test_out_of_the_wrong_kind_is_refused(out):
    trial = np.arange(10, dtype=np.uint64)
    for m, p in ((40, 0.3), (np.arange(10), 0.3)):
        with pytest.raises(ValueError, match=r"^out must be a writeable C-contiguous int64 array "):
            sample_binomial_lanes(m, p, 1, trial, 1, 0, out=out)


@pytest.mark.parametrize(
    "function,names",
    [
        (sample_binomial_lanes, ["m", "p", "master_seed", "trial", "round_index", "group"]),
        (uniform_lanes, ["master_seed", "trial", "round_index", "group"]),
        (philox4x64, ["c0", "c1", "c2", "c3", "key0", "key1"]),
    ],
)
def test_parameter_names_that_the_benchmark_counters_unpack(function, names):
    # perfbench/spans.py wraps these functions and reads their positional
    # arguments by name; its counters take no keyword-only argument, so the
    # engine passes the sampler's ``out`` only through ``rng`` itself
    params = inspect.signature(function).parameters.values()
    assert [p.name for p in params if p.kind != p.KEYWORD_ONLY] == names
