import os
import subprocess
import sys
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
# Guided CDF search: groups of at least rng._GUIDED_MIN_LANES lanes start at
# a guide table, and every answer must equal the plain binary search.
# --------------------------------------------------------------------------

_THRESHOLD = rng._GUIDED_MIN_LANES


def _sampler_cdf(m: int, p: float) -> np.ndarray:
    """The CDF that ``rng._invert`` searches for Bin(m, p), p <= 1/2."""
    ((_, log_pmf),) = analytics._windows(np.array([m]), np.array([p]), rng._SAMPLING_LOG_TAIL)
    cdf = np.cumsum(np.exp(log_pmf))
    cdf[-1] = 1.0
    return cdf


def _flat_cdf() -> np.ndarray:
    """300 entries below 1e-27 (all in the guide's bucket 0), then runs of equal entries."""
    cdf = np.cumsum(np.r_[np.full(300, 1e-30), 0.0, 0.0, 0.25, 0.0, 0.0, 0.25, 0.5])
    cdf[-1] = 1.0
    return cdf


def _edge_uniforms(cdf: np.ndarray) -> np.ndarray:
    """0, the largest uniform, and every CDF entry and bucket edge with both neighbours."""
    size = 1 << (len(cdf) - 1).bit_length()
    points = np.r_[cdf, np.arange(size) / size]
    near = np.r_[0.0, 1.0 - 2.0**-53, points, np.nextafter(points, 0), np.nextafter(points, 1)]
    return near[(near >= 0.0) & (near < 1.0)]


def _lanes(u: np.ndarray, count: int, seed: int) -> np.ndarray:
    """``count`` uniforms: every one of ``u`` (while they fit), then random ones, shuffled."""
    rs = np.random.default_rng(seed)
    extra = rs.integers(0, 2**53, max(count - len(u), 0)) * 2.0**-53
    return rs.permutation(np.r_[u, extra][:count])


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


@pytest.mark.parametrize("name", [*_SEARCH_CDFS, "flat"])
@pytest.mark.parametrize("offset", [-1, 0, 1, 12 * _THRESHOLD])
def test_guided_search_equals_binary_search(name, offset):
    cdf = _flat_cdf() if name == "flat" else _sampler_cdf(*_SEARCH_CDFS[name])
    edges = _edge_uniforms(cdf)
    # both sides of the threshold; the edge uniforms spread over calls that fit
    count = _THRESHOLD + offset
    for start in range(0, len(edges), count):
        u = _lanes(edges[start : start + count], count, seed=start)
        out = np.empty(count, dtype=np.int64)
        rng._search(cdf, u, out)
        assert np.array_equal(out, oracles.cdf_search(cdf, u))


def test_guided_search_writes_into_a_slice():
    cdf = _sampler_cdf(800, 0.5)
    u = _lanes(_edge_uniforms(cdf), 2 * _THRESHOLD, seed=1)
    draws = np.full(3 * _THRESHOLD, -1, dtype=np.int64)
    rng._search(cdf, u, draws[_THRESHOLD:])
    assert np.all(draws[:_THRESHOLD] == -1)
    assert np.array_equal(draws[_THRESHOLD:], oracles.cdf_search(cdf, u))


@settings(max_examples=40, deadline=None)
@given(
    weights=st.lists(
        st.sampled_from([0.0, 1e-300, 1e-20, 1e-3, 0.3, 1.0]) | st.floats(0.0, 1.0),
        min_size=1, max_size=600,
    ),
    steps=st.lists(st.integers(0, 2**53 - 1), max_size=64),
)
def test_guided_search_on_any_cdf(weights, steps):
    cdf = np.cumsum(np.r_[weights, 1.0])
    cdf /= cdf[-1]
    cdf[-1] = 1.0
    u = np.r_[np.array(steps, dtype=np.float64) * 2.0**-53, _edge_uniforms(cdf)]
    u = _lanes(u[: 2 * _THRESHOLD], _THRESHOLD + len(steps), seed=len(weights))
    out = np.empty(len(u), dtype=np.int64)
    rng._search(cdf, u, out)
    assert np.array_equal(out, oracles.cdf_search(cdf, u))


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
