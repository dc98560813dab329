import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from smpsim import analytics as A
from smpsim import engine, rng
from smpsim.model import OpinionCounts

from oracles import (
    binomial_pmf_direct,
    comparison_direct,
    comparison_exact,
    comparison_fraction,
    comparison_mpmath,
    half_delivery_tail,
    normal_cdf_quadrature,
)

# Frozen reference values, computed independently with 40-digit arithmetic.
PROP1_100_50 = 1.290950527245596e-3
PROP1_1E4_1E3 = 4.264626373434225e-18
PROP4_100_30 = 2.468196081733591e-4
PROP4_1E4_1E3 = 7.440151952041672e-44
PROP5_1E6_328 = 2.1245436915894767e-48
PHI_SQRT2 = 0.9213503964748574
KL_HALF_QUARTER = 0.14384103622589046


class TestBinomialLogPmf:
    def test_examples(self):
        assert A.binomial_log_pmf(2, 0.5, 1) == pytest.approx(math.log(0.5), abs=1e-14)
        assert A.binomial_log_pmf(4, 0.5, 2) == pytest.approx(math.log(0.375), abs=1e-14)
        assert A.binomial_log_pmf(3, 0.0, 0) == 0.0
        assert A.binomial_log_pmf(3, 0.0, 2) == -math.inf
        assert A.binomial_log_pmf(3, 1.0, 3) == 0.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            A.binomial_log_pmf(3, 0.5, 4)
        with pytest.raises(ValueError):
            A.binomial_log_pmf(3, 0.5, -1)
        with pytest.raises(ValueError):
            A.binomial_log_pmf(3, 1.5, 1)

    def test_size_ceiling(self):
        # rejected before any array is built, however large m is
        assert A.binomial_log_pmf(A.MAX_BINOMIAL_TRIALS - 1, 0.5, 3) < -1e7
        with pytest.raises(ValueError, match="2\\^27"):
            A.binomial_log_pmf(A.MAX_BINOMIAL_TRIALS, 0.5, 3)
        with pytest.raises(ValueError, match="2\\^27"):
            A.binomial_log_pmf(2**63 - 1, 0.5, 3)
        with pytest.raises(ValueError, match="2\\^27"):
            A.transition_values(2**62 + 3, [3], 0.5)
        with pytest.raises(ValueError, match="2\\^27"):
            A.keep_zero_probability(2**62, 2**62, 0.5)

    @pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.77, 0.99])
    @pytest.mark.parametrize("m", [1, 2, 7, 12])
    def test_against_direct_combinatorics(self, m, p):
        for k in range(m + 1):
            direct = binomial_pmf_direct(m, p, k)
            assert math.exp(A.binomial_log_pmf(m, p, k)) == pytest.approx(direct, rel=1e-12)

    def test_pmf_sums_to_one(self):
        # Loader's log-PMF has an error that does not grow with m: each sum
        # here measured within 4e-16 of 1, well inside these tolerances
        for m, p, tol in [(10, 0.5, 1e-14), (1000, 0.3, 1e-12), (20_000, 0.9, 1e-10)]:
            lo, log_pmf = next(A._windows(m, p))
            pmf = np.zeros(m + 1)
            pmf[lo : lo + len(log_pmf)] = np.exp(log_pmf)
            assert pmf.sum() == pytest.approx(1.0, rel=tol)


class TestTransitionProbabilities:
    def test_keep_examples(self):
        assert A.keep_zero_probability(1, 1, 0.5) == 1.0
        assert A.keep_zero_probability(2, 2, 0.5) == pytest.approx(0.875, abs=1e-13)
        for n in (1, 5, 40, 200):
            assert A.keep_zero_probability(n, n, 0.5) >= 0.5

    def test_adopt_examples(self):
        assert A.adopt_zero_probability(1, 1, 0.5) == 0.0
        assert A.adopt_zero_probability(0, 5, 0.3) == 0.0
        assert A.adopt_zero_probability(3, 1, 0.5) == pytest.approx(0.5, abs=1e-13)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            A.keep_zero_probability(0, 3, 0.5)
        with pytest.raises(ValueError):
            A.adopt_zero_probability(3, 0, 0.5)

    @pytest.mark.parametrize(
        "zs,message",
        [
            ([2.7], "zs must hold integers, got dtype float64"),
            ([True], "zs must hold integers, got dtype bool"),
            ([-1], r"zs \(zero-counts\) must be in \[0, 6\]"),
        ],
    )
    def test_transition_values_refuse_non_integer_zs(self, zs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            A.transition_values(6, zs, 0.5)
        keep, adopt = A.transition_values(6, [], 0.5)
        assert keep.shape == adopt.shape == (0,)

    @pytest.mark.parametrize("total", [6.5, 6.0, True, np.bool_(True), "6"])
    def test_transition_values_refuse_non_integer_total(self, total):
        with pytest.raises(ValueError, match=r"^total must be an integer, got "):
            A.transition_values(total, [1], 0.5)

    def test_transition_values_take_numpy_integer_total(self):
        for a, b in zip(A.transition_values(np.int64(6), [2], 0.5), A.transition_values(6, [2], 0.5)):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("shape", [(), (1,), (7,), (3, 4)])
    def test_transition_values_of_one_z_equal_the_general_path(self, shape):
        # every z alike skips np.unique; values, shape and dtype match a mixed call's
        zs = np.full(shape, 37, dtype=np.int64)
        keep, adopt = A.transition_values(80, zs, 0.3)
        mixed_keep, mixed_adopt = A.transition_values(80, np.r_[zs.reshape(-1), 5], 0.3)
        for one, mixed in ((keep, mixed_keep), (adopt, mixed_adopt)):
            assert one.shape == shape and one.dtype == np.float64
            assert np.array_equal(one.reshape(-1), mixed[:-1])
        keep[...] = -1.0  # the caller's own arrays: the memo is untouched
        assert A.transition_values(80, [37], 0.3)[0][0] == mixed_keep[0]

    def test_keep_is_direct_comparison(self):
        for z, o, q in [(3, 4, 0.25), (6, 2, 0.7), (5, 5, 0.5)]:
            assert A.keep_zero_probability(z, o, q) == pytest.approx(
                comparison_direct(z - 1, o, 1.0 - q, 1), abs=1e-12
            )
            assert A.adopt_zero_probability(z, o, q) == pytest.approx(
                comparison_direct(z, o - 1, 1.0 - q, -2), abs=1e-12
            )

    def test_relabeling_symmetry(self):
        # probability a one-holder keeps 1 with counts (z, o) equals the
        # keep-zero probability with counts swapped
        for z, o, q in [(3, 5, 0.3), (7, 2, 0.6), (4, 4, 0.5)]:
            keep_one = comparison_direct(o - 1, z, 1.0 - q, 1)
            assert A.keep_zero_probability(o, z, q) == pytest.approx(keep_one, abs=1e-12)

    def test_consensus_side_is_certain(self):
        assert A.keep_zero_probability(6, 0, 0.42) == 1.0
        assert A.adopt_zero_probability(0, 6, 0.42) == 0.0

    @pytest.mark.parametrize("p", [0.5, 0.3, 0.9])
    def test_exhaustive_small_systems(self, p):
        q = 1.0 - p
        for total in range(1, 17):
            keep, adopt = A.transition_values(total, range(total + 1), q)
            for z in range(total + 1):
                o = total - z
                if z > 0:
                    want = comparison_direct(z - 1, o, 1.0 - q, 1)
                    assert keep[z] == pytest.approx(want, abs=1e-12), ("keep", z, o, p)
                if o > 0:
                    want = comparison_direct(z, o - 1, 1.0 - q, -2)
                    assert adopt[z] == pytest.approx(want, abs=1e-12), ("adopt", z, o, p)

    def test_exact_rational_oracle(self):
        got = A.keep_zero_probability(6, 7, 0.5)
        want = comparison_fraction(5, 7, Fraction(1, 2), 1)
        assert got == pytest.approx(float(want), rel=1e-13)

    def test_short_circuits_exact(self):
        # keep is certain when o <= 1, adopt impossible when z <= 1
        assert A.keep_zero_probability(3, 1, 0.37) == 1.0
        assert A.keep_zero_probability(3, 0, 0.37) == 1.0
        assert A.adopt_zero_probability(1, 9, 0.37) == 0.0

    def test_degenerate_p(self):
        # q = 1 delivers nothing, q = 0 everything
        assert A.keep_zero_probability(4, 5, 1.0) == 1.0
        assert A.adopt_zero_probability(5, 4, 1.0) == 0.0
        assert A.keep_zero_probability(5, 4, 0.0) == 1.0
        assert A.keep_zero_probability(4, 5, 0.0) == 0.0
        assert A.adopt_zero_probability(5, 4, 0.0) == 1.0
        assert A.adopt_zero_probability(4, 5, 0.0) == 0.0

    @pytest.mark.parametrize("q", [0.1, 0.5, 0.7, 1e-9, 1.0 - 1e-9])
    def test_label_swap_gives_the_complements(self, q):
        # swapping the labels 0 and 1 maps (z, o) to (o, z): keep and adopt
        # at total - z are 1 - adopt and 1 - keep at z
        for total in range(2, 17, 2):
            zs = np.arange(1, total)
            keep, adopt = A.transition_values(total, zs, q)
            mirror_keep, mirror_adopt = A.transition_values(total, total - zs, q)
            assert np.abs(mirror_keep - (1.0 - adopt)).max() <= 1e-15, total
            assert np.abs(mirror_adopt - (1.0 - keep)).max() <= 1e-15, total

    def test_monotone_in_imbalance(self):
        for n in (50, 200):
            for q in (0.25, 0.5, 0.75):
                values = [
                    A.keep_zero_probability(n + a, n - a, q) for a in range(0, n + 1, 5)
                ]
                assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


# (kind, z, o, q): ties and imbalances up to 2n = 2e5, one-agent sides, and
# a deep tail near 1e-200.
MPMATH_POINTS = [
    (kind, z, o, q)
    for q in (0.2, 0.5, 0.8)
    for z, o in ((100_000, 100_000), (99_000, 101_000), (10_100, 9_900),
                 (1, 40), (40, 1), (500, 500))
    for kind in ("keep", "adopt")
] + [("keep", 60, 940, 0.5), ("adopt", 60, 940, 0.5)]
#: Deep tails at 2n = 2e4, near 1e-232 and 1e-222, where the kernel's
#: relative error grows with |ln P|: keep at (7709, 12291) measured -4.95e-13,
#: 8.3 u (1 + |ln P|) with u = 2^-53.
DEEP_TAIL_POINTS = [
    (kind, z, o, 0.5) for z, o in ((7709, 12291), (7760, 12240)) for kind in ("keep", "adopt")
]
#: The bound c u (1 + |ln P|) on the deep-tail points, twice the worst measured c.
DEEP_TAIL_ULPS = 16.0


def _kernel_and_mpmath(kind, z, o, q):
    """(package value, 40-digit value) of keep or adopt at (z, o, q)."""
    mpmath = pytest.importorskip("mpmath")
    p = 1 - mpmath.mpf(q)
    if kind == "keep":
        return A.keep_zero_probability(z, o, q), comparison_mpmath(z - 1, o, p, 1)
    return A.adopt_zero_probability(z, o, q), comparison_mpmath(z, o - 1, p, -2)


class TestAgainstMpmath:
    @pytest.mark.parametrize("kind,z,o,q", MPMATH_POINTS)
    def test_transition_probability_relative_error(self, kind, z, o, q):
        got, want = _kernel_and_mpmath(kind, z, o, q)
        if want == 0:
            assert got == 0.0
        else:
            assert abs(got - want) <= 1e-13 * want, (got, want)

    @pytest.mark.parametrize("kind,z,o,q", DEEP_TAIL_POINTS)
    def test_deep_tail_error_grows_with_log_value(self, kind, z, o, q):
        import mpmath

        got, want = _kernel_and_mpmath(kind, z, o, q)
        bound = DEEP_TAIL_ULPS * 2.0**-53 * (1.0 + abs(float(mpmath.log(want))))
        assert abs(got - want) <= bound * want, (got, want)

    def test_deep_tail_is_near_1e_minus_200(self):
        assert 1e-210 < A.adopt_zero_probability(60, 940, 0.5) < 1e-200


#: Bounds on the kernel's error at q = 1/2, in u = 2^-53: relative to
#: P (1 + |ln P|) for values P below 1/2, absolute at or above 1/2.  At every
#: z of 2n = 10, 100, 2000 and 2e4 the worst were 0.97, 4.09, 6.73 and 11.02
#: below 1/2 and 1, 10.6, 17.7 and 40 at or above it: both grow with 2n, and
#: at 2n = 2e4 the first is past the 8.3 once stated for it.
HALF_LOW_ULPS = 12.0
HALF_HIGH_ULPS = 48.0
#: The z of 2n = 2e4 checked (every z takes about 6 s): a stride, and the
#: worst z of a full scan on each side of 1/2 (adopt at 9963, keep at 14996).
HALF_ZS_20000 = sorted({*range(1, 20_000, 50), 9963, 14996})


def _half_delivery_errors(total: int, zs) -> tuple[float, float]:
    """Worst errors of keep and adopt at q = 1/2 at each z of ``zs``, in u = 2^-53.

    (low, high) against ``half_delivery_tail``: the largest |error| /
    (P (1 + |ln P|)) over exact values 1e-300 <= P < 1/2, and the largest
    |error| over P >= 1/2.  Values below 1e-300 lose relative precision to
    underflow and are not checked.
    """
    tail, scale = half_delivery_tail(total), 2 ** (total - 1)
    keep, adopt = A.transition_values(total, zs, 0.5)
    low = high = 0.0
    for z, k, a in zip(zs, keep.tolist(), adopt.tolist()):
        for value, s, defined in ((k, total - z - 1, z > 0), (a, total - z + 1, z < total)):
            numerator = tail[max(s, 0)]
            exact = numerator / scale
            if not defined or exact < 1e-300:
                continue
            num, den = value.as_integer_ratio()
            error = abs(num * scale - numerator * den) * 2**53 / (den * scale)
            if exact < 0.5:
                low = max(low, error / (exact * (1.0 + abs(math.log(exact)))))
            else:
                high = max(high, error)
    return low, high


class TestHalfDeliveryOracle:
    # at q = 1/2 keep and adopt are values of one binomial tail, exact in integers
    @pytest.mark.parametrize("total", [10, 100, 2000, 20_000])
    def test_every_value_within_the_stated_error(self, total, monkeypatch):
        monkeypatch.setattr(A, "_MEMO", {})
        zs = HALF_ZS_20000 if total == 20_000 else list(range(total + 1))
        low, high = _half_delivery_errors(total, zs)
        assert low <= HALF_LOW_ULPS and high <= HALF_HIGH_ULPS, (low, high)

    def test_tail_matches_the_transition_definitions(self):
        # keep(z) = T(o - 1) and adopt(z) = T(o + 1), against exact rationals
        total = 12
        tail = half_delivery_tail(total)
        for z in range(total + 1):
            o = total - z
            if z > 0:
                want = comparison_fraction(z - 1, o, Fraction(1, 2), 1)
                assert Fraction(tail[max(o - 1, 0)], 2 ** (total - 1)) == want
            if o > 0:
                want = comparison_fraction(z, o - 1, Fraction(1, 2), -2)
                assert Fraction(tail[o + 1], 2 ** (total - 1)) == want


#: q values of the Chernoff certificate checks: both certain networks, both
#: near-certain ones and three in between.
BOUND_QS = (0.0, 1e-9, 0.2, 0.5, 0.8, 1.0 - 1e-9, 1.0)


def _transition_comparisons(total: int, z: int):
    """(m1, m2, offset) of keep, adopt, 1 - keep and 1 - adopt at z, for ``comparison_exact``."""
    o = total - z
    return (z - 1, o, 1), (z, o - 1, -2), (o, z - 1, -2), (o - 1, z, 1)


def _assert_bounds_dominate(total, zs, q, exact):
    """The certificate's bounds dominate keep, adopt, 1 - keep and 1 - adopt at each z of ``zs``.

    keep and adopt are bounded by ``_transition_log_bounds`` at z, 1 - keep
    and 1 - adopt by its adopt and keep bounds at the mirror state total - z.
    """
    import mpmath

    zs = np.asarray(zs)
    keep, adopt = A._transition_log_bounds(total, zs, q)
    mirror_keep, mirror_adopt = A._transition_log_bounds(total, total - zs, q)
    bounds = (keep, adopt, mirror_adopt, mirror_keep)
    for i, z in enumerate(zs.tolist()):
        for bound, args in zip(bounds, _transition_comparisons(total, z), strict=True):
            want = exact(*args)
            # mpmath's own rounding can put a certain value a few 1e-50 above 1
            assert want == 0 or mpmath.log(want) <= bound[i] + 1e-30, (z, args, want, bound[i])


class TestChernoffCertificate:
    @pytest.mark.parametrize("q", BOUND_QS)
    def test_bounds_dominate_every_small_system(self, q):
        mpmath = pytest.importorskip("mpmath")
        p = 1 - mpmath.mpf(q)
        cache = {}

        def exact(m1, m2, offset):
            # 1 - keep at z is adopt at 2n - z, so each value is asked for twice
            if (m1, m2, offset) not in cache:
                cache[m1, m2, offset] = comparison_exact(m1, m2, p, offset)
            return cache[m1, m2, offset]

        for total in range(2, 41, 2):
            _assert_bounds_dominate(total, list(range(1, total)), q, exact)

    @pytest.mark.parametrize("q", [0.2, 0.5, 0.8])
    def test_decided_states_at_2n_1000_round_correctly(self, q):
        # the last decided z on each side and the first undecided one: every
        # bound holds, and each decided state's exact end masses round to
        # the doubles the rule gives them
        mpmath = pytest.importorskip("mpmath")
        total = 1000
        p = 1 - mpmath.mpf(q)
        zs = np.arange(1, total)
        ends = engine._decided_ends(total, zs, q)
        low = zs[ends[0] == 1.0].max()
        high = zs[ends[1] == 1.0].min()
        assert low < high - 1
        edge = [int(low), int(low) + 1, int(high) - 1, int(high)]
        _assert_bounds_dominate(
            total, edge, q, lambda m1, m2, offset: comparison_exact(m1, m2, p, offset)
        )
        for z, side in ((int(low), 0), (int(high), 1)):
            keep, adopt, keep_c, adopt_c = (
                comparison_exact(m1, m2, p, offset)
                for m1, m2, offset in _transition_comparisons(total, z)
            )
            o = total - z
            masses = (keep_c**z * adopt_c**o, keep**z * adopt**o)
            expected = (1.0, 0.0) if side == 0 else (0.0, 1.0)
            assert tuple(float(m) for m in masses) == expected, (z, masses)
            assert list(ends[:, z - 1]) == list(expected)

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 7, 8, 9, 15, 16, 17, 31, 33, 64, 1000, 1003])
    def test_exp_rounds_as_the_certificate_assumes(self, size):
        # numpy's exp runs a SIMD body over full vectors and a scalar or
        # masked tail over the rest; both must give exactly 1.0 for
        # x in [-2^-60, 0] and 0.0 for x <= -750
        near_zero = -np.linspace(0.0, 2.0**-60, size)
        near_zero[-1] = -(2.0**-60)
        assert np.all(np.exp(near_zero) == 1.0)
        assert np.all(np.exp(near_zero[::-1].copy()) == 1.0)
        deep = -np.geomspace(750.0, 1e300, size)
        deep[0] = -750.0
        assert np.all(np.exp(deep) == 0.0)
        assert np.all(np.exp(np.r_[deep, -np.inf]) == 0.0)


class TestTransitionValues:
    @pytest.mark.parametrize("q", [0.2, 0.8])
    def test_batch_invariance(self, q, monkeypatch):
        # each z alone with a fresh memo equals the same z inside a shuffled
        # batch with duplicates and both empty sides; chunk and worker
        # determinism of the Monte Carlo rounds rests on this
        total = 1000
        zs = np.random.default_rng(7).permutation(np.r_[0:total + 1, 0, total, 0:total:3])
        monkeypatch.setattr(A, "_MEMO", {})
        keep, adopt = A.transition_values(total, zs, q)
        assert keep[zs == 0].max() == 0.0 and adopt[zs == total].max() == 0.0
        alone = {}
        for z in range(total + 1):
            A._MEMO.clear()
            alone[z] = tuple(v[0] for v in A.transition_values(total, [z], q))
        assert all(alone[z] == (k, a) for z, k, a in zip(zs.tolist(), keep, adopt))
        A._MEMO.clear()
        assert all(
            A.keep_zero_probability(z, total - z, q) == alone[z][0] for z in range(1, total + 1)
        )
        assert all(
            A.adopt_zero_probability(z, total - z, q) == alone[z][1] for z in range(total)
        )

    def test_values_do_not_depend_on_the_blas_thread_count(self, monkeypatch):
        # adopt at (z, o) = (3e6, 3e6), q = 1/2, is about 1/2, and its pair's
        # 2^-100 windows hold about 20,400 entries, more than two _DOT_BLOCKs;
        # one np.dot over them gave bytes 2 ulps apart at one and at two
        # OpenBLAS threads
        z, o = 3_000_000, 3_000_000
        used = []
        compare = A._compare_windows

        def recorded(win1, win2, offset):
            used.append(len(win1[1]))
            return compare(win1, win2, offset)

        monkeypatch.setattr(A, "_MEMO", {})
        monkeypatch.setattr(A, "_compare_windows", recorded)
        assert 0.4 < A.adopt_zero_probability(z, o, 0.5) < 0.5
        assert used and min(used) > 2 * A._DOT_BLOCK
        src = str(Path(A.__file__).resolve().parents[1])
        code = f"from smpsim import analytics; print(analytics.adopt_zero_probability({z}, {o}, 0.5).hex())"
        outputs = []
        for threads in ("1", "2"):
            env = {
                **os.environ,
                "OPENBLAS_NUM_THREADS": threads,
                "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
            }
            outputs.append(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                          text=True, check=True, timeout=60).stdout)
        assert outputs[0] == outputs[1]

    def test_returned_arrays_are_the_callers_own(self):
        keep, adopt = A.transition_values(40, [3, 20, 3], 0.3)
        before = keep.copy(), adopt.copy()
        keep[:] = 0.5
        adopt[:] = 0.5
        again = A.transition_values(40, [3, 20, 3], 0.3)
        assert np.array_equal(again[0], before[0]) and np.array_equal(again[1], before[1])

    def test_small_systems_and_validation(self):
        keep, adopt = A.transition_values(1, [0, 1], 0.3)
        assert list(keep) == [0.0, 1.0] and list(adopt) == [0.0, 0.0]
        keep, adopt = A.transition_values(4, [2, 3], 0.5)
        assert keep[0] == A.keep_zero_probability(2, 2, 0.5)
        assert adopt[1] == A.adopt_zero_probability(3, 1, 0.5)
        assert [len(v) for v in A.transition_values(4, [], 0.5)] == [0, 0]
        with pytest.raises(ValueError):
            A.transition_values(0, [0], 0.5)
        with pytest.raises(ValueError):
            A.transition_values(4, [2], 1.5)
        with pytest.raises(ValueError):
            A.transition_values(4, [5], 0.5)
        with pytest.raises(ValueError):
            A.transition_values(4, [-1], 0.5)
        with pytest.raises(ValueError, match="2\\^27"):
            A.transition_values(A.MAX_BINOMIAL_TRIALS, [1], 0.5)


#: Agreement of a value on sized windows with the same comparison on 1e-340
#: windows, in u = 2^-53: relative below 1/2, absolute at or above it.  The
#: truncation moves a value by under 2^-57 relative; the rest is the kernel's
#: rounding on windows of other lengths.  Over TestSizedTails' cases the worst
#: were 5.7 u and 6 u.
NARROW_ULPS = 8.0


def _pair_queries(size: int, pairs) -> tuple[list[int], list[tuple[int, int]]]:
    """(owner pair, query) for each of the four comparisons of each pair that is not certain."""
    owners, queries = [], []
    for c in pairs:
        for a, offset in ((c, 1), (c, -2), (size - c, 1), (size - c, -2)):
            if offset < size - a and a + offset >= 0:
                owners.append(c)
                queries.append((a, offset))
    return owners, queries


def _wide_comparisons(size: int, queries, p: float, monkeypatch) -> list[float]:
    """``A._pair_comparisons`` with every pair on the 1e-340 windows."""
    with monkeypatch.context() as patch:
        patch.setattr(A, "_NARROW_LOG_TAIL", A._WINDOW_LOG_TAIL)
        return A._pair_comparisons(size, queries, p)


def _least_log_bounds(size: int, owners, queries, p: float) -> dict[int, float]:
    """ln B_c of each pair: the least Chernoff log-bound of its uncertain comparisons."""
    m1 = np.array([a for a, _ in queries])
    offset = np.array([off for _, off in queries])
    least: dict[int, float] = {}
    for c, b in zip(owners, A._comparison_log_bound(m1, size - m1, p, -offset).tolist()):
        least[c] = min(least.get(c, 0.0), b)
    return least


class TestSizedTails:
    @pytest.mark.parametrize("total", [1000, 20_000])
    @pytest.mark.parametrize("q", [0.2, 0.5, 0.8])
    def test_sized_values_agree_and_least_tail_pairs_keep_their_bytes(self, total, q, monkeypatch):
        # every pair at 2n = 1000, a stride down from the middle at 2n = 2e4
        size, p = total - 1, 1.0 - q
        pairs = range(size // 2, -1, -1 if total == 1000 else -37)
        owners, queries = _pair_queries(size, pairs)
        got = A._pair_comparisons(size, queries, p)
        wide = _wide_comparisons(size, queries, p, monkeypatch)
        least = _least_log_bounds(size, owners, queries, p)
        tail = {c: max(100.0 * math.log(2.0), 68.0 * math.log(2.0) - b) for c, b in least.items()}
        assert A._pair_tails(size, np.array(list(tail)), p).tolist() == list(tail.values())
        # pairs with B_c >= 2^-32 take the 2^-100 windows, as before the sized tails
        at_floor = sorted(c for c, b in least.items() if b >= -32.0 * math.log(2.0))
        windows = A._pair_windows(size, np.array(at_floor), p, A._NARROW_LOG_TAIL)
        narrow = {
            (c, a, off): A._compare_pair(c, win_c, win_rest, a, off)
            for c, win_c, win_rest in windows
            for a, off in _pair_queries(size, [c])[1]
        }
        # every sized pair here passes its check (each value within 2^8 of
        # the bound behind its tail), so each keeps its sized values
        moved = moved_above_floor = 0
        for c, query, g, w in zip(owners, queries, got, wide):
            if tail[c] >= A._WINDOW_LOG_TAIL:
                assert g.hex() == w.hex(), (c, query, g, w)
                continue
            assert g >= 2.0**60 * math.exp(-tail[c]) * (1.0 - 1e-12), (c, query, g, tail[c])
            assert abs(g - w) <= NARROW_ULPS * 2.0**-53 * (w if w < 0.5 else 1.0), (c, query, g, w)
            if c in at_floor:
                assert g.hex() == narrow[(c, *query)].hex(), (c, query, g)
            moved += g != w
            moved_above_floor += g != w and tail[c] > A._NARROW_LOG_TAIL
        assert at_floor and moved and moved_above_floor

    @pytest.mark.parametrize("q", [0.2, 0.5, 0.8])
    def test_a_failed_check_returns_the_wide_bytes(self, q, monkeypatch):
        # at a margin of 60 ln 2 a pair's threshold 2^60 e^-L_c is its own
        # Chernoff bound B_c, above each of its values: every pair whose tail
        # is above the least one fails its check and is summed again
        size, p = 999, 1.0 - q
        owners, queries = _pair_queries(size, range(size // 2 + 1))
        wide = _wide_comparisons(size, queries, p, monkeypatch)
        monkeypatch.setattr(A, "_SIZED_LOG_MARGIN", 60.0 * math.log(2.0))
        tails = dict(zip(range(size // 2 + 1), A._pair_tails(size, np.arange(size // 2 + 1), p)))
        got = A._pair_comparisons(size, queries, p)
        failed = [(g, w) for c, g, w in zip(owners, got, wide) if tails[c] > A._NARROW_LOG_TAIL]
        assert len(failed) > 100
        assert all(g.hex() == w.hex() for g, w in failed)

    def test_a_moderate_keep_with_a_small_mirror_alone_and_in_a_table(self, monkeypatch):
        # keep(z) is above 2^-40, but another comparison of its pair is below:
        # the pair's tail is sized to that one, whichever queries come with it
        total, q = 1000, 0.5
        size = total - 1
        zs = []
        for z in range(1, total):
            c = min(z - 1, size - z + 1)
            owners, queries = _pair_queries(size, [c])
            if (z - 1, 1) not in queries:  # keep(z) is certain
                continue
            values = A._pair_comparisons(size, queries, 1.0 - q)
            keep = values[queries.index((z - 1, 1))]
            if 2.0**-40 <= keep < 0.5 and min(values) < 2.0**-40:
                tail = A._pair_tails(size, np.array([c]), 1.0 - q)[0]
                assert A._NARROW_LOG_TAIL < tail < A._WINDOW_LOG_TAIL
                zs.append(z)
        assert zs
        monkeypatch.setattr(A, "_MEMO", {})
        table, _ = A.transition_values(total, np.arange(total + 1), q)
        for z in zs:
            A._MEMO.clear()
            alone = A.transition_values(total, [z], q)[0][0]
            assert alone.hex() == table[z].hex()


def _window_caller_outputs() -> list[bytes]:
    """The bytes of one output of each caller of ``A._windows``, with a fresh memo."""
    A._MEMO.clear()
    lanes = np.random.default_rng(3)
    m, p = lanes.integers(0, 2000, 300), lanes.random(300)
    return [
        np.stack(A.transition_values(2000, np.arange(2001), 0.3)).tobytes(),
        np.array(engine.exact_chain_consensus_probability(100, 3, 0.5, 3)).tobytes(),
        engine.aggregated_round_distribution(OpinionCounts(700, 500), 0.4).probabilities.tobytes(),
        rng.sample_binomial_lanes(m, p, 11, np.arange(300), 2, 0).tobytes(),
    ]


class TestWindowPasses:
    def test_outputs_do_not_depend_on_pass_size(self, monkeypatch):
        # a window's entries do not depend on its pass, even where the two
        # windows of a keep/adopt or round-law pair fall in different passes
        monkeypatch.setattr(A, "_MEMO", {})
        default = _window_caller_outputs()
        for block in (1, 7):
            monkeypatch.setattr(A, "_BLOCK_ELEMENTS", block)
            assert _window_caller_outputs() == default

    def test_empty_input_yields_nothing(self):
        assert list(A._windows([], 0.5)) == []

    def test_kept_windows_equal_windows_dropped_as_taken(self):
        # every pass returns a new array: a consumer that keeps all the
        # windows sees the bytes of one that copies each before the next
        lanes = np.random.default_rng(4)
        m, p = lanes.integers(0, 3000, 200), lanes.random(200)
        dropped = [(lo, log_pmf.tobytes()) for lo, log_pmf in A._windows(m, p)]
        kept = list(A._windows(m, p))
        assert sum(log_pmf.size for _, log_pmf in kept) > 3 * A._BLOCK_ELEMENTS
        assert [(lo, log_pmf.tobytes()) for lo, log_pmf in kept] == dropped

    def test_pass_holds_little_beside_its_output(self):
        # 64 windows of m = 500 fill one pass; spreading seven per-window rows
        # and fresh temporaries held about 18 times the output
        tracemalloc.start()
        try:
            entries = sum(log_pmf.size for _, log_pmf in A._windows(np.full(64, 500), 0.5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert entries == 64 * 501
        assert peak <= 12 * 8 * entries


class TestTransitionCache:
    def test_cache_transparency(self, monkeypatch):
        monkeypatch.setattr(A, "_MEMO", {})
        zs = [13, 0, 22, 5, 13]
        fresh = A.transition_values(22, zs, 0.35)
        assert sorted(A._MEMO[22, 0.35]) == [0, 5, 13, 22]
        hit = A.transition_values(22, zs, 0.35)
        assert np.array_equal(hit[0], fresh[0]) and np.array_equal(hit[1], fresh[1])
        assert A.keep_zero_probability(13, 9, 0.35) == fresh[0][0]
        assert A.adopt_zero_probability(13, 9, 0.35) == fresh[1][0]
        assert fresh[0][0] == A._pair_comparisons(21, [(12, 1)], 1.0 - 0.35)[0]
        assert fresh[1][0] == A._pair_comparisons(21, [(13, -2)], 1.0 - 0.35)[0]

    def test_cache_hits(self, monkeypatch):
        monkeypatch.setattr(A, "_MEMO", {})
        calls = []
        kernel = A._pair_comparisons

        def counted(size, queries, p):
            calls.append(sorted(queries))
            return kernel(size, queries, p)

        monkeypatch.setattr(A, "_pair_comparisons", counted)
        A.transition_values(18, [4, 9], 0.4)
        assert calls == [[(3, 1), (4, -2), (8, 1), (9, -2)]]
        A.transition_values(18, [9, 4, 4], 0.4)
        A.keep_zero_probability(4, 14, 0.4)
        assert len(calls) == 1  # every value came from the memo
        A.transition_values(18, [4, 18, 9], 0.4)
        assert calls[1:] == [[(17, 1)]]  # only the missing z is evaluated

    def test_capacity(self):
        assert A._MEMO_MAX_VALUES == 1 << 20

    def test_keys_separate_size_and_q(self, monkeypatch):
        monkeypatch.setattr(A, "_MEMO", {})
        a = A.transition_values(20, [7], 0.3)
        b = A.transition_values(20, [7], 0.7)
        c = A.transition_values(21, [7], 0.3)
        assert sorted(A._MEMO) == [(20, 0.3), (20, 0.7), (21, 0.3)]
        assert a[0][0] == A._pair_comparisons(19, [(6, 1)], 0.7)[0]
        assert b[0][0] == A._pair_comparisons(19, [(6, 1)], 0.3)[0]
        assert c[0][0] == A._pair_comparisons(20, [(6, 1)], 0.7)[0]
        assert len({a[0][0], b[0][0], c[0][0]}) == 3

    def test_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(A, "_MEMO", {})
        want = A.transition_values(30, range(31), 0.5)
        monkeypatch.setattr(A, "_MEMO", {})
        monkeypatch.setattr(A, "_MEMO_MAX_VALUES", 8)
        for start in range(0, 31, 5):
            keep, adopt = A.transition_values(30, range(start, min(start + 5, 31)), 0.5)
            assert np.array_equal(keep, want[0][start:start + 5])
            assert np.array_equal(adopt, want[1][start:start + 5])
            assert sum(map(len, A._MEMO.values())) <= 8

    def test_concurrent_access(self, monkeypatch):
        import sys
        from concurrent.futures import ThreadPoolExecutor

        monkeypatch.setattr(A, "_MEMO", {})
        args = [(z, 24 - z, 0.4) for z in range(1, 24)] * 40
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(lambda a: A.keep_zero_probability(*a), args, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        expected = {
            a: A._pair_comparisons(a[0] + a[1] - 1, [(a[0] - 1, 1)], 1.0 - 0.4)[0] for a in set(args)
        }
        assert all(r == expected[a] for r, a in zip(results, args))
        assert sorted(A._MEMO[24, 0.4]) == list(range(1, 24))  # no store was lost


class TestKlBernoulli:
    def test_examples(self):
        assert A.kl_bernoulli(0.5, 0.5) == 0.0
        assert A.kl_bernoulli(0.5, 0.25) == pytest.approx(KL_HALF_QUARTER, rel=1e-12)
        assert A.kl_bernoulli(1.0, 0.5) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_boundary(self):
        assert A.kl_bernoulli(0.0, 0.0) == 0.0
        assert A.kl_bernoulli(1.0, 1.0) == 0.0
        assert A.kl_bernoulli(0.5, 0.0) == math.inf
        assert A.kl_bernoulli(0.5, 1.0) == math.inf
        with pytest.raises(ValueError):
            A.kl_bernoulli(-0.1, 0.5)

    def test_pinsker_and_reverse_coarse(self):
        grid = np.arange(0.05, 1.0, 0.05)
        for a in grid:
            for b in grid:
                kl = A.kl_bernoulli(float(a), float(b))
                gap = (a - b) ** 2
                assert kl >= 2.0 * gap - 1e-12
                assert kl <= (2.0 / min(b, 1.0 - b)) * gap + 1e-12


class TestNormalCdf:
    def test_symmetry(self):
        assert A.std_normal_cdf(0.0) == 0.5
        for t in (-3.0, -0.7, 0.4, 2.5, 8.0):
            assert A.std_normal_cdf(t) + A.std_normal_cdf(-t) == pytest.approx(1.0, abs=1e-14)

    def test_sqrt2_value(self):
        assert A.std_normal_cdf(math.sqrt(2.0)) == pytest.approx(PHI_SQRT2, abs=1e-12)

    @pytest.mark.parametrize("t", [-2.0, -0.5, 1.0, 3.0])
    def test_against_quadrature(self, t):
        assert A.std_normal_cdf(t) == pytest.approx(normal_cdf_quadrature(t), abs=1e-12)


class TestTZero:
    def test_examples(self):
        assert A.t_zero(1.0, 0.5) == pytest.approx(math.sqrt(2.0), rel=1e-14)
        assert A.t_zero(2.0, 0.5) == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-14)
        assert A.t_zero(1.0, 0.8) == pytest.approx(math.sqrt(0.5), rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            A.t_zero(0.0, 0.5)
        with pytest.raises(ValueError):
            A.t_zero(1.0, 0.0)
        with pytest.raises(ValueError):
            A.t_zero(1.0, 1.0)


class TestClosedFormBounds:
    def test_prop1(self):
        assert A.prop1_error_bound(100, 0, 0.5) == pytest.approx(200.0, rel=1e-14)
        assert A.prop1_error_bound(100, 50, 0.5) == pytest.approx(PROP1_100_50, rel=1e-12)
        assert A.prop1_error_bound(10_000, 1_000, 0.5) == pytest.approx(PROP1_1E4_1E3, rel=1e-12)
        with pytest.raises(ValueError):
            A.prop1_error_bound(100, 100, 0.5)
        with pytest.raises(ValueError):
            A.prop1_error_bound(100, 10, 1.0)

    def test_prop4(self):
        assert A.prop4_bound(100, 0) == 2.0
        assert A.prop4_bound(100, 30) == pytest.approx(PROP4_100_30, rel=1e-12)
        assert A.prop4_bound(10_000, 1_000) == pytest.approx(PROP4_1E4_1E3, rel=1e-12)

    def test_prop5(self):
        assert A.prop5_bound(100, 0, 0.5) == 1.0
        assert A.prop5_bound(10**6, 328, 0.5) == pytest.approx(PROP5_1E6_328, rel=1e-12)
        assert A.prop5_rate_constant(0.5) == 64.0
        assert A.envelope_exponent(0.5) == pytest.approx(1.0 / 128.0, rel=1e-14)
        assert A.theorem2_envelope(100, 0.5) == pytest.approx(
            3.0 / 100 ** (1.0 / 128.0), rel=1e-14
        )
        with pytest.raises(ValueError):
            A.prop5_bound(100, 100, 0.5)
        with pytest.raises(ValueError):
            A.prop5_rate_constant(0.0)

    @pytest.mark.parametrize(
        "bound",
        [
            lambda: A.prop1_error_bound(0, 0, 0.5),
            lambda: A.prop4_bound(0, 0),
            lambda: A.prop5_bound(0, 0, 0.5),
            lambda: A.theorem2_envelope(0, 0.5),
        ],
    )
    def test_n_must_be_positive(self, bound):
        with pytest.raises(ValueError, match="n must be positive, got 0"):
            bound()

    def test_prop4_needs_nonnegative_b(self):
        with pytest.raises(ValueError, match="B must be nonnegative, got -1"):
            A.prop4_bound(10, -1)


class TestPnSandwich:
    def test_lower_always_half(self):
        for n in (2, 17, 100, 10_000):
            lower, upper = A.pn_sandwich(n, 0.5)
            assert lower == 0.5
            assert upper >= lower

    def test_brackets_exact_value_at_large_n(self):
        p_n = A.keep_zero_probability(10_000, 10_000, 0.5)
        lower, upper = A.pn_sandwich(10_000, 0.5)
        assert lower <= p_n <= upper

    def test_upper_shrinks_with_n(self):
        uppers = [A.pn_sandwich(n, 0.5)[1] for n in (100, 1_000, 10_000, 100_000)]
        assert all(b < a for a, b in zip(uppers, uppers[1:]))
        # the closed form converges to 1/2 (slowly, like n^(-1/4))
        assert A.pn_sandwich(10**12, 0.5)[1] < 0.51

    def test_small_n_fallback(self):
        # eps_n >= min(q, 1-q) leaves the split formula undefined; the
        # bracket falls back to the always-valid collision bound
        assert A.pn_sandwich(16, 0.5) == (0.5, 2.0)
        assert A.pn_sandwich(200, 0.75) == (0.5, 2.0)

    def test_q_symmetry(self):
        assert A.pn_sandwich(400, 0.3) == A.pn_sandwich(400, 0.7)

    def test_validation(self):
        with pytest.raises(ValueError):
            A.pn_sandwich(1, 0.5)
        with pytest.raises(ValueError):
            A.pn_sandwich(10, 0.0)


class TestStirlingBounds:
    def test_bracket_examples(self):
        for m, p, k in [(10, 0.5, 5), (100, 0.3, 30), (37, 0.9, 33)]:
            lower, upper = A.pmf_stirling_bounds(m, p, k)
            exact = math.exp(A.binomial_log_pmf(m, p, k))
            assert lower <= exact <= upper

    def test_prefactor_ratio_constant(self):
        expected = math.e**3 / (math.sqrt(2.0 * math.pi) * 2.0 * math.pi)
        for m, p, k in [(10, 0.5, 5), (200, 0.2, 17), (55, 0.65, 30)]:
            lower, upper = A.pmf_stirling_bounds(m, p, k)
            assert upper / lower == pytest.approx(expected, rel=1e-12)

    def test_interior_only(self):
        with pytest.raises(ValueError):
            A.pmf_stirling_bounds(10, 0.5, 0)
        with pytest.raises(ValueError):
            A.pmf_stirling_bounds(10, 0.5, 10)
        with pytest.raises(ValueError):
            A.pmf_stirling_bounds(10, 0.0, 5)


class TestBoundReport:
    def test_satisfied_autofill(self):
        r = A.BoundReport(
            bound_name="prop4", parameters={"n": 10, "B": 3},
            bound_value=0.5, empirical_value=0.3,
        )
        assert r.satisfied is True
        r2 = A.BoundReport(
            bound_name="prop4", parameters={}, bound_value=0.1, empirical_value=0.3
        )
        assert r2.satisfied is False

    def test_validation(self):
        with pytest.raises(ValueError):
            A.BoundReport(bound_name="nope", parameters={}, bound_value=0.1)
        with pytest.raises(ValueError):
            A.BoundReport(bound_name="prop1", parameters={}, bound_value=-0.1)
