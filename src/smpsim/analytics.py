"""Exact binomial computations, transition probabilities, bounds.

Everything here is deterministic closed-form math.  Binomial log-PMFs use
Loader's saddle-point form (``stirlerr`` and ``bd0``), whose error does
not grow with the number of trials.  The comparison kernel behind the
transition probabilities works in linear space on binomial windows, each
scaled by its own maximum, with a tail per pair of windows.  The pair
behind keep(c + 1), adopt(c) and their mirrors drops under e^-L per side
for L = max(100 ln 2, 68 ln 2 - ln B), where B is the least Chernoff bound
of those four, and keeps its values when each is at least 2^60 e^-L,
which truncates each by under 2^-57 relative; otherwise, and where B is
below about 1e-320, it drops under 1e-340.  Against a 40-digit reference
its relative error measured below 5e-14 at the tested points with m up to
2e5 and values down to 4e-204.  Deeper in a tail at large m it grows with
|ln P|: the log-PMF carries an absolute error of a few ulps of |ln pmf|,
which exp turns into relative error.
Checked at every z against an exact tail at q = 1/2 with 2n up to 2e4,
values P below 1/2 are within 12 u (1 + |ln P|), u = 2^-53 (worst 11.0),
and values at or above 1/2 within 48 u absolute (worst 40 u, below the
true value near 1), so a value near 1 is good to tens of ulps of 1, not
of its distance from 1; both grow with 2n.  Results below about 1e-300
lose relative precision to underflow.  A plain ``float`` in log space
stands in for a log-probability: value <= 0, with ``-inf`` representing
probability zero.

The two transition probabilities driving the whole protocol are, for a
state with ``z`` zeros, ``o`` ones and delivery probability q' = 1 - q:

* keep-zero:  P{ Bin(z-1, q') + 1 >= Bin(o, q') }
  (a zero-holder still holds 0 after one round; its own opinion breaks
  ties in its favor),
* adopt-zero: P{ Bin(z, q') >= Bin(o-1, q') + 2 }
  (a one-holder switches to 0; it must see a strict majority of zeros).

Single calls, Monte Carlo rounds and the exact chain all take both from
``transition_values``, which builds each binomial window once per batch
of zero-counts and memoises the values per (2n, q), because sweeps revisit
the same counts heavily; a memo hit returns what a fresh evaluation would,
and the tail of each window depends on its pair alone.
Binomials have fewer than ``MAX_BINOMIAL_TRIALS`` trials, the size below
which the log-PMF's accuracy claim holds.
"""

from __future__ import annotations

import math
import numbers
import threading
from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = [
    "BoundReport",
    "BOUND_NAMES",
    "MAX_BINOMIAL_TRIALS",
    "binomial_log_pmf",
    "transition_values",
    "keep_zero_probability",
    "adopt_zero_probability",
    "kl_bernoulli",
    "std_normal_cdf",
    "t_zero",
    "prop1_error_bound",
    "prop4_bound",
    "prop5_bound",
    "prop5_rate_constant",
    "envelope_exponent",
    "theorem2_envelope",
    "pn_sandwich",
    "pmf_stirling_bounds",
]

#: Binomials have fewer trials than this: below it ``_log_pmf`` forms k - mp
#: exactly from a 26-bit split of p, which its accuracy rests on.
MAX_BINOMIAL_TRIALS = 1 << 27

# stirlerr(n) = log(n!) - log(sqrt(2 pi n) (n/e)^n) for n = 0..15, from mpmath
# at 40 digits (stirlerr(0) is set to 0; the log-PMF never uses it).
_STIRLERR_SMALL = np.array([
    0.0,
    0.08106146679532726,
    0.0413406959554093,
    0.02767792568499834,
    0.020790672103765093,
    0.016644691189821193,
    0.013876128823070748,
    0.01189670994589177,
    0.010411265261972096,
    0.009255462182712733,
    0.00833056343336287,
    0.007573675487951841,
    0.00694284010720953,
    0.006408994188004207,
    0.0059513701127588475,
    0.005554733551962801,
])
#: Coefficients 1/12, -1/360, 1/1260, -1/1680, 1/1188 of the Stirling series
#: in 1/n^2; five terms reach double precision for n > 15.
_STIRLING_SERIES = (1 / 12, 1 / 360, 1 / 1260, 1 / 1680, 1 / 1188)
_LOG_2PI = math.log(2.0 * math.pi)
#: Half-width of a binomial window solves exp(-t^2 / (2 (var + t/3))) = 1e-340
#: (Bernstein), so each tail outside it holds less than 1e-340.
_WINDOW_LOG_TAIL = 340.0 * math.log(10.0)
#: The sized tails of ``_pair_comparisons``.  The kernel returns P' =
#: P{X1 + offset >= X2 | X1 in W1, X2 in W2} for windows W1, W2 that each
#: miss under 2 e^-L of their binomial's mass.  The joint event differs from
#: the unconditioned one with probability at most 4 e^-L, and P(W1) P(W2)
#: >= 1 - 4 e^-L, so |P' - P| is at most about 8 e^-L.  At P >= 2^60 e^-L
#: that is under 2^-57 = u/16 relative (u = 2^-53), below the kernel's own
#: rounding error; a pair with a smaller value gets the 1e-340 windows.
#: The least tail is 100 ln 2, whose threshold 2^60 e^-L is _NARROW_MIN =
#: 2^-40; a tail L has the threshold _NARROW_MIN e^(100 ln 2 - L).
_NARROW_LOG_TAIL = 100.0 * math.log(2.0)
_NARROW_MIN = 2.0**-40
#: A pair whose least Chernoff bound is B gets the tail max(100 ln 2,
#: 68 ln 2 - ln B), whose threshold 2^60 e^-L is at most B / 2^8: its
#: smallest value keeps the sized windows while it is within 2^8 of its bound.
_SIZED_LOG_MARGIN = 68.0 * math.log(2.0)
#: Window entries that ``_windows`` evaluates in one pass, for keep/adopt
#: batches, the exact chain's rows and the sampler's CDFs alike.
_BLOCK_ELEMENTS = 1 << 15
#: Entries per ``np.dot`` call in ``_compare_windows``, whose sums are added
#: in order: OpenBLAS splits longer dots across threads, so one dot over
#: windows above about 10^4 entries moved values 1-3 ulps between
#: OPENBLAS_NUM_THREADS=1 and 2, and these blocks did not (2-core x86-64,
#: OpenBLAS 0.3.31; no documented guarantee, so a test checks it).
_DOT_BLOCK = 1 << 13
#: Terms of the bd0 series near x = mu, where |v| < 0.1: the first dropped
#: one is below 1e-20 of the sum.
_BD0_SERIES_TERMS = 9


def _stirlerr(n: np.ndarray, out: np.ndarray | None = None, big: np.ndarray | None = None):
    """Stirling-formula error log(n!) - log(sqrt(2 pi n) (n/e)^n) at integers n >= 0.

    Written into ``out``, with ``big`` as working space, both of n's shape
    and made here if not given.  The series is evaluated to the same length
    for every n, so a value never depends on which other values are
    computed with it.
    """
    n = np.atleast_1d(np.asarray(n, dtype=np.float64))
    acc = np.empty_like(n) if out is None else out
    big = np.empty_like(n) if big is None else big
    np.maximum(n, 16.0, out=big)
    np.multiply(big, big, out=big)
    inv_nn = np.divide(1.0, big, out=big)
    acc.fill(_STIRLING_SERIES[-1])
    for c in _STIRLING_SERIES[-2::-1]:
        np.multiply(acc, inv_nn, out=acc)
        np.subtract(c, acc, out=acc)
    np.divide(acc, np.maximum(n, 16.0, out=big), out=acc)
    small = np.flatnonzero(n <= 15.0)
    acc[small] = _STIRLERR_SMALL[n[small].astype(np.int64)]
    return acc


def _bd0(x: np.ndarray, mu: np.ndarray, d: np.ndarray, scratch, near: np.ndarray) -> np.ndarray:
    """Deviance term x log(x/mu) + mu - x for x >= 1, mu > 0 (Loader 2000).

    ``d`` is x - mu to full relative accuracy.  Near x = mu, where the direct
    form cancels, d v + 2x sum_{j>=1} v^(2j+1)/(2j+1) with v = d/(x + mu) is
    used instead, with _BD0_SERIES_TERMS terms.  The work is done in
    ``mu`` (overwritten), the three arrays of ``scratch`` and the boolean
    ``near``, all of x's shape; the result is one of them.
    """
    direct, a, v = scratch
    np.less(np.abs(d, out=a), np.multiply(np.add(x, mu, out=direct), 0.1, out=direct), out=near)
    if not near.all():
        np.divide(x, mu, out=direct)
        np.log(direct, out=direct)
        np.multiply(direct, x, out=direct)
        np.subtract(direct, d, out=direct)
        if not near.any():
            return direct
    np.divide(d, np.subtract(np.multiply(x, 2.0, out=a), d, out=a), out=v)
    v2 = np.multiply(v, v, out=a)
    poly = np.multiply(v2, 1.0 / (2 * _BD0_SERIES_TERMS + 1), out=mu)
    for j in range(_BD0_SERIES_TERMS - 1, 1, -1):
        poly += 1.0 / (2 * j + 1)
        poly *= v2
    poly += 1.0 / 3.0
    poly *= v2
    poly *= np.multiply(x, 2.0, out=a)
    poly += d
    series = np.multiply(poly, v, out=poly)
    if near.all():
        return series
    np.copyto(direct, series, where=near)
    return direct


def _log_pmf_base(m: np.ndarray) -> np.ndarray:
    """The k-free part stirlerr(m) + log(m / (2 pi)) / 2 of Loader's log-PMF."""
    with np.errstate(divide="ignore"):
        return _stirlerr(m) + 0.5 * (np.log(m) - _LOG_2PI)


def _end_log_pmfs(m, p) -> tuple[np.ndarray, np.ndarray]:
    """(log P{Bin(m, p) = 0}, log P{Bin(m, p) = m}) = (m log(1-p), m log p).

    0 log 0 = 0, so a binomial with m = 0 has log-mass 0 at both ends.
    """
    m = np.asarray(m)
    with np.errstate(divide="ignore", invalid="ignore"):
        low, top = m * np.log1p(-p), m * np.log(p)
    low[m == 0] = top[m == 0] = 0.0
    return low, top


#: Float rows of a ``_scratch``: 0, 1, 2, ... and the seven temporaries of ``_log_pmf``.
_SCRATCH_ROWS = 8


def _scratch(entries: int) -> tuple[np.ndarray, np.ndarray]:
    """Working space for ``_log_pmf`` passes of up to ``entries`` entries, in one buffer.

    (rows, mask): _SCRATCH_ROWS float rows, the first holding 0..entries-1,
    and one boolean row.
    """
    buffer = np.empty((8 * _SCRATCH_ROWS + 1) * entries, dtype=np.uint8)
    rows = buffer[: 8 * _SCRATCH_ROWS * entries].view(np.float64).reshape(_SCRATCH_ROWS, -1)
    rows[0] = np.arange(entries)
    return rows, buffer[8 * _SCRATCH_ROWS * entries :].view(np.bool_)


def _log_pmf(
    m: np.ndarray, p: np.ndarray, lo: np.ndarray, hi: np.ndarray, scratch=None
) -> np.ndarray:
    """log P{Bin(m[i], p[i]) = k} for k = lo[i]..hi[i], the windows concatenated.

    Loader's saddle-point form: log pmf = base(m) - stirlerr(k) -
    stirlerr(m-k) - bd0(k, mp) - bd0(m-k, m(1-p)) - log(k (m-k)) / 2 for
    0 < k < m, where base(m) is ``_log_pmf_base(m)``; the end points are
    ``_end_log_pmfs``.  Every term is O(1) or computed with relative
    accuracy, so the error does not grow with m.  k - mp is formed exactly
    from a split of p, for m < MAX_BINOMIAL_TRIALS.  Per-window quantities
    are computed once and gathered over their window through one index
    array, so an entry never depends on which other windows are evaluated
    with it.  The temporaries are written into ``scratch``, a ``_scratch``
    of at least the windows' total size (made here if not given), so a
    pass allocates little beside its index and output.  The output is a
    new array on every call: callers keep views of it.
    """
    sizes = hi - lo + 1
    starts = np.cumsum(sizes) - sizes
    entries = int(sizes.sum())
    rows, near = _scratch(entries) if scratch is None else scratch
    ramp, k, rest_k, d, *tmp = rows[:, :entries]
    near = near[:entries]
    split = 134217729.0 * p  # Veltkamp: p = p_hi + p_lo with 26-bit halves
    p_hi = split - (split - p)
    mp_hi, mp_lo = m * p_hi, m * (p - p_hi)
    mean = mp_hi + mp_lo
    index = np.repeat(np.arange(len(sizes)), sizes)  # window of each entry

    def spread(per_window: np.ndarray, into: np.ndarray) -> np.ndarray:
        return per_window.take(index, out=into, mode="clip")

    np.add(ramp, spread((lo - starts).astype(np.float64), k), out=k)
    np.subtract(spread(m, rest_k), k, out=rest_k)
    np.subtract(k, spread(mp_hi, d), out=d)
    np.subtract(d, spread(mp_lo, tmp[0]), out=d)
    out = spread(_log_pmf_base(m), np.empty(entries))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out -= _stirlerr(k, tmp[0], tmp[1])
        out -= _stirlerr(rest_k, tmp[0], tmp[1])
        out -= _bd0(k, spread(mean, tmp[3]), d, tmp[:3], near)
        out -= _bd0(rest_k, spread(m - mean, tmp[3]), np.negative(d, out=d), tmp[:3], near)
        log_km = np.log(np.multiply(k, rest_k, out=tmp[0]), out=tmp[0])
        out -= np.multiply(log_km, 0.5, out=log_km)
    low, top = _end_log_pmfs(m, p)
    out[starts[lo == 0]] = low[lo == 0]
    ends = hi == m
    out[(starts + sizes - 1)[ends]] = top[ends]
    return out


def _window_bounds(
    m: np.ndarray, p: np.ndarray, log_tail=_WINDOW_LOG_TAIL
) -> tuple[np.ndarray, np.ndarray]:
    """[lo, hi] outside which Bin(m, p) has mass below exp(-log_tail) on each side.

    The half-width t solves the Bernstein bound exp(-t^2 / (2 (var + t/3)))
    = exp(-log_tail), elementwise: ``log_tail`` is a scalar (1e-340 by
    default) or one tail per window.  Unlike a multiple of the standard
    deviation it stays valid in the Poisson-like tails of small p.
    """
    mean = m * p
    a = log_tail / 3.0
    t = a + np.sqrt(a * a + 2.0 * log_tail * mean * (1.0 - p))
    lo = np.where(p == 1.0, m, np.maximum(np.floor(mean - t), 0.0))
    hi = np.where(p == 0.0, 0.0, np.minimum(np.ceil(mean + t), m))
    return lo.astype(np.int64), hi.astype(np.int64)


def _window_passes(m, p, log_tail=_WINDOW_LOG_TAIL):
    """Yield (lo, sizes, log pmf) per pass over the windows of Bin(m[i], p[i]), in order.

    [lo, hi] is the ``_window_bounds`` window for ``log_tail``, a scalar or
    one tail per window.  Windows are evaluated lazily, in passes of about
    _BLOCK_ELEMENTS entries that bound the memory held: a pass starts with
    the window that takes the running total past a multiple of it.  A pass
    yields its windows' lower ends and sizes as lists and their log-PMFs
    concatenated in one new array.  The passes of a call share one
    ``_scratch``, sized once to the call's largest pass, so a pass makes few
    new temporaries.  A window's entries do not depend on which pass it
    falls in.
    """
    m = np.atleast_1d(np.asarray(m, dtype=np.float64))
    if not len(m):
        return
    p = np.broadcast_to(np.asarray(p, dtype=np.float64), m.shape)
    lo, hi = _window_bounds(m, p, log_tail)
    sizes = hi - lo + 1
    starts = np.flatnonzero(np.diff(np.cumsum(sizes) // _BLOCK_ELEMENTS, prepend=-1))
    scratch = _scratch(int(np.add.reduceat(sizes, starts).max()))
    starts = starts.tolist()
    for a, b in zip(starts, starts[1:] + [len(m)]):
        log_pmf = _log_pmf(m[a:b], p[a:b], lo[a:b], hi[a:b], scratch)
        yield lo[a:b].tolist(), sizes[a:b].tolist(), log_pmf
        del log_pmf  # the consumer decides whether the pass outlives the next one


def _split(entries: np.ndarray, sizes: list[int]) -> list[np.ndarray]:
    """Views of ``entries`` cut into consecutive windows of ``sizes``."""
    ends = np.cumsum(sizes).tolist()
    return [entries[s:e] for s, e in zip([0, *ends], ends)]


def _windows(m, p, log_tail=_WINDOW_LOG_TAIL):
    """Yield (lo, log pmf over k = lo..hi) of Bin(m[i], p[i]) for each i, in order.

    The windows of ``_window_passes`` for ``log_tail``, a scalar or one
    tail per window, one at a time.  Each pass's output is a new array, and
    the yielded windows are views of it that later passes leave as they
    are.
    """
    for lo, sizes, log_pmf in _window_passes(m, p, log_tail):
        yield from zip(lo, _split(log_pmf, sizes))


def _binomial_tail(m: int, p: float, s: int, upper: bool) -> float:
    """P{Bin(m, p) >= s} if ``upper``, else P{Bin(m, p) <= s}.

    Sums exp(log pmf) over the ``_windows`` window on the side asked for
    only, so a small tail keeps its relative precision.  Outside the window
    the result is exactly 0 or 1: each side holds less than 1e-340 there.
    """
    lo, log_pmf = next(_windows(m, p))
    cut = s - lo if upper else s - lo + 1  # log_pmf[:cut] lies below the upper side
    if cut <= 0:
        return 1.0 if upper else 0.0
    if cut >= len(log_pmf):
        return 0.0 if upper else 1.0
    return float(np.exp(log_pmf[cut:] if upper else log_pmf[:cut]).sum())


def _scaled_windows(m, p, log_tail):
    """Yield (lo, w, c, total) for the ``_window_passes`` windows of Bin(m[i], p[i]), in order.

    w = pmf / max pmf on the window, c = cumsum(w) and total = c[-1], a
    float.  The scale cancels wherever w and c are used, because results
    are normalised by the window total.  Each pass is scaled at once: one
    ``np.maximum.reduceat`` for the window maxima, one subtract and one
    ``np.exp`` in place over its log-PMFs, then one cumsum per window.  The
    generator drops a pass's arrays before it evaluates the next pass.
    """
    for lo, sizes, w in _window_passes(m, p, log_tail):
        starts = np.cumsum(sizes) - sizes
        w -= np.repeat(np.maximum.reduceat(w, starts), sizes)
        np.exp(w, out=w)
        for lo_i, w_i in zip(lo, _split(w, sizes)):
            c = np.cumsum(w_i)
            yield lo_i, w_i, c, float(c[-1])
        del w, w_i, c


def _compare_windows(win1, win2, offset: int) -> float:
    """P{X1 + offset >= X2} from ``_scaled_windows`` windows of independent X1 and X2.

    sum_k w1(k) F2(k + offset) / (total1 total2), where the scaled CDF F2
    is 0 below window 2, c2 on it and total2 above it, in _DOT_BLOCK
    blocks added in order.
    """
    lo1, w1, _, total1 = win1
    lo2, _, c2, total2 = win2
    n1 = len(w1)
    shift = lo1 + offset - lo2  # index into c2 of w1[i] is i + shift
    first = min(max(-shift, 0), n1)  # below: F2 = 0
    last = min(max(len(c2) - 1 - shift, first), n1)  # from here on: F2 = total2
    acc = 0.0
    for start in range(first, last, _DOT_BLOCK):
        stop = min(start + _DOT_BLOCK, last)
        acc += float(np.dot(w1[start:stop], c2[start + shift : stop + shift]))
    acc += total2 * float(w1[last:].sum())
    return min(acc / (total1 * total2), 1.0)


def binomial_log_pmf(m: int, p: float, k: int) -> float:
    """log of C(m, k) p^k (1-p)^(m-k), in Loader's saddle-point form."""
    if not 0 <= k <= m < MAX_BINOMIAL_TRIALS:
        raise ValueError(f"need 0 <= k <= m < 2^27, got k={k}, m={m}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    window = np.array([k])
    return float(_log_pmf(np.array([float(m)]), np.array([float(p)]), window, window)[0])


def _pair_windows(size: int, pairs: np.ndarray, p: float, log_tail):
    """Yield (c, win_c, win_rest) for each pair c of ``pairs``, in order.

    win_c and win_rest are the ``_scaled_windows`` windows of Bin(c, p) and
    Bin(size - c, p) for ``log_tail``, a scalar or one tail per pair, from
    one call.
    """
    m = np.column_stack([pairs, size - pairs]).ravel()
    scaled = _scaled_windows(m, p, np.repeat(np.broadcast_to(log_tail, pairs.shape), 2))
    yield from zip(pairs.tolist(), scaled, scaled)


def _compare_pair(c: int, win_c, win_rest, a: int, offset: int) -> float:
    """P{Bin(a, p) + offset >= Bin(size - a, p)} from the windows of pair c, a in {c, size - c}."""
    win1, win2 = (win_c, win_rest) if a == c else (win_rest, win_c)
    return _compare_windows(win1, win2, offset)


def _pair_tails(size: int, pairs: np.ndarray, p: float) -> np.ndarray:
    """The sized tail L_c of each pair c of ``pairs``.

    L_c = max(_NARROW_LOG_TAIL, _SIZED_LOG_MARGIN - ln B_c), where B_c is
    the least ``_comparison_log_bound`` of the pair's four comparisons that
    are not certain: keep(c + 1), adopt(c) and their mirrors.  A tail at
    or past _WINDOW_LOG_TAIL sends the pair to the 1e-340 windows.
    """
    # the four comparisons of each pair as (m1, offset), one row each
    m1 = np.stack([pairs, pairs, size - pairs, size - pairs])
    offset = np.broadcast_to(np.array([[1], [-2], [1], [-2]]), m1.shape)
    uncertain = (offset < size - m1) & (m1 + offset >= 0)
    log_bound = _comparison_log_bound(m1.ravel(), size - m1.ravel(), p, -offset.ravel())
    least = np.where(uncertain, log_bound.reshape(m1.shape), 0.0).min(axis=0)
    return np.maximum(_NARROW_LOG_TAIL, _SIZED_LOG_MARGIN - least)


def _sized_values(size: int, pairs: np.ndarray, p: float, tails: np.ndarray):
    """Yield (c, {(a, offset): value}) for each pair c of ``pairs`` that its sized tail serves.

    Pair c = pairs[i] gets the values of its four comparisons that are not
    certain on windows for L = tails[i], and is yielded when each of them
    is at least 2^60 e^-L.  The windows and their scratch are freed once
    the last pair is yielded.
    """
    windows = _pair_windows(size, pairs, p, tails)
    for (c, win_c, win_rest), tail in zip(windows, tails.tolist()):
        value = {
            (a, off): _compare_pair(c, win_c, win_rest, a, off)
            for a in (c, size - c)
            for off in (1, -2)
            if off < size - a and a + off >= 0
        }
        if min(value.values()) >= _NARROW_MIN * math.exp(_NARROW_LOG_TAIL - tail):
            yield c, value


def _pair_comparisons(size: int, queries: list[tuple[int, int]], p: float) -> list[float]:
    """P{Bin(a, p) + offset >= Bin(size - a, p)} for each (a, offset) of ``queries``.

    Offsets are 1 (keep) and -2 (adopt).  Certain outcomes are exact:
    offset >= size - a gives 1, a + offset < 0 gives 0.  Pairs a and
    size - a hold the same two windows, so the other queries are grouped by
    c = min(a, size - a) and each window is built once.  A pair can serve
    four comparisons, (a, offset) in {c, size - c} x {1, -2}: keep(c + 1),
    adopt(c) and their mirrors.  Each pair gets its own tail L_c from
    ``_pair_tails``, sized to the least Chernoff bound B_c of the four that
    are not certain.  ``_sized_values`` sums it on windows for L_c and
    keeps its values when each of them is at least 2^60 e^-L_c (2^-40 at
    the least tail, 100 ln 2, which every pair with B_c >= 2^-32 gets); a
    sized value is then within 2^-57 relative of the untruncated
    comparison (see the constants).  Otherwise, and at once where L_c
    would pass the 1e-340 tail (B_c below about 1e-320), the pair is
    summed on the 1e-340 windows.  The rule reads the pair alone, so a
    value does not depend on which other queries are evaluated with it.
    All sized pairs are done, and their windows freed, before the 1e-340
    pass starts.
    """
    out = [1.0 if off >= size - a else 0.0 if a + off < 0 else math.nan for a, off in queries]
    by_pair: dict[int, list[int]] = {}
    for i, (a, _) in enumerate(queries):
        if math.isnan(out[i]):
            by_pair.setdefault(min(a, size - a), []).append(i)
    pairs = np.array(sorted(by_pair), dtype=np.int64)
    tails = _pair_tails(size, pairs, p)
    sized = tails < _WINDOW_LOG_TAIL
    done = set()
    for c, value in _sized_values(size, pairs[sized], p, tails[sized]):
        done.add(c)
        for i in by_pair[c]:
            out[i] = value[queries[i]]
    wide = np.array([c for c in pairs.tolist() if c not in done], dtype=np.int64)
    for c, win_c, win_rest in _pair_windows(size, wide, p, _WINDOW_LOG_TAIL):
        for i in by_pair[c]:
            out[i] = _compare_pair(c, win_c, win_rest, *queries[i])
    return out


def _integer_array(values, name: str, dtype) -> np.ndarray:
    """``values`` as a ``dtype`` array; ValueError naming ``name`` unless it holds integers.

    Bool and float arrays are refused, and so are negative entries when
    ``dtype`` is unsigned; a signed result is left to the caller's range
    check.  An empty input passes whatever its dtype (``np.asarray([])`` is
    float64).  An array already of ``dtype`` costs O(1).
    """
    array = np.asarray(values)
    if array.size and array.dtype != dtype:
        if array.dtype.kind not in "iu":
            raise ValueError(f"{name} must hold integers, got dtype {array.dtype}")
        if np.dtype(dtype).kind == "u" and array.min() < 0:
            raise ValueError(f"{name} must be nonnegative")
    return array.astype(dtype, copy=False)


#: (total, q) -> {z: (keep, adopt)}, emptied before it would exceed _MEMO_MAX_VALUES.
_MEMO: dict[tuple[int, float], dict[int, tuple[float, float]]] = {}
_MEMO_LOCK = threading.Lock()
_MEMO_MAX_VALUES = 1 << 20


def transition_values(total: int, zs, q: float) -> tuple[np.ndarray, np.ndarray]:
    """(keep, adopt) at each zero-count z of ``zs`` in a ``total``-agent system.

    keep[i] = keep_zero_probability(z, total - z, q) and adopt[i] =
    adopt_zero_probability(z, total - z, q) for z = zs[i], and 0 on an empty
    side (keep at z = 0, adopt at z = total).  The z values missing from the
    (total, q) memo are evaluated in one batch that builds each binomial
    window once, by ``_pair_comparisons``: each pair of windows on a tail
    L sized to the least Chernoff bound of the four comparisons it serves,
    kept where each of those values is at least 2^60 e^-L (a truncation
    under 2^-57 relative), and on 1e-340 windows otherwise.  That rule
    looks at the pair alone, so a value is the same from the memo, alone
    or in any batch.  The returned arrays are the caller's own.  ``total``
    must be an integer (bool refused) and ``zs`` must hold integers.  When
    every z is the same, as in the first round from a single state, the
    range check's minimum stands for ``np.unique``, whose sort costs
    milliseconds on a chunk; a strictly increasing ``zs``, such as the
    exact chain's live states, is its own ``np.unique``.
    """
    if isinstance(total, bool) or not isinstance(total, numbers.Integral):
        raise ValueError(f"total must be an integer, got {total!r}")
    if not 1 <= total < MAX_BINOMIAL_TRIALS:
        raise ValueError(f"total must be in [1, 2^27), got {total}")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    zs = _integer_array(zs, "zs", np.int64)
    z_lo, z_hi = (int(zs.min()), int(zs.max())) if zs.size else (0, -1)  # empty: lo > hi
    if not (0 <= z_lo and z_hi <= total):
        raise ValueError(f"zs (zero-counts) must be in [0, {total}]")
    if z_lo == z_hi:
        uniq, inverse = [z_lo], None
    elif zs.ndim == 1 and (zs[1:] > zs[:-1]).all():  # strictly increasing: np.unique's output
        uniq, inverse = zs.tolist(), slice(None)
    else:
        uniq, inverse = np.unique(zs, return_inverse=True)
        uniq = uniq.tolist()
    key = (int(total), float(q))
    with _MEMO_LOCK:
        memo = _MEMO.get(key, {})
        found = {z: memo[z] for z in uniq if z in memo}
    missing = [z for z in uniq if z not in found]
    if missing:
        # keep(z) is pair a = z - 1 at offset 1, adopt(z) pair a = z at offset -2
        wanted = [(z - 1, 1) for z in missing if z > 0] + [(z, -2) for z in missing if z < total]
        value = dict(zip(wanted, _pair_comparisons(total - 1, wanted, 1.0 - q)))
        found.update((z, (value.get((z - 1, 1), 0.0), value.get((z, -2), 0.0))) for z in missing)
        with _MEMO_LOCK:
            if sum(map(len, _MEMO.values())) + len(missing) > _MEMO_MAX_VALUES:
                _MEMO.clear()
            _MEMO.setdefault(key, {}).update((z, found[z]) for z in missing)
    keep, adopt = np.array([found[z] for z in uniq], dtype=np.float64).reshape(-1, 2).T.copy()
    if inverse is None:
        return np.full(zs.shape, keep[0]), np.full(zs.shape, adopt[0])
    return keep[inverse], adopt[inverse]


#: Slack added to a Chernoff log-bound per unit of its terms' magnitude, far
#: above their rounding error, so the computed value is a bound too.
_BOUND_SLACK = 2.0**-40


def _comparison_log_bound(m1, m2, p: float, s) -> np.ndarray:
    """log of an upper bound on P{Bin(m1, p) - Bin(m2, p) >= s}, elementwise.

    Chernoff (1952): for every lambda > 0 the probability is at most
    exp(-lambda s + m1 log(1 - p + p t) + m2 log(1 - p + p / t)) with
    t = e^lambda.  The minimising t is the positive root of
    p(1-p)(m1 - s) t^2 + (p^2 (m1 - m2) - s (p^2 + (1-p)^2)) t - p(1-p)(s + m2),
    taken here when s lies strictly between the mean p (m1 - m2) and m1;
    at or below the mean the bound is 1.  The value is exact where the
    comparison is certain or p is 0 or 1: 0 for s <= -m2, -inf for s > m1,
    and m1 log p + m2 log(1 - p) for s = m1.  Temporaries are O(len(m1)).
    """
    m1, m2, s = np.broadcast_arrays(*(np.asarray(a, dtype=np.float64) for a in (m1, m2, s)))
    q = 1.0 - p
    out = np.zeros(m1.shape)
    if p in (0.0, 1.0):
        out[p * (m1 - m2) < s] = -np.inf
        return out
    out[s > m1] = -np.inf
    top = s == m1
    out[top] = (m1[top] * math.log(p) + m2[top] * math.log1p(-p)) * (1.0 - _BOUND_SLACK)
    tail = np.flatnonzero((s > p * (m1 - m2)) & (s < m1))
    m1, m2, s = m1[tail], m2[tail], s[tail]
    pq = p * q
    a = pq * (m1 - s)
    b = p * p * (m1 - m2) - s * (p * p + q * q)
    root = np.sqrt(b * b + 4.0 * a * pq * (s + m2))
    with np.errstate(divide="ignore"):  # the branch not taken may divide by b + root = 0
        t = np.where(b > 0.0, 2.0 * pq * (s + m2) / (b + root), (root - b) / (2.0 * a))
    t = np.maximum(t, 1.0)  # t <= 1 is no Chernoff bound; t = 1 gives the trivial 1
    terms = (
        -s * np.log(t),
        m1 * np.log1p(p * (t - 1.0)),
        m2 * np.log1p(-p * ((t - 1.0) / t)),
    )
    bound = terms[0] + terms[1] + terms[2]
    bound += _BOUND_SLACK * (np.abs(terms[0]) + np.abs(terms[1]) + np.abs(terms[2]))
    out[tail] = np.minimum(bound, 0.0)
    return out


def _transition_log_bounds(total: int, zs, q: float) -> tuple[np.ndarray, np.ndarray]:
    """log-bounds on (keep, adopt) at each interior z of ``zs``.

    Each is ``_comparison_log_bound`` of the comparison behind it, with
    delivery probability p = 1 - q as ``transition_values`` takes it and
    o = total - z: keep is P{Bin(z - 1) - Bin(o) >= -1} and adopt
    P{Bin(z) - Bin(o - 1) >= 2}.  Swapping the labels 0 and 1 makes the
    bounds at total - z bounds on 1 - adopt and 1 - keep at z.
    """
    z = np.asarray(zs, dtype=np.int64)
    o = total - z
    p = 1.0 - q
    return _comparison_log_bound(z - 1, o, p, -1), _comparison_log_bound(z, o - 1, p, 2)


def keep_zero_probability(z: int, o: int, q: float) -> float:
    """Probability a zero-holder still holds 0 after one round (tie included)."""
    if z < 1 or o < 0:
        raise ValueError(f"keep-zero probability needs z >= 1 and o >= 0, got z={z}, o={o}")
    return float(transition_values(z + o, [z], q)[0][0])


def adopt_zero_probability(z: int, o: int, q: float) -> float:
    """Probability a one-holder switches to 0 after one round (strict majority)."""
    if o < 1 or z < 0:
        raise ValueError(f"adopt-zero probability needs o >= 1 and z >= 0, got z={z}, o={o}")
    return float(transition_values(z + o, [z], q)[1][0])


def kl_bernoulli(a: float, b: float) -> float:
    """Binary Kullback-Leibler divergence a*log(a/b) + (1-a)*log((1-a)/(1-b)).

    Uses the 0*log(0) = 0 convention.  Returns +inf when b is degenerate
    and a differs from it.
    """
    if not 0.0 <= a <= 1.0 or not 0.0 <= b <= 1.0:
        raise ValueError(f"a and b must be in [0, 1], got ({a}, {b})")
    if a == b:
        return 0.0
    if b in (0.0, 1.0):
        return math.inf
    out = 0.0
    if a > 0.0:
        out += a * math.log(a / b)
    if a < 1.0:
        out += (1.0 - a) * math.log((1.0 - a) / (1.0 - b))
    return out


def std_normal_cdf(t: float) -> float:
    """Standard normal CDF via erfc, complementary form to avoid cancellation."""
    return 0.5 * math.erfc(-t / math.sqrt(2.0))


def t_zero(alpha: float, q: float) -> float:
    """Scale constant sqrt(2 alpha^2 (1-q) / q) of the exact-sqrt(n) regime."""
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be in (0, 1), got {q}")
    return math.sqrt(2.0 * alpha * alpha * (1.0 - q) / q)


def prop1_error_bound(n: int, a: int, q: float) -> float:
    """Single-round majority-consensus error bound from an n+A / n-A start.

    Evaluates 2n * sqrt((n+A)/(n-A)) * exp(-(1-q) A^2 / n), for 0 <= A < n.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if not 0 <= a < n:
        raise ValueError(f"A must satisfy 0 <= A < n, got A={a}, n={n}")
    if not 0.0 <= q < 1.0:
        raise ValueError(f"q must be in [0, 1), got {q}")
    return 2.0 * n * math.sqrt((n + a) / (n - a)) * math.exp(-(1.0 - q) * a * a / n)


def prop4_bound(n: int, b: int) -> float:
    """Bound 2 exp(-B^2/n) on P{|round-1 zero count - n| >= B} from a tied start."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if b < 0:
        raise ValueError(f"B must be nonnegative, got {b}")
    return 2.0 * math.exp(-b * b / n)


def prop5_rate_constant(q: float) -> float:
    """The constant 32 / min(q, 1-q) in the single-round consensus bound."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be in (0, 1), got {q}")
    return 32.0 / min(q, 1.0 - q)


def envelope_exponent(q: float) -> float:
    """Exponent c(q) of the 3/n^c(q) envelope for two-round consensus from a tie."""
    return 0.5 / prop5_rate_constant(q)


def theorem2_envelope(n: int, q: float) -> float:
    """The 3 / n^c(q) envelope on two-round consensus probability from a tie."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return 3.0 / n ** envelope_exponent(q)


def prop5_bound(n: int, c: int, q: float) -> float:
    """Single-round consensus probability bound from an n+C / n-C start.

    Evaluates exp{-C^2 exp{-f_q C^2/(n-C)}} with f_q = 32/min(q, 1-q).
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if not 0 <= c < n:
        raise ValueError(f"C must satisfy 0 <= C < n, got C={c}, n={n}")
    f_q = prop5_rate_constant(q)
    return math.exp(-c * c * math.exp(-f_q * c * c / (n - c)))


_STIRLING_PREFACTOR_UPPER = math.e / (2.0 * math.pi)
_STIRLING_PREFACTOR_LOWER = math.sqrt(2.0 * math.pi) / (math.e ** 2)


def pn_sandwich(n: int, q: float) -> tuple[float, float]:
    """Analytic bracket [1/2, upper] for the tied-state keep probability p_n.

    The upper bound is 1/2 + (3/2) [q^{2n} + G_n + (1-q)^{2n}], where G_n
    bounds the collision probability of two Bin(n, 1-q) draws by splitting
    the index range at eps_n = n^{-1/4} around the mean.  The split formula
    fixes q in (1/2, 1); for q < 1/2 the q <-> 1-q symmetry of the collision
    probability is applied first.  For n so small that eps_n >= min(q, 1-q)
    the split is empty and the bracket falls back to the always-valid
    upper bound 2 (collision probability bounded by one).
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be in (0, 1), got {q}")
    qq = max(q, 1.0 - q)
    eps = n ** -0.25
    c2 = _STIRLING_PREFACTOR_UPPER ** 2
    if 1.0 - qq - eps <= 0.0:
        return 0.5, 2.0
    g_n = c2 * n * math.exp(-4.0 * math.sqrt(n)) + c2 * (2.0 * n ** 0.75 + 1.0) / (
        n * (qq + eps) * (1.0 - qq - eps)
    )
    upper = 0.5 + 1.5 * (qq ** (2 * n) + g_n + (1.0 - qq) ** (2 * n))
    return 0.5, upper


def pmf_stirling_bounds(m: int, p: float, k: int) -> tuple[float, float]:
    """Two-sided closed-form bracket for the Bin(m, p) PMF at interior k.

    lower = (sqrt(2 pi)/e^2) sqrt(m/(k(m-k))) exp(-m D(k/m || p)),
    upper = (e/(2 pi))      sqrt(m/(k(m-k))) exp(-m D(k/m || p)).

    Valid only for 1 <= k <= m-1; the factorial bounds behind it do not
    cover the endpoints.
    """
    if not 1 <= k <= m - 1:
        raise ValueError(f"k must be interior (1 <= k <= m-1), got k={k}, m={m}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    shared = math.sqrt(m / (k * (m - k))) * math.exp(-m * kl_bernoulli(k / m, p))
    return _STIRLING_PREFACTOR_LOWER * shared, _STIRLING_PREFACTOR_UPPER * shared


BOUND_NAMES = ("prop1", "prop4", "prop5", "pn_sandwich", "stirling_bracket", "theorem2_envelope")


@dataclass(frozen=True)
class BoundReport:
    """An evaluated closed-form bound, optionally next to the quantity it dominates."""

    bound_name: str
    parameters: dict[str, Any]
    bound_value: float
    empirical_value: float | None = None
    satisfied: bool | None = field(default=None)

    def __post_init__(self) -> None:
        if self.bound_name not in BOUND_NAMES:
            raise ValueError(f"unknown bound name {self.bound_name!r}")
        if self.bound_value < 0.0:
            raise ValueError(f"bound value must be nonnegative, got {self.bound_value}")
        if self.empirical_value is not None and self.satisfied is None:
            object.__setattr__(self, "satisfied", self.empirical_value <= self.bound_value)
