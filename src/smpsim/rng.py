"""Counter-based random streams and exact binomial sampling.

Every random draw in this package is a pure function of
``(master_seed, trial, round, group)``.  The generator is Philox-4x64 with
10 rounds, keyed by ``(master_seed mod 2^64, _DOMAIN)``, with the counter
words carrying ``(trial, 0, round, group)``; the second word is always 0,
which keeps the stream of version 0.2.0.  Distinct paths therefore give
statistically independent streams, and results are bit-identical no matter
how trials are batched or scheduled across workers.

numpy's own Philox bit generator computes the blocks.  Trial is the low
counter word, so a chunk of consecutive trials on one path is a run of
consecutive counters: one ``random_raw`` call.  numpy keeps the output of
its bit generators stable across releases, so the stream does not depend on
the numpy version.  The test suite checks the blocks against a Philox
written out in uint64 arithmetic, and that one against numpy.

Every binomial draw is one CDF inversion at one uniform, word 0 of the
lane's counter block.  The CDF is the cumulative sum of ``analytics``'
Loader log-PMF, exponentiated, over the window from
``analytics._window_bounds`` outside which Bin(m, p) holds less than 2^-54
on each side, half the 2^-53 step of the uniform, which resolves no finer;
the last CDF entry is set to 1.  A sampler call checks m and p on the
arrays as passed and groups its lanes by (m, p): a call whose m and p each
hold one value, as every call of the first round from a single state does,
is one group with no sort; a call whose every draw is certain reads no
uniform and sorts nothing; any other call puts each pair's lanes together
with a lexsort by (m, p).  ``_draw_pair`` draws every group, deciding as
scalars whether its draw is certain (m = 0, p = 0 or p = 1: no uniform is
read) and whether to flip: p > 1/2 draws m - Bin(m, 1 - p), so a uniform
maps to the same draw as in every version that inverted the CDF at that
(m, p), and each draw depends only on m, min(p, 1 - p) and its uniform.
A one-pair call takes its CDF from ``_one_pair_cdf``, which caches 64
pairs; a mixed call builds the tables of all its pairs lazily from one
``analytics._windows`` call, which packs the windows into passes, and
keeps none of them.  A group of at least _GUIDED_MIN_LANES lanes starts
each search at a guide table over its CDF and steps up from there; a
smaller group, where building the table costs more than it saves, uses
``np.searchsorted``.  Both return the least k with u < CDF(k), and a
cached CDF equals a freshly built one, so a lane draws the same alone as
in any batch.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import analytics
from .analytics import MAX_BINOMIAL_TRIALS

__all__ = ["philox4x64", "uniform_lanes", "sample_binomial_lanes"]

_MASK64 = (1 << 64) - 1

#: Fixed key word mixed with the master seed so package streams never
#: collide with a bare Philox(seed) stream.
_DOMAIN = int.from_bytes(b"smp-sim\x01", "big")

#: Lanes on one (c1, c2, c3) whose c0 values step by 1 to this share one
#: numpy call, which costs about as much as 500 blocks; so a call never
#: generates more than this many blocks per lane it returns.
_RUN_GAP = 64


def philox4x64(
    c0: np.ndarray, c1: np.ndarray, c2: np.ndarray, c3: np.ndarray, key0: int, key1: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Philox-4x64-10 block function, vectorized over counter arrays.

    numpy's Philox generator computes the blocks, one ``random_raw`` call
    per run of lanes, taken in the order given.  A run ends wherever c0
    does not step up by 1 to _RUN_GAP from the lane before: at a repeat, a
    descent (2^64 - 1 to 0 included) or a wider gap; and wherever a high
    word passed as an array of more than one element changes value.  The
    call generates every block from the run's first c0 to its last; numpy
    adds 1 to its 256-bit counter before each block, so it starts one
    below.  One generator, seeded once per call with a fixed seed, takes
    each run's counter and key as its state, with an empty output buffer.
    A run of consecutive lanes is not indexed.
    """
    counters = [np.asarray(c, dtype=np.uint64) for c in (c0, c1, c2, c3)]
    shape = np.broadcast_shapes(*(c.shape for c in counters)) or (1,)
    lanes = [np.broadcast_to(c, shape).reshape(-1) for c in counters]
    if not lanes[0].size:
        return tuple(np.empty(shape, dtype=np.uint64) for _ in range(4))
    low, step = lanes[0], np.diff(lanes[0])
    # step - 1 wraps a step of 0 to 2^64 - 1, so one compare finds repeats
    # and wide gaps; a descent from near 2^64 to near 0 steps by 1 to
    # _RUN_GAP in uint64, so descents are tested on their own
    split = ((step - np.uint64(1)) >= _RUN_GAP) | (low[1:] < low[:-1])
    for c, lane in zip(counters[1:], lanes[1:]):
        if c.size > 1:
            split |= np.diff(lane) != 0
    starts = [0, *(np.flatnonzero(split) + 1).tolist()]
    generator = np.random.Philox(0)
    state = generator.state
    state["state"]["key"] = np.array([key0 & _MASK64, key1 & _MASK64], dtype=np.uint64)
    runs = []
    for lo, hi in zip(starts, starts[1:] + [low.size]):
        below = sum(int(c[lo]) << (64 * i) for i, c in enumerate(lanes)) - 1
        state["state"]["counter"] = np.array(
            [(below >> (64 * i)) & _MASK64 for i in range(4)], dtype=np.uint64
        )
        generator.state = state
        count = int(low[hi - 1] - low[lo]) + 1
        blocks = generator.random_raw(4 * count).reshape(-1, 4)
        runs.append(blocks if count == hi - lo else blocks[low[lo:hi] - low[lo]])
    words = runs[0] if len(runs) == 1 else np.concatenate(runs)
    return tuple(words[:, i].reshape(shape) for i in range(4))


def uniform_lanes(master_seed: int, trial, round_index, group) -> np.ndarray:
    """Per-lane uniforms in [0, 1): the top 53 bits of word 0 of block (trial, 0, round, group)."""
    word = philox4x64(trial, 0, round_index, group, master_seed & _MASK64, _DOMAIN)[0]
    return (word >> np.uint64(11)) * 2.0**-53  # exact: uint64 below 2^53 to float64


#: Each side outside a sampling window holds less than 2^-54 of the mass,
#: below the 2^-53 step of the uniform that inverts the CDF.
_SAMPLING_LOG_TAIL = 54.0 * math.log(2.0)


#: Groups of at least this many lanes start their search at a guide table;
#: smaller ones use ``np.searchsorted`` alone.  From 8,192 lanes on, the
#: guided search was no slower on CDFs of 2 to 8,000 entries, and 3 to 5
#: times faster from 179 entries on; at 4,096 lanes it was slower on 2 to
#: 11 entries (2-core x86-64 host, numpy 2.4).  Mixed calls put most lanes
#: in small groups, where a table would cost more than the search: with
#: every group guided, the search time of ``smpsim estimate --n 10000 --q
#: 0.5 --rounds 3 --trials 65536`` rose from 0.04-0.06 s to 0.22-0.34 s.
_GUIDED_MIN_LANES = 8192


def _search(cdf: np.ndarray, u: np.ndarray, out: np.ndarray) -> None:
    """Write the least k with u < cdf[k] at each uniform of ``u`` into ``out``.

    ``cdf`` is nondecreasing and ends at 1, and every u is in [0, 1).  A
    group of at least _GUIDED_MIN_LANES lanes starts from a guide table
    (Chen and Asau 1974): with G the next power of two >= len(cdf), entry j
    is the answer at u = j / G, so no more than the answer of any u in
    [j / G, (j + 1) / G), and u * G is exact.  Two steps up finish most
    lanes; ``searchsorted`` finishes the rest, such as a flat tail's.  The
    answers equal ``searchsorted(cdf, u, side="right")``.
    """
    if u.size < _GUIDED_MIN_LANES:
        out[:] = np.searchsorted(cdf, u, side="right")
        return
    size = 1 << (len(cdf) - 1).bit_length()
    guide = np.searchsorted(cdf, np.arange(size) / size, side="right")
    np.take(guide, (u * size).astype(np.intp), out=out)
    short = cdf[out] <= u
    out += short
    short = np.flatnonzero(short)
    short = short[cdf[out[short]] <= u[short]]
    out[short] += 1
    short = short[cdf[out[short]] <= u[short]]
    if short.size:
        out[short] = np.searchsorted(cdf, u[short], side="right")


def _cdf(log_pmf: np.ndarray) -> np.ndarray:
    """The sampler's CDF over a log-PMF window: cumsum of its exp, last entry set to 1."""
    cdf = np.cumsum(np.exp(log_pmf))
    cdf[-1] = 1.0
    return cdf


@functools.lru_cache(maxsize=64)
def _one_pair_cdf(m: int, p: float) -> tuple[int, np.ndarray]:
    """(lo, CDF) of Bin(m, p) for m >= 1, 0 < p <= 1/2, for one-pair calls.

    The CDF is built from the pair's ``analytics._windows`` window, whose
    entries do not depend on the other windows of a pass, so it equals the
    table a mixed call builds.  It is read-only.  A window at m < 2^27 has
    at most about 10^5 entries, so the 64 cached pairs hold at most about
    51 MB, and a few KB for the pairs of small systems.
    """
    ((lo, log_pmf),) = analytics._windows(np.array([m]), np.array([p]), _SAMPLING_LOG_TAIL)
    cdf = _cdf(log_pmf)
    cdf.flags.writeable = False
    return lo, cdf


def _draw_pair(m: int, p: float, out: np.ndarray, uniforms, cdf_of) -> None:
    """Write a Bin(m, p) draw for each lane of one (m, p) pair into ``out``.

    A certain draw (m = 0, p = 0 or p = 1) reads no uniform.  Otherwise
    ``cdf_of(m, min(p, 1 - p))`` gives the (lo, CDF) that the lanes'
    ``uniforms()`` are searched on, and p > 1/2 draws m - Bin(m, 1 - p).
    """
    if m == 0 or p in (0.0, 1.0):
        out.fill(m if p == 1.0 else 0)
        return
    lo, cdf = cdf_of(m, min(p, 1.0 - p))
    _search(cdf, uniforms(), out)
    if p > 0.5:
        np.subtract(m - lo, out, out=out)
    elif lo:
        out += lo


def sample_binomial_lanes(
    m,
    p,
    master_seed: int,
    trial,
    round_index: int,
    group,
) -> np.ndarray:
    """Per-lane exact Bin(m, p) draws; m, p broadcast against the trial lanes.

    ``trial`` (and optionally ``group``) are arrays of path labels; each
    lane inverts the CDF at the uniform of its own counter block.  m and p
    are checked on the arrays as passed; m must hold integers, and
    ``trial``, ``round_index`` and ``group`` nonnegative integers (bool and
    float are refused).  The lanes are grouped by (m, p), with no sort when
    m and p each hold one value, and ``_draw_pair`` draws each group.  A
    call whose every draw is certain (m = 0, p = 0 or p = 1 throughout)
    reads no uniform.
    """
    trial = analytics._integer_array(trial, "trial", np.uint64)
    round_index = analytics._integer_array(round_index, "round_index", np.uint64)
    group = analytics._integer_array(group, "group", np.uint64)
    m = analytics._integer_array(m, "m", np.int64)
    p = np.asarray(p, dtype=np.float64)
    if np.broadcast_shapes(m.shape, p.shape, trial.shape) != trial.shape:
        raise ValueError(f"m {m.shape} and p {p.shape} must broadcast to trial {trial.shape}")
    m_lo, m_hi = (m.min(), m.max()) if m.size else (0, 0)
    p_lo, p_hi = (p.min(), p.max()) if p.size else (0.0, 0.0)
    if m_lo < 0 or m_hi >= MAX_BINOMIAL_TRIALS:
        raise ValueError("m must be in [0, 2^27)")
    if not (p_lo >= 0.0 and p_hi <= 1.0):
        raise ValueError("p must be in [0, 1]")
    out = np.empty(trial.shape, dtype=np.int64)
    if not trial.size:
        return out

    def lane_uniforms() -> np.ndarray:
        return uniform_lanes(master_seed, trial, round_index, group).reshape(trial.size)

    if m_lo == m_hi and p_lo == p_hi:
        # rebinding frees an m or p array the caller built for this call
        # (``total - zs``) before the uniforms: 0.5 MB less at 65,536 lanes
        m, p = int(m_hi), float(p_hi)
        _draw_pair(m, p, out.reshape(-1), lane_uniforms, _one_pair_cdf)
        return out
    if m_hi == 0 or p_hi == 0.0 or p_lo == 1.0:
        # every draw is certain, as ``_draw_pair`` takes it: no uniform is read
        out[...] = m if p_lo == 1.0 else 0
        return out

    # uniforms before the sort: taken after it, Philox took 0.81 s against
    # 0.58 s of a per-agent run (n = 4, cProfile, 2-core x86-64)
    u = lane_uniforms()
    m, p = (np.broadcast_to(a, trial.shape).reshape(-1) for a in (m, p))
    order = np.lexsort((p, m))
    m, p, u = m[order], p[order], u[order]
    new_pair = np.r_[True, (np.diff(m) != 0) | (np.diff(p) != 0)]
    bounds = np.r_[np.flatnonzero(new_pair), m.size].tolist()
    pair_m, pair_p = m[new_pair], p[new_pair]
    windows = analytics._windows(pair_m, np.minimum(pair_p, 1.0 - pair_p), _SAMPLING_LOG_TAIL)
    draws = np.empty(m.size, dtype=np.int64)
    for a, b, m_g, p_g, (lo, log_pmf) in zip(
        bounds, bounds[1:], pair_m.tolist(), pair_p.tolist(), windows
    ):
        _draw_pair(m_g, p_g, draws[a:b], lambda: u[a:b], lambda *_: (lo, _cdf(log_pmf)))
    out.reshape(-1)[order] = draws
    return out
