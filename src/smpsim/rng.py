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
consecutive counters: one generator state, read on by ``random_raw``.
One run rule, ``_runs``, splits the lanes of a call into runs, for
``philox4x64``, which returns all four words of each block, and for
``_uniforms_into``, which makes the uniforms of ``uniform_lanes`` and the
sampler: it generates a run in pieces of at most _PIECE blocks (128 KB) and
keeps word 0 of each, so no call holds a chunk's 2 MB of blocks.  numpy
keeps the output of its bit generators stable across releases, so the
stream does not depend on the numpy version.  The test suite checks the
blocks against a Philox written out in uint64 arithmetic, and that one
against numpy.

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
in any batch.  A sampler call of up to 2^16 lanes keeps its uniforms and
the guided search's scratch in its thread's workspace (``_lane_arrays``),
so that calls after a thread's first fault in no new pages for them; the
draws go into the caller's ``out`` row, or into a new array without one.
"""

from __future__ import annotations

import functools
import math
import threading

import numpy as np

from . import analytics
from .analytics import MAX_BINOMIAL_TRIALS

__all__ = ["philox4x64", "uniform_lanes", "sample_binomial_lanes"]

_MASK64 = (1 << 64) - 1

#: Fixed key word mixed with the master seed so package streams never
#: collide with a bare Philox(seed) stream.
_DOMAIN = int.from_bytes(b"smp-sim\x01", "big")

#: Lanes on one (c1, c2, c3) whose c0 values step by 1 to this share one
#: run, whose set-up costs about as much as 500 blocks; so a call never
#: generates more than this many blocks per lane it returns.
_RUN_GAP = 64

#: A run is generated in ``random_raw`` pieces of at most this many blocks
#: (128 KB), so no call holds a run's whole block array.
_PIECE = 4096


def _runs(c0, c1, c2, c3, key0: int, key1: int):
    """The one Philox run rule: (shape, c0 lanes, runs) of a counter batch.

    The counters broadcast to ``shape`` and are taken flat, in the order
    given.  A run ends wherever c0 does not step up by 1 to _RUN_GAP from
    the lane before: at a repeat, a descent (2^64 - 1 to 0 included) or a
    wider gap; and wherever a high word passed as an array of more than one
    element changes value.  Lanes whose high words are all scalars and
    whose c0 rise strictly from first to first + size - 1 are one run,
    found without the step arrays.  ``runs`` yields (lo, hi, generator)
    per run of lanes lo..hi - 1: one numpy Philox generator, seeded once
    with a fixed seed, whose next ``random_raw`` blocks are those of c0 =
    low[lo], low[lo] + 1, ..., with an empty output buffer.  numpy adds 1
    to its 256-bit counter before each block, so the state is set one
    below the run's first counter.
    """
    counters = [np.asarray(c, dtype=np.uint64) for c in (c0, c1, c2, c3)]
    shape = np.broadcast_shapes(*(c.shape for c in counters)) or (1,)
    lanes = [np.broadcast_to(c, shape).reshape(-1) for c in counters]
    low, size = lanes[0], lanes[0].size
    high = [lane for c, lane in zip(counters[1:], lanes[1:]) if c.size > 1]
    if not size:
        starts = []
    elif not high and int(low[-1]) - int(low[0]) == size - 1 and (low[1:] > low[:-1]).all():
        starts = [0]
    else:
        step = np.diff(low)
        # step - 1 wraps a step of 0 to 2^64 - 1, so one compare finds repeats
        # and wide gaps; a descent from near 2^64 to near 0 steps by 1 to
        # _RUN_GAP in uint64, so descents are tested on their own
        split = ((step - np.uint64(1)) >= _RUN_GAP) | (low[1:] < low[:-1])
        for lane in high:
            split |= np.diff(lane) != 0
        starts = [0, *(np.flatnonzero(split) + 1).tolist()]

    def runs():
        generator = np.random.Philox(0)
        state = generator.state
        state["state"]["key"] = np.array([key0 & _MASK64, key1 & _MASK64], dtype=np.uint64)
        for lo, hi in zip(starts, starts[1:] + [size]):
            below = sum(int(lane[lo]) << (64 * i) for i, lane in enumerate(lanes)) - 1
            state["state"]["counter"] = np.array(
                [(below >> (64 * i)) & _MASK64 for i in range(4)], dtype=np.uint64
            )
            generator.state = state
            yield lo, hi, generator

    return shape, low, runs()


def philox4x64(
    c0: np.ndarray, c1: np.ndarray, c2: np.ndarray, c3: np.ndarray, key0: int, key1: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Philox-4x64-10 block function, vectorized over counter arrays.

    numpy's Philox generator computes the blocks, one ``random_raw`` call
    per run of lanes as ``_runs`` finds them, taken in the order given; the
    call generates every block from the run's first c0 to its last.  A run
    of consecutive lanes is not indexed.
    """
    shape, low, runs = _runs(c0, c1, c2, c3, key0, key1)
    if not low.size:
        return tuple(np.empty(shape, dtype=np.uint64) for _ in range(4))
    parts = []
    for lo, hi, generator in runs:
        count = int(low[hi - 1] - low[lo]) + 1
        blocks = generator.random_raw(4 * count).reshape(-1, 4)
        parts.append(blocks if count == hi - lo else blocks[low[lo:hi] - low[lo]])
    words = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return tuple(words[:, i].reshape(shape) for i in range(4))


def _uniforms_into(out: np.ndarray, master_seed: int, trial, round_index, group) -> None:
    """Write the uniform of each lane of (trial, round_index, group) into flat float64 ``out``.

    The lanes broadcast to ``out.size`` lanes and are split into runs by
    ``_runs``, the rule ``philox4x64`` uses.  Each run is generated in
    pieces of at most _PIECE blocks, whose word 0 shifted right by 11 is
    written into ``out`` as it is made; one multiply by 2^-53 at the end
    gives the uniforms (exact: uint64 below 2^53 to float64).
    """
    shape, low, runs = _runs(trial, 0, round_index, group, master_seed & _MASK64, _DOMAIN)
    if low.size != out.size:
        raise ValueError(f"{low.size} lanes (shape {shape}) for {out.size} uniforms")
    for lo, hi, generator in runs:
        count = int(low[hi - 1] - low[lo]) + 1
        offsets = None if count == hi - lo else low[lo:hi] - low[lo]
        for start in range(0, count, _PIECE):
            stop = min(start + _PIECE, count)
            word0 = generator.random_raw(4 * (stop - start))[::4]
            if offsets is None:
                a, b = start, stop
            else:  # the run's lanes whose blocks this piece holds
                a, b = np.searchsorted(offsets, np.array((start, stop), np.uint64)).tolist()
                word0 = word0[offsets[a:b] - np.uint64(start)]
            np.right_shift(word0, np.uint64(11), out=out[lo + a : lo + b])
    np.multiply(out, 2.0**-53, out=out)


def uniform_lanes(master_seed: int, trial, round_index, group) -> np.ndarray:
    """Per-lane uniforms in [0, 1): the top 53 bits of word 0 of block (trial, 0, round, group).

    A new array of the lanes' broadcast shape (one lane for scalars),
    filled by ``_uniforms_into``.
    """
    shape = np.broadcast_shapes(np.shape(trial), np.shape(round_index), np.shape(group)) or (1,)
    out = np.empty(shape)
    _uniforms_into(out.reshape(-1), master_seed, trial, round_index, group)
    return out


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


#: Lanes of this thread's workspace (``_lane_arrays``): a ``CHUNK_TRIALS``
#: call fits, at about 1.6 MB per sampling thread.
_WORKSPACE_LANES = 1 << 16

_workspace = threading.local()


def _new_lane_arrays(size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    return (np.empty(size), np.empty(size), np.empty(size, dtype=np.intp),
            np.empty(size, dtype=bool))


def _lane_arrays(size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(uniforms, gather, index, mask) arrays of ``size`` lanes for one sampler call.

    Float64, float64, intp and bool.  Up to _WORKSPACE_LANES lanes they are
    views of this thread's workspace, made on its first call and reused by
    every later one, so a call faults in no new pages for them; a larger
    call gets new arrays.  The sampler's uniforms and ``_search``'s scratch
    come from here, and no caller keeps them past its call.
    """
    if size > _WORKSPACE_LANES:
        return _new_lane_arrays(size)
    arrays = getattr(_workspace, "arrays", None)
    if arrays is None:
        arrays = _workspace.arrays = _new_lane_arrays(_WORKSPACE_LANES)
    return tuple(a[:size] for a in arrays)


def _search(cdf: np.ndarray, u: np.ndarray, out: np.ndarray) -> None:
    """Write the least k with u < cdf[k] at each uniform of ``u`` into ``out``.

    ``cdf`` is nondecreasing and ends at 1, and every u is in [0, 1).  A
    group of at least _GUIDED_MIN_LANES lanes starts from a guide table
    (Chen and Asau 1974): with G the next power of two >= len(cdf), entry j
    is the answer at u = j / G, so no more than the answer of any u in
    [j / G, (j + 1) / G), and u * G is exact.  Two steps up finish most
    lanes; ``searchsorted`` finishes the rest, such as a flat tail's.  The
    answers equal ``searchsorted(cdf, u, side="right")``.  The guide
    indices, the gathered CDF values and the first step's mask go into
    ``_lane_arrays`` (``u`` must not be its gather, index or mask); every
    index is in range, so ``np.take`` clips nothing and needs no buffer.
    """
    if u.size < _GUIDED_MIN_LANES:
        out[:] = np.searchsorted(cdf, u, side="right")
        return
    _, gather, index, short = _lane_arrays(u.size)
    size = 1 << (len(cdf) - 1).bit_length()
    guide = np.searchsorted(cdf, np.arange(size) / size, side="right")
    np.multiply(u, size, out=gather)
    np.copyto(index, gather, casting="unsafe")  # truncation, as astype(np.intp)
    np.take(guide, index, out=out, mode="clip")
    np.take(cdf, out, out=gather, mode="clip")
    np.less_equal(gather, u, out=short)
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
    *,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Per-lane exact Bin(m, p) draws; m, p broadcast against the trial lanes.

    ``trial`` (and optionally ``group``) are arrays of path labels; each
    lane inverts the CDF at the uniform of its own counter block.  m and p
    are checked on the arrays as passed; m must hold integers, and
    ``trial``, ``round_index`` and ``group`` nonnegative integers (bool and
    float are refused).  The lanes are grouped by (m, p), with no sort when
    m and p each hold one value, and ``_draw_pair`` draws each group.  A
    call whose every draw is certain (m = 0, p = 0 or p = 1 throughout)
    reads no uniform.  The draws go into ``out`` and are returned: a
    C-contiguous int64 array of the trial lanes' shape, such as a row the
    caller reuses from call to call, or a new array when ``out`` is None.
    ``out`` gets the bytes a call without it returns, and it must not share
    memory with ``m`` or ``p``.
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
    if out is None:
        out = np.empty(trial.shape, dtype=np.int64)
    elif not (
        isinstance(out, np.ndarray) and out.dtype == np.int64 and out.shape == trial.shape
        and out.flags.c_contiguous and out.flags.writeable
    ):
        raise ValueError(
            f"out must be a writeable C-contiguous int64 array of shape {trial.shape}, got "
            f"{getattr(out, 'dtype', type(out).__name__)} {np.shape(out)}"
        )
    if not trial.size:
        return out

    def lane_uniforms() -> np.ndarray:
        u = _lane_arrays(trial.size)[0]
        _uniforms_into(u, master_seed, trial, round_index, group)
        return u

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
