"""Counter-based random streams and exact binomial sampling.

Every random draw in this package is a pure function of
``(master_seed, trial, round, group)``.  The generator is Philox-4x64 with
10 rounds, keyed by ``(master_seed mod 2^64, _DOMAIN)``, with the counter
words carrying ``(trial, 0, round, group)``; the second word is always 0,
which keeps the stream of version 0.2.0.  Distinct paths therefore give
statistically independent streams, and results are bit-identical no matter
how trials are batched or scheduled across workers.

A block holds four words, and a draw of up to four sides reads side s
from word s.  ``sample_binomial_lanes`` and ``uniform_lanes`` read word 0
of block (trial, 0, round, group), as every version before 0.4.0 did.
The per-agent path draws the four sides of an agent pair from one block:
side group g = 2j + s of agent j reads word g mod 4 of block (trial, 0,
round, g // 4), which version 0.4.0 brought in place of word 0 of block g,
so per-agent results differ from 0.3.x.

numpy's own Philox bit generator computes the blocks.  Trial is the low
counter word, so a chunk of consecutive trials on one path is a run of
consecutive counters: one generator state, read on by ``random_raw``.
Each thread keeps one generator (``_philox``) and sets its key and
counter per run.  One run rule, ``_runs``, splits the lanes of a call into
runs, for ``philox4x64``, which returns all four words of each block, and
for ``_stream``, the one stream of ``uniform_lanes`` and the sampler: it
generates a run in pieces of at most _PIECE blocks (128 KB), hands each
piece's blocks to its caller and drops the piece before it makes the next,
so no call holds more than one piece of a chunk's 2 MB of blocks.  numpy
keeps the output of its bit generators stable across releases, so the
stream does not depend on the numpy version.  The test suite checks the
blocks against a Philox written out in uint64 arithmetic, and that one
against numpy.

Every binomial draw is one CDF inversion at one uniform, the top 53 bits
of its word of the lane's counter block times 2^-53.  The CDF is the
cumulative sum of ``analytics``' Loader log-PMF, exponentiated, over the
window from ``analytics._window_bounds`` outside which Bin(m, p) holds
less than 2^-54 on each side, half the 2^-53 step of the uniform, which
resolves no finer; the last CDF entry is set to 1.  ``_draw_sides``
checks each side's m and p on the arrays as passed and groups its lanes
by (m, p): a side whose m and p each hold one value, as every side of the
first round from a single state does, is one group with no sort; a side
whose every draw is certain reads no word and sorts nothing; any other
(mixed) side takes its words into its row of its thread's workspace
(``_lane_arrays``) and puts each pair's lanes together with a lexsort by
(m, p) (``_draw_mixed``).  ``_pair_rule`` decides as scalars, once per
group, whether its draw is certain (m = 0, p = 0 or p = 1: no word is
read) and whether to flip, and ``_pair_draws`` applies the flip: p > 1/2
draws m - Bin(m, 1 - p), so a uniform maps to the same draw as in every
version that inverted the CDF at that (m, p), and each draw depends only
on m, min(p, 1 - p) and its uniform.

``_search`` inverts a lane straight from its word, with no float
uniform: a bucket table (``_bucket_table``, Chen and Asau 1974; Devroye
1986, III.2) of G = 2^g entries holds the one draw of every uniform in
[j / G, (j + 1) / G), so a lane's draw is ``table[word >> (64 - g)]``,
and only lanes of the buckets that a CDF step splits (at most len(CDF) /
G of them, 1.6-1.7% on the CDFs of m = 400 and 1600) take
``np.searchsorted`` at their uniform.  The table is exact, so every draw
equals the binary search's.  A one-pair side takes its CDF and table
from ``_one_pair_cdf``, which caches 64 pairs, and searches its word of
each piece of the stream as it is made, writing into the caller's ``out``
row (or a new array without one): no lane-sized temporary.  A mixed side
builds the CDFs of all its pairs lazily from one ``analytics._windows``
call, which packs the windows into passes, and keeps none of them; a
group of at least _GUIDED_MIN_LANES lanes searches a table sized to it as
well, a smaller one ``np.searchsorted`` alone.  A cached CDF equals a
freshly built one, so a lane draws the same alone as in any batch.
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


def _philox():
    """This thread's numpy Philox generator and the state dict that sets its key and counter.

    Made on the thread's first run and reused by every later one, as
    ``_lane_arrays`` keeps its arrays: a new generator goes through a
    SeedSequence, 14-25 us a build, where setting the state takes under a
    microsecond.  ``buffer_pos`` 4 marks numpy's four-word buffer empty, so
    the next ``random_raw`` starts a new block.
    """
    philox = getattr(_workspace, "philox", None)
    if philox is None:
        state = {
            "bit_generator": "Philox", "state": {"counter": [0] * 4, "key": [0] * 2},
            "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }
        philox = _workspace.philox = np.random.Philox(0), state
    return philox


def _runs(c0, c1, c2, c3, key0: int, key1: int):
    """The one Philox run rule: (shape, c0 lanes, runs) of a counter batch.

    The counters broadcast to ``shape`` and are taken flat, in the order
    given.  A run ends wherever c0 does not step up by 1 to _RUN_GAP from
    the lane before: at a repeat, a descent (2^64 - 1 to 0 included) or a
    wider gap; and wherever a high word passed as an array of more than one
    element changes value.  Lanes whose high words are all scalars and
    whose c0 rise strictly from first to first + size - 1 are one run,
    found without the step arrays.  ``runs`` yields (lo, hi, generator)
    per run of lanes lo..hi - 1: this thread's Philox generator
    (``_philox``), whose next ``random_raw`` blocks are those of c0 =
    low[lo], low[lo] + 1, ..., with an empty output buffer.  numpy adds 1
    to its 256-bit counter before each block, so the state is set one
    below the run's first counter.  The generator is shared by every run
    of the thread, so a caller reads a run's blocks, four words each,
    before it asks for the next run, and starts no other stream meanwhile.
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
        generator, state = _philox()
        state["state"]["key"][:] = key0 & _MASK64, key1 & _MASK64
        for lo, hi in zip(starts, starts[1:] + [size]):
            below = sum(int(lane[lo]) << (64 * i) for i, lane in enumerate(lanes)) - 1
            state["state"]["counter"][:] = ((below >> (64 * i)) & _MASK64 for i in range(4))
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


def _stream(size: int, master_seed: int, trial, round_index, group, visit) -> None:
    """The one stream of the sampler and ``uniform_lanes``: ``visit(lo, hi, blocks)`` per piece.

    The lanes of block (trial, 0, round_index, group) broadcast to ``size``
    lanes, taken flat, and are split into runs by ``_runs``, the rule
    ``philox4x64`` uses.  Each run is generated in pieces of at most _PIECE
    blocks, and ``visit`` gets the lanes lo..hi - 1 whose blocks a piece
    holds and those blocks, a (hi - lo, 4) uint64 view or gather of the
    piece: word s of a lane is ``blocks[:, s]``, whose top 53 bits are its
    uniform times 2^53.  The piece is dropped before the next one is made,
    so one piece (128 KB) is alive at a time; ``visit`` keeps no view of it.
    """
    shape, low, runs = _runs(trial, 0, round_index, group, master_seed & _MASK64, _DOMAIN)
    if low.size != size:
        raise ValueError(f"{low.size} lanes (shape {shape}) for {size} draws")
    for lo, hi, generator in runs:
        count = int(low[hi - 1] - low[lo]) + 1
        offsets = None if count == hi - lo else low[lo:hi] - low[lo]
        for start in range(0, count, _PIECE):
            stop = min(start + _PIECE, count)
            blocks = generator.random_raw(4 * (stop - start)).reshape(-1, 4)
            if offsets is None:
                a, b = start, stop
            else:  # the run's lanes whose blocks this piece holds
                a, b = np.searchsorted(offsets, np.array((start, stop), np.uint64)).tolist()
                blocks = blocks[offsets[a:b] - np.uint64(start)]
            visit(lo + a, lo + b, blocks)
            del blocks


def uniform_lanes(master_seed: int, trial, round_index, group) -> np.ndarray:
    """Per-lane uniforms in [0, 1): the top 53 bits of word 0 of block (trial, 0, round, group).

    A new array of the lanes' broadcast shape (one lane for scalars),
    filled from ``_stream``: each word 0 shifted right by 11, then one
    multiply by 2^-53 (exact: uint64 below 2^53 to float64).
    """
    shape = np.broadcast_shapes(np.shape(trial), np.shape(round_index), np.shape(group)) or (1,)
    out = np.empty(shape)
    flat = out.reshape(-1)

    def visit(a: int, b: int, blocks: np.ndarray) -> None:
        np.right_shift(blocks[:, 0], np.uint64(11), out=flat[a:b])

    _stream(flat.size, master_seed, trial, round_index, group, visit)
    np.multiply(out, 2.0**-53, out=out)
    return out


#: Each side outside a sampling window holds less than 2^-54 of the mass,
#: below the 2^-53 step of the uniform that inverts the CDF.
_SAMPLING_LOG_TAIL = 54.0 * math.log(2.0)


#: A bucket table has 16 entries per CDF entry, so that at most one lane in
#: 16 lands in a bucket that a CDF step splits, rounded up to a power of two
#: and capped at 2^14 int64 entries (128 KB): the CDFs of m = 400 and 1600
#: at p = 1/2 (201 and 373 entries) get 2^12 and 2^13 entries, 1.7% of
#: them split.
_TABLE_ENTRIES_PER_STEP = 16
_TABLE_MAX_BITS = 14

#: Groups of a mixed call with at least this many lanes search a bucket
#: table; smaller ones use ``np.searchsorted`` alone.  Mixed calls put most
#: lanes in small groups, where a table would cost more than the search:
#: with a table for every group of two lanes or more, the search time of
#: ``smpsim estimate --n 10000 --q 0.5 --rounds 3 --trials 65536``, the
#: 11,210 tables included, rose from 0.06 s to 0.42-0.43 s (cProfile, two
#: runs each, 2-core x86-64).  A one-pair call searches its cached table at
#: any size, since the table outlives the call.
_GUIDED_MIN_LANES = 8192


#: Sides of one sampler draw: side s reads word s of its lanes' blocks.
_SIDES = 4

#: Lanes of this thread's workspace (``_lane_arrays``): a ``CHUNK_TRIALS``
#: call fits, at 2.5 MB per sampling thread, of which a call faults in
#: only the rows it writes: the index row, and a word row per mixed side.
_WORKSPACE_LANES = 1 << 16

_workspace = threading.local()


def _new_lane_arrays(size: int) -> tuple[np.ndarray, np.ndarray]:
    return np.empty((_SIDES, size), dtype=np.uint64), np.empty(size, dtype=np.intp)


def _lane_arrays(size: int) -> tuple[np.ndarray, np.ndarray]:
    """(words, index) arrays of ``size`` lanes for one sampler call: uint64 (4, size) and intp.

    Up to _WORKSPACE_LANES lanes they are views of this thread's workspace,
    made on its first call and reused by every later one, so a call faults
    in no new pages for them; a larger call gets new arrays.  A mixed
    side s takes its words into row s, ``_search`` its bucket indices into
    the index row, and no caller keeps them past its call.
    """
    if size > _WORKSPACE_LANES:
        return _new_lane_arrays(size)
    arrays = getattr(_workspace, "arrays", None)
    if arrays is None:
        arrays = _workspace.arrays = _new_lane_arrays(_WORKSPACE_LANES)
    return arrays[0][:, :size], arrays[1][:size]


def _bucket_table(cdf: np.ndarray, most: int = 1 << _TABLE_MAX_BITS) -> np.ndarray:
    """The read-only bucket table of ``cdf`` for ``_search`` (Chen and Asau 1974).

    G = 2^g entries, the least power of two of at least
    _TABLE_ENTRIES_PER_STEP entries per CDF entry, but no more than
    ``most`` (a power of two) or 2^_TABLE_MAX_BITS.  Entry j holds the least
    k with u < cdf[k] for every uniform u in [j / G, (j + 1) / G), or -1
    where a CDF entry splits that bucket.  The search is monotone in u, and
    the bucket's first and last uniforms, j / G and (j + 1) / G - 2^-53,
    are exact doubles, so one answer at both ends is the answer of every u
    between them.
    """
    bits = min(_TABLE_MAX_BITS, (_TABLE_ENTRIES_PER_STEP * len(cdf) - 1).bit_length())
    size = min(most, 1 << bits)
    edges = np.arange(size + 1) / size
    first = np.searchsorted(cdf, edges[:-1], side="right")
    last = np.searchsorted(cdf, edges[1:] - 2.0**-53, side="right")
    table = np.where(first == last, first, -1)
    table.flags.writeable = False
    return table


def _search(cdf: np.ndarray, table: np.ndarray, words: np.ndarray, out: np.ndarray) -> None:
    """Write the least k with u < cdf[k] at each lane's uniform into ``out``.

    ``words`` are the lanes' Philox words of their side (a strided column
    of a piece's blocks will do), whose uniform u is (word >> 11) * 2^-53;
    ``cdf`` is nondecreasing and ends at 1, and ``table`` is a
    ``_bucket_table`` of it, of G = 2^g entries.  A lane's
    answer is ``table[word >> (64 - g)]``, the entry of the bucket that
    holds u; only lanes of split buckets (entry -1) take
    ``np.searchsorted`` at u.  The bucket indices go into
    ``_lane_arrays``' index row; every index is in range, so ``np.take``
    clips nothing and needs no buffer.
    """
    index = _lane_arrays(words.size)[1]
    np.right_shift(words, np.uint64(65 - len(table).bit_length()), out=index.view(np.uint64))
    np.take(table, index, out=out, mode="clip")
    split = np.flatnonzero(out < 0)
    if split.size:
        u = (words[split] >> np.uint64(11)) * 2.0**-53
        out[split] = np.searchsorted(cdf, u, side="right")


def _cdf(log_pmf: np.ndarray) -> np.ndarray:
    """The sampler's CDF over a log-PMF window: cumsum of its exp, last entry set to 1."""
    cdf = np.cumsum(np.exp(log_pmf))
    cdf[-1] = 1.0
    return cdf


@functools.lru_cache(maxsize=64)
def _one_pair_cdf(m: int, p: float) -> tuple[int, np.ndarray, np.ndarray]:
    """(lo, CDF, bucket table) of Bin(m, p) for m >= 1, 0 < p <= 1/2, for one-pair calls.

    The CDF is built from the pair's ``analytics._windows`` window, whose
    entries do not depend on the other windows of a pass, so it equals the
    CDF a mixed call builds; the table is ``_bucket_table``'s at its full
    size.  Both are read-only.  A window at m < 2^27 has at most about 10^5
    entries and a table at most 2^14 int64 entries (128 KB), so the 64
    cached pairs hold at most about 59 MB, and a few KB for the pairs of
    small systems.
    """
    ((lo, log_pmf),) = analytics._windows(np.array([m]), np.array([p]), _SAMPLING_LOG_TAIL)
    cdf = _cdf(log_pmf)
    cdf.flags.writeable = False
    return lo, cdf, _bucket_table(cdf)


def _pair_rule(m: int, p: float, out: np.ndarray) -> float | None:
    """The one draw rule of an (m, p) pair: the p whose CDF its lanes search, or None.

    A certain draw (m = 0, p = 0 or p = 1) reads no word: ``out`` is filled
    with m at p = 1, else 0, and None is returned.  Otherwise the lanes'
    indices into the CDF of Bin(m, min(p, 1 - p)) go into ``out``, and
    ``_pair_draws`` turns them into draws.
    """
    if m == 0 or p in (0.0, 1.0):
        out.fill(m if p == 1.0 else 0)
        return None
    return min(p, 1.0 - p)


def _pair_draws(m: int, p: float, lo: int, out: np.ndarray) -> None:
    """Turn the indices in ``out`` into Bin(m, p) draws, for a CDF that starts at ``lo``.

    p > 1/2 draws m - Bin(m, 1 - p), so a uniform maps to the same draw as
    in every version that inverted the CDF at that (m, p), and each draw
    depends only on m, min(p, 1 - p) and its uniform.
    """
    if p > 0.5:
        np.subtract(m - lo, out, out=out)
    elif lo:
        out += lo


def _checked_side(m, p, out, shape: tuple) -> tuple:
    """A side's (m, p, out, (min m, max m, min p, max p)), checked as ``sample_binomial_lanes`` says.

    m comes back int64 and p float64 as passed, not broadcast; ``out`` is
    the caller's array, or a new one of ``shape`` where it is None.
    """
    m = analytics._integer_array(m, "m", np.int64)
    p = np.asarray(p, dtype=np.float64)
    if np.broadcast_shapes(m.shape, p.shape, shape) != shape:
        raise ValueError(f"m {m.shape} and p {p.shape} must broadcast to trial {shape}")
    m_lo, m_hi = (int(m.min()), int(m.max())) if m.size else (0, 0)
    p_lo, p_hi = (float(p.min()), float(p.max())) if p.size else (0.0, 0.0)
    if m_lo < 0 or m_hi >= MAX_BINOMIAL_TRIALS:
        raise ValueError("m must be in [0, 2^27)")
    if not (p_lo >= 0.0 and p_hi <= 1.0):
        raise ValueError("p must be in [0, 1]")
    if out is None:
        out = np.empty(shape, dtype=np.int64)
    elif not (
        isinstance(out, np.ndarray) and out.dtype == np.int64 and out.shape == shape
        and out.flags.c_contiguous and out.flags.writeable
    ):
        raise ValueError(
            f"out must be a writeable C-contiguous int64 array of shape {shape}, got "
            f"{getattr(out, 'dtype', type(out).__name__)} {np.shape(out)}"
        )
    return m, p, out, (m_lo, m_hi, p_lo, p_hi)


def _draw_mixed(m: np.ndarray, p: np.ndarray, words: np.ndarray, out: np.ndarray) -> None:
    """Draw a side of many (m, p) pairs from its lanes' words (flat), into ``out``.

    The lanes are put together by (m, p) with a lexsort, and ``_pair_rule``
    draws each group.  The CDFs of all pairs are built lazily from one
    ``analytics._windows`` call and none is kept; a group of at least
    _GUIDED_MIN_LANES lanes searches a bucket table sized to it, a smaller
    one ``np.searchsorted`` alone.
    """
    m, p = (np.broadcast_to(a, out.shape).reshape(-1) for a in (m, p))
    order = np.lexsort((p, m))
    m, p, words = m[order], p[order], words[order]
    new_pair = np.r_[True, (np.diff(m) != 0) | (np.diff(p) != 0)]
    bounds = np.r_[np.flatnonzero(new_pair), m.size]
    uniforms = None
    if np.diff(bounds).min() < _GUIDED_MIN_LANES:
        # the binary search of small groups reads uniforms, made here for
        # every lane at once: two passes per group took 3-4 us each, 1.8 ms
        # of a call of 508 groups of about 130 lanes
        uniforms = (words >> np.uint64(11)) * 2.0**-53
    pair_m, pair_p = m[new_pair], p[new_pair]
    windows = analytics._windows(pair_m, np.minimum(pair_p, 1.0 - pair_p), _SAMPLING_LOG_TAIL)
    draws = np.empty(m.size, dtype=np.int64)
    bounds = bounds.tolist()
    for a, b, m_g, p_g, (lo, log_pmf) in zip(
        bounds, bounds[1:], pair_m.tolist(), pair_p.tolist(), windows
    ):
        group = draws[a:b]
        if _pair_rule(m_g, p_g, group) is None:
            continue
        cdf = _cdf(log_pmf)
        if group.size < _GUIDED_MIN_LANES:
            group[:] = np.searchsorted(cdf, uniforms[a:b], side="right")
        else:
            # at most one entry per two lanes: the table's two sorted
            # searches over its bucket edges cost no more than the lanes'
            table = _bucket_table(cdf, 1 << (group.size.bit_length() - 2))
            _search(cdf, table, words[a:b], group)
        _pair_draws(m_g, p_g, lo, group)
    out.reshape(-1)[order] = draws


def _draw_sides(sides, master_seed: int, trial, round_index, group) -> list[np.ndarray]:
    """Exact Bin(m, p) draws of up to four sides of one block per lane; side s reads word s.

    ``sides`` holds one (m, p, out) per side, each checked as
    ``sample_binomial_lanes`` checks its one side, and the outs are
    returned.  Side s of a lane inverts its CDF at the uniform of word s of
    the lane's block (trial, 0, round_index, group), and ``_stream`` makes
    each piece of the blocks once for all sides.  A side whose m and p each
    hold one value searches its word of each piece as the piece is made,
    with the pair's cached CDF and table (``_one_pair_cdf``), straight into
    its out.  A mixed side takes its words into its row of the workspace,
    and ``_draw_mixed`` draws it after the stream.  A side whose every draw
    is certain reads no word, and a call of such sides makes no block.
    """
    trial = analytics._integer_array(trial, "trial", np.uint64)
    round_index = analytics._integer_array(round_index, "round_index", np.uint64)
    group = analytics._integer_array(group, "group", np.uint64)
    checked = [_checked_side(m, p, out, trial.shape) for m, p, out in sides]
    outs = [out for _, _, out, _ in checked]
    if not trial.size:
        return outs

    # (word, cdf, table, row) per side that reads its word: a one-pair side
    # searches into its out row, a mixed one (cdf None) copies into its
    # row of the workspace's words
    streamed, after, words = [], [], None
    for s, (m, p, out, (m_lo, m_hi, p_lo, p_hi)) in enumerate(checked):
        if m_lo == m_hi and p_lo == p_hi:
            flat = out.reshape(-1)
            p_cdf = _pair_rule(m_hi, p_hi, flat)
            if p_cdf is not None:
                lo, cdf, table = _one_pair_cdf(m_hi, p_cdf)
                streamed.append((s, cdf, table, flat))
                after.append(functools.partial(_pair_draws, m_hi, p_hi, lo, flat))
        elif m_hi == 0 or p_hi == 0.0 or p_lo == 1.0:
            # every draw is certain, as ``_pair_rule`` takes it: no word is read
            out[...] = m if p_lo == 1.0 else 0
        else:
            # words before the sort: taken after it, Philox took 0.81 s against
            # 0.58 s of a per-agent run (n = 4, cProfile, 2-core x86-64)
            words = _lane_arrays(trial.size)[0] if words is None else words
            streamed.append((s, None, None, words[s]))
            after.append(functools.partial(_draw_mixed, m, p, words[s], out))

    def visit(a: int, b: int, blocks: np.ndarray) -> None:
        for s, cdf, table, row in streamed:
            if cdf is None:
                row[a:b] = blocks[:, s]
            else:
                _search(cdf, table, blocks[:, s], row[a:b])

    if streamed:
        _stream(trial.size, master_seed, trial, round_index, group, visit)
    for finish in after:
        finish()
    return outs


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
    lane inverts the CDF at the uniform of word 0 of its own counter block
    (trial, 0, round_index, group).  m and p are checked on the arrays as
    passed; m must hold integers, and ``trial``, ``round_index`` and
    ``group`` nonnegative integers (bool and float are refused).  The lanes
    are grouped by (m, p), with no sort when m and p each hold one value,
    and ``_pair_rule`` draws each group.  A call whose every draw is
    certain (m = 0, p = 0 or p = 1 throughout) reads no word.  The draws go
    into ``out`` and are returned: a C-contiguous int64 array of the trial
    lanes' shape, such as a row the caller reuses from call to call, or a
    new array when ``out`` is None.  ``out`` gets the bytes a call without
    it returns, and it must not share memory with ``m`` or ``p``.  This is
    the one-side case of ``_draw_sides``.
    """
    (out,) = _draw_sides([(m, p, out)], master_seed, trial, round_index, group)
    return out
