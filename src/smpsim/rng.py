"""Counter-based random streams and exact binomial sampling.

Every random draw in this package is a pure function of
``(master_seed, trial, round, group, slot)``.  The generator is
Philox-4x64 with 10 rounds, keyed by ``(master_seed mod 2^64, _DOMAIN)``,
with the counter words carrying ``(trial, slot, round, group)``.  Distinct
paths therefore give statistically independent streams, and results are
bit-identical no matter how trials are batched or scheduled across workers.

numpy's own Philox bit generator computes the blocks.  Trial is the low
counter word, so a chunk of consecutive trials on one path is a run of
consecutive counters: one ``random_raw`` call.  numpy keeps the output of
its bit generators stable across releases, so the stream does not depend on
the numpy version.  The test suite checks the blocks against a Philox
written out in uint64 arithmetic, and that one against numpy.

Binomial draws use exact CDF inversion for m <= 1024 (one uniform per
draw, table cached per (m, p)) and transformed rejection with an exact
log-PMF acceptance test above that; rejection lanes consume uniforms only
from their own counter block, so retries never perturb other lanes.

Both samplers take their log-PMF from one log-factorial table
(``_log_factorial_pmf``) rather than from the Loader form in
``analytics``.  The table form costs three lookups per term, where Loader's
form evaluates two series, and transformed rejection evaluates it for
every candidate.  A variant on Loader's ``_log_pmf`` drew the same values
over 3M lanes (14 (m, p) cases and mixed lanes), but its rejection path
took 0.45 s instead of 0.31 s per 3e5 lanes at (m, p) = (1600, 0.41), and
0.44 s instead of 0.24 s at (20000, 0.5) (best of 5, 2-core x86-64 host).
"""

from __future__ import annotations

import functools
import threading

import numpy as np
from scipy.special import gammaln

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
    per run: lanes, sorted by (c3, c2, c1, c0), that share (c1, c2, c3) and
    whose c0 values step by 1 to _RUN_GAP.  The call generates every block
    from the run's first c0 to its last; numpy adds 1 to its 256-bit counter
    before each block, so it starts one below.  Lanes already in that order
    are not sorted, and a run of consecutive lanes is not indexed.
    """
    counters = [np.asarray(c, dtype=np.uint64) for c in (c0, c1, c2, c3)]
    shape = np.broadcast_shapes(*(c.shape for c in counters)) or (1,)
    lanes = [np.broadcast_to(c, shape).reshape(-1) for c in counters]
    if not lanes[0].size:
        return tuple(np.empty(shape, dtype=np.uint64) for _ in range(4))
    high_fixed = all(np.all(c == c.flat[0]) for c in counters[1:])
    in_order = high_fixed and np.all(lanes[0][1:] >= lanes[0][:-1])
    if not in_order:
        order = np.lexsort(lanes)
        lanes = [c[order] for c in lanes]
    low, step = lanes[0], np.diff(lanes[0])
    split = (step == 0) | (step > _RUN_GAP)
    if not high_fixed:
        for c in lanes[1:]:
            split |= np.diff(c) != 0
    starts = [0, *(np.flatnonzero(split) + 1).tolist()]
    key = np.array([key0 & _MASK64, key1 & _MASK64], dtype=np.uint64)
    runs = []
    for lo, hi in zip(starts, starts[1:] + [low.size]):
        below = sum(int(c[lo]) << (64 * i) for i, c in enumerate(lanes)) - 1
        counter = np.array([(below >> (64 * i)) & _MASK64 for i in range(4)], dtype=np.uint64)
        count = int(low[hi - 1] - low[lo]) + 1
        blocks = np.random.Philox(counter=counter, key=key).random_raw(4 * count).reshape(-1, 4)
        runs.append(blocks if count == hi - lo else blocks[low[lo:hi] - low[lo]])
    words = runs[0] if len(runs) == 1 else np.concatenate(runs)
    if not in_order:
        words[order] = words.copy()
    return tuple(words[:, i].reshape(shape) for i in range(4))


def _to_uniform(words: np.ndarray) -> np.ndarray:
    """Map 64-bit words to doubles in [0, 1) using the top 53 bits."""
    return (words >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


def uniform_lanes(
    master_seed: int,
    trial,
    round_index,
    group,
    slot=0,
    n_words: int = 1,
) -> tuple[np.ndarray, ...]:
    """Per-lane uniforms in [0, 1): words ``0..n_words-1`` of one counter block."""
    if not 1 <= n_words <= 4:
        raise ValueError(f"a block holds 4 words, asked for {n_words}")
    words = philox4x64(trial, slot, round_index, group, master_seed & _MASK64, _DOMAIN)
    return tuple(_to_uniform(w) for w in words[:n_words])


# --------------------------------------------------------------------------
# Binomial sampling
# --------------------------------------------------------------------------

_INVERSION_MAX_M = 1024
_REJECTION_MIN_MEAN = 10.0

_LOG_FACT_LOCK = threading.Lock()
_LOG_FACT = np.zeros(1)  # _LOG_FACT[i] = log(i!)


def _log_factorials(upto: int) -> np.ndarray:
    """Table t with t[i] = log(i!) for i = 0..upto < MAX_BINOMIAL_TRIALS.

    The table grows geometrically up to MAX_BINOMIAL_TRIALS entries, so it
    never holds more than 8 * 2^27 bytes.
    """
    global _LOG_FACT
    table = _LOG_FACT
    if len(table) > upto:
        return table
    with _LOG_FACT_LOCK:
        if len(_LOG_FACT) <= upto:
            size = min(max(upto + 1, 2 * len(_LOG_FACT), 1024), MAX_BINOMIAL_TRIALS)
            _LOG_FACT = gammaln(np.arange(1, size + 1, dtype=np.float64))
        return _LOG_FACT


def _log_factorial_pmf(lf: np.ndarray, m, k: np.ndarray, log_p, log_q, idx=()):
    """log P{Bin(m, p) = k} = lf[m] - lf[k] - lf[m-k] + k log p + (m-k) log(1-p).

    ``lf`` is a ``_log_factorials`` table covering m, and ``k`` holds
    integral values (integer or float dtype).  ``m``, ``log_p`` (log p) and
    ``log_q`` (log(1 - p)) are numpy scalars or per-lane arrays read at
    ``idx``, all of them by default; each is indexed where its term is
    formed, so no indexed copy outlives its term.
    """
    k_int = k.astype(np.int64)
    m = m[idx]
    return lf[m] - lf[k_int] - lf[m - k_int] + k * log_p[idx] + (m - k) * log_q[idx]


@functools.lru_cache(maxsize=256)
def _inversion_cdf(m: int, p: float) -> np.ndarray:
    """CDF table for inversion sampling; truncated in the far right tail.

    For m > _INVERSION_MAX_M this path is only used when m*p < 10, so the
    table covers the mean plus a huge tail margin; the truncated mass is
    far below the 2^-53 resolution of a double uniform.
    """
    if m <= _INVERSION_MAX_M:
        k_max = m
    else:
        k_max = min(m, int(np.ceil(m * p + 40.0 * np.sqrt(m * p * (1.0 - p)) + 50.0)))
    k = np.arange(k_max + 1)
    log_pmf = _log_factorial_pmf(_log_factorials(m), np.int64(m), k, np.log(p), np.log1p(-p))
    cdf = np.cumsum(np.exp(log_pmf))
    cdf[-1] = 1.0
    cdf.setflags(write=False)
    return cdf


def _sample_inversion(m, p, u, out, lanes) -> None:
    """Exact CDF inversion for lanes grouped by (m, p); one uniform each."""
    m_sel = m[lanes]
    p_sel = p[lanes]
    order = np.lexsort((p_sel, m_sel))
    m_ord = m_sel[order]
    p_ord = p_sel[order]
    boundaries = np.flatnonzero(np.r_[True, (np.diff(m_ord) != 0) | (np.diff(p_ord) != 0)])
    boundaries = np.r_[boundaries, len(m_ord)]
    u_ord = u[lanes][order]
    result = np.empty(len(m_ord), dtype=np.int64)
    for i in range(len(boundaries) - 1):
        lo, hi = boundaries[i], boundaries[i + 1]
        cdf = _inversion_cdf(int(m_ord[lo]), float(p_ord[lo]))
        result[lo:hi] = np.searchsorted(cdf, u_ord[lo:hi], side="right")
    out[lanes[order]] = result


def _sample_btrs(m, p, master_seed, trial, round_index, group, out, lanes, u0, v0) -> None:
    """Transformed rejection for large m with an exact log-PMF acceptance test.

    Envelope parameters follow the published method for binomials with
    m * p >= 10 and p <= 1/2; the acceptance comparison itself uses exact
    log factorials, so accepted draws follow Bin(m, p) exactly.  Attempt
    ``i`` of a lane reads slot ``i`` of that lane's own counter block, so
    the number of retries in one lane never shifts draws in any other.
    """
    m_int = m[lanes]
    m_sel = m_int.astype(np.float64)
    p_sel = p[lanes]
    stddev = np.sqrt(m_sel * p_sel * (1.0 - p_sel))
    b = 1.15 + 2.53 * stddev
    a = -0.0873 + 0.0248 * b + 0.01 * p_sel
    c = m_sel * p_sel + 0.5
    alpha = (2.83 + 5.1 / b) * stddev
    log_p = np.log(p_sel)
    log_q = np.log1p(-p_sel)
    mode = np.floor((m_sel + 1.0) * p_sel)
    lf = _log_factorials(int(m_int.max()))
    log_pmf_mode = _log_factorial_pmf(lf, m_int, mode, log_p, log_q)
    group_is_scalar = np.isscalar(group) or np.ndim(group) == 0

    pending = np.arange(len(lanes))
    attempt = 0
    while pending.size:
        if attempt == 0:
            u = u0[lanes[pending]]
            v = v0[lanes[pending]]
        else:
            g = group if group_is_scalar else np.asarray(group)[lanes[pending]]
            u, v = uniform_lanes(
                master_seed, trial[lanes[pending]], round_index, g,
                slot=np.uint64(attempt), n_words=2,
            )
        u = u - 0.5
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            us = 0.5 - np.abs(u)
            k = np.floor((2.0 * a[pending] / us + b[pending]) * u + c[pending])
            in_range = (us > 0.0) & (k >= 0.0) & (k <= m_sel[pending])
            k_safe = np.where(in_range, k, 0.0)
            log_accept = (
                np.log(v) + np.log(alpha[pending])
                - np.log(a[pending] / (us * us) + b[pending])
            )
            log_ratio = (
                _log_factorial_pmf(lf, m_int, k_safe, log_p, log_q, pending)
                - log_pmf_mode[pending]
            )
            ok = in_range & (log_accept <= log_ratio)
        out[lanes[pending[ok]]] = k_safe[ok].astype(np.int64)
        pending = pending[~ok]
        attempt += 1
        if attempt > 10_000:
            raise RuntimeError("rejection sampler failed to terminate")


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
    lane draws from its own counter block.
    """
    trial = np.asarray(trial, dtype=np.uint64)
    m = np.broadcast_to(np.asarray(m, dtype=np.int64), trial.shape).copy()
    p = np.broadcast_to(np.asarray(p, dtype=np.float64), trial.shape).copy()
    if np.any((m < 0) | (m >= MAX_BINOMIAL_TRIALS)):
        raise ValueError("m must be in [0, 2^27)")
    if np.any((p < 0.0) | (p > 1.0)):
        raise ValueError("p must be in [0, 1]")

    flipped = p > 0.5
    p_eff = np.where(flipped, 1.0 - p, p)
    out = np.zeros(trial.shape, dtype=np.int64)

    active = (m > 0) & (p_eff > 0.0)
    if np.any(active):
        mean = m * p_eff
        inversion = active & ((m <= _INVERSION_MAX_M) | (mean < _REJECTION_MIN_MEAN))
        rejection = active & ~inversion
        u0, v0 = uniform_lanes(master_seed, trial, np.uint64(round_index), group, n_words=2)
        if np.any(inversion):
            _sample_inversion(m, p_eff, u0, out, np.flatnonzero(inversion))
        if np.any(rejection):
            _sample_btrs(
                m, p_eff, master_seed, trial, np.uint64(round_index), group,
                out, np.flatnonzero(rejection), u0, v0,
            )
    return np.where(flipped, m - out, out)

