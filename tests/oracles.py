"""Independent brute-force oracles used by the test suite.

Everything here is deliberately naive: direct enumeration, exact integer
combinatorics, or scipy's own binomial distribution, with none of the
log-space machinery of the package under test and no import from it.
``chain_mpmath`` advances the exact chain in 50-digit arithmetic.
The Philox block function is written out in uint64 arithmetic, apart from
the numpy generator that the package uses.  The one exception is
``chain_forward_loop``, a reference for the exact chain's bookkeeping,
which takes the package's evaluators as arguments.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np
from scipy.stats import binom


def binomial_pmf_direct(m: int, p: float, k: int) -> float:
    """PMF via exact integer binomial coefficients."""
    return math.comb(m, k) * p**k * (1.0 - p) ** (m - k)


def comparison_direct(m1: int, m2: int, p: float, offset: int) -> float:
    """P{Bin(m1,p) + offset >= Bin(m2,p)} by summing the joint PMF."""
    total = 0.0
    for k1 in range(m1 + 1):
        for k2 in range(m2 + 1):
            if k1 + offset >= k2:
                total += binomial_pmf_direct(m1, p, k1) * binomial_pmf_direct(m2, p, k2)
    return total


def comparison_fraction(m1: int, m2: int, p: Fraction, offset: int) -> Fraction:
    """Same comparison in exact rational arithmetic (for rational p)."""
    q = 1 - p

    def pmf(m: int, k: int) -> Fraction:
        return math.comb(m, k) * p**k * q ** (m - k)

    total = Fraction(0)
    for k1 in range(m1 + 1):
        for k2 in range(m2 + 1):
            if k1 + offset >= k2:
                total += pmf(m1, k1) * pmf(m2, k2)
    return total


def comparison_mpmath(m1: int, m2: int, p, offset: int, dps: int = 40):
    """P{Bin(m1,p) + offset >= Bin(m2,p)} in mpmath at ``dps`` digits.

    ``p`` is converted with mpmath.mpf, so a string such as "0.8" is taken
    exactly.  Each PMF starts from a log-gamma value at the low end of the
    window mean +- (40 sd + 60) and follows the ratio recurrence; the mass
    outside the window is below 1e-340.  Needs mpmath (imported here so the
    other oracles do not).
    """
    import mpmath

    with mpmath.workdps(dps + 10):
        p = mpmath.mpf(p)

        def window(m):
            width = 40 * mpmath.sqrt(m * p * (1 - p)) + 60
            lo = max(0, int(mpmath.floor(m * p - width)))
            hi = min(m, int(mpmath.ceil(m * p + width)))
            term = mpmath.exp(
                mpmath.loggamma(m + 1) - mpmath.loggamma(lo + 1) - mpmath.loggamma(m - lo + 1)
                + lo * mpmath.log(p) + (m - lo) * mpmath.log(1 - p)
            )
            ratio = p / (1 - p)
            terms = [term]
            for k in range(lo, hi):
                term = term * (m - k) / (k + 1) * ratio
                terms.append(term)
            return lo, terms

        lo1, pmf1 = window(m1)
        lo2, pmf2 = window(m2)
        cdf2, acc = [], mpmath.mpf(0)
        for t in pmf2:
            acc += t
            cdf2.append(acc)
        hi2 = lo2 + len(cdf2) - 1
        total = mpmath.mpf(0)
        for i, t in enumerate(pmf1):
            j = lo1 + i + offset
            if j >= hi2:
                total += t
            elif j >= lo2:
                total += t * cdf2[j - lo2]
        return +total


def global_pattern_round_law(zeros: int, ones: int, q: float) -> list[float]:
    """Exact one-round law of the zero-count by enumerating EVERY loss mask.

    One mask covers all 2n(2n-1) directed messages at once; exponential in
    the square of the agent count, usable only for 2n = 2 or 4.  Exists to
    validate the package's receiver-factorized enumeration.
    """
    total = zeros + ones
    bits = [0] * zeros + [1] * ones
    n_msgs = total * (total - 1)
    law = [0.0] * (total + 1)
    # message slot (i, j), j != i: the message sent by j to receiver i
    slots = [(i, j) for i in range(total) for j in range(total) if j != i]
    for mask in range(1 << n_msgs):
        delivered = bin(mask).count("1")
        weight = (1.0 - q) ** delivered * q ** (n_msgs - delivered)
        next_zeros = 0
        for i in range(total):
            n0 = 1 if bits[i] == 0 else 0
            n1 = 1 - n0
            for s, (recv, sender) in enumerate(slots):
                if recv == i and (mask >> s) & 1:
                    if bits[sender] == 0:
                        n0 += 1
                    else:
                        n1 += 1
            if n0 > n1 or (n0 == n1 and bits[i] == 0):
                next_zeros += 1
        law[next_zeros] += weight
    return law


def normal_cdf_quadrature(t: float, steps: int = 200_000) -> float:
    """Phi(t) by Simpson quadrature over the density (independent of erf)."""
    lo = min(t - 12.0, -12.0)
    if t <= lo:
        return 0.0
    h = (t - lo) / steps
    xs = [lo + i * h for i in range(steps + 1)]
    dens = [math.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi) for x in xs]
    acc = dens[0] + dens[-1] + 4.0 * sum(dens[1:-1:2]) + 2.0 * sum(dens[2:-1:2])
    return acc * h / 3.0


# Binomial terms and chain states below this mass are dropped; what that
# discards is of order (2n + 1) * 1e-25 per round, far under double
# resolution (a cutoff of 1e-35 moves P3(10^4, 0.8) by 1.3e-14).
_CHAIN_CUTOFF = 1e-25


def _binomial_window(m: int, p: float) -> tuple[int, np.ndarray]:
    """(first index, PMF values) of Bin(m, p) where the PMF exceeds the cutoff."""
    pmf = binom.pmf(np.arange(m + 1), m, p)
    keep = np.flatnonzero(pmf > _CHAIN_CUTOFF)
    return int(keep[0]), pmf[keep[0] : keep[-1] + 1]


def _keep_adopt_zero(z: int, o: int, p: float) -> tuple[float, float]:
    """(P{0 -> 0}, P{1 -> 0}) at counts (z, o) with delivery probability p.

    A zero-holder keeps 0 iff Bin(z-1, p) + 1 >= Bin(o, p) (ties keep); a
    one-holder adopts 0 iff Bin(z, p) >= Bin(o-1, p) + 2.  Each is summed
    over the PMF of the right-hand binomial, with scipy's survival function
    for the left-hand one.
    """
    keep = adopt = 0.0
    if z > 0:
        lo, pmf = _binomial_window(o, p)
        k = lo + np.arange(pmf.size)
        keep = float(np.sum(pmf * binom.sf(k - 2, z - 1, p)))
    if o > 0:
        lo, pmf = _binomial_window(o - 1, p)
        k = lo + np.arange(pmf.size)
        adopt = float(np.sum(pmf * binom.sf(k + 1, z, p)))
    return min(keep, 1.0), min(adopt, 1.0)


def half_delivery_tail(total: int) -> list[int]:
    """N with P{Bin(total - 1, 1/2) >= s} = N[s] / 2^(total - 1) exactly, s = 0..total + 1.

    At q = 1/2 this one tail T gives every keep and adopt of a
    ``total``-agent system: o - Bin(o, 1/2) is again Bin(o, 1/2), so
    keep(z) = P{Bin(z - 1) + 1 >= Bin(o)} = T(o - 1) and adopt(z) =
    P{Bin(z) >= Bin(o - 1) + 2} = T(o + 1), with o = total - z and T(s) = 1
    for s <= 0.  Exact integer binomial coefficients, summed from the top.
    """
    m = total - 1
    coefficients = [1]
    for k in range(m):
        coefficients.append(coefficients[-1] * (m - k) // (k + 1))
    tail = [0] * (total + 2)
    for s in range(m, -1, -1):
        tail[s] = tail[s + 1] + coefficients[s]
    return tail


def consensus_from_tie_probability(n: int, q: float, rounds: int) -> float:
    """P{consensus after ``rounds`` rounds} for 2n agents started from a tie.

    The zero-count is advanced as a Markov chain whose row at z is the law
    of Bin(z, p00) + Bin(2n - z, p10); the last round is done in closed
    form, P{consensus | z} = p00^z p10^o + (1 - p00)^z (1 - p10)^o.  Uses
    only scipy.stats.binom and numpy.  Cost grows about like n^2 per round
    past the first, so n = 10^4 at three rounds takes minutes.
    """
    if n < 1 or rounds < 1:
        raise ValueError("n and rounds must be >= 1")
    total = 2 * n
    p = 1.0 - q
    dist = np.zeros(total + 1)
    dist[n] = 1.0
    for _ in range(rounds - 1):
        new = np.zeros(total + 1)
        for z in np.flatnonzero(dist > _CHAIN_CUTOFF):
            z = int(z)
            p00, p10 = _keep_adopt_zero(z, total - z, p)
            lo0, pmf0 = _binomial_window(z, p00)
            lo1, pmf1 = _binomial_window(total - z, p10)
            row = np.convolve(pmf0, pmf1)
            new[lo0 + lo1 : lo0 + lo1 + row.size] += dist[z] * row
        dist = new
    result = 0.0
    for z in np.flatnonzero(dist > _CHAIN_CUTOFF):
        z = int(z)
        o = total - z
        p00, p10 = _keep_adopt_zero(z, o, p)
        result += dist[z] * (p00**z * p10**o + (1.0 - p00) ** z * (1.0 - p10) ** o)
    return float(result)


def chain_forward_loop(
    n: int, delta: int, q: float, rounds: int, transition_values, windows, decided_ends
):
    """(P{consensus}, P{majority consensus}) after each of rounds 1..``rounds``.

    The exact chain's first bookkeeping, kept as the byte-for-byte
    reference for its bounded-memory form: keep/adopt at every z = 0..2n
    from one ``transition_values(2n, zs, q)`` call, every row law
    Bin(z, p_keep) * Bin(2n - z, p_adopt) built from ``windows(m, p)`` (the
    package's ``(lo, log pmf)`` windows) and stored, and each round adding
    the stored rows of all live z, in ascending order, into a new
    distribution started from a point mass at n + delta.  The value after
    a round adds, in the same order, each live z's masses at counts 0 and
    2n: ``decided_ends(2n, live, q)`` (the package's end-mass rule for a
    last round, NaN where it does not decide) where given, else the row's
    own end entries.
    """
    total = 2 * n
    p00, p10 = transition_values(total, np.arange(total + 1), q)
    dist = np.zeros(total + 1)
    dist[n + delta] = 1.0
    rows: dict[int, tuple[int, np.ndarray]] = {}
    out = []
    for _ in range(rounds):
        live = np.flatnonzero(dist > 0.0)
        missing = np.array([z for z in live.tolist() if z not in rows], dtype=np.int64)
        laws = windows(
            np.column_stack([missing, total - missing]).ravel(),
            np.column_stack([p00[missing], p10[missing]]).ravel(),
        )
        for z, (lo_keep, keep), (lo_gain, gain) in zip(missing.tolist(), laws, laws):
            rows[z] = lo_keep + lo_gain, np.convolve(np.exp(keep), np.exp(gain))
        decided = decided_ends(total, live, q)
        new = np.zeros(total + 1)
        at_zero = at_total = 0.0
        for i, z in enumerate(live.tolist()):
            lo, part = rows[z]
            new[lo : lo + len(part)] += dist[z] * part
            if np.isnan(decided[0, i]):
                end_zero = part[0] if lo == 0 else 0.0
                end_total = part[-1] if lo + len(part) - 1 == total else 0.0
            else:
                end_zero, end_total = decided[:, i]
            at_zero += dist[z] * end_zero
            at_total += dist[z] * end_total
        dist = new
        p_consensus = at_zero + at_total
        p_majority = at_total if delta > 0 else at_zero if delta < 0 else p_consensus
        out.append((min(p_consensus, 1.0), min(p_majority, 1.0)))
    return out


def comparison_exact(m1: int, m2: int, p, offset: int, dps: int = 40):
    """``comparison_mpmath`` as an mpf; at p = 0 or 1, Bin(m, p) = p m and the value is 0 or 1."""
    import mpmath

    if p in (0, 1):
        return mpmath.mpf(int(p * m1 + offset >= p * m2))
    return comparison_mpmath(m1, m2, p, offset, dps)


@functools.lru_cache(maxsize=32)
def _mpmath_rows(total: int, q: float, dps: int) -> tuple:
    """Row laws of the zero-count chain at every z = 0..total, in mpmath at ``dps`` digits.

    keep, adopt and both complements are each summed directly with
    delivery probability 1 - q (q taken exactly), so a probability near 1
    keeps its distance from 1.
    """
    import mpmath

    with mpmath.workdps(dps + 10):
        p = 1 - mpmath.mpf(q)

        def pmf(m, x, not_x):
            return [mpmath.binomial(m, k) * x**k * not_x ** (m - k) for k in range(m + 1)]

        rows = []
        for z in range(total + 1):
            o = total - z
            keep, keep_c = (0, 1) if z == 0 else (
                comparison_exact(z - 1, o, p, 1, dps), comparison_exact(o, z - 1, p, -2, dps)
            )
            adopt, adopt_c = (0, 1) if o == 0 else (
                comparison_exact(z, o - 1, p, -2, dps), comparison_exact(o - 1, z, p, 1, dps)
            )
            kept, gained = pmf(z, keep, keep_c), pmf(o, adopt, adopt_c)
            row = [mpmath.mpf(0)] * (total + 1)
            for i, a in enumerate(kept):
                for j, b in enumerate(gained):
                    row[i + j] += a * b
            rows.append(row)
        return tuple(rows)


def chain_mpmath(n: int, delta: int, q: float, rounds: int, dps: int = 50):
    """(P{consensus}, P{majority consensus}) after each of rounds 1..``rounds``, as mpf.

    The zero-count chain from a point mass at n + delta, every row law
    stored in full at ``dps`` digits (``_mpmath_rows``) and the whole law
    advanced each round.  For 2n up to about 40: the rows cost O((2n)^3).
    Needs mpmath.
    """
    import mpmath

    total = 2 * n
    rows = _mpmath_rows(total, q, dps)
    with mpmath.workdps(dps + 10):
        dist = [mpmath.mpf(0)] * (total + 1)
        dist[n + delta] = mpmath.mpf(1)
        out = []
        for _ in range(rounds):
            dist = [
                mpmath.fsum(dist[z] * rows[z][k] for z in range(total + 1) if dist[z])
                for k in range(total + 1)
            ]
            both = dist[0] + dist[total]
            out.append((both, dist[total] if delta > 0 else dist[0] if delta < 0 else both))
        return out


# --------------------------------------------------------------------------
# Philox-4x64-10 (Salmon et al., SC'11) in numpy uint64 arithmetic, with the
# 64-bit high multiply emulated from 32-bit halves: the reference for the
# package's stream, which numpy's C generator computes.
# --------------------------------------------------------------------------

_MASK32 = np.uint64(0xFFFFFFFF)
_SH32 = np.uint64(32)
_MASK64 = (1 << 64) - 1

def clopper_pearson_mpmath(successes: int, trials: int, confidence: float, dps: int = 50):
    """Clopper-Pearson bounds as mpf roots of the regularized incomplete beta at ``dps`` digits.

    With alpha/2 = (1 - confidence)/2 exactly, low solves P{Bin(trials, p)
    >= successes} = I_p(successes, trials - successes + 1) = alpha/2, and
    1 - high solves P{Bin(trials, high) <= successes} = I_x(trials -
    successes, successes + 1) = alpha/2; 0 and trials successes give 0 and 1.
    scipy's beta quantile only brackets each root, to 1e-8 relative.
    """
    import mpmath
    from scipy.stats import beta

    with mpmath.workdps(dps):
        half_alpha = (1 - mpmath.mpf(confidence)) / 2

        def root(a: int, b: int, guess: float):
            x0, width = mpmath.mpf(guess), mpmath.mpf(10) ** -8
            return mpmath.findroot(
                lambda x: mpmath.betainc(a, b, 0, x, regularized=True) - half_alpha,
                (x0 * (1 - width), x0 * (1 + width)), solver="anderson",
            )

        s, n, h = successes, trials, float(half_alpha)
        low = mpmath.mpf(0) if s == 0 else root(s, n - s + 1, beta.ppf(h, s, n - s + 1))
        high = mpmath.mpf(1) if s == n else 1 - root(n - s, s + 1, beta.ppf(h, n - s, s + 1))
        return +low, +high


_PHILOX_M0 = 0xD2E7470EE14C6C93
_PHILOX_M1 = 0xCA5A826395121157
_WEYL_0 = 0x9E3779B97F4A7C15
_WEYL_1 = 0xBB67AE8584CAA73B
_ROUNDS = 10


def _make_mulhi(a: int):
    a_lo = np.uint64(a & 0xFFFFFFFF)
    a_hi = np.uint64(a >> 32)

    def mulhi(x: np.ndarray) -> np.ndarray:
        x_lo = x & _MASK32
        x_hi = x >> _SH32
        t1 = a_hi * x_lo
        t2 = a_lo * x_hi
        carry = (((a_lo * x_lo) >> _SH32) + (t1 & _MASK32) + (t2 & _MASK32)) >> _SH32
        return a_hi * x_hi + (t1 >> _SH32) + (t2 >> _SH32) + carry

    return mulhi


_mulhi_m0 = _make_mulhi(_PHILOX_M0)
_mulhi_m1 = _make_mulhi(_PHILOX_M1)
_M0 = np.uint64(_PHILOX_M0)
_M1 = np.uint64(_PHILOX_M1)


@functools.lru_cache(maxsize=64)
def _round_keys(key0: int, key1: int) -> tuple[tuple[np.uint64, np.uint64], ...]:
    keys = []
    for r in range(_ROUNDS):
        keys.append(
            (
                np.uint64((key0 + r * _WEYL_0) & _MASK64),
                np.uint64((key1 + r * _WEYL_1) & _MASK64),
            )
        )
    return tuple(keys)


def philox4x64(c0, c1, c2, c3, key0: int, key1: int):
    """Philox-4x64-10 block function, vectorized over counter arrays."""
    c0, c1, c2, c3 = np.broadcast_arrays(
        np.atleast_1d(np.asarray(c0, dtype=np.uint64)),
        np.atleast_1d(np.asarray(c1, dtype=np.uint64)),
        np.atleast_1d(np.asarray(c2, dtype=np.uint64)),
        np.atleast_1d(np.asarray(c3, dtype=np.uint64)),
    )
    for k0, k1 in _round_keys(key0 & _MASK64, key1 & _MASK64):
        hi0 = _mulhi_m0(c0)
        lo0 = _M0 * c0
        hi1 = _mulhi_m1(c2)
        lo1 = _M1 * c2
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return c0, c1, c2, c3


# --------------------------------------------------------------------------
# CDF inversion
# --------------------------------------------------------------------------


def cdf_search(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Least k with u < cdf[k] at each uniform of ``u``, by plain binary search."""
    return np.searchsorted(cdf, u, side="right")


def binomial_inversion(m: int, p: float, u: np.ndarray) -> np.ndarray:
    """Bin(m, p) draws by inverting scipy's CDF over k = 0..m at each uniform of ``u``.

    Like the package's sampler, p > 1/2 draws m - Bin(m, 1 - p) at the same
    uniform, so both read a uniform the same way.
    """
    flipped = p > 0.5
    q = 1.0 - p if flipped else p
    cdf = binom.cdf(np.arange(m + 1), m, q)
    cdf[-1] = 1.0
    draws = cdf_search(cdf, u)
    return m - draws if flipped else draws
