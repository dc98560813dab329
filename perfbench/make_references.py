"""Regenerate ``references.json``, the benchmark's correctness references.

    PYTHONPATH=src python3 perfbench/make_references.py

* ``transition`` and ``tie_return``: keep/adopt probabilities and the
  one-round return-to-tie probability, in mpmath at 50 significant digits
  and stored to 40.  Binomial terms come from a ratio recurrence started
  at a log-gamma value, summed over a window of 40 standard deviations
  plus 50 around each mean (the mass outside is below 1e-340).
* ``chain``: exact-chain consensus probabilities from an independent
  double-precision chain built on ``scipy.stats.binom`` in linear space.
  40-digit chain references at 2n = 1000 are out of reach for mpmath
  (about 10^9 multi-precision products per q), so these gate failures
  only and do not feed ``correct_digits``.
"""

from __future__ import annotations

import datetime
import json
import platform
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import scipy
from scipy.stats import binom

import one_pass

HERE = Path(__file__).resolve().parent

DPS = 50
STORED_DIGITS = 40


def mp_binomial_window(m: int, p) -> tuple[int, list]:
    """(lo, [pmf(lo), ..., pmf(hi)]) of Bin(m, p) over mean +- (40 sd + 50)."""
    width = 40 * mpmath.sqrt(m * p * (1 - p)) + 50
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


def mp_comparison(m1: int, m2: int, p, offset: int):
    """P{Bin(m1, p) + offset >= Bin(m2, p)} for independent binomials."""
    lo1, pmf1 = mp_binomial_window(m1, p)
    lo2, pmf2 = mp_binomial_window(m2, p)
    cdf2, acc = [], mpmath.mpf(0)
    for t in pmf2:
        acc += t
        cdf2.append(acc)
    hi2 = lo2 + len(cdf2) - 1
    total = mpmath.mpf(0)
    for i, t in enumerate(pmf1):
        x = lo1 + i + offset
        if x >= hi2:
            total += t
        elif x >= lo2:
            total += t * cdf2[x - lo2]
    return total


def mp_transition(kind: str, z: int, o: int, q: float):
    p = 1 - mpmath.mpf(q)
    if kind == "keep":
        return mp_comparison(z - 1, o, p, 1)
    return mp_comparison(z, o - 1, p, -2)


def mp_tie_return(n: int, q: float):
    """P{Bin(n, p_keep) + Bin(n, p_adopt) = n} from the tie (n, n)."""
    p00, p10 = mp_transition("keep", n, n, q), mp_transition("adopt", n, n, q)
    keep = [mpmath.binomial(n, k) * p00**k * (1 - p00) ** (n - k) for k in range(n + 1)]
    gain = [mpmath.binomial(n, k) * p10**k * (1 - p10) ** (n - k) for k in range(n + 1)]
    return mpmath.fsum(keep[k] * gain[n - k] for k in range(n + 1))


def binomial_pmf(m: int, p: float) -> np.ndarray:
    """Bin(m, p) PMF; p below 1e-300 is a point mass at 0.

    scipy raises an overflow for some subnormal p; the mass it would put on
    k >= 1 is below m * 1e-300 there.
    """
    if p < 1e-300:
        return np.eye(1, m + 1)[0]
    return binom.pmf(np.arange(m + 1), m, p)


def float_chain(n: int, q: float, rounds: int) -> float:
    """Consensus probability after ``rounds`` rounds from a tie, double precision."""
    total, p = 2 * n, 1.0 - q
    matrix = np.zeros((total + 1, total + 1))
    for z in range(total + 1):
        o = total - z
        p00 = p10 = 0.0
        # the sums can round a hair above 1, where scipy's PMF is nan
        if z > 0:
            k = np.arange(z)
            p00 = min(1.0, float(np.sum(binom.pmf(k, z - 1, p) * binom.cdf(k + 1, o, p))))
        if o > 0:
            k = np.arange(z + 1)
            p10 = min(1.0, float(np.sum(binom.pmf(k, z, p) * binom.cdf(k - 2, o - 1, p))))
        matrix[z] = np.convolve(binomial_pmf(z, p00), binomial_pmf(o, p10))
    dist = np.zeros(total + 1)
    dist[n] = 1.0
    for _ in range(rounds):
        dist = dist @ matrix
    return float(dist[0] + dist[total])


def git_sha() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def main() -> None:
    mpmath.mp.dps = DPS
    points, ties, chains = set(), set(), set()
    for tier in one_pass.SIZES.values():
        samp, exact = tier["mc-sampling"], tier["exact"]
        for n in samp["tie_n"]:
            ties.add(n)
            points.update({("keep", n, n, one_pass.TIE_Q), ("adopt", n, n, one_pass.TIE_Q)})
        for n in exact["grid_n"]:
            for a in exact["offsets"]:
                for kind in ("keep", "adopt"):
                    points.add((kind, n + a, n - a, one_pass.GRID_Q))
        chains.update((exact["chain_n"], q) for q in exact["qs"])

    def fmt(x) -> str:
        return mpmath.nstr(x, STORED_DIGITS, min_fixed=-1, max_fixed=-1)

    transition = {}
    for kind, z, o, q in sorted(points):
        transition[f"{kind}:{z}:{o}:{q}"] = fmt(mp_transition(kind, z, o, q))
        print(f"{kind} {z} {o} {q}: {transition[f'{kind}:{z}:{o}:{q}']}", file=sys.stderr)
    tie_return = {f"{n}:{one_pass.TIE_Q}": fmt(mp_tie_return(n, one_pass.TIE_Q))
                  for n in sorted(ties)}
    chain = {
        f"{n}:0:{q}:{one_pass.ROUNDS}": {"consensus": float_chain(n, q, one_pass.ROUNDS)}
        for n, q in sorted(chains)
    }
    doc = {
        "provenance": {
            "generated": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
            "command": "PYTHONPATH=src python3 perfbench/make_references.py",
            "git_sha": git_sha(),
            "mpmath": mpmath.__version__,
            "mpmath_dps": DPS,
            "stored_digits": STORED_DIGITS,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "transition": transition,
        "tie_return": tie_return,
        "chain": chain,
        "chain_method": "independent double-precision chain on scipy.stats.binom",
    }
    (HERE / "references.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
