"""Domain types and pure decision logic for the simple majority protocol.

The protocol runs on a fully connected network of ``2n`` agents holding
binary opinions.  In each round every agent broadcasts its current opinion
to all others; each message is lost independently with probability ``q``.
An agent then adopts the more common value among the messages it received
plus its own current opinion, keeping its own opinion on a tie.  After a
fixed number of rounds every agent decides on its current opinion.

Because the graph is complete and losses are i.i.d., the law of a run
depends on the initial state only through the opinion counts, so counts
(:class:`OpinionCounts`) are the only state representation, and
:func:`event_mask` scores any number of runs by their initial state and
final zero-counts.  All types here are immutable values and all
operations are pure functions, safe to call concurrently.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .analytics import MAX_BINOMIAL_TRIALS, std_normal_cdf, t_zero


Bit = int


@dataclass(frozen=True)
class OpinionCounts:
    """Aggregate system state: how many agents hold 0 and how many hold 1."""

    zeros: int
    ones: int

    def __post_init__(self) -> None:
        if self.zeros < 0 or self.ones < 0:
            raise ValueError(f"counts must be nonnegative, got ({self.zeros}, {self.ones})")
        total = self.zeros + self.ones
        if total < 2 or total % 2 != 0:
            raise ValueError(f"total agent count must be even and >= 2, got {total}")

    @property
    def total(self) -> int:
        return self.zeros + self.ones


@dataclass(frozen=True)
class NetworkModel:
    """Lossy complete-graph network: each message is lost with probability q."""

    q: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.q <= 1.0:
            raise ValueError(f"loss probability q must be in [0, 1], got {self.q}")


@dataclass(frozen=True)
class ProtocolConfig:
    """One protocol run: 2n agents, initial split n+delta / n-delta, r rounds.

    ``delta`` may be negative (ones-majority).
    """

    n: int
    delta: int
    rounds: int
    network: NetworkModel

    def __post_init__(self) -> None:
        for name in ("n", "delta", "rounds"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        if self.n >= MAX_BINOMIAL_TRIALS // 2:
            raise ValueError(f"2n must be below 2^27 = {MAX_BINOMIAL_TRIALS}, got n={self.n}")
        if abs(self.delta) > self.n:
            raise ValueError(f"|delta| must be <= n, got delta={self.delta}, n={self.n}")
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")

    def initial_state(self) -> OpinionCounts:
        """State with n + delta zeros and n - delta ones."""
        return OpinionCounts(zeros=self.n + self.delta, ones=self.n - self.delta)


@dataclass(frozen=True)
class AsymmetryRegime:
    """A sequence of initial imbalances a_n and its growth-rate class.

    Kinds:
      * ``zero``:        a_n = 0
      * ``logarithmic``: a_n = ceil(log n)
      * ``sqrt_scaled``: a_n = ceil(alpha * sqrt(n)), alpha > 0 finite
      * ``power``:       a_n = ceil(n ** beta), beta in (0, 1)

    ``offset(n)`` refuses a_n > n, which no start (n + a_n, n - a_n) can
    have; of these kinds only ``sqrt_scaled`` with alpha > sqrt(n) gets there.
    """

    kind: str
    alpha: float | None = None
    beta: float | None = None

    _KINDS = ("zero", "logarithmic", "sqrt_scaled", "power")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown regime kind {self.kind!r}, expected one of {self._KINDS}")
        if self.kind == "sqrt_scaled" and (self.alpha is None or not 0.0 < self.alpha < math.inf):
            raise ValueError(f"sqrt_scaled regime needs finite alpha > 0, got alpha={self.alpha}")
        if self.kind == "power" and (self.beta is None or not 0.0 < self.beta < 1.0):
            raise ValueError("power regime requires beta in (0, 1)")

    def offset(self, n: int) -> int:
        """Imbalance a_n for a given n, rounded up to an integer."""
        if n < 1:
            raise ValueError(f"{self.kind} regime needs n >= 1, got n={n}")
        if self.kind == "zero":
            return 0
        if self.kind == "logarithmic":
            return math.ceil(math.log(n))
        if self.kind == "sqrt_scaled":
            a_n = math.ceil(self.alpha * math.sqrt(n))
            if a_n > n:
                raise ValueError(f"sqrt_scaled regime alpha={self.alpha}: a_n={a_n} > n={n}")
            return a_n
        return math.ceil(n ** self.beta)

    def fact1_case(self) -> int:
        """Growth-rate class of a_n relative to sqrt(n).

        Case 1: a_n/sqrt(n) -> 0, single-round keep probability tends to 1/2.
        Case 2: a_n/sqrt(n) -> alpha > 0, it tends to a constant in (1/2, 1).
        Case 3: a_n/sqrt(n) -> infinity, it tends to 1.
        """
        if self.kind in ("zero", "logarithmic"):
            return 1
        if self.kind == "sqrt_scaled":
            return 2
        if self.beta < 0.5:
            return 1
        if self.beta == 0.5:
            return 2
        return 3

    def limit(self, q: float) -> float:
        """Predicted limit of the single-round keep probability.

        The case-2 limit is reported as the normal CDF at the scale
        constant for the effective alpha (``label: limit (asymptotic
        reading)`` in sweep output); cases 1 and 3 give 1/2 and 1.
        """
        case = self.fact1_case()
        if case == 1:
            return 0.5
        if case == 3:
            return 1.0
        alpha = self.alpha if self.kind == "sqrt_scaled" else 1.0
        return std_normal_cdf(t_zero(alpha, q))


def majority_update(own: Bit, n0: int, n1: int) -> Bit:
    """Decision rule of a single agent given its enumerators.

    ``n0`` and ``n1`` count the agent's own current opinion plus every
    received message proposing 0 and 1 respectively, so the agent's own
    side is always at least 1.  Returns the more common value, keeping
    ``own`` on a tie.
    """
    if own not in (0, 1):
        raise ValueError(f"own must be 0 or 1, got {own!r}")
    if n0 < 0 or n1 < 0:
        raise ValueError(f"enumerators must be nonnegative, got ({n0}, {n1})")
    if own == 0 and n0 < 1:
        raise ValueError("an agent holding 0 counts itself: n0 must be >= 1")
    if own == 1 and n1 < 1:
        raise ValueError("an agent holding 1 counts itself: n1 must be >= 1")
    return int(majority_rule(own, n0, n1))


def majority_rule(own, n0, n1, out=None):
    """The majority rule elementwise over arrays of agents, unchecked.

    0 where ``n0 > n1``, 1 where ``n1 > n0`` and ``own`` on a tie; the
    checks are :func:`majority_update`'s, kept out of per-lane loops.  The
    opinions go into ``out`` and are returned; ``out`` may be ``own`` itself,
    so an agent's row of trials is updated in place, and without it they go
    into a new int8 array of the broadcast shape.
    """
    if out is None:
        out = np.empty(np.broadcast_shapes(np.shape(own), np.shape(n0), np.shape(n1)), np.int8)
    np.copyto(out, own)
    np.copyto(out, 1, where=np.greater(n1, n0))
    np.copyto(out, 0, where=np.greater(n0, n1))
    return out


EVENT_NAMES = (
    "consensus",
    "majority_consensus",
    "consensus_failure",
    "majority_consensus_failure",
)


def event_mask(event: str, initial: OpinionCounts, final_zeros) -> np.ndarray:
    """Which runs from ``initial`` that end with ``final_zeros`` zeros show ``event``.

    ``event`` is one of EVENT_NAMES.  Consensus means every agent holds one
    opinion; majority consensus means every agent holds the initial
    majority opinion, and under an exact initial tie consensus on either
    value qualifies.  A ``_failure`` event is the complement.
    """
    if event not in EVENT_NAMES:
        raise ValueError(f"unknown event {event!r}, expected one of {EVENT_NAMES}")
    z = np.asarray(final_zeros)
    all_ones, all_zeros = z == 0, z == initial.total
    if event.startswith("majority") and initial.zeros != initial.ones:
        hit = all_zeros if initial.zeros > initial.ones else all_ones
    else:
        hit = all_ones | all_zeros
    return ~hit if event.endswith("_failure") else hit
