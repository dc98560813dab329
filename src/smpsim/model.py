"""Domain types and pure decision logic for the simple majority protocol.

The protocol runs on a fully connected network of ``2n`` agents holding
binary opinions.  In each round every agent broadcasts its current opinion
to all others; each message is lost independently with probability ``q``.
An agent then adopts the more common value among the messages it received
plus its own current opinion, keeping its own opinion on a tie.  After a
fixed number of rounds every agent decides on its current opinion.

Because the graph is complete and losses are i.i.d., the law of a run
depends on the initial state only through the opinion counts, so counts
(:class:`OpinionCounts`) are the only state representation.  All types
here are immutable values and all operations are pure functions, safe to
call concurrently.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

from .analytics import MAX_BINOMIAL_TRIALS


Bit = int


def _check_bit(value: int, name: str) -> None:
    if value not in (0, 1):
        raise ValueError(f"{name} must be 0 or 1, got {value!r}")


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

    @property
    def half(self) -> int:
        """n, half the agent count."""
        return self.total // 2

    def swapped(self) -> OpinionCounts:
        """The state with opinions 0 and 1 relabeled."""
        return OpinionCounts(zeros=self.ones, ones=self.zeros)


@dataclass(frozen=True)
class NetworkModel:
    """Lossy complete-graph network: each message is lost with probability q."""

    q: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.q <= 1.0:
            raise ValueError(f"loss probability q must be in [0, 1], got {self.q}")

    @property
    def q_prime(self) -> float:
        """Delivery probability 1 - q."""
        return 1.0 - self.q


@dataclass(frozen=True)
class ProtocolConfig:
    """One protocol run: 2n agents, initial split n+delta / n-delta, r rounds.

    ``delta`` may be negative (ones-majority); analytics reduce that case to
    the zeros-majority case by the 0/1 relabeling symmetry.
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
        return make_initial_state(self.n, self.delta)


@dataclass(frozen=True)
class AsymmetryRegime:
    """A sequence of initial imbalances a_n and its growth-rate class.

    Kinds:
      * ``zero``:        a_n = 0
      * ``logarithmic``: a_n = ceil(log n)
      * ``sqrt_scaled``: a_n = ceil(alpha * sqrt(n)), alpha > 0
      * ``power``:       a_n = ceil(n ** beta), beta in (0, 1)
      * ``custom``:      a_n given by an explicit table {n: a_n}
    """

    kind: str
    alpha: float | None = None
    beta: float | None = None
    table: dict[int, int] = field(default_factory=dict)

    _KINDS = ("zero", "logarithmic", "sqrt_scaled", "power", "custom")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown regime kind {self.kind!r}, expected one of {self._KINDS}")
        if self.kind == "sqrt_scaled" and (self.alpha is None or self.alpha <= 0):
            raise ValueError("sqrt_scaled regime requires alpha > 0")
        if self.kind == "power" and (self.beta is None or not 0.0 < self.beta < 1.0):
            raise ValueError("power regime requires beta in (0, 1)")
        if self.kind == "custom" and not self.table:
            raise ValueError("custom regime requires a nonempty table")

    def offset(self, n: int) -> int:
        """Imbalance a_n for a given n, rounded up to an integer."""
        if self.kind == "zero":
            return 0
        if self.kind == "logarithmic":
            return math.ceil(math.log(n))
        if self.kind == "sqrt_scaled":
            return math.ceil(self.alpha * math.sqrt(n))
        if self.kind == "power":
            return math.ceil(n ** self.beta)
        try:
            return self.table[n]
        except KeyError:
            raise ValueError(f"custom regime table has no entry for n={n}") from None

    def fact1_case(self) -> int | None:
        """Growth-rate class of a_n relative to sqrt(n); None if unknown.

        Case 1: a_n/sqrt(n) -> 0, single-round keep probability tends to 1/2.
        Case 2: a_n/sqrt(n) -> alpha > 0, it tends to a constant in (1/2, 1).
        Case 3: a_n/sqrt(n) -> infinity, it tends to 1.
        """
        if self.kind in ("zero", "logarithmic"):
            return 1
        if self.kind == "sqrt_scaled":
            return 2
        if self.kind == "power":
            if self.beta < 0.5:
                return 1
            if self.beta == 0.5:
                return 2
            return 3
        return None

    def limit(self, q: float) -> float | None:
        """Predicted limit of the single-round keep probability, or None.

        The case-2 limit is reported as the normal CDF at the scale
        constant for the effective alpha (``label: limit (asymptotic
        reading)`` in sweep output); cases 1 and 3 give 1/2 and 1.
        """
        from . import analytics

        case = self.fact1_case()
        if case == 1:
            return 0.5
        if case == 3:
            return 1.0
        if case == 2:
            alpha = self.alpha if self.kind == "sqrt_scaled" else 1.0
            return analytics.std_normal_cdf(analytics.t_zero(alpha, q))
        return None


def majority_update(own: Bit, n0: int, n1: int) -> Bit:
    """Decision rule of a single agent given its enumerators.

    ``n0`` and ``n1`` count the agent's own current opinion plus every
    received message proposing 0 and 1 respectively, so the agent's own
    side is always at least 1.  Returns the more common value, keeping
    ``own`` on a tie.
    """
    _check_bit(own, "own")
    if n0 < 0 or n1 < 0:
        raise ValueError(f"enumerators must be nonnegative, got ({n0}, {n1})")
    if own == 0 and n0 < 1:
        raise ValueError("an agent holding 0 counts itself: n0 must be >= 1")
    if own == 1 and n1 < 1:
        raise ValueError("an agent holding 1 counts itself: n1 must be >= 1")
    if n0 > n1:
        return 0
    if n1 > n0:
        return 1
    return own


def is_consensus(counts: OpinionCounts) -> bool:
    """True iff all agents hold the same opinion."""
    return counts.zeros == 0 or counts.ones == 0


def is_majority_consensus(initial: OpinionCounts, final: OpinionCounts) -> bool:
    """True iff ``final`` is a consensus on the initial majority opinion.

    Under an exact initial tie, consensus on either value qualifies.
    """
    if initial.total != final.total:
        raise ValueError(
            f"initial and final totals differ: {initial.total} != {final.total}"
        )
    if initial.zeros > initial.ones:
        return final.ones == 0
    if initial.ones > initial.zeros:
        return final.zeros == 0
    return is_consensus(final)


def make_initial_state(n: int, delta: int) -> OpinionCounts:
    """State with n + delta zeros and n - delta ones."""
    if abs(delta) > n:
        raise ValueError(f"|delta| must be <= n, got delta={delta}, n={n}")
    return OpinionCounts(zeros=n + delta, ones=n - delta)
