import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from smpsim.model import (
    AsymmetryRegime,
    NetworkModel,
    OpinionCounts,
    ProtocolConfig,
    event_mask,
    majority_update,
)


class TestMajorityUpdate:
    @pytest.mark.parametrize(
        "own,n0,n1,expected",
        [
            (0, 2, 5, 1),
            (1, 4, 4, 1),
            (0, 1, 0, 0),
            (1, 3, 7, 1),
            (0, 5, 2, 0),
            (0, 3, 3, 0),
        ],
    )
    def test_examples(self, own, n0, n1, expected):
        assert majority_update(own, n0, n1) == expected

    def test_own_count_preconditions(self):
        with pytest.raises(ValueError):
            majority_update(0, 0, 3)
        with pytest.raises(ValueError):
            majority_update(1, 3, 0)
        with pytest.raises(ValueError):
            majority_update(2, 1, 1)
        with pytest.raises(ValueError):
            majority_update(0, -1, 1)

    @given(own=st.integers(0, 1), n0=st.integers(0, 40), n1=st.integers(0, 40))
    def test_relabeling_symmetry(self, own, n0, n1):
        if (own == 0 and n0 < 1) or (own == 1 and n1 < 1):
            return
        assert majority_update(1 - own, n1, n0) == 1 - majority_update(own, n0, n1)


class TestCounts:
    def test_counts_validation(self):
        with pytest.raises(ValueError):
            OpinionCounts(zeros=1, ones=2)  # odd total
        with pytest.raises(ValueError):
            OpinionCounts(zeros=-1, ones=3)
        with pytest.raises(ValueError):
            OpinionCounts(zeros=0, ones=0)


class TestEventMask:
    def test_consensus_examples(self):
        mask = event_mask("consensus", OpinionCounts(3, 1), [4, 3, 0])
        assert mask.tolist() == [True, False, True]
        assert event_mask("consensus", OpinionCounts(1, 1), 2)
        assert not event_mask("consensus", OpinionCounts(1, 1), 1)

    def test_majority_consensus_examples(self):
        # a tie qualifies consensus on either value
        assert event_mask("majority_consensus", OpinionCounts(2, 2), [0, 4, 2]).tolist() == [
            True, True, False,
        ]
        assert event_mask("majority_consensus", OpinionCounts(3, 1), [4, 0]).tolist() == [
            True, False,
        ]
        assert event_mask("majority_consensus", OpinionCounts(1, 3), [4, 0]).tolist() == [
            False, True,
        ]

    @pytest.mark.parametrize("initial", [OpinionCounts(3, 1), OpinionCounts(2, 2), OpinionCounts(0, 4)])
    @pytest.mark.parametrize("event", ["consensus", "majority_consensus"])
    def test_failure_events_complement(self, initial, event):
        zeros = np.arange(initial.total + 1)
        hit = event_mask(event, initial, zeros)
        assert np.array_equal(event_mask(f"{event}_failure", initial, zeros), ~hit)

    def test_unknown_event(self):
        with pytest.raises(ValueError, match="unknown event 'nope'"):
            event_mask("nope", OpinionCounts(2, 2), [0])

    @given(
        zeros_i=st.integers(0, 8),
        zeros_f=st.integers(0, 8),
    )
    def test_majority_consensus_implies_consensus(self, zeros_i, zeros_f):
        initial = OpinionCounts(zeros=zeros_i, ones=8 - zeros_i)
        if event_mask("majority_consensus", initial, zeros_f):
            assert event_mask("consensus", initial, zeros_f)


class TestInitialState:
    @staticmethod
    def _initial(n, delta):
        return ProtocolConfig(n=n, delta=delta, rounds=1, network=NetworkModel(q=0.5)).initial_state()

    def test_examples(self):
        assert self._initial(100, 0) == OpinionCounts(100, 100)
        assert self._initial(100, 10) == OpinionCounts(110, 90)
        assert self._initial(4, -4) == OpinionCounts(0, 8)

    def test_bounds(self):
        with pytest.raises(ValueError):
            self._initial(4, 5)
        with pytest.raises(ValueError):
            self._initial(4, -5)


class TestNetworkAndConfig:
    def test_network(self):
        assert NetworkModel(q=0.3).q == 0.3
        NetworkModel(q=0.0)
        NetworkModel(q=1.0)
        with pytest.raises(ValueError):
            NetworkModel(q=1.5)

    def test_config_validation(self):
        net = NetworkModel(q=0.5)
        ProtocolConfig(n=1, delta=0, rounds=1, network=net)
        with pytest.raises(ValueError):
            ProtocolConfig(n=0, delta=0, rounds=1, network=net)
        with pytest.raises(ValueError):
            ProtocolConfig(n=3, delta=4, rounds=1, network=net)
        with pytest.raises(ValueError):
            ProtocolConfig(n=3, delta=0, rounds=0, network=net)
        ProtocolConfig(n=(1 << 26) - 1, delta=0, rounds=1, network=net)
        for n in (1 << 26, np.int64(1 << 62)):
            with pytest.raises(ValueError, match="2n must be below 2\\^27"):
                ProtocolConfig(n=n, delta=0, rounds=1, network=net)

    @pytest.mark.parametrize("name", ["n", "delta", "rounds"])
    @pytest.mark.parametrize("value", [2.0, 2.5, True, "2"])
    def test_config_rejects_non_integers(self, name, value):
        fields = {"n": 3, "delta": 1, "rounds": 2, name: value}
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            ProtocolConfig(network=NetworkModel(q=0.5), **fields)

    def test_config_accepts_numpy_integers(self):
        cfg = ProtocolConfig(
            n=np.int64(3), delta=np.int32(-1), rounds=np.uint8(2), network=NetworkModel(q=0.5)
        )
        assert cfg.initial_state() == OpinionCounts(2, 4)

    def test_config_initial_state(self):
        cfg = ProtocolConfig(n=5, delta=-2, rounds=2, network=NetworkModel(q=0.5))
        assert cfg.initial_state() == OpinionCounts(3, 7)


class TestAsymmetryRegime:
    def test_offsets(self):
        assert AsymmetryRegime(kind="zero").offset(100) == 0
        assert AsymmetryRegime(kind="logarithmic").offset(100) == 5  # ceil(log 100)
        assert AsymmetryRegime(kind="sqrt_scaled", alpha=1.0).offset(10_000) == 100
        assert AsymmetryRegime(kind="power", beta=0.75).offset(10_000) == 1_000

    def test_cases(self):
        assert AsymmetryRegime(kind="zero").fact1_case() == 1
        assert AsymmetryRegime(kind="logarithmic").fact1_case() == 1
        assert AsymmetryRegime(kind="sqrt_scaled", alpha=2.0).fact1_case() == 2
        assert AsymmetryRegime(kind="power", beta=0.25).fact1_case() == 1
        assert AsymmetryRegime(kind="power", beta=0.5).fact1_case() == 2
        assert AsymmetryRegime(kind="power", beta=0.75).fact1_case() == 3

    def test_limits(self):
        assert AsymmetryRegime(kind="zero").limit(0.5) == 0.5
        assert AsymmetryRegime(kind="power", beta=0.75).limit(0.5) == 1.0
        lim = AsymmetryRegime(kind="sqrt_scaled", alpha=1.0).limit(0.5)
        assert lim == pytest.approx(0.9213503964748574, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            AsymmetryRegime(kind="sqrt_scaled")
        with pytest.raises(ValueError):
            AsymmetryRegime(kind="power", beta=1.5)
        with pytest.raises(ValueError):
            AsymmetryRegime(kind="nope")
        with pytest.raises(ValueError):
            AsymmetryRegime(kind="custom")

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), 0.0, -1.0])
    def test_refuses_alpha_without_an_offset(self, alpha):
        # a NaN alpha once constructed and failed later in math.ceil
        with pytest.raises(ValueError, match="alpha"):
            AsymmetryRegime(kind="sqrt_scaled", alpha=alpha)

    @pytest.mark.parametrize("n", [0, -4])
    @pytest.mark.parametrize(
        "regime",
        [AsymmetryRegime(kind="zero"), AsymmetryRegime(kind="logarithmic"),
         AsymmetryRegime(kind="sqrt_scaled", alpha=1.0), AsymmetryRegime(kind="power", beta=0.75)],
        ids=lambda r: r.kind,
    )
    def test_offset_needs_a_positive_n(self, regime, n):
        # (-4) ** 0.75 is complex: the power regime once failed with a TypeError
        with pytest.raises(ValueError, match=f"^{regime.kind} regime needs n >= 1, got n={n}$"):
            regime.offset(n)

    def test_offset_above_n_names_the_regime(self):
        regime = AsymmetryRegime(kind="sqrt_scaled", alpha=3.0)
        assert regime.offset(9) == 9  # a_n = n is the all-zeros start
        with pytest.raises(ValueError, match=r"sqrt_scaled regime alpha=3.0: a_n=6 > n=4"):
            regime.offset(4)
