"""Simulation and exact analysis of simple-majority consensus on lossy networks.

A fully connected network of 2n agents repeatedly exchanges binary
opinions over channels that drop each message independently with
probability q; agents adopt the majority of what they receive plus their
own opinion.  The package provides exact transition probabilities and
closed-form bounds for this process, reproducible Monte Carlo trial
runners, exhaustive and Markov-chain oracles, preset experiment sweeps,
and a command-line interface with a self-verification suite.
"""

__version__ = "0.3.0"

#: Default master seed for bare invocations; fixed so runs are reproducible
#: without any flags.  Pass ``--seed random`` to the CLI to opt into entropy.
DEFAULT_MASTER_SEED = 112358

from .model import (  # noqa: E402,F401
    AsymmetryRegime,
    NetworkModel,
    OpinionCounts,
    ProtocolConfig,
    event_mask,
    majority_update,
)
from .analytics import (  # noqa: E402,F401
    BoundReport,
    adopt_zero_probability,
    binomial_log_pmf,
    keep_zero_probability,
    kl_bernoulli,
    pmf_stirling_bounds,
    pn_sandwich,
    prop1_error_bound,
    prop4_bound,
    prop5_bound,
    std_normal_cdf,
    t_zero,
)
from .engine import (  # noqa: E402,F401
    CountDistribution,
    TrialOutcome,
    UnsupportedSizeError,
    exact_chain_consensus_probability,
    exhaustive_round_distribution,
    run_trial,
)
from .experiments import (  # noqa: E402,F401
    Estimate,
    SweepResult,
    SweepRow,
    estimate_event_probability,
    max_error_sweep,
    return_to_symmetry_rate,
    theorem1_suite,
    theorem2_suite,
    trichotomy_sweep,
)
