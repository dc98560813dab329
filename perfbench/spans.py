"""Outside-in layer spans for one benchmark pass.

The tracer replaces public functions of the ``smpsim`` modules with thin
wrappers, installed on the module attribute that each caller resolves at
call time (``engine`` imports ``sample_binomial_lanes`` by name, so that
wrapper sits on ``smpsim.engine``; ``rng`` calls ``uniform_lanes`` and
``philox4x64`` through its own globals, so those sit on ``smpsim.rng``).
Each wrapper records one span: call count, total seconds and self seconds
(its duration minus the part covered by nested wrapped calls), plus
counters taken from the call's arguments.  Nothing inside the package is
edited.

A name that no longer exists is reported on stderr and left unwrapped;
the metrics of that span then read 0, and the untraced end-to-end run is
unaffected.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

import numpy as np

# Binomial path selection as documented in smpsim/rng.py: CDF inversion
# when m <= 1024 or the mean m * min(p, 1 - p) is below 10, transformed
# rejection (BTRS) otherwise; lanes with m = 0 or a degenerate p draw
# nothing.
_INVERSION_MAX_M = 1024
_REJECTION_MIN_MEAN = 10.0
#: Kernel calls with an m of at least this (n = 10^5 on the exact grid) are
#: also counted on their own.
_LARGE_M = 100_000


def _lane_count(*arrays) -> int:
    return int(np.broadcast(*[np.asarray(a) for a in arrays]).size)


class Tracer:
    """Span and counter collector; wrappers record only while ``enabled``."""

    def __init__(self) -> None:
        self.enabled = False
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._child_s: list[float] = []

    def wrap(self, module, name: str, span: str, count=None) -> None:
        """Replace ``module.name`` with a wrapper recording span ``span``.

        ``count(ret, elapsed, *args, **kwargs)`` runs after the call, with
        ``ret`` its return value and ``elapsed`` its seconds, and updates
        ``self.counts`` from the arguments.
        """
        inner = getattr(module, name, None)
        if inner is None:
            self.missing.append(f"{module.__name__}.{name}")
            return

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return inner(*args, **kwargs)
            self._child_s.append(0.0)
            start = time.perf_counter()
            try:
                result = inner(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = self._child_s.pop()
                if self._child_s:
                    self._child_s[-1] += elapsed
                self.calls[span] += 1
                self.total_s[span] += elapsed
                self.self_s[span] += elapsed - children
            if count is not None:
                count(result, elapsed, *args, **kwargs)
            return result

        setattr(module, name, wrapper)

    def install(self, smpsim_modules) -> None:
        """Wrap the layer boundaries of ``analytics, engine, experiments, io, rng``."""
        analytics, engine, experiments, io, rng = smpsim_modules
        c = self.counts

        def kernel(ret, elapsed, m1, m2, p, offset):
            c["kernel_max_m"] = max(c["kernel_max_m"], m1, m2)
            if max(m1, m2) >= _LARGE_M:
                c["large_kernel_calls"] += 1
                c["large_kernel_s"] += elapsed

        def binomial(ret, elapsed, m, p, master_seed, trial, round_index, group):
            m = np.broadcast_to(np.asarray(m, dtype=np.int64), np.shape(trial))
            p = np.asarray(p, dtype=np.float64)
            p_eff = np.minimum(p, 1.0 - p)
            active = (m > 0) & (p_eff > 0.0)
            inversion = active & ((m <= _INVERSION_MAX_M) | (m * p_eff < _REJECTION_MIN_MEAN))
            c["binomial_lanes"] += m.size
            c["inversion_lanes"] += int(np.count_nonzero(inversion))
            c["btrs_lanes"] += int(np.count_nonzero(active & ~inversion))

        def uniforms(ret, elapsed, master_seed, trial, round_index, group, slot=0, n_words=1):
            if np.any(np.asarray(slot) >= 1):
                c["btrs_retry_lanes"] += _lane_count(trial, round_index, group, slot)

        def philox(ret, elapsed, c0, c1, c2, c3, key0, key1):
            c["philox_lanes"] += _lane_count(c0, c1, c2, c3)

        def batch(ret, elapsed, config, trial_ids, *args, **kwargs):
            c["trials"] += len(trial_ids)

        def written(ret, elapsed, result, format, path):
            c["bytes_written"] += os.path.getsize(path)

        for module, name, span, count in (
            (analytics, "comparison_probability", "kernel", kernel),
            (analytics, "keep_zero_probability", "transition", None),
            (analytics, "adopt_zero_probability", "transition", None),
            (engine, "sample_binomial_lanes", "binomial", binomial),
            (engine, "aggregated_round_distribution", "chain_row", None),
            (engine, "exact_chain_consensus_probability", "chain", None),
            (rng, "uniform_lanes", "uniforms", uniforms),
            (rng, "philox4x64", "philox", philox),
            (experiments, "run_trials_batch", "batch", batch),
            (experiments, "final_zeros_sample", "estimate", None),
            (io, "write_results", "write", written),
            (io, "read_result_file", "read", None),
        ):
            self.wrap(module, name, span, count)
        for name in self.missing:
            print(f"trace: {name} not found, its metrics read 0", file=sys.stderr)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded, keyed as in BENCHMARK.json."""
        calls, total, own, c = self.calls, self.total_s, self.self_s, self.counts

        def ratio(num: float, den: float, scale: float = 1.0) -> float:
            return scale * num / den if den else 0.0

        transitions = calls["transition"]
        btrs_attempts = c["btrs_lanes"] + c["btrs_retry_lanes"]
        return {
            "analytics.transition_calls": transitions,
            "analytics.kernel_calls": calls["kernel"],
            "analytics.cache_hit_ratio": ratio(transitions - calls["kernel"], transitions),
            "analytics.kernel_s": total["kernel"],
            "analytics.kernel_ms_per_call": ratio(total["kernel"], calls["kernel"], 1e3),
            "analytics.kernel_max_m": c["kernel_max_m"],
            "analytics.large_kernel_calls": c["large_kernel_calls"],
            "analytics.large_kernel_ms_per_call": ratio(
                c["large_kernel_s"], c["large_kernel_calls"], 1e3
            ),
            "rng.binomial_calls": calls["binomial"],
            "rng.binomial_lanes": c["binomial_lanes"],
            "rng.binomial_s": total["binomial"],
            "rng.ns_per_binomial_lane": ratio(total["binomial"], c["binomial_lanes"], 1e9),
            "rng.inversion_lanes": c["inversion_lanes"],
            "rng.btrs_lanes": c["btrs_lanes"],
            "rng.btrs_retry_lanes": c["btrs_retry_lanes"],
            "rng.btrs_accept_ratio": ratio(c["btrs_lanes"], btrs_attempts),
            "rng.philox_calls": calls["philox"],
            "rng.philox_lanes": c["philox_lanes"],
            "rng.philox_s": total["philox"],
            "rng.ns_per_philox_lane": ratio(total["philox"], c["philox_lanes"], 1e9),
            "engine.batch_calls": calls["batch"],
            "engine.trials": c["trials"],
            "engine.batch_s": total["batch"],
            "engine.batch_self_s": own["batch"],
            "engine.chain_calls": calls["chain"],
            "engine.chain_rows": calls["chain_row"],
            "engine.chain_s": total["chain"],
            "engine.chain_self_s": own["chain"],
            "experiments.estimate_calls": calls["estimate"],
            "experiments.chunks": calls["batch"],
            "experiments.estimate_s": total["estimate"],
            "experiments.self_s": own["estimate"],
            "io.write_calls": calls["write"],
            "io.bytes_written": c["bytes_written"],
            "io.write_s": total["write"],
            "io.read_calls": calls["read"],
            "io.read_s": total["read"],
        }
