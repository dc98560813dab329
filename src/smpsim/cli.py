"""Command-line interface.

Subcommands: ``simulate`` (one trial, prints the trajectory), ``estimate``
(event probability with a confidence interval), ``sweep`` (trichotomy /
max-error / return-to-symmetry presets), ``bounds`` (closed-form bound
calculators), ``oracle`` (exhaustive and exact-chain), and ``verify``
(the acceptance criteria).

Precedence: command-line flags override values from ``--config`` (a JSON
object keyed by flag name), which override built-in defaults.  The worker
count additionally honors the SMPSIM_WORKERS environment variable between
flag and config.  Exit codes: 0 success, 1 invalid arguments or config,
2 failed verification.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import os
import secrets
import sys
from datetime import datetime, timezone
from typing import Any

from . import DEFAULT_MASTER_SEED, __version__, analytics, experiments, io, verify
from .engine import (
    MODE_AGGREGATED,
    MODE_PER_AGENT,
    exact_chain_consensus_probability,
    exhaustive_round_distribution,
    run_trial,
)
from .model import AsymmetryRegime, NetworkModel, OpinionCounts, ProtocolConfig

__all__ = ["main", "build_parser"]


class CliError(Exception):
    """Invalid arguments or configuration; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 on bad usage, not argparse's 2
        self.print_usage(sys.stderr)
        raise CliError(message)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override its values")
    parser.add_argument("--seed", help="master seed (integer, or 'random')")
    parser.add_argument("--workers", type=int, help="trial parallelism (default 1)")
    parser.add_argument("--out", help="write a result file here")
    parser.add_argument("--format", choices=("json", "csv"), help="result file format")
    parser.add_argument("--plot-data", dest="plot_data", help="write gnuplot-style series here")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="smpsim", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"smpsim {__version__}")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p_sim = sub.add_parser("simulate", help="run one trial and print the trajectory")
    p_sim.add_argument("--n", type=int)
    p_sim.add_argument("--delta", type=int)
    p_sim.add_argument("--q", type=float)
    p_sim.add_argument("--rounds", type=int)
    p_sim.add_argument("--trial", type=int)
    p_sim.add_argument("--mode", choices=(MODE_AGGREGATED, MODE_PER_AGENT))
    _add_common(p_sim)

    p_est = sub.add_parser("estimate", help="Monte Carlo event probability")
    p_est.add_argument("--n", type=int)
    p_est.add_argument("--delta", type=int)
    p_est.add_argument("--q", type=float)
    p_est.add_argument("--rounds", type=int)
    p_est.add_argument("--event", choices=experiments.EVENT_NAMES)
    p_est.add_argument("--trials", type=int)
    p_est.add_argument("--mode", choices=(MODE_AGGREGATED, MODE_PER_AGENT))
    p_est.add_argument("--interval", choices=("wilson", "clopper_pearson"))
    _add_common(p_est)

    p_sweep = sub.add_parser("sweep", help="preset experiment sweeps")
    sweep_sub = p_sweep.add_subparsers(dest="sweep_kind", parser_class=_Parser)

    p_tri = sweep_sub.add_parser("trichotomy", help="exact keep probability per regime")
    p_tri.add_argument("--regimes", help="comma list: zero,log,sqrt:ALPHA,power:BETA")
    p_tri.add_argument("--n-grid", dest="n_grid", help="comma list of n values")
    p_tri.add_argument("--q", type=float)
    _add_common(p_tri)

    p_max = sweep_sub.add_parser("max-error", help="consensus error across imbalances")
    p_max.add_argument("--n", type=int)
    p_max.add_argument("--q", type=float)
    p_max.add_argument("--rounds", type=int)
    p_max.add_argument("--trials", type=int)
    p_max.add_argument("--delta-stride", dest="delta_stride", type=int)
    _add_common(p_max)

    p_ret = sweep_sub.add_parser("return-to-symmetry", help="round-1 return-to-tie rate")
    p_ret.add_argument("--n-grid", dest="n_grid")
    p_ret.add_argument("--q", type=float)
    p_ret.add_argument("--trials", type=int)
    _add_common(p_ret)

    p_t1 = sweep_sub.add_parser("theorem1", help="one/two/three-round achievability suite")
    p_t1.add_argument("--n-grid", dest="n_grid")
    p_t1.add_argument("--q", type=float)
    p_t1.add_argument("--trials", type=int, help="trials for the multi-round presets")
    p_t1.add_argument("--trials-single-round", dest="trials_single_round", type=int)
    p_t1.add_argument("--alpha", type=float)
    _add_common(p_t1)

    p_t2 = sweep_sub.add_parser("theorem2", help="two-round consensus decay suite")
    p_t2.add_argument("--n-grid", dest="n_grid")
    p_t2.add_argument("--q", type=float)
    p_t2.add_argument("--trials", type=int)
    _add_common(p_t2)

    p_bounds = sub.add_parser("bounds", help="evaluate closed-form bounds")
    bounds_sub = p_bounds.add_subparsers(dest="bound_kind", parser_class=_Parser)
    p_b1 = bounds_sub.add_parser("prop1")
    p_b1.add_argument("--n", type=int)
    p_b1.add_argument("--a", type=int)
    p_b1.add_argument("--q", type=float)
    _add_common(p_b1)
    p_b4 = bounds_sub.add_parser("prop4")
    p_b4.add_argument("--n", type=int)
    p_b4.add_argument("--b", type=int)
    _add_common(p_b4)
    p_b5 = bounds_sub.add_parser("prop5")
    p_b5.add_argument("--n", type=int)
    p_b5.add_argument("--c", type=int)
    p_b5.add_argument("--q", type=float)
    _add_common(p_b5)
    p_bs = bounds_sub.add_parser("pn-sandwich")
    p_bs.add_argument("--n", type=int)
    p_bs.add_argument("--q", type=float)
    _add_common(p_bs)
    p_bst = bounds_sub.add_parser("stirling")
    p_bst.add_argument("--m", type=int)
    p_bst.add_argument("--p", type=float)
    p_bst.add_argument("--k", type=int)
    _add_common(p_bst)

    p_oracle = sub.add_parser("oracle", help="exact distributions and chain probabilities")
    oracle_sub = p_oracle.add_subparsers(dest="oracle_kind", parser_class=_Parser)
    p_ex = oracle_sub.add_parser("exhaustive", help="enumerate all loss patterns (2n <= 6)")
    p_ex.add_argument("--zeros", type=int)
    p_ex.add_argument("--ones", type=int)
    p_ex.add_argument("--q", type=float)
    _add_common(p_ex)
    p_ch = oracle_sub.add_parser("exact-chain", help="exact count-chain probabilities (2n <= 1000)")
    p_ch.add_argument("--n", type=int)
    p_ch.add_argument("--delta", type=int)
    p_ch.add_argument("--q", type=float)
    p_ch.add_argument("--rounds", type=int)
    _add_common(p_ch)

    p_ver = sub.add_parser("verify", help="run acceptance criteria")
    p_ver.add_argument(
        "suite", nargs="?",
        help="named criterion group (all, oracles, theorem1, theorem2, properties, "
             "fluctuations, determinism); default all",
    )
    p_ver.add_argument("--criteria", help="comma list of criterion ids (overrides the suite)")
    p_ver.add_argument(
        "--q", type=float,
        help="loss rate to verify at; criteria pin q = 0.5 (criterion 5 adds 0.2 and "
             "0.8), so only that value is accepted - use the sweep presets for other q",
    )
    p_ver.add_argument("--out-dir", dest="out_dir", help="directory for per-criterion result files")
    _add_common(p_ver)

    return parser


# --------------------------------------------------------------------------
# Option resolution (flags > env (workers) > config file > defaults)
# --------------------------------------------------------------------------


def _flag(name: str) -> str:
    return f"--{name.replace('_', '-')}"


def _integer(name: str, value: Any) -> int:
    """``value`` as an int; CliError unless it is integral (a bool is not).

    Accepts ints, integral floats such as 1e4 from a JSON config, and
    integer strings; never truncates.
    """
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    elif isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise CliError(f"{_flag(name)} must be an integer, got {value!r}")


def _real(name: str, value: Any) -> float:
    """``value`` as a float; CliError unless it is a number or a numeric string.

    A bool is not a number here, so ``"q": true`` is rejected, not read as 1.0.
    """
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            pass
    elif isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise CliError(f"{_flag(name)} must be a number, got {value!r}")


class _Options:
    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.config: dict[str, Any] = {}
        if getattr(args, "config", None):
            try:
                with open(args.config, "r", encoding="utf-8") as fh:
                    self.config = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                raise CliError(f"cannot read config {args.config}: {exc}")
            if not isinstance(self.config, dict):
                raise CliError("config file must hold a JSON object")
        for name in ("out", "plot_data", "out_dir"):  # fail before any work is done
            self.path(name)

    def get(self, name: str, default: Any = None) -> Any:
        value = getattr(self.args, name, None)
        if value is not None:
            return value
        if name in self.config:
            return self.config[name]
        return default

    def require(self, name: str) -> Any:
        value = self.get(name)
        if value is None:
            raise CliError(f"missing required option {_flag(name)}")
        return value

    def integer(self, name: str, default: int | None = None) -> int:
        """An integral option; required when ``default`` is None."""
        value = self.require(name) if default is None else self.get(name, default)
        return _integer(name, value)

    def real(self, name: str, default: float | None = None) -> float:
        """A numeric option; required when ``default`` is None."""
        value = self.require(name) if default is None else self.get(name, default)
        return _real(name, value)

    def path(self, name: str) -> str | None:
        """A file or directory option, or None when it is not given."""
        value = self.get(name)
        if value is None or isinstance(value, str):
            return value
        raise CliError(f"{_flag(name)} must be a path, got {value!r}")

    def seed(self) -> int:
        raw = self.get("seed", DEFAULT_MASTER_SEED)
        if isinstance(raw, str):
            if raw == "random":
                return secrets.randbits(63)
            try:
                raw = int(raw, 0)
            except ValueError:
                raise CliError(f"--seed must be an integer or 'random', got {raw!r}")
        return _integer("seed", raw)

    def workers(self) -> int:
        value = getattr(self.args, "workers", None)
        if value is None:
            env = os.environ.get("SMPSIM_WORKERS")
            if env is not None:
                try:
                    value = int(env)
                except ValueError:
                    raise CliError(f"SMPSIM_WORKERS must be an integer, got {env!r}")
            else:
                value = self.config.get("workers", 1)
        workers = _integer("workers", value)
        if workers < 1:
            raise CliError("worker count must be >= 1")
        return workers

    def int_list(self, name: str, default: list[int] | None = None) -> list[int]:
        raw = self.get(name)
        if raw is None:
            if default is None:
                raise CliError(f"missing required option {_flag(name)}")
            return default
        if isinstance(raw, str):
            try:
                return [int(tok) for tok in raw.split(",") if tok]
            except ValueError:
                pass
        elif isinstance(raw, list):
            return [_integer(name, v) for v in raw]
        raise CliError(f"{_flag(name)} must be a comma list of integers, got {raw!r}")


def _parse_regime(token: str) -> AsymmetryRegime:
    if token == "zero":
        return AsymmetryRegime(kind="zero")
    if token in ("log", "logarithmic"):
        return AsymmetryRegime(kind="logarithmic")
    if token.startswith("sqrt"):
        alpha = float(token.split(":", 1)[1]) if ":" in token else 1.0
        return AsymmetryRegime(kind="sqrt_scaled", alpha=alpha)
    if token.startswith("power"):
        beta = float(token.split(":", 1)[1]) if ":" in token else 0.75
        return AsymmetryRegime(kind="power", beta=beta)
    raise CliError(f"unknown regime {token!r} (expected zero, log, sqrt:A, power:B)")


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _emit(
    opts: _Options,
    payload: Any,
    config_echo: dict[str, Any],
    seed: int,
    started: str | None,
    sweep_for_plot=None,
) -> None:
    out = opts.path("out")
    plot_path = opts.path("plot_data")
    if out:
        manifest = io.RunManifest.create(
            master_seed=seed,
            config=config_echo,
            command_line=" ".join(sys.argv[1:]) or "(library call)",
            workers=opts.workers(),
            started=started,
            finished=_timestamp() if started else None,
        )
        io.write_results(
            io.ResultFile(manifest=manifest, payload=payload),
            opts.get("format", "json"),
            out,
        )
    if plot_path is not None:
        if sweep_for_plot is None:
            raise CliError("--plot-data is only available for sweep payloads")
        io.emit_plot_data(sweep_for_plot, plot_path)


# --------------------------------------------------------------------------
# Subcommand implementations
# --------------------------------------------------------------------------


def _cmd_simulate(opts: _Options) -> int:
    seed = opts.seed()
    config = ProtocolConfig(
        n=opts.integer("n"),
        delta=opts.integer("delta", 0),
        rounds=opts.integer("rounds", 3),
        network=NetworkModel(q=opts.real("q")),
    )
    trial = opts.integer("trial", 0)
    mode = opts.get("mode", MODE_AGGREGATED)
    started = _timestamp()
    outcome = run_trial(config, trial, seed, mode=mode)
    for i, c in enumerate(outcome.trajectory):
        print(f"round {i}: zeros={c.zeros} ones={c.ones}")
    print(
        f"consensus={outcome.consensus} majority_consensus={outcome.majority_consensus} "
        f"final_value={outcome.final_value}"
    )
    _emit(
        opts, outcome,
        {"n": config.n, "delta": config.delta, "q": config.network.q,
         "rounds": config.rounds, "trial": trial, "mode": mode},
        seed, started,
    )
    return 0


def _cmd_estimate(opts: _Options) -> int:
    seed = opts.seed()
    config = ProtocolConfig(
        n=opts.integer("n"),
        delta=opts.integer("delta", 0),
        rounds=opts.integer("rounds", 3),
        network=NetworkModel(q=opts.real("q")),
    )
    event = opts.get("event", "consensus")
    trials = opts.integer("trials", 10_000)
    mode = opts.get("mode", MODE_AGGREGATED)
    method = opts.get("interval", "wilson")
    started = _timestamp()
    est = experiments.estimate_event_probability(
        config, event, trials, seed, workers=opts.workers(), mode=mode, method=method,
    )
    print(
        f"P[{event}] = {est.p_hat:.6g}  ({est.confidence:.0%} CI "
        f"[{est.ci_low:.6g}, {est.ci_high:.6g}], {est.successes}/{est.trials})"
    )
    _emit(
        opts, est,
        {"n": config.n, "delta": config.delta, "q": config.network.q,
         "rounds": config.rounds, "event": event, "trials": trials, "mode": mode},
        seed, started,
    )
    return 0


def _merge_sweeps(kind: str, labeled: list[tuple[str, experiments.SweepResult]]):
    rows = []
    metadata: dict[str, Any] = {"sweeps": {}}
    for label, sweep in labeled:
        metadata["sweeps"][label] = sweep.metadata
        for r in sweep.rows:
            extra = dict(r.extra)
            extra.setdefault("regime", label)
            rows.append(
                experiments.SweepRow(
                    n=r.n, delta=r.delta, q=r.q, rounds=r.rounds, event=r.event,
                    estimate=r.estimate, exact=r.exact, bound=r.bound, extra=extra,
                )
            )
    return experiments.SweepResult(kind=kind, rows=tuple(rows), metadata=metadata)


def _print_sweep(sweep: experiments.SweepResult) -> None:
    for r in sweep.rows:
        value = (
            f"p_hat={r.estimate.p_hat:.6g} CI[{r.estimate.ci_low:.6g},{r.estimate.ci_high:.6g}]"
            if r.estimate is not None
            else f"exact={r.exact:.12g}" if r.exact is not None else ""
        )
        bound = f" bound[{r.bound.bound_name}]={r.bound.bound_value:.6g}" if r.bound else ""
        regime = f" regime={r.extra['regime']}" if "regime" in r.extra else ""
        print(f"n={r.n} delta={r.delta} q={r.q} rounds={r.rounds} {r.event}: {value}{bound}{regime}")


def _cmd_sweep(opts: _Options, kind: str) -> int:
    seed = opts.seed()
    workers = opts.workers()
    started = _timestamp()
    if kind == "trichotomy":
        q = opts.real("q", 0.5)
        n_grid = opts.int_list("n_grid", [100, 1_000, 10_000])
        tokens = str(opts.get("regimes", "zero,sqrt:1.0,power:0.75")).split(",")
        labeled = [
            (tok, experiments.trichotomy_sweep(_parse_regime(tok), n_grid, q))
            for tok in tokens if tok
        ]
        sweep = _merge_sweeps("trichotomy", labeled)
        config_echo = {"q": q, "n_grid": n_grid, "regimes": tokens}
    elif kind == "max-error":
        n = opts.integer("n")
        q = opts.real("q", 0.5)
        rounds = opts.integer("rounds", 3)
        trials = opts.integer("trials", 1_000)
        stride = opts.integer("delta_stride", 1)
        sweep = experiments.max_error_sweep(
            n, q, rounds, trials, seed, deltas=range(0, n + 1, stride), workers=workers
        )
        config_echo = {"n": n, "q": q, "rounds": rounds, "trials": trials,
                       "delta_stride": stride}
    elif kind == "return-to-symmetry":
        q = opts.real("q", 0.5)
        n_grid = opts.int_list("n_grid", [100, 400, 1_600])
        trials = opts.integer("trials", 100_000)
        sweep = experiments.return_to_symmetry_rate(n_grid, q, trials, seed, workers=workers)
        config_echo = {"q": q, "n_grid": n_grid, "trials": trials}
    elif kind == "theorem1":
        q = opts.real("q", 0.5)
        n_grid = opts.int_list("n_grid", [10_000])
        trials = opts.integer("trials", 1_000)
        trials_single = opts.integer("trials_single_round", 100_000)
        alpha = opts.real("alpha", 1.0)
        sweep = experiments.theorem1_suite(
            q, n_grid, seed, trials_single_round=trials_single,
            trials_two_rounds=trials, trials_three_rounds=trials,
            alpha=alpha, workers=workers,
        )
        config_echo = {"q": q, "n_grid": n_grid, "trials": trials,
                       "trials_single_round": trials_single, "alpha": alpha}
    elif kind == "theorem2":
        q = opts.real("q", 0.5)
        n_grid = opts.int_list("n_grid", [100, 1_000, 10_000])
        trials = opts.integer("trials", 1_000)
        sweep = experiments.theorem2_suite(q, n_grid, trials, seed, workers=workers)
        config_echo = {"q": q, "n_grid": n_grid, "trials": trials}
    else:
        raise CliError(f"unknown sweep kind {kind!r}")
    _print_sweep(sweep)
    config_echo["kind"] = kind
    _emit(opts, sweep, config_echo, seed, started, sweep_for_plot=sweep)
    return 0


def _cmd_bounds(opts: _Options, kind: str) -> int:
    seed = opts.seed()
    started = _timestamp()
    if kind == "prop1":
        n, a, q = opts.integer("n"), opts.integer("a"), opts.real("q")
        report = analytics.BoundReport(
            bound_name="prop1", parameters={"n": n, "A": a, "q": q},
            bound_value=analytics.prop1_error_bound(n, a, q),
        )
    elif kind == "prop4":
        n, b = opts.integer("n"), opts.integer("b")
        report = analytics.BoundReport(
            bound_name="prop4", parameters={"n": n, "B": b},
            bound_value=analytics.prop4_bound(n, b),
        )
    elif kind == "prop5":
        n, c, q = opts.integer("n"), opts.integer("c"), opts.real("q")
        report = analytics.BoundReport(
            bound_name="prop5",
            parameters={"n": n, "C": c, "q": q,
                        "rate_constant": analytics.prop5_rate_constant(q),
                        "envelope_exponent": analytics.envelope_exponent(q)},
            bound_value=analytics.prop5_bound(n, c, q),
        )
    elif kind == "pn-sandwich":
        n, q = opts.integer("n"), opts.real("q")
        lower, upper = analytics.pn_sandwich(n, q)
        exact = analytics.keep_zero_probability(n, n, q) if n <= 20_000 else None
        report = analytics.BoundReport(
            bound_name="pn_sandwich", parameters={"n": n, "q": q, "lower": lower},
            bound_value=upper, empirical_value=exact,
        )
    elif kind == "stirling":
        m, p, k = opts.integer("m"), opts.real("p"), opts.integer("k")
        lower, upper = analytics.pmf_stirling_bounds(m, p, k)
        exact = math.exp(analytics.binomial_log_pmf(m, p, k))
        report = analytics.BoundReport(
            bound_name="stirling_bracket", parameters={"m": m, "p": p, "k": k, "lower": lower},
            bound_value=upper, empirical_value=exact,
        )
    else:
        raise CliError(f"unknown bound kind {kind!r}")
    print(f"{report.bound_name}{report.parameters} = {report.bound_value:.6g}")
    if report.empirical_value is not None:
        print(f"empirical = {report.empirical_value:.6g}  satisfied = {report.satisfied}")
    _emit(opts, report, {"bound": kind, **report.parameters}, seed, started)
    return 0


def _cmd_oracle(opts: _Options, kind: str) -> int:
    seed = opts.seed()
    started = _timestamp()
    if kind == "exhaustive":
        counts = OpinionCounts(zeros=opts.integer("zeros"), ones=opts.integer("ones"))
        q = opts.real("q")
        dist = exhaustive_round_distribution(counts, q)
        for k, p in enumerate(dist.probabilities):
            print(f"P[next zeros = {k}] = {p:.12g}")
        _emit(opts, dist, {"zeros": counts.zeros, "ones": counts.ones, "q": q}, seed, started)
    elif kind == "exact-chain":
        n = opts.integer("n")
        delta = opts.integer("delta", 0)
        q = opts.real("q")
        rounds = opts.integer("rounds", 3)
        p_cons, p_maj = exact_chain_consensus_probability(n, delta, q, rounds)
        print(f"P[consensus] = {p_cons:.12g}")
        print(f"P[majority consensus] = {p_maj:.12g}")
        payload = {
            "n": n, "delta": delta, "q": q, "rounds": rounds,
            "p_consensus": p_cons, "p_majority_consensus": p_maj,
        }
        _emit(opts, payload, {"n": n, "delta": delta, "q": q, "rounds": rounds}, seed, started)
    else:
        raise CliError(f"unknown oracle kind {kind!r}")
    return 0


def _cmd_verify(opts: _Options) -> int:
    seed = opts.seed()
    if opts.real("q", 0.5) != 0.5:
        raise CliError(
            "acceptance criteria run at their pinned loss rates (q = 0.5, plus 0.2/0.8 "
            "inside criterion 5); use `sweep theorem1 --q ...` for other values"
        )
    raw = opts.get("criteria")
    suite = opts.get("suite")
    if raw is not None:
        try:
            criteria = [int(tok) for tok in str(raw).split(",") if tok]
        except ValueError:
            raise CliError("--criteria must be a comma list of integers")
    elif suite is not None:
        if not isinstance(suite, str) or suite not in verify.SUITES:
            raise CliError(
                f"unknown suite {suite!r}, expected one of {', '.join(sorted(verify.SUITES))}"
            )
        criteria = list(verify.SUITES[suite])
    else:
        criteria = None
    results = verify.run_verification(
        criteria, seed=seed, workers=opts.workers(), out_dir=opts.path("out_dir")
    )
    return 0 if all(r.passed for r in results) else 2


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return 1
        opts = _Options(args)
        if args.command == "simulate":
            return _cmd_simulate(opts)
        if args.command == "estimate":
            return _cmd_estimate(opts)
        if args.command == "sweep":
            if args.sweep_kind is None:
                raise CliError("sweep requires a kind (trichotomy, max-error, ...)")
            return _cmd_sweep(opts, args.sweep_kind)
        if args.command == "bounds":
            if args.bound_kind is None:
                raise CliError("bounds requires a kind (prop1, prop4, prop5, ...)")
            return _cmd_bounds(opts, args.bound_kind)
        if args.command == "oracle":
            if args.oracle_kind is None:
                raise CliError("oracle requires a kind (exhaustive, exact-chain)")
            return _cmd_oracle(opts, args.oracle_kind)
        if args.command == "verify":
            return _cmd_verify(opts)
        raise CliError(f"unknown command {args.command!r}")
    except CliError as exc:
        print(f"smpsim: error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"smpsim: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
