"""Command-line interface.

Subcommands: ``simulate`` (one trial, prints the trajectory), ``estimate``
(event probability with a confidence interval), ``sweep`` (trichotomy /
max-error / return-to-symmetry presets), ``bounds`` (closed-form bound
calculators), ``oracle`` (exhaustive and exact-chain), and ``verify``
(the acceptance criteria).

Each option is declared once, in the table ``_COMMANDS``: per leaf command,
``name -> (converter, default[, help])``.  The parser adds one string flag
per entry.  Precedence: a flag overrides ``--config`` (a JSON object keyed
by option name, whose other keys are ignored), which overrides the default;
SMPSIM_WORKERS sits between flag and config for the worker count.  Flag and
config values pass through the same converter before any work starts.
A run past one of the engine's size ceilings also exits 1, naming its flags.
Exit codes: 0 success, 1 invalid arguments or config, 2 failed verification.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import numbers
import os
import secrets
import sys
from datetime import datetime, timezone
from functools import partial
from typing import Any

from . import DEFAULT_MASTER_SEED, __version__, analytics, experiments, io, verify
from .engine import (
    MODE_AGGREGATED,
    MODE_PER_AGENT,
    UnsupportedSizeError,
    exact_chain_consensus_probability,
    exhaustive_round_distribution,
    run_trial,
)
from .model import AsymmetryRegime, NetworkModel, OpinionCounts, ProtocolConfig

__all__ = ["main", "build_parser"]

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


class CliError(Exception):
    """Invalid arguments or configuration; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 on bad usage, not argparse's 2
        self.print_usage(sys.stderr)
        raise CliError(message)


# --------------------------------------------------------------------------
# Converters: (label, value) -> value, where value is a flag's string or any
# JSON value from the config, and label names the source in error messages.
# --------------------------------------------------------------------------


def _flag(name: str) -> str:
    return f"--{name.replace('_', '-')}"


def _integer(label: str, value: Any, low=INT64_MIN, high=INT64_MAX, why: str = "") -> int:
    """``value`` as an int in [low, high]; CliError unless it is integral.

    Accepts ints, integral floats such as 1e4 from a JSON config, and
    integer strings; never truncates, and a bool is not an integer.  ``why``
    follows the range in the error message.
    """
    number = value
    if isinstance(value, float) and value.is_integer():
        number = int(value)
    elif isinstance(value, str):
        try:
            number = int(value)
        except ValueError:
            pass
    if not isinstance(number, numbers.Integral) or isinstance(number, bool):
        raise CliError(f"{label} must be an integer, got {value!r}")
    if not low <= number <= high:
        raise CliError(f"{label} must be an integer in [{low}, {high}]{why}, got {value!r}")
    return int(number)


def _real(label: str, value: Any) -> float:
    """``value`` as a finite float; CliError unless it is a number or a numeric string.

    A bool is not a number here, so ``"q": true`` is rejected, not read as 1.0.
    """
    number = None
    if isinstance(value, str):
        try:
            number = float(value)
        except ValueError:
            pass
    elif isinstance(value, numbers.Real) and not isinstance(value, bool):
        number = float(value)
    if number is None or not math.isfinite(number):
        raise CliError(f"{label} must be a number, got {value!r}")
    return number


def _int_list(label: str, value: Any, **bounds) -> list[int]:
    """A nonempty comma-separated string or JSON list of integers, each within ``bounds``."""
    items = [token for token in value.split(",") if token] if isinstance(value, str) else value
    if not (isinstance(items, list) and items):
        raise CliError(f"{label} must be a comma list of one or more integers, got {value!r}")
    return [_integer(label, v, **bounds) for v in items]


def _path(label: str, value: Any) -> str:
    if not isinstance(value, str):
        raise CliError(f"{label} must be a path, got {value!r}")
    return value


def _choice(*choices: str):
    def convert(label: str, value: Any) -> str:
        if not (isinstance(value, str) and value in choices):
            raise CliError(f"{label} must be one of {', '.join(choices)}, got {value!r}")
        return value

    convert.metavar = "{" + ",".join(choices) + "}"  # shown in --help, as argparse would
    return convert


def _seed(label: str, value: Any) -> int:
    """``random`` (63 fresh bits) or any integer; the streams use it mod 2**64."""
    if value == "random":
        return secrets.randbits(63)
    if isinstance(value, str):
        try:
            value = int(value, 0)
        except ValueError:
            raise CliError(f"{label} must be an integer or 'random', got {value!r}")
    return _integer(label, value, -math.inf, math.inf)


def _suite(label: str, value: Any) -> list[int]:
    """The criterion ids of a named verify suite."""
    if not isinstance(value, str) or value not in verify.SUITES:
        raise CliError(
            f"unknown suite {value!r}, expected one of {', '.join(sorted(verify.SUITES))}"
        )
    return list(verify.SUITES[value])


def _parse_regime(token: str) -> AsymmetryRegime:
    if token == "zero":
        return AsymmetryRegime(kind="zero")
    if token in ("log", "logarithmic"):
        return AsymmetryRegime(kind="logarithmic")
    if token.startswith("sqrt"):
        alpha = _real("--regimes", token.split(":", 1)[1]) if ":" in token else 1.0
        return AsymmetryRegime(kind="sqrt_scaled", alpha=alpha)
    if token.startswith("power"):
        beta = _real("--regimes", token.split(":", 1)[1]) if ":" in token else 0.75
        return AsymmetryRegime(kind="power", beta=beta)
    raise CliError(
        f"--regimes has an unknown regime {token!r} (expected zero, log, sqrt:A, power:B)"
    )


def _regimes(label: str, value: Any) -> list[str]:
    """A nonempty comma list of regime tokens, each checked; the tokens are returned."""
    tokens = [token for token in value.split(",") if token] if isinstance(value, str) else []
    if not tokens:
        raise CliError(f"{label} must be a comma list of one or more regimes, got {value!r}")
    for token in tokens:
        _parse_regime(token)
    return tokens


# --------------------------------------------------------------------------
# Option resolution (flag > SMPSIM_WORKERS (workers only) > config > default)
# --------------------------------------------------------------------------

_REQUIRED = object()


def _resolve(args: argparse.Namespace, options: dict[str, tuple]) -> argparse.Namespace:
    """Every option's converted value, from the first source that sets it."""
    config: dict[str, Any] = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(f"cannot read config {args.config}: {exc}")
        if not isinstance(config, dict):
            raise CliError("config file must hold a JSON object")
    env = {"workers": os.environ.get("SMPSIM_WORKERS")}
    values = {}
    for name, (convert, default, *_help) in options.items():
        sources = (
            (getattr(args, name), _flag(name)),
            (env.get(name), "SMPSIM_WORKERS"),
            (config.get(name), _flag(name)),
        )
        for value, label in sources:
            if value is not None:
                values[name] = convert(label, value)
                break
        else:
            if default is _REQUIRED:
                raise CliError(f"missing required option {_flag(name)}")
            values[name] = default
    return argparse.Namespace(**values)


def _echo(o: argparse.Namespace, *skip: str) -> dict[str, Any]:
    """The command's own resolved options, as the result manifest records them."""
    return {k: v for k, v in vars(o).items() if k not in _SWEEP_OPTIONS and k not in skip}


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


# --------------------------------------------------------------------------
# Subcommand implementations: each takes the resolved options and returns
# (payload, manifest config echo); verify returns its exit code.
# --------------------------------------------------------------------------


def _protocol(o: argparse.Namespace) -> ProtocolConfig:
    return ProtocolConfig(n=o.n, delta=o.delta, rounds=o.rounds, network=NetworkModel(q=o.q))


def _simulate(o: argparse.Namespace):
    outcome = run_trial(_protocol(o), o.trial, o.seed, mode=o.mode)
    for i, c in enumerate(outcome.trajectory):
        print(f"round {i}: zeros={c.zeros} ones={c.ones}")
    print(
        f"consensus={outcome.consensus} majority_consensus={outcome.majority_consensus} "
        f"final_value={outcome.final_value}"
    )
    return outcome, _echo(o)


def _estimate(o: argparse.Namespace):
    est = experiments.estimate_event_probability(
        _protocol(o), o.event, o.trials, o.seed, workers=o.workers, mode=o.mode, method=o.interval,
    )
    print(
        f"P[{o.event}] = {est.p_hat:.6g}  ({est.confidence:.0%} CI "
        f"[{est.ci_low:.6g}, {est.ci_high:.6g}], {est.successes}/{est.trials})"
    )
    return est, _echo(o, "interval")  # the payload records the interval as `method`


def _merge_sweeps(kind: str, labeled: list[tuple[str, experiments.SweepResult]]):
    """One sweep of every labelled sweep's rows, each tagged with its label as regime."""
    rows = tuple(
        dataclasses.replace(r, extra={"regime": label, **r.extra})
        for label, sweep in labeled for r in sweep.rows
    )
    metadata = {"sweeps": {label: sweep.metadata for label, sweep in labeled}}
    return experiments.SweepResult(kind=kind, rows=rows, metadata=metadata)


def _print_sweep(sweep: experiments.SweepResult) -> None:
    for r in sweep.rows:
        value = " ".join(
            ([f"p_hat={r.estimate.p_hat:.6g} CI[{r.estimate.ci_low:.6g},{r.estimate.ci_high:.6g}]"]
             if r.estimate is not None else [])
            + ([f"exact={r.exact:.12g}"] if r.exact is not None else [])
        )
        bound = f" bound[{r.bound.bound_name}]={r.bound.bound_value:.6g}" if r.bound else ""
        regime = f" regime={r.extra['regime']}" if "regime" in r.extra else ""
        print(f"n={r.n} delta={r.delta} q={r.q} rounds={r.rounds} {r.event}: {value}{bound}{regime}")


def _sweep(kind: str, o: argparse.Namespace):
    if kind == "trichotomy":
        labeled = [
            (tok, experiments.trichotomy_sweep(_parse_regime(tok), o.n_grid, o.q))
            for tok in o.regimes
        ]
        sweep = _merge_sweeps("trichotomy", labeled)
    elif kind == "max-error":
        sweep = experiments.max_error_sweep(
            o.n, o.q, o.rounds, o.trials, o.seed,
            deltas=range(0, o.n + 1, o.delta_stride), workers=o.workers,
        )
    elif kind == "return-to-symmetry":
        sweep = experiments.return_to_symmetry_rate(
            o.n_grid, o.q, o.trials, o.seed, workers=o.workers
        )
    elif kind == "theorem1":
        sweep = experiments.theorem1_suite(
            o.q, o.n_grid, o.seed, trials_single_round=o.trials_single_round, trials=o.trials,
            alpha=o.alpha, workers=o.workers,
        )
    else:
        sweep = experiments.theorem2_suite(o.q, o.n_grid, o.trials, o.seed, workers=o.workers)
    _print_sweep(sweep)
    if o.plot_data is not None:
        io.emit_plot_data(sweep, o.plot_data)
    return sweep, {**_echo(o), "kind": kind}


def _bounds(kind: str, o: argparse.Namespace):
    if kind == "prop1":
        report = analytics.BoundReport(
            bound_name="prop1", parameters={"n": o.n, "A": o.a, "q": o.q},
            bound_value=analytics.prop1_error_bound(o.n, o.a, o.q),
        )
    elif kind == "prop4":
        report = analytics.BoundReport(
            bound_name="prop4", parameters={"n": o.n, "B": o.b},
            bound_value=analytics.prop4_bound(o.n, o.b),
        )
    elif kind == "prop5":
        report = analytics.BoundReport(
            bound_name="prop5",
            parameters={"n": o.n, "C": o.c, "q": o.q,
                        "rate_constant": analytics.prop5_rate_constant(o.q),
                        "envelope_exponent": analytics.envelope_exponent(o.q)},
            bound_value=analytics.prop5_bound(o.n, o.c, o.q),
        )
    elif kind == "pn-sandwich":
        lower, upper = analytics.pn_sandwich(o.n, o.q)
        exact = analytics.keep_zero_probability(o.n, o.n, o.q)
        report = analytics.BoundReport(
            bound_name="pn_sandwich", parameters={"n": o.n, "q": o.q, "lower": lower},
            bound_value=upper, empirical_value=exact,
        )
    else:
        lower, upper = analytics.pmf_stirling_bounds(o.m, o.p, o.k)
        exact = math.exp(analytics.binomial_log_pmf(o.m, o.p, o.k))
        report = analytics.BoundReport(
            bound_name="stirling_bracket",
            parameters={"m": o.m, "p": o.p, "k": o.k, "lower": lower},
            bound_value=upper, empirical_value=exact,
        )
    print(f"{report.bound_name}{report.parameters} = {report.bound_value:.6g}")
    if report.empirical_value is not None:
        print(f"empirical = {report.empirical_value:.6g}  satisfied = {report.satisfied}")
    return report, {"bound": kind, **report.parameters}


def _exhaustive(o: argparse.Namespace):
    dist = exhaustive_round_distribution(OpinionCounts(zeros=o.zeros, ones=o.ones), o.q)
    for k, p in enumerate(dist.probabilities):
        print(f"P[next zeros = {k}] = {p:.12g}")
    return dist, _echo(o)


def _exact_chain(o: argparse.Namespace):
    p_cons, p_maj = exact_chain_consensus_probability(o.n, o.delta, o.q, o.rounds)
    print(f"P[consensus] = {p_cons:.12g}")
    print(f"P[majority consensus] = {p_maj:.12g}")
    echo = _echo(o)
    return {**echo, "p_consensus": p_cons, "p_majority_consensus": p_maj}, echo


def _verify(o: argparse.Namespace) -> int:
    criteria = o.suite if o.criteria is None else o.criteria
    results = verify.run_verification(criteria, seed=o.seed, workers=o.workers, out_dir=o.out_dir)
    return 0 if all(r.passed for r in results) else 2


_RUN_OPTIONS = {
    "config": (_path, None, "JSON config file; flags override its values"),
    "seed": (_seed, DEFAULT_MASTER_SEED, "master seed (integer, or 'random')"),
    "workers": (partial(_integer, low=1), 1, "trial parallelism (default 1)"),
}
_RESULT_OPTIONS = {
    **_RUN_OPTIONS,
    "out": (_path, None, "write a result file here"),
    "format": (_choice("json", "csv"), "json", "result file format"),
}
_SWEEP_OPTIONS = {
    **_RESULT_OPTIONS,
    "plot_data": (_path, None, "write gnuplot-style series here"),
}

_INT = (_integer, _REQUIRED)
_TRIALS = partial(_integer, low=1)
_REAL = (_real, _REQUIRED)
_Q = (_real, 0.5)
#: n (binomials of up to 2n trials) and m stay below MAX_BINOMIAL_TRIALS.
_BELOW_2_27 = ", so that every binomial has fewer than 2^27 trials"
_N_RANGE = {"low": 1, "high": analytics.MAX_BINOMIAL_TRIALS // 2 - 1, "why": _BELOW_2_27}
_N = (partial(_integer, **_N_RANGE), _REQUIRED)
_N_GRID = partial(_int_list, **_N_RANGE)
_M = (partial(_integer, low=0, high=analytics.MAX_BINOMIAL_TRIALS - 1, why=_BELOW_2_27), _REQUIRED)
_PROTOCOL = {"n": _N, "delta": (_integer, 0), "q": _REAL, "rounds": (_integer, 3)}
_MODE = (_choice(MODE_AGGREGATED, MODE_PER_AGENT), MODE_AGGREGATED)
_N_GRID_HELP = "comma list of n values"

_GROUP_HELP = {
    "sweep": "preset experiment sweeps",
    "bounds": "evaluate closed-form bounds",
    "oracle": "exact distributions and chain probabilities",
}

#: "command [kind]" -> (help, handler, own options); ``_options`` adds the
#: shared ones.
_COMMANDS: dict[str, tuple[str | None, Any, dict[str, tuple]]] = {
    "simulate": ("run one trial and print the trajectory", _simulate, {
        **_PROTOCOL,
        "trial": (partial(_integer, low=0), 0),
        "mode": _MODE,
    }),
    "estimate": ("Monte Carlo event probability", _estimate, {
        **_PROTOCOL,
        "event": (_choice(*experiments.EVENT_NAMES), "consensus"),
        "trials": (_TRIALS, 10_000),
        "mode": _MODE,
        "interval": (_choice("wilson", "clopper_pearson"), "wilson"),
    }),
    "sweep trichotomy": ("exact keep probability per regime", partial(_sweep, "trichotomy"), {
        "regimes": (_regimes, ["zero", "sqrt:1.0", "power:0.75"],
                    "comma list: zero,log,sqrt:ALPHA,power:BETA"),
        "n_grid": (_N_GRID, [100, 1_000, 10_000], _N_GRID_HELP),
        "q": _Q,
    }),
    "sweep max-error": ("consensus error across imbalances", partial(_sweep, "max-error"), {
        "n": _N,
        "q": _Q,
        "rounds": (_integer, 3),
        "trials": (_TRIALS, 1_000),
        "delta_stride": (partial(_integer, low=1), 1),
    }),
    "sweep return-to-symmetry": (
        "round-1 return-to-tie rate", partial(_sweep, "return-to-symmetry"), {
            "n_grid": (_N_GRID, [100, 400, 1_600], _N_GRID_HELP),
            "q": _Q,
            "trials": (_TRIALS, 100_000),
        }),
    "sweep theorem1": (
        "one/two/three-round achievability suite", partial(_sweep, "theorem1"), {
            "n_grid": (_N_GRID, [10_000], _N_GRID_HELP),
            "q": _Q,
            "trials": (_TRIALS, 1_000, "trials for the multi-round presets"),
            "trials_single_round": (_TRIALS, 100_000),
            "alpha": (_real, 1.0),
        }),
    "sweep theorem2": ("two-round consensus decay suite", partial(_sweep, "theorem2"), {
        "n_grid": (_N_GRID, [100, 1_000, 10_000], _N_GRID_HELP),
        "q": _Q,
        "trials": (_TRIALS, 1_000),
    }),
    "bounds prop1": (None, partial(_bounds, "prop1"), {"n": _N, "a": _INT, "q": _REAL}),
    "bounds prop4": (None, partial(_bounds, "prop4"), {"n": _N, "b": _INT}),
    "bounds prop5": (None, partial(_bounds, "prop5"), {"n": _N, "c": _INT, "q": _REAL}),
    "bounds pn-sandwich": (None, partial(_bounds, "pn-sandwich"), {"n": _N, "q": _REAL}),
    "bounds stirling": (None, partial(_bounds, "stirling"), {"m": _M, "p": _REAL, "k": _INT}),
    "oracle exhaustive": ("enumerate all loss patterns", _exhaustive, {
        "zeros": _INT, "ones": _INT, "q": _REAL,
    }),
    "oracle exact-chain": ("exact count-chain probabilities", _exact_chain, _PROTOCOL),
    "verify": ("run acceptance criteria", _verify, {
        "suite": (_suite, None, "named criterion group (all, oracles, theorem1, theorem2, "
                                "properties, fluctuations, determinism); default all"),
        "criteria": (_int_list, None, "comma list of criterion ids (overrides the suite)"),
        "out_dir": (_path, None, "directory for per-criterion result files"),
    }),
}


def _options(leaf: str) -> dict[str, tuple]:
    """A leaf's own options, then the shared ones: verify writes no result file."""
    if leaf == "verify":
        shared = _RUN_OPTIONS
    else:
        shared = _SWEEP_OPTIONS if leaf.startswith("sweep ") else _RESULT_OPTIONS
    return {**_COMMANDS[leaf][2], **shared}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="smpsim", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"smpsim {__version__}")
    commands = parser.add_subparsers(dest="command", parser_class=_Parser)
    groups: dict[str, Any] = {}
    for leaf, (leaf_help, _handler, _own) in _COMMANDS.items():
        command, _, kind = leaf.partition(" ")
        if kind and command not in groups:
            group = commands.add_parser(command, help=_GROUP_HELP[command])
            groups[command] = group.add_subparsers(dest="kind", required=True, parser_class=_Parser)
        sub = (groups[command] if kind else commands).add_parser(kind or command, help=leaf_help)
        sub.set_defaults(leaf=leaf)
        for name, (convert, _default, *option_help) in _options(leaf).items():
            if name == "suite":  # verify's optional positional argument
                sub.add_argument(name, nargs="?", help=option_help[0])
            else:
                sub.add_argument(
                    _flag(name), metavar=getattr(convert, "metavar", None),
                    help=option_help[0] if option_help else None,
                )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return 1
        handler = _COMMANDS[args.leaf][1]
        o = _resolve(args, _options(args.leaf))
        if args.leaf == "verify":
            return handler(o)
        started = _timestamp()
        payload, echo = handler(o)
        if o.out:
            manifest = io.RunManifest.create(
                master_seed=o.seed,
                config=echo,
                command_line=" ".join(sys.argv[1:]) or "(library call)",
                workers=o.workers,
                started=started,
                finished=_timestamp(),
            )
            io.write_results(io.ResultFile(manifest=manifest, payload=payload), o.format, o.out)
        return 0
    except UnsupportedSizeError as exc:  # the engine words the ceiling; name its flags
        print(f"smpsim: error: {' + '.join(map(_flag, exc.names))} {exc.detail}", file=sys.stderr)
        return 1
    except (CliError, ValueError, OSError) as exc:
        print(f"smpsim: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
