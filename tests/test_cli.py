import json
import signal
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from smpsim import DEFAULT_MASTER_SEED, engine, experiments, verify
from smpsim.cli import _COMMANDS, _options, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBounds:
    def test_prop1_example(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "prop1", "--n", "100", "--a", "50", "--q", "0.5")
        assert code == 0
        assert "0.00129095" in out

    def test_prop5_exposes_constants(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "prop5", "--n", "100", "--c", "10", "--q", "0.5")
        assert code == 0
        assert "'rate_constant': 64.0" in out
        assert "0.0078125" in out  # envelope exponent at q = 0.5

    def test_stirling_reports_satisfaction(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "stirling", "--m", "10", "--p", "0.5", "--k", "5"
        )
        assert code == 0
        assert "satisfied = True" in out

    def test_pn_sandwich(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "pn-sandwich", "--n", "100", "--q", "0.5")
        assert code == 0
        assert "satisfied = True" in out

    def test_pn_sandwich_reports_exact_p_n_at_the_largest_n(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "pn-sandwich", "--n", str(2**26 - 1), "--q", "0.5"
        )
        assert code == 0
        assert "satisfied = True" in out

    def test_missing_required_flag(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "prop1", "--n", "100", "--a", "50")
        assert code == 1
        assert "--q" in err


class TestOracle:
    def test_exact_chain_split_pair(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "exact-chain", "--n", "1", "--delta", "0",
            "--q", "0.5", "--rounds", "3",
        )
        assert code == 0
        assert "P[consensus] = 0" in out

    def test_exact_chain_stops_once_absorbed(self, capsys, monkeypatch):
        # 10^8 rounds ran until killed before the chain stopped at absorbing
        # states; they are refused now, so the test asks for the ceiling and
        # counts keep/adopt evaluations, one per full round. The alarm fails
        # the test after 1 s
        def too_slow(signum, frame):
            raise TimeoutError("the chain ran on past absorption")

        evaluations = []
        transition_values = engine.analytics.transition_values
        monkeypatch.setattr(
            engine.analytics, "transition_values",
            lambda *args: evaluations.append(args) or transition_values(*args),
        )
        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        try:
            code, out, _ = run_cli(
                capsys, "oracle", "exact-chain", "--n", "2", "--q", "0.5",
                "--rounds", str(engine._CHAIN_MAX_ROUNDS),
            )
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        assert code == 0
        assert out.splitlines() == ["P[consensus] = 1", "P[majority consensus] = 1"]
        assert len(evaluations) < 1000

    def test_exact_chain_past_its_rounds_ceiling_exits_1_at_once(self, capsys, monkeypatch):
        # mass leaves the tie at about 1e-9 a round, so nothing absorbs: a
        # 10 s timeout killed this command before the chain had a ceiling
        monkeypatch.setattr(engine, "_chain", _no_trials)
        code, out, err = run_cli(
            capsys, "oracle", "exact-chain", "--n", "3", "--q", "0.999999999",
            "--rounds", "100000000",
        )
        assert code == 1
        assert err == (
            f"smpsim: error: --rounds must be at most {engine._CHAIN_MAX_ROUNDS} for the exact "
            "chain, got 100000000\n"
        )
        assert out == ""

    def test_exhaustive(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "exhaustive", "--zeros", "2", "--ones", "2", "--q", "0.5"
        )
        assert code == 0
        assert "P[next zeros = 4]" in out

    def test_size_limit_is_clean_error(self, capsys):
        code, _, err = run_cli(
            capsys, "oracle", "exhaustive", "--zeros", "4", "--ones", "4", "--q", "0.5"
        )
        assert code == 1
        assert "at most 6" in err


class TestSimulateAndEstimate:
    def test_simulate_absorbing(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--n", "2", "--delta", "2", "--q", "0.5", "--rounds", "2"
        )
        assert code == 0
        assert "round 0: zeros=4 ones=0" in out
        assert "consensus=True majority_consensus=True" in out

    def test_estimate_certain(self, capsys, tmp_path):
        out_file = tmp_path / "est.json"
        code, out, _ = run_cli(
            capsys, "estimate", "--n", "2", "--delta", "2", "--q", "0.5",
            "--rounds", "1", "--event", "consensus", "--trials", "200",
            "--out", str(out_file),
        )
        assert code == 0
        assert "P[consensus] = 1" in out
        doc = json.loads(out_file.read_text())
        assert doc["payload"]["successes"] == 200
        assert doc["manifest"]["master_seed"] == DEFAULT_MASTER_SEED

    def test_payload_reproducible_across_runs(self, capsys, tmp_path):
        files = []
        for name in ("a.json", "b.json"):
            out_file = tmp_path / name
            code, _, _ = run_cli(
                capsys, "estimate", "--n", "10", "--q", "0.5", "--rounds", "2",
                "--event", "consensus", "--trials", "500", "--out", str(out_file),
            )
            assert code == 0
            files.append(json.loads(out_file.read_text()))
        assert files[0]["payload"] == files[1]["payload"]


class TestSweep:
    def test_trichotomy_with_plot_data(self, capsys, tmp_path):
        plot = tmp_path / "plot.dat"
        out_file = tmp_path / "sweep.csv"
        code, out, _ = run_cli(
            capsys, "sweep", "trichotomy", "--n-grid", "16,64",
            "--q", "0.5", "--plot-data", str(plot),
            "--out", str(out_file), "--format", "csv",
        )
        assert code == 0
        blocks = [b for b in plot.read_text().split("\n\n\n") if b.strip()]
        assert len(blocks) == 3  # zero, sqrt, power regimes
        lines = out_file.read_text().strip().split("\n")
        assert len(lines) == 1 + 6  # header + 2 n-values x 3 regimes

    def test_return_to_symmetry(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "return-to-symmetry", "--n-grid", "25",
            "--q", "0.5", "--trials", "2000",
        )
        assert code == 0
        assert "returned_to_tie" in out


class TestConfigPrecedence:
    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 100, "q": 0.3, "a": 50}))
        out_file = tmp_path / "r.json"
        code, _, _ = run_cli(
            capsys, "bounds", "prop1", "--config", str(cfg), "--q", "0.5",
            "--out", str(out_file),
        )
        assert code == 0
        doc = json.loads(out_file.read_text())
        assert doc["manifest"]["config"]["q"] == 0.5  # flag wins
        assert doc["manifest"]["config"]["n"] == 100  # config fills the gap

    def test_config_only(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 100, "b": 30}))
        code, out, _ = run_cli(capsys, "bounds", "prop4", "--config", str(cfg))
        assert code == 0
        assert "0.00024682" in out

    def test_bad_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1,2,3]")
        code, _, err = run_cli(capsys, "bounds", "prop4", "--config", str(cfg))
        assert code == 1
        assert "JSON object" in err

    @pytest.mark.parametrize("text", [None, "{\"n\": "])
    def test_unreadable_config_exits_1(self, capsys, tmp_path, text):
        # a missing file and malformed JSON both end with exit 1, naming the file
        cfg = tmp_path / "cfg.json"
        if text is not None:
            cfg.write_text(text)
        code, out, err = run_cli(capsys, "bounds", "prop4", "--config", str(cfg))
        assert code == 1 and out == ""
        assert f"cannot read config {cfg}" in err

    def test_workers_env_override(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("SMPSIM_WORKERS", "not-a-number")
        code, _, err = run_cli(
            capsys, "estimate", "--n", "4", "--q", "0.5", "--rounds", "1",
            "--event", "consensus", "--trials", "10",
        )
        assert code == 1
        assert "SMPSIM_WORKERS" in err


class TestErrors:
    def test_unknown_subcommand(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 1

    def test_no_subcommand_prints_help(self, capsys):
        code, out, _ = run_cli(capsys)
        assert code == 1
        assert "usage" in out.lower()

    def test_invalid_seed(self, capsys):
        code, _, err = run_cli(
            capsys, "bounds", "prop4", "--n", "10", "--b", "2", "--seed", "banana"
        )
        assert code == 1
        assert "seed" in err

    def test_random_seed_accepted(self, capsys):
        code, _, _ = run_cli(
            capsys, "bounds", "prop4", "--n", "10", "--b", "2", "--seed", "random"
        )
        assert code == 0

    def test_domain_error_maps_to_exit_1(self, capsys):
        code, _, err = run_cli(
            capsys, "bounds", "prop1", "--n", "10", "--a", "10", "--q", "0.5"
        )
        assert code == 1
        assert "A must satisfy" in err


class TestVerifySubcommand:
    def test_single_fast_criterion(self, capsys, tmp_path):
        out_dir = tmp_path / "results"
        code, out, _ = run_cli(
            capsys, "verify", "--criteria", "8", "--seed", "7", "--out-dir", str(out_dir)
        )
        assert code == 0
        assert "criterion  8" in out and "PASS" in out
        assert (out_dir / "criterion_08.json").exists()

    def test_failed_criterion_exits_2(self, capsys, monkeypatch):
        title, _ = verify.CRITERIA[8]
        failing = (title, lambda seed, workers: (False, {"forced": True}))
        monkeypatch.setitem(verify.CRITERIA, 8, failing)
        code, out, _ = run_cli(capsys, "verify", "--criteria", "8")
        assert code == 2
        assert f"criterion  8 ({title}): FAIL" in out
        assert out.splitlines()[-1] == "FAILED criteria: 8"

    def test_bad_criteria_list(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--criteria", "1,two")
        assert code == 1
        assert "criteria" in err

    def test_named_suite_reruns_byte_identical(self, capsys, tmp_path):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        for d in (d1, d2):
            code, out, _ = run_cli(
                capsys, "verify", "properties", "--seed", "42", "--out-dir", str(d)
            )
            assert code == 0
            assert "criterion  9" in out
        f1, f2 = d1 / "criterion_09.json", d2 / "criterion_09.json"
        assert f1.read_bytes() == f2.read_bytes()

    def test_unknown_criterion_fails_before_any_runs(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--criteria", "8,99")
        assert code == 1
        assert "unknown criteria [99]" in err
        assert out == ""

    def test_unknown_suite(self, capsys):
        code, _, err = run_cli(capsys, "verify", "nonesuch")
        assert code == 1
        assert "unknown suite" in err


class TestIntegerOptions:
    BASE = {"n": 2, "delta": 0, "rounds": 1, "q": 0.5, "trials": 10}

    @pytest.mark.parametrize(
        "key,value",
        [("n", 2.5), ("delta", 0.5), ("rounds", 1.5), ("trials", 10.5), ("n", True), ("n", "2.5")],
    )
    def test_non_integral_config_value_exits_1(self, capsys, tmp_path, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**self.BASE, key: value}))
        code, out, err = run_cli(capsys, "estimate", "--config", str(cfg))
        assert code == 1
        assert f"--{key} must be an integer" in err
        assert out == ""

    def test_integral_values_accepted(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**self.BASE, "n": 2.0, "trials": "10"}))
        code, out, _ = run_cli(capsys, "estimate", "--config", str(cfg))
        assert code == 0
        assert out.strip().endswith("/10)")  # ten trials ran


class TestTypedConfigValues:
    """A config value of the wrong JSON type ends with exit 1, not a traceback."""

    @pytest.mark.parametrize(
        "argv,config,message",
        [
            (("bounds", "prop1"), {"n": 10, "a": 2, "q": [0.5]}, "--q must be a number"),
            (("bounds", "prop1"), {"n": 10, "a": 2, "q": True}, "--q must be a number"),
            (("sweep", "trichotomy"), {"n_grid": 100}, "--n-grid must be a comma list"),
            (("bounds", "prop4"), {"n": 10, "b": 2, "out": 5}, "--out must be a path"),
            (("verify",), {"suite": ["all"]}, "unknown suite"),
        ],
    )
    def test_wrong_type_exits_1(self, capsys, tmp_path, argv, config, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
        assert code == 1
        assert err.startswith("smpsim: error: ") and message in err
        assert out == ""


def _no_trials(*args, **kwargs):
    raise AssertionError("a trial ran before the inputs were checked")


class TestRejectedBeforeWork:
    """Out-of-range and mistyped inputs exit 1 before any trial runs."""

    @pytest.mark.parametrize(
        "argv,config,prefix",
        [
            (("simulate", "--n", "3", "--q", "0.5", "--trial", "-1"), None, "--trial"),
            (("simulate",), {"n": 1e308, "q": 0.5}, "--n"),
            (("sweep", "max-error", "--n", "4", "--delta-stride", "0"), None, "--delta-stride"),
            (("estimate",), {"n": 2, "q": 0.5, "trials": 10, "format": "xml"}, "--format"),
            (("estimate",), {"n": 2, "q": 0.5, "trials": 10, "interval": "x"}, "--interval"),
            (("estimate", "--n", "2", "--q", "0.5", "--workers", "0"), None, "--workers"),
            (("sweep", "theorem1", "--n-grid", "4", "--alpha", "inf"), None, "--alpha"),
            (("verify", "--criteria", ","), None, "--criteria"),
            (("sweep", "return-to-symmetry", "--n-grid", ","), None, "--n-grid"),
            (("sweep", "theorem2", "--n-grid", ","), None, "--n-grid"),
            (("sweep", "theorem2"), {"n_grid": []}, "--n-grid"),
            (("sweep", "trichotomy", "--regimes", ","), None, "--regimes"),
            (("estimate", "--n", "2", "--q", "0.5", "--trials", "0"), None, "--trials"),
            (("sweep", "theorem1", "--n-grid", "4", "--trials-single-round", "0"), None,
             "--trials-single-round"),
        ],
    )
    def test_exits_1_naming_the_option(
        self, capsys, tmp_path, monkeypatch, argv, config, prefix
    ):
        monkeypatch.setattr(engine, "run_trials_batch", _no_trials)
        monkeypatch.setattr(experiments, "final_zeros_into", _no_trials)
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            argv = (*argv, "--config", str(cfg))
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert err.startswith(f"smpsim: error: {prefix} ")
        assert out == ""


    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate", "--n", "4611686018427387904", "--q", "0.5"),
            ("bounds", "stirling", "--m", "9223372036854775807", "--p", "0.5", "--k", "3"),
            ("sweep", "trichotomy", "--n-grid", "100000000"),
        ],
    )
    def test_oversized_binomial_exits_1(self, capsys, monkeypatch, argv):
        # a binomial of 2^27 or more trials is refused before any array is built
        monkeypatch.setattr(engine, "run_trials_batch", _no_trials)
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert err.startswith("smpsim: error: ") and "2^27" in err
        assert out == ""
        # the message names the oversized option: --n, --m or --n-grid
        flag = next(a for a, v in zip(argv, argv[1:]) if v.isdigit() and int(v) >= 2**26)
        assert err.startswith(f"smpsim: error: {flag} ")

    @pytest.mark.parametrize(
        "grid,alpha", [("16", "0"), ("16", "-2"), ("4", "3")]  # ceil(3 sqrt(4)) = 6 > 4
    )
    def test_theorem1_alpha_out_of_range_exits_1(self, capsys, monkeypatch, grid, alpha):
        monkeypatch.setattr(engine, "run_trials_batch", _no_trials)
        monkeypatch.setattr(experiments, "final_zeros_into", _no_trials)
        code, out, err = run_cli(capsys, "sweep", "theorem1", "--n-grid", grid, "--alpha", alpha)
        assert code == 1
        assert err.startswith("smpsim: error: ") and "alpha" in err
        assert out == ""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_theorem1_without_a_prop1_bound_exits_1(self, capsys, monkeypatch, n):
        # ceil(n^(3/4)) = n: the one-round preset once started n = 1 from a tie
        monkeypatch.setattr(experiments, "final_zeros_into", _no_trials)
        code, out, err = run_cli(capsys, "sweep", "theorem1", f"--n-grid={n}")
        assert code == 1
        assert err.startswith("smpsim: error: ") and f"n={n}" in err
        assert out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate", "--n", "2", "--q", "0.5"),
            ("estimate", "--n", "2", "--q", "0.5"),
            ("estimate", "--n", "2", "--q", "0.5", "--mode", "per_agent"),
            ("sweep", "max-error", "--n", "2"),
        ],
        ids=["simulate", "estimate", "estimate-per-agent", "sweep-max-error"],
    )
    @pytest.mark.parametrize("rounds", [engine._MONTE_CARLO_MAX_ROUNDS + 1, 10**15])
    def test_rounds_ceiling_exits_1(self, capsys, monkeypatch, argv, rounds):
        # a Monte Carlo run holds a (rounds + 1) x trials trajectory; 10^15
        # rounds once died in numpy's allocator asking for 7.11 PiB.
        # run_trials_batch and final_zeros_into check the ceiling, so the
        # round builders behind them are what must not run
        monkeypatch.setattr(engine, "_aggregated_rounds", _no_trials)
        monkeypatch.setattr(engine, "_per_agent_rounds", _no_trials)
        monkeypatch.setattr(experiments, "final_zeros_into", _no_trials)
        code, out, err = run_cli(capsys, *argv, "--rounds", str(rounds))
        assert code == 1
        assert err.startswith(
            f"smpsim: error: --rounds must be at most {engine._MONTE_CARLO_MAX_ROUNDS} "
        )
        assert f"got {rounds}" in err
        assert out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate",),
            ("estimate",),
            # several chunks on two workers, where a pool would start
            ("estimate", "--workers", "2", "--trials", str(3 * experiments.CHUNK_TRIALS)),
        ],
        ids=["simulate", "estimate", "estimate-chunks"],
    )
    def test_per_agent_ceiling_exits_1(self, capsys, monkeypatch, argv):
        # 2n = 1002 is one past the per-agent ceiling; no bit matrix is built
        def no_rounds(*args, **kwargs):
            raise AssertionError("the per-agent path ran past its ceiling")

        monkeypatch.setattr(engine, "_per_agent_rounds", no_rounds)
        code, out, err = run_cli(
            capsys, *argv, "--n", "501", "--q", "0.5", "--mode", "per_agent"
        )
        assert code == 1
        assert err.startswith("smpsim: error: --n must be at most 500 with mode per_agent")
        assert "at most 1000 agents, got 501" in err
        assert out == ""

    @pytest.mark.parametrize(
        "argv, work, message",
        [
            (("oracle", "exact-chain", "--n", "501"), "_chain",
             "--n must be at most 500 for the exact chain, which supports at most 1000 agents, "
             "got 501"),
            (("oracle", "exhaustive", "--zeros", "4", "--ones", "4"), "majority_update",
             "--zeros + --ones must be at most 6 for the exhaustive oracle, got 8"),
        ],
        ids=["exact-chain", "exhaustive"],
    )
    def test_oracle_ceiling_exits_1(self, capsys, monkeypatch, argv, work, message):
        monkeypatch.setattr(engine, work, _no_trials)
        code, out, err = run_cli(capsys, *argv, "--q", "0.5")
        assert code == 1
        assert err == f"smpsim: error: {message}\n"
        assert out == ""

#: A tiny valid config per leaf command: n <= 4 and trials <= 20, so a run
#: is one chunk and starts no process pool.
BASE_CONFIGS = {
    "simulate": {"n": 2, "q": 0.5},
    "estimate": {"n": 2, "q": 0.5, "trials": 10},
    "sweep trichotomy": {"n_grid": [4]},
    "sweep max-error": {"n": 2, "trials": 10},
    "sweep return-to-symmetry": {"n_grid": [4], "trials": 10},
    "sweep theorem1": {"n_grid": [4], "trials": 10, "trials_single_round": 10},
    "sweep theorem2": {"n_grid": [4], "trials": 10},
    "bounds prop1": {"n": 4, "a": 2, "q": 0.5},
    "bounds prop4": {"n": 4, "b": 2},
    "bounds prop5": {"n": 4, "c": 2, "q": 0.5},
    "bounds pn-sandwich": {"n": 4, "q": 0.5},
    "bounds stirling": {"m": 4, "p": 0.5, "k": 2},
    "oracle exhaustive": {"zeros": 2, "ones": 2, "q": 0.5},
    "oracle exact-chain": {"n": 2, "q": 0.5},
    "verify": {"criteria": [8]},
}

_INTEGER_WRONG = [[2], {"n": 2}, True, "two", 2.5, 1e308]
#: Wrongly typed or out-of-range values, by the kind of value an option takes.
WRONG_VALUES = {
    "integer": _INTEGER_WRONG,
    "bounded integer": [*_INTEGER_WRONG, -1],
    "real": [[0.5], {"q": 0.5}, True, "half"],
    "choice": [["json"], {"a": 1}, True, "xml", 1],
    "path": [["out"], {"a": 1}, True, 1e308],
    "int list": [{"n": 2}, True, "four", 2.5, 1e308, [2.5], ["x"], [], ","],
    "seed": [[1], {"a": 1}, True, "banana", 2.5],
    "regimes": [["zero"], {"a": 1}, True, "banana", 1, ","],
    "suite": [["all"], {"a": 1}, True, "nonesuch"],
}
OPTION_KINDS = {
    **dict.fromkeys(["n", "delta", "rounds", "a", "b", "c", "m", "k", "zeros", "ones"], "integer"),
    **dict.fromkeys(["trial", "delta_stride", "workers", "trials", "trials_single_round"],
                    "bounded integer"),
    **dict.fromkeys(["q", "p", "alpha"], "real"),
    **dict.fromkeys(["mode", "event", "interval", "format"], "choice"),
    **dict.fromkeys(["out", "plot_data", "out_dir"], "path"),
    **dict.fromkeys(["n_grid", "criteria"], "int list"),
    "seed": "seed",
    "regimes": "regimes",
    "suite": "suite",
}


def run_config(capsys, tmp_path, leaf: str, config: dict):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    return run_cli(capsys, *leaf.split(), "--config", str(cfg))


class TestConfigProperties:
    def test_every_leaf_and_option_is_covered(self):
        assert set(BASE_CONFIGS) == set(_COMMANDS)
        for leaf in _COMMANDS:
            assert set(_options(leaf)) - {"config"} <= set(OPTION_KINDS)

    @pytest.mark.parametrize("leaf", sorted(BASE_CONFIGS))
    def test_base_config_runs(self, capsys, tmp_path, monkeypatch, leaf):
        monkeypatch.delenv("SMPSIM_WORKERS", raising=False)
        code, _, err = run_config(capsys, tmp_path, leaf, BASE_CONFIGS[leaf])
        assert code == 0, err

    @settings(
        max_examples=200, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_one_wrong_value_exits_1_before_work(self, capsys, tmp_path, monkeypatch, data):
        monkeypatch.delenv("SMPSIM_WORKERS", raising=False)
        monkeypatch.setattr(engine, "run_trials_batch", _no_trials)
        monkeypatch.setattr(experiments, "final_zeros_into", _no_trials)
        leaf = data.draw(st.sampled_from(sorted(BASE_CONFIGS)), label="leaf")
        # --config is always given here as a flag, which a config key cannot override
        options = sorted(set(_options(leaf)) - {"config"})
        name = data.draw(st.sampled_from(options), label="option")
        value = data.draw(st.sampled_from(WRONG_VALUES[OPTION_KINDS[name]]), label="value")
        code, out, err = run_config(capsys, tmp_path, leaf, {**BASE_CONFIGS[leaf], name: value})
        assert code == 1
        assert err.startswith("smpsim: error: ")
        assert name.replace("_", "-") in err
        assert out == ""

    @settings(
        max_examples=200, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(rounds=st.one_of(
        st.integers(1, 2**63 - 1),
        st.integers(engine._CHAIN_MAX_ROUNDS - 2, engine._CHAIN_MAX_ROUNDS + 2),
    ))
    def test_exact_chain_rounds_up_to_int64_max(self, capsys, tmp_path, monkeypatch, rounds):
        # no chain runs here: a stand-in answers every solve the ceiling lets through
        solves = []
        monkeypatch.setattr(
            engine, "_chain", lambda *args: solves.append(args[3]) or (1.0, 1.0, 0.0)
        )
        code, out, err = run_config(
            capsys, tmp_path, "oracle exact-chain", {**BASE_CONFIGS["oracle exact-chain"],
                                                     "rounds": rounds},
        )
        if rounds <= engine._CHAIN_MAX_ROUNDS:
            assert (code, err, solves) == (0, "", [rounds])
        else:
            assert (code, out, solves) == (1, "", [])
            assert err == (
                f"smpsim: error: --rounds must be at most {engine._CHAIN_MAX_ROUNDS} for the "
                f"exact chain, got {rounds}\n"
            )

    @pytest.mark.parametrize(
        "leaf,flags,config",
        [
            ("estimate",
             ("--n", "4", "--q", "0.25", "--trials", "20", "--seed", "0x2a",
              "--mode", "per_agent", "--interval", "clopper_pearson"),
             {"n": 4.0, "q": 0.25, "trials": "20", "seed": 42, "mode": "per_agent",
              "interval": "clopper_pearson"}),
            ("sweep return-to-symmetry",
             ("--n-grid", "4,9", "--q", "0.5", "--trials", "20", "--seed", "7"),
             {"n_grid": [4, 9], "q": 0.5, "trials": 20, "seed": "7"}),
        ],
    )
    def test_flag_and_config_resolve_alike(self, capsys, tmp_path, leaf, flags, config):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        code, from_flags, _ = run_cli(capsys, *leaf.split(), *flags, "--out", str(a))
        assert code == 0
        code, from_config, _ = run_config(capsys, tmp_path, leaf, {**config, "out": str(b)})
        assert code == 0
        assert from_config == from_flags
        assert _result_text(b) == _result_text(a)

GOLDEN_CLI = Path(__file__).parent / "golden" / "cli"

#: One small invocation per leaf command (verify has its own tests).  Each
#: run writes ``--out NAME.json`` (``.csv`` where the argv asks for csv);
#: stdout and the result file must match ``tests/golden/cli/NAME.*``.  The
#: files were first written by the CLI before its options moved into one
#: table; the Monte Carlo ones were rewritten by the CLI of version 0.2.0,
#: whose random stream puts the trial in the low Philox counter word.  The
#: single binomial sampler of version 0.3.0 changed only their tool_version.
#: Version 0.4.0 draws an agent pair's four sides from the four words of one
#: Philox block: it rewrote the two per-agent runs, ``simulate_per_agent``
#: and ``estimate_csv``, and changed only the tool_version of the others.
TRANSCRIPTS = {
    "simulate": ("simulate", "--n", "3", "--delta", "2", "--q", "0.5", "--rounds", "3",
                 "--trial", "5", "--seed", "0x2a"),
    "simulate_per_agent": ("simulate", "--n", "2", "--q", "0.4", "--mode", "per_agent"),
    "estimate": ("estimate", "--n", "4", "--delta", "2", "--q", "0.5", "--rounds", "2",
                 "--trials", "300", "--event", "majority_consensus",
                 "--interval", "clopper_pearson", "--seed", "7"),
    "estimate_csv": ("estimate", "--n", "3", "--q", "0.3", "--trials", "200",
                     "--mode", "per_agent", "--format", "csv"),
    "sweep_trichotomy": ("sweep", "trichotomy", "--n-grid", "16,64", "--q", "0.5",
                         "--regimes", "zero,log,sqrt:2,power:0.6"),
    "sweep_max_error": ("sweep", "max-error", "--n", "4", "--q", "0.5", "--rounds", "2",
                        "--trials", "100", "--delta-stride", "2"),
    "sweep_return_to_symmetry": ("sweep", "return-to-symmetry", "--n-grid", "4,9",
                                 "--q", "0.5", "--trials", "500"),
    "sweep_theorem1": ("sweep", "theorem1", "--n-grid", "16", "--q", "0.5", "--trials", "50",
                       "--trials-single-round", "200", "--alpha", "1.5"),
    "sweep_theorem2": ("sweep", "theorem2", "--config",
                       str(GOLDEN_CLI / "sweep_theorem2.config.json"), "--q", "0.5"),
    "bounds_prop1": ("bounds", "prop1", "--n", "100", "--a", "50", "--q", "0.5"),
    "bounds_prop4": ("bounds", "prop4", "--n", "100", "--b", "30"),
    "bounds_prop5": ("bounds", "prop5", "--n", "100", "--c", "10", "--q", "0.5"),
    "bounds_pn_sandwich": ("bounds", "pn-sandwich", "--n", "100", "--q", "0.5"),
    "bounds_stirling": ("bounds", "stirling", "--m", "10", "--p", "0.5", "--k", "5"),
    "oracle_exhaustive": ("oracle", "exhaustive", "--zeros", "3", "--ones", "1", "--q", "0.4"),
    "oracle_exact_chain": ("oracle", "exact-chain", "--n", "5", "--delta", "2", "--q", "0.5",
                           "--rounds", "2"),
}

#: Manifest fields that differ between runs of the same invocation.
VOLATILE_MANIFEST_FIELDS = ("started", "finished", "command_line")


def _result_text(path: Path) -> str:
    """A result file's text, with the run-varying manifest fields removed."""
    if path.suffix == ".csv":
        return path.read_text()
    doc = json.loads(path.read_text())
    for key in VOLATILE_MANIFEST_FIELDS:
        del doc["manifest"][key]
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def run_transcript(capsys, name: str, out_dir: Path) -> tuple[str, Path]:
    argv = TRANSCRIPTS[name]
    out = out_dir / (name + (".csv" if "csv" in argv else ".json"))
    code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
    assert code == 0, err
    return stdout, out


class TestGoldenTranscripts:
    @pytest.mark.parametrize("name", sorted(TRANSCRIPTS))
    def test_stdout_and_result_file_match_golden(self, capsys, tmp_path, name):
        stdout, out = run_transcript(capsys, name, tmp_path)
        assert stdout == (GOLDEN_CLI / f"{name}.stdout").read_text()
        assert _result_text(out) == (GOLDEN_CLI / out.name).read_text()
