import json

import pytest

from smpsim import DEFAULT_MASTER_SEED
from smpsim.cli import main


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

    def test_unknown_suite(self, capsys):
        code, _, err = run_cli(capsys, "verify", "nonesuch")
        assert code == 1
        assert "unknown suite" in err

    def test_q_must_match_pinned_value(self, capsys):
        code, _, err = run_cli(capsys, "verify", "properties", "--q", "0.3")
        assert code == 1
        assert "pinned" in err
        code, _, _ = run_cli(capsys, "verify", "properties", "--q", "0.5")
        assert code == 0


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
