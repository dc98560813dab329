import json
from pathlib import Path

import numpy as np
import pytest

from smpsim.analytics import BoundReport
from smpsim.engine import CountDistribution, TrialOutcome
from smpsim.experiments import Estimate, SweepResult, SweepRow
from smpsim.io import (
    _PAYLOAD_CLASSES,
    CSV_SWEEP_COLUMNS,
    ResultFile,
    RunManifest,
    emit_plot_data,
    format_float,
    read_result_file,
    write_results,
)
from smpsim.model import OpinionCounts


def _manifest(**overrides):
    fields = dict(
        master_seed=42,
        config={"n": 10, "delta": 2, "q": 0.5, "rounds": 3, "event": "consensus"},
        command_line="estimate --n 10 --q 0.5",
        workers=1,
        started="2024-06-01T00:00:00+00:00",
        finished="2024-06-01T00:00:05+00:00",
    )
    fields.update(overrides)
    return RunManifest.create(**fields)


def _sample_sweep():
    est = Estimate.from_counts(37, 400)
    bound = BoundReport(
        bound_name="prop1", parameters={"n": 10, "A": 3, "q": 0.5},
        bound_value=0.25, empirical_value=est.p_hat,
    )
    rows = (
        SweepRow(n=10, delta=3, q=0.5, rounds=1, event="majority_consensus_failure",
                 estimate=est, bound=bound, extra={"regime": "sqrt"}),
        SweepRow(n=20, delta=0, q=0.5, rounds=1, event="keep_zero",
                 exact=0.53125, extra={"regime": "zero"}),
        SweepRow(n=30, delta=None, q=0.25, rounds=None, event="empty_point"),
    )
    return SweepResult(kind="demo", rows=rows, metadata={"q": 0.5})


PAYLOADS = {
    "estimate": Estimate.from_counts(5, 40),
    "bound_report": BoundReport(
        bound_name="prop5", parameters={"n": 100, "C": 10, "q": 0.5}, bound_value=0.9
    ),
    "sweep": _sample_sweep(),
    "count_distribution": CountDistribution(probabilities=np.array([0.125, 0.5, 0.25, 0.0625, 0.0625])),
    "trial_outcome": TrialOutcome(
        trajectory=(OpinionCounts(3, 1), OpinionCounts(4, 0)),
        consensus=True, majority_consensus=True, final_value=0,
    ),
    "table": {"n": 5, "delta": 2, "q": 0.5, "p_consensus": 0.9330561353600877},
}


class TestJsonRoundTrip:
    @pytest.mark.parametrize("kind", sorted(PAYLOADS))
    def test_round_trip_equals_in_memory(self, tmp_path, kind):
        result = ResultFile(manifest=_manifest(), payload=PAYLOADS[kind])
        path = tmp_path / "result.json"
        write_results(result, "json", path)
        loaded = read_result_file(path)
        assert loaded.manifest == result.manifest
        if kind == "count_distribution":
            assert np.array_equal(loaded.payload.probabilities, result.payload.probabilities)
        else:
            assert loaded.payload == result.payload

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda doc: doc.update(payload_kind="nope"), "has an unknown payload_kind 'nope'"),
            (lambda doc: doc.pop("payload"), "lacks the key(s) payload"),
            (lambda doc: doc.clear(), "lacks the key(s) manifest, payload_kind, payload"),
        ],
    )
    def test_malformed_file_is_a_value_error(self, tmp_path, edit, message):
        path = tmp_path / "result.json"
        write_results(ResultFile(manifest=_manifest(), payload=PAYLOADS["estimate"]), "json", path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as refusal:
            read_result_file(path)
        assert str(refusal.value) == f"{path} {message}"

    def test_missing_file_is_an_os_error(self, tmp_path):
        path = tmp_path / "absent.json"
        with pytest.raises(OSError, match=f"failed to read results from {path}"):
            read_result_file(path)

    def test_json_list_is_a_value_error(self, tmp_path):
        path = tmp_path / "result.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="holds a JSON list, not a result object"):
            read_result_file(path)

    def test_payload_kind_recorded(self, tmp_path):
        result = ResultFile(manifest=_manifest(), payload=PAYLOADS["estimate"])
        path = tmp_path / "r.json"
        write_results(result, "json", path)
        doc = json.loads(path.read_text())
        assert doc["payload_kind"] == "estimate"
        assert set(doc) == {"manifest", "payload", "payload_kind"}

    def test_write_is_deterministic(self, tmp_path):
        result = ResultFile(manifest=_manifest(), payload=PAYLOADS["sweep"])
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_results(result, "json", p1)
        write_results(result, "json", p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_unwritable_path(self):
        result = ResultFile(manifest=_manifest(), payload=PAYLOADS["estimate"])
        with pytest.raises(OSError, match="no/such/dir"):
            write_results(result, "json", "/no/such/dir/out.json")

    def test_unknown_format(self, tmp_path):
        result = ResultFile(manifest=_manifest(), payload=PAYLOADS["estimate"])
        with pytest.raises(ValueError):
            write_results(result, "xml", tmp_path / "r.xml")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_unsupported_payload_is_refused(self, tmp_path, fmt):
        path = tmp_path / f"r.{fmt}"
        with pytest.raises(TypeError, match="unsupported payload type OpinionCounts"):
            write_results(ResultFile(manifest=_manifest(), payload=OpinionCounts(3, 1)), fmt, path)
        assert not path.exists()


GOLDEN = Path(__file__).parent / "golden"


def test_every_payload_kind_is_pinned():
    assert set(PAYLOADS) == set(_PAYLOAD_CLASSES)


def test_every_payload_kind_has_a_writer():
    """The payload kinds are exactly those the CLI and verify golden files hold."""
    paths = [*GOLDEN.glob("cli/*.json"), *GOLDEN.glob("verify/*.json")]
    docs = [json.loads(p.read_text()) for p in paths]
    written = {doc["payload_kind"] for doc in docs if "payload_kind" in doc}
    assert set(_PAYLOAD_CLASSES) == written


class TestGoldenFiles:
    """Result-file bytes are pinned: each kind is rewritten and compared to tests/golden."""

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("kind", sorted(PAYLOADS))
    def test_bytes_match_golden(self, tmp_path, kind, fmt):
        path = tmp_path / f"{kind}.{fmt}"
        write_results(ResultFile(manifest=_manifest(), payload=PAYLOADS[kind]), fmt, path)
        assert path.read_bytes() == (GOLDEN / f"{kind}.{fmt}").read_bytes()


class TestCsv:
    def test_estimate_single_row(self, tmp_path):
        result = ResultFile(manifest=_manifest(), payload=PAYLOADS["estimate"])
        path = tmp_path / "r.csv"
        write_results(result, "csv", path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == ",".join(CSV_SWEEP_COLUMNS)
        assert len(lines) == 2

    def test_sweep_schema(self, tmp_path):
        result = ResultFile(manifest=_manifest(), payload=PAYLOADS["sweep"])
        path = tmp_path / "r.csv"
        write_results(result, "csv", path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 1 + 3  # header + one row per sweep point
        for line in lines:
            assert len(line.split(",")) == 11

    @pytest.mark.parametrize(
        "config,missing", [({}, "n, q, event"), ({"n": 3, "event": "consensus"}, "q")]
    )
    def test_estimate_needs_n_q_and_event(self, tmp_path, config, missing):
        manifest = RunManifest.create(master_seed=1, config=config, command_line="lib")
        result = ResultFile(manifest=manifest, payload=Estimate.from_counts(3, 10))
        path = tmp_path / "r.csv"
        with pytest.raises(ValueError, match=f"needs {missing} in the manifest config"):
            write_results(result, "csv", path)
        assert not path.exists()

    def test_bound_needs_n_or_m(self, tmp_path):
        report = BoundReport(bound_name="prop4", parameters={"B": 3}, bound_value=0.5)
        result = ResultFile(manifest=_manifest(), payload=report)
        path = tmp_path / "r.csv"
        with pytest.raises(ValueError, match="a bound CSV needs n or m in the prop4 parameters"):
            write_results(result, "csv", path)
        assert not path.exists()

    def test_estimate_delta_and_rounds_are_optional(self, tmp_path):
        config = {"n": 3, "q": 0.3, "event": "consensus"}
        manifest = RunManifest.create(master_seed=1, config=config, command_line="lib")
        path = tmp_path / "r.csv"
        write_results(ResultFile(manifest=manifest, payload=Estimate.from_counts(3, 10)), "csv", path)
        assert path.read_text().split("\n")[1].startswith("3,,0.29999999999999999,,consensus,0.29")

    def test_float_rendering_round_trips(self, tmp_path):
        est = Estimate.from_counts(1, 3)
        result = ResultFile(manifest=_manifest(), payload=est)
        path = tmp_path / "r.csv"
        write_results(result, "csv", path)
        row = path.read_text().strip().split("\n")[1].split(",")
        assert float(row[5]) == est.p_hat
        assert float(row[6]) == est.ci_low

    def test_format_float_17_digits(self):
        x = 1.0 / 3.0
        assert format_float(x) == "0.33333333333333331"
        assert float(format_float(x)) == x

    def test_distribution_csv(self, tmp_path):
        result = ResultFile(manifest=_manifest(), payload=PAYLOADS["count_distribution"])
        path = tmp_path / "d.csv"
        write_results(result, "csv", path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "k,probability"
        assert len(lines) == 6

    def test_trajectory_csv(self, tmp_path):
        result = ResultFile(manifest=_manifest(), payload=PAYLOADS["trial_outcome"])
        path = tmp_path / "t.csv"
        write_results(result, "csv", path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "round,zeros,ones"
        assert lines[1] == "0,3,1"
        assert lines[2] == "1,4,0"


class TestPlotData:
    def test_blocks_per_regime_plus_bound(self, tmp_path):
        path = tmp_path / "plot.dat"
        emit_plot_data(_sample_sweep(), path)
        text = path.read_text()
        blocks = [b for b in text.split("\n\n\n") if b.strip()]
        assert len(blocks) == 3  # two regimes + one bound overlay
        assert "# sqrt" in text and "# zero" in text and "# bound:prop1" in text

    def test_three_columns(self, tmp_path):
        path = tmp_path / "plot.dat"
        emit_plot_data(_sample_sweep(), path)
        for line in path.read_text().split("\n"):
            if line and not line.startswith("#"):
                assert len(line.split()) == 3

    def test_missing_directory_is_an_os_error(self, tmp_path):
        path = tmp_path / "absent" / "plot.dat"
        with pytest.raises(OSError, match=f"failed to write plot data to {path}"):
            emit_plot_data(_sample_sweep(), path)

    def test_empty_sweep(self, tmp_path):
        path = tmp_path / "empty.dat"
        emit_plot_data(SweepResult(kind="demo", rows=(), metadata={}), path)
        assert path.read_text() == ""


class TestManifest:
    def test_round_trip(self, tmp_path):
        m = _manifest(workers=4, started=None, finished=None)
        path = tmp_path / "m.json"
        write_results(ResultFile(manifest=m, payload={"p_consensus": 0.5}), "json", path)
        assert read_result_file(path).manifest == m

    def test_tool_version_recorded(self):
        import smpsim

        assert _manifest().tool_version == smpsim.__version__
