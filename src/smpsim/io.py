"""Result persistence: manifests, JSON/CSV result files, plot data.

A result file is a single JSON document holding the run manifest followed
by the payload; CSV is a flat view of the same payload.  Serialization is
deterministic (fixed key order, exact float round-trip in JSON, 17
significant digits in CSV), so re-running a subcommand with the manifest's
seed and configuration reproduces the file byte for byte.  The JSON form
of the manifest and of every payload kind is derived from the dataclass
fields and their annotations by one codec (``_to_json``/``_from_json``).
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import io as _io
import json
import types
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from . import __version__
from .analytics import BoundReport
from .engine import CountDistribution, TrialOutcome
from .experiments import Estimate, SweepResult, SweepRow
from .model import OpinionCounts

__all__ = [
    "RunManifest",
    "ResultFile",
    "write_results",
    "read_result_file",
    "emit_plot_data",
    "format_float",
]

CSV_SWEEP_COLUMNS = (
    "n", "delta", "q", "rounds", "event",
    "p_hat", "ci_low", "ci_high", "trials", "bound_name", "bound_value",
)


def format_float(x: float) -> str:
    """Render a float with 17 significant digits (exact double round-trip)."""
    return format(float(x), ".17g")


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce a run exactly."""

    tool_version: str
    master_seed: int
    config: dict[str, Any]
    command_line: str
    workers: int = 1
    started: str | None = None
    finished: str | None = None

    @classmethod
    def create(
        cls,
        master_seed: int,
        config: dict[str, Any],
        command_line: str,
        workers: int = 1,
        started: str | None = None,
        finished: str | None = None,
    ) -> "RunManifest":
        return cls(
            tool_version=__version__,
            master_seed=master_seed,
            config=config,
            command_line=command_line,
            workers=workers,
            started=started,
            finished=finished,
        )


@dataclass(frozen=True)
class ResultFile:
    manifest: RunManifest
    payload: Any

    @property
    def payload_kind(self) -> str:
        return _payload_kind(self.payload)


# --------------------------------------------------------------------------
# Payload serialization
# --------------------------------------------------------------------------

#: Payload kind <-> payload class; a plain dict is a "table".
_PAYLOAD_CLASSES: dict[str, type] = {
    "estimate": Estimate,
    "bound_report": BoundReport,
    "sweep": SweepResult,
    "count_distribution": CountDistribution,
    "trial_outcome": TrialOutcome,
    "table": dict,
}


def _payload_kind(payload: Any) -> str:
    for kind, cls in _PAYLOAD_CLASSES.items():
        if isinstance(payload, cls):
            return kind
    raise TypeError(f"unsupported payload type {type(payload).__name__}")


@functools.lru_cache(maxsize=None)
def _field_types(cls: type) -> dict[str, Any]:
    """Field name -> annotated type of a dataclass, ``X | None`` read as X."""
    hints = typing.get_type_hints(cls)
    out = {}
    for field in dataclasses.fields(cls):
        hint = hints[field.name]
        args = [a for a in typing.get_args(hint) if a is not type(None)]
        is_union = typing.get_origin(hint) in (typing.Union, types.UnionType)
        out[field.name] = args[0] if is_union and len(args) == 1 else hint
    return out


def _to_json(hint: Any, value: Any) -> Any:
    """The JSON form of ``value``, read as an instance of the type ``hint``.

    Dataclasses become objects of their fields, ``OpinionCounts`` a [zeros,
    ones] pair, and arrays and tuples lists.
    """
    if value is None:
        return None
    if hint is OpinionCounts:
        return [value.zeros, value.ones]
    if dataclasses.is_dataclass(hint):
        return {name: _to_json(t, getattr(value, name)) for name, t in _field_types(hint).items()}
    if hint is np.ndarray:
        return [float(x) for x in value]
    if typing.get_origin(hint) is tuple:
        return [_to_json(typing.get_args(hint)[0], v) for v in value]
    return value


def _from_json(hint: Any, value: Any) -> Any:
    """Inverse of ``_to_json``."""
    if value is None:
        return None
    if hint is OpinionCounts:
        return OpinionCounts(*value)
    if dataclasses.is_dataclass(hint):
        hints = _field_types(hint)
        return hint(**{name: _from_json(hints[name], v) for name, v in value.items()})
    if hint is np.ndarray:
        return np.array(value)
    if typing.get_origin(hint) is tuple:
        return tuple(_from_json(typing.get_args(hint)[0], v) for v in value)
    return value


# --------------------------------------------------------------------------
# Writers
# --------------------------------------------------------------------------


def _dump_json(result: ResultFile) -> str:
    kind = result.payload_kind
    doc = {
        "manifest": _to_json(RunManifest, result.manifest),
        "payload_kind": kind,
        "payload": _to_json(_PAYLOAD_CLASSES[kind], result.payload),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _row_value(r: SweepRow) -> tuple[float, float, float] | None:
    """A sweep row's (value, low, high): estimate and interval, else exact thrice, else None."""
    if r.estimate is not None:
        return r.estimate.p_hat, r.estimate.ci_low, r.estimate.ci_high
    if r.exact is not None:
        return r.exact, r.exact, r.exact
    return None


def _sweep_csv_rows(rows) -> list[list[str]]:
    out = []
    for r in rows:
        value = _row_value(r)
        out.append(
            [
                str(r.n),
                "" if r.delta is None else str(r.delta),
                format_float(r.q),
                "" if r.rounds is None else str(r.rounds),
                r.event,
                *(["", "", ""] if value is None else map(format_float, value)),
                "0" if r.estimate is None else str(r.estimate.trials),
                "" if r.bound is None else r.bound.bound_name,
                "" if r.bound is None else format_float(r.bound.bound_value),
            ]
        )
    return out


def _estimate_as_sweep_row(manifest: RunManifest, est: Estimate) -> SweepRow:
    """The CSV row of an estimate; n, q and event come from the manifest's config."""
    cfg = manifest.config
    missing = [key for key in ("n", "q", "event") if key not in cfg]
    if missing:
        raise ValueError(f"an estimate CSV needs {', '.join(missing)} in the manifest config")
    return SweepRow(
        n=int(cfg["n"]),
        delta=cfg.get("delta"),
        q=float(cfg["q"]),
        rounds=cfg.get("rounds"),
        event=str(cfg["event"]),
        estimate=est,
    )


def _bound_as_sweep_row(b: BoundReport) -> SweepRow:
    params = b.parameters
    return SweepRow(
        n=int(params.get("n", params.get("m", 0))),
        delta=params.get("A", params.get("B", params.get("C", params.get("k")))),
        q=float(params.get("q", params.get("p", float("nan")))),
        rounds=None,
        event=b.bound_name,
        bound=b,
        exact=b.empirical_value,
    )


def _dump_csv(result: ResultFile) -> str:
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    payload = result.payload
    kind = result.payload_kind
    if kind == "sweep":
        writer.writerow(CSV_SWEEP_COLUMNS)
        writer.writerows(_sweep_csv_rows(payload.rows))
    elif kind == "estimate":
        writer.writerow(CSV_SWEEP_COLUMNS)
        writer.writerows(_sweep_csv_rows([_estimate_as_sweep_row(result.manifest, payload)]))
    elif kind == "bound_report":
        writer.writerow(CSV_SWEEP_COLUMNS)
        writer.writerows(_sweep_csv_rows([_bound_as_sweep_row(payload)]))
    elif kind == "count_distribution":
        writer.writerow(["k", "probability"])
        for k, p in enumerate(payload.probabilities):
            writer.writerow([str(k), format_float(p)])
    elif kind == "trial_outcome":
        writer.writerow(["round", "zeros", "ones"])
        for i, c in enumerate(payload.trajectory):
            writer.writerow([str(i), str(c.zeros), str(c.ones)])
    elif kind == "table":
        writer.writerow(["key", "value"])
        for key in sorted(payload):
            value = payload[key]
            writer.writerow([str(key), format_float(value) if isinstance(value, float) else str(value)])
    return buf.getvalue()


def write_results(result: ResultFile, format: str, path: str | Path) -> None:
    """Write a result file as JSON or CSV (UTF-8, LF line endings)."""
    if format == "json":
        text = _dump_json(result)
    elif format == "csv":
        text = _dump_csv(result)
    else:
        raise ValueError(f"unknown format {format!r}, expected 'json' or 'csv'")
    path = Path(path)
    try:
        path.write_text(text, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise OSError(f"failed to write results to {path}: {exc}") from exc


def read_result_file(path: str | Path) -> ResultFile:
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise OSError(f"failed to read results from {path}: {exc}") from exc
    return ResultFile(
        manifest=_from_json(RunManifest, doc["manifest"]),
        payload=_from_json(_PAYLOAD_CLASSES[doc["payload_kind"]], doc["payload"]),
    )


def emit_plot_data(sweep: SweepResult, path: str | Path) -> None:
    """Write gnuplot-style blocks (x, y, y_err), blank-line separated.

    One block per regime label (or one for the whole sweep), plus one
    overlay block per bound name appearing in the rows.  An empty sweep
    produces an empty file.
    """
    blocks: list[tuple[str, list[tuple[float, float, float]]]] = []
    by_label: dict[str, list[tuple[float, float, float]]] = {}
    for r in sweep.rows:
        value = _row_value(r)
        if value is not None:
            y, low, high = value
            label = str(r.extra.get("regime", sweep.kind))
            by_label.setdefault(label, []).append((float(r.n), float(y), (high - low) / 2.0))
    blocks.extend(sorted(by_label.items()))

    by_bound: dict[str, list[tuple[float, float, float]]] = {}
    for r in sweep.rows:
        if r.bound is not None:
            by_bound.setdefault(r.bound.bound_name, []).append(
                (float(r.n), float(r.bound.bound_value), 0.0)
            )
    blocks.extend((f"bound:{name}", pts) for name, pts in sorted(by_bound.items()))

    lines: list[str] = []
    for label, points in blocks:
        if lines:
            lines.append("")
            lines.append("")
        lines.append(f"# {label}")
        lines.append("# n value y_err")
        for x, y, err in points:
            lines.append(f"{format_float(x)} {format_float(y)} {format_float(err)}")
    text = "\n".join(lines) + ("\n" if lines else "")
    path = Path(path)
    try:
        path.write_text(text, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise OSError(f"failed to write plot data to {path}: {exc}") from exc
