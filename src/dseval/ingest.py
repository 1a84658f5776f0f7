"""File formats: scores/logits/features CSV, metric reports, curve export.

CSV is the interchange format throughout; floats are serialized with
shortest round-trip formatting so load/write/load is lossless. Reports carry
every metric as a {raw, display} pair, where display is raw*100 for metrics
and raw*1000 for AURC-family values, matching the reporting convention the
display tables use.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

import numpy as np

from .core import (
    DsevalError,
    EvalSet,
    Origin,
    SampleRecord,
    build_eval_set,
)
from .dsmetrics import PairSurface
from .metrics_single import BinnedCurve, RiskCoveragePoint
from .scoring import FeatureRecord, LogitRecord

__all__ = [
    "ParseError",
    "SchemaError",
    "EmptyIdPopulation",
    "IoError",
    "METRIC_SCALE",
    "AURC_SCALE",
    "scaled",
    "MetricReport",
    "load_scores",
    "write_scores",
    "load_logits",
    "load_features",
    "write_vector_file",
    "load_report",
    "write_report",
    "write_curve",
]

METRIC_SCALE = 100.0
AURC_SCALE = 1000.0

_SCORES_PREFIX = ["sample_id", "domain", "correct"]
_VECTOR_PREFIX = ["sample_id", "domain", "label"]


class ParseError(DsevalError):
    pass


class SchemaError(DsevalError):
    pass


class EmptyIdPopulation(DsevalError):
    pass


class IoError(DsevalError):
    pass


def _fmt(value: float) -> str:
    return repr(float(value))


def _open_read(path):
    try:
        return open(path, "r", newline="", encoding="utf-8")
    except OSError as exc:
        raise IoError(str(exc)) from None


def _open_write(path):
    try:
        return open(path, "w", newline="", encoding="utf-8")
    except OSError as exc:
        raise IoError(str(exc)) from None


def _parse_float(text: str, row: int, column: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(
            f"row {row}, column {column!r}: cannot parse {text!r} as a number"
        ) from None
    if not math.isfinite(value):
        raise ParseError(f"row {row}, column {column!r}: non-finite value {text!r}")
    return value


def _read_rows(path):
    with _open_read(path) as fh:
        return list(csv.reader(fh))


def load_scores(path) -> EvalSet:
    """Read a scores CSV (header sample_id,domain,correct,<channel...>)."""
    rows = _read_rows(path)
    if not rows or rows[0][: len(_SCORES_PREFIX)] != _SCORES_PREFIX:
        raise ParseError(
            f"row 1: expected header starting with {','.join(_SCORES_PREFIX)}"
        )
    channels = rows[0][len(_SCORES_PREFIX) :]
    if not channels:
        raise SchemaError("row 1: scores file declares no channel columns")
    records = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(rows[0]):
            raise ParseError(
                f"row {lineno}: expected {len(rows[0])} fields, got {len(row)}"
            )
        sample_id, domain, correct_text = row[0], row[1], row[2]
        if domain == "id":
            if correct_text not in ("0", "1"):
                raise SchemaError(
                    f"row {lineno}, column 'correct': id rows need 0 or 1, "
                    f"got {correct_text!r}"
                )
            origin, correct = Origin.ID, correct_text == "1"
        elif domain == "ood":
            if correct_text != "":
                raise SchemaError(
                    f"row {lineno}, column 'correct': ood rows must leave this "
                    f"empty, got {correct_text!r}"
                )
            origin, correct = Origin.OOD, None
        else:
            raise SchemaError(
                f"row {lineno}, column 'domain': expected 'id' or 'ood', got {domain!r}"
            )
        scores = {
            ch: _parse_float(cell, lineno, ch)
            for ch, cell in zip(channels, row[len(_SCORES_PREFIX) :])
        }
        records.append(SampleRecord(sample_id, origin, correct, scores))
    if not any(r.origin is Origin.ID for r in records):
        raise EmptyIdPopulation("scores file contains no id rows")
    return build_eval_set(records)


def write_scores(eval_set: EvalSet, path) -> None:
    """Serialize an evaluation set back to the scores CSV format."""
    channels = list(eval_set.channel_names)
    with _open_write(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(_SCORES_PREFIX + channels)
        for rec in eval_set.records:
            correct = "" if rec.correct is None else str(int(rec.correct))
            writer.writerow(
                [rec.sample_id, rec.origin.value, correct]
                + [_fmt(rec.scores[ch]) for ch in channels]
            )


def _load_vectors(path, min_dim: int, kind: str):
    # Rows are parsed as they are read: the text of a whole file, one string
    # per cell, would take several times the memory of the parsed vectors.
    with _open_read(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[: len(_VECTOR_PREFIX)] != _VECTOR_PREFIX:
            raise ParseError(
                f"row 1: expected header starting with {','.join(_VECTOR_PREFIX)}"
            )
        dim = len(header) - len(_VECTOR_PREFIX)
        expected = [f"v{i}" for i in range(dim)]
        if header[len(_VECTOR_PREFIX) :] != expected:
            raise SchemaError("row 1: vector columns must be named v0..v{K-1}")
        if dim < min_dim:
            raise SchemaError(f"row 1: {kind} file needs at least {min_dim} components")
        out = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ParseError(
                    f"row {lineno}: expected {len(header)} fields, got {len(row)}"
                )
            sample_id, domain, label_text = row[0], row[1], row[2]
            if domain == "id":
                try:
                    label = int(label_text)
                except ValueError:
                    raise SchemaError(
                        f"row {lineno}, column 'label': id rows need an integer class "
                        f"index, got {label_text!r}"
                    ) from None
                origin = Origin.ID
            elif domain == "ood":
                if label_text != "":
                    raise SchemaError(
                        f"row {lineno}, column 'label': ood rows must leave this empty"
                    )
                origin, label = Origin.OOD, None
            else:
                raise SchemaError(
                    f"row {lineno}, column 'domain': expected 'id' or 'ood', "
                    f"got {domain!r}"
                )
            vec = np.array(
                [
                    _parse_float(cell, lineno, f"v{i}")
                    for i, cell in enumerate(row[len(_VECTOR_PREFIX) :])
                ]
            )
            out.append((sample_id, origin, label, vec))
    return out


def load_logits(path) -> list[LogitRecord]:
    return [
        LogitRecord(sid, origin, label, vec)
        for sid, origin, label, vec in _load_vectors(path, min_dim=2, kind="logits")
    ]


def load_features(path) -> list[FeatureRecord]:
    return [
        FeatureRecord(sid, origin, label, vec)
        for sid, origin, label, vec in _load_vectors(path, min_dim=1, kind="features")
    ]


def write_vector_file(records: Sequence[LogitRecord | FeatureRecord], path) -> None:
    """Serialize logit/feature records (mainly for fixtures and round trips)."""
    first = records[0]
    vec0 = first.logits if isinstance(first, LogitRecord) else first.features
    with _open_write(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(_VECTOR_PREFIX + [f"v{i}" for i in range(len(vec0))])
        for rec in records:
            vec = rec.logits if isinstance(rec, LogitRecord) else rec.features
            label = "" if rec.label is None else str(rec.label)
            writer.writerow(
                [rec.sample_id, rec.origin.value, label] + [_fmt(v) for v in vec]
            )


def scaled(raw: float, scale: float = METRIC_SCALE) -> dict[str, float]:
    """A report entry carrying the raw value and its display-scaled twin."""
    raw = float(raw)
    return {"raw": raw, "display": raw * scale}


@dataclass(frozen=True)
class MetricReport:
    """Ordered report payload; keys are emitted in insertion order."""

    data: dict[str, Any]

    def to_json(self) -> str:
        return json.dumps(self.data, indent=2) + "\n"

    def to_markdown(self) -> str:
        return _render_markdown(self.data)


def load_report(path) -> MetricReport:
    with _open_read(path) as fh:
        try:
            return MetricReport(json.load(fh))
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid report JSON: {exc}") from None


def write_report(report: MetricReport, path, format: str = "json") -> None:
    if format == "json":
        text = report.to_json()
    elif format == "markdown":
        text = report.to_markdown()
    else:
        raise ValueError(f"unsupported report format {format!r}")
    with _open_write(path) as fh:
        fh.write(text)


def _fmt2(entry) -> str:
    if entry is None:
        return "-"
    if isinstance(entry, dict):
        return f"{entry['display']:.2f}"
    return f"{float(entry):.2f}"


def _render_markdown(data: dict[str, Any]) -> str:
    lines = ["# dseval report", ""]
    dataset = data.get("dataset")
    if dataset:
        lines += [
            "| n_id | n_ood | ID accuracy |",
            "| --- | --- | --- |",
            f"| {dataset['n_id']} | {dataset['n_ood']} | "
            f"{_fmt2(dataset.get('id_accuracy'))} |",
            "",
        ]
    single = data.get("single") or {}
    double = data.get("double")
    if single or double:
        lines += [
            "Display scale: metrics x100, AURC x1000.",
            "",
            "| Scores | F1 | AURC | DS-F1 | DS-AURC |",
            "| --- | --- | --- | --- | --- |",
        ]
        for ch, block in single.items():
            lines.append(
                f"| {ch} | {_fmt2(block['f1'])} | {_fmt2(block['aurc'])} | - | - |"
            )
        if double:
            pair = f"{double['ood_channel']} + {double['id_channel']}"
            lines.append(
                f"| {pair} | - | - | {_fmt2(double['ds_f1'])} | "
                f"{_fmt2(double['ds_aurc'])} |"
            )
        lines.append("")
    ood = data.get("ood_detection")
    if ood:
        lines += [
            "| OOD channel | AUROC | FPR@95 | AUPR |",
            "| --- | --- | --- | --- |",
            f"| {ood['channel']} | {_fmt2(ood['auroc'])} | "
            f"{_fmt2(ood['fpr_at_95'])} | {_fmt2(ood['aupr'])} |",
            "",
        ]
    selection = data.get("selection")
    if selection:
        lines += [
            "| Mode | tau_id | tau_ood | val F1 | test F1 (transfer) | test F1 (test-opt, leaky) |",
            "| --- | --- | --- | --- | --- | --- |",
        ]
        for mode, block in selection["modes"].items():
            frozen = block["frozen"]
            lines.append(
                f"| {mode} | {frozen['tau_id']} | {frozen['tau_ood']} | "
                f"{_fmt2(block['val_f1'])} | {_fmt2(block['test_f1_transfer'])} | "
                f"{_fmt2(block['test_f1_opt'])} |"
            )
        lines.append("")
    config = data.get("config")
    if config:
        lines += ["## Config", "", "```json", json.dumps(config, indent=2), "```", ""]
    return "\n".join(lines)


def write_curve(curve_or_surface, path) -> None:
    """Export risk-coverage data as CSV, rows sorted by coverage then risk.

    Accepts a pair surface (tau_id,tau_ood,coverage,risk,f1 columns), a list
    of single-threshold points (coverage,risk,threshold) or a binned curve
    (coverage column holds the bin's left edge, threshold left empty).
    """
    if isinstance(curve_or_surface, PairSurface):
        surface = curve_or_surface
        rows = []
        for i, tau_id in enumerate(surface.id_thresholds):
            for j, tau_ood in enumerate(surface.ood_thresholds):
                rows.append(
                    (
                        float(surface.coverage[i, j]),
                        float(surface.risk[i, j]),
                        float(surface.f1[i, j]),
                        float(tau_id),
                        float(tau_ood),
                    )
                )
        rows.sort(key=lambda r: (r[0], r[1], r[3], r[4]))
        with _open_write(path) as fh:
            writer = csv.writer(fh)
            writer.writerow(["tau_id", "tau_ood", "coverage", "risk", "f1"])
            for cov, risk, f1, tau_id, tau_ood in rows:
                writer.writerow([_fmt(tau_id), _fmt(tau_ood), _fmt(cov), _fmt(risk), _fmt(f1)])
        return

    if isinstance(curve_or_surface, BinnedCurve):
        curve = curve_or_surface
        with _open_write(path) as fh:
            writer = csv.writer(fh)
            writer.writerow(["coverage", "risk", "threshold"])
            for b in range(curve.k_bins):
                writer.writerow([_fmt(b / curve.k_bins), _fmt(curve.values[b]), ""])
        return

    points: Iterable[RiskCoveragePoint] = list(curve_or_surface)
    if any(not isinstance(p.threshold, (int, float)) for p in points):
        raise ValueError("pair-threshold points export via the surface format")
    triples = sorted(
        ((p.coverage, p.risk, float(p.threshold)) for p in points),
        key=lambda r: (r[0], r[1], r[2]),
    )
    with _open_write(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["coverage", "risk", "threshold"])
        for cov, risk, tau in triples:
            writer.writerow([_fmt(cov), _fmt(risk), _fmt(tau)])
