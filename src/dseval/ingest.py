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

from .core import DsevalError, EvalSet, NonFiniteScore, Origin

# Not called here: perfbench/spans.py wraps this name in this module.
from .core import build_eval_set  # noqa: F401
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


def _write_csv(path, header: list[str], rows: Iterable) -> None:
    with _open_write(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


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


_SCORES_KEYS = {("id", "0"), ("id", "1"), ("ood", "")}  # valid (domain, correct) cells


def _check_scores_row(row: list[str], lineno: int, header: list[str]) -> None:
    """Raise the first problem of one scores row, checking its cells left to right."""
    if len(row) != len(header):
        raise ParseError(f"row {lineno}: expected {len(header)} fields, got {len(row)}")
    domain, correct_text = row[1], row[2]
    where = f"row {lineno}, column"
    if domain not in ("id", "ood"):
        raise SchemaError(f"{where} 'domain': expected 'id' or 'ood', got {domain!r}")
    if domain == "id" and correct_text not in ("0", "1"):
        raise SchemaError(f"{where} 'correct': id rows need 0 or 1, got {correct_text!r}")
    if domain == "ood" and correct_text != "":
        raise SchemaError(
            f"{where} 'correct': ood rows must leave this empty, got {correct_text!r}"
        )
    for column, cell in zip(header[len(_SCORES_PREFIX) :], row[len(_SCORES_PREFIX) :]):
        _parse_float(cell, lineno, column)


def load_scores(path) -> EvalSet:
    """Read a scores CSV (header sample_id,domain,correct,<channel...>)."""
    with _open_read(path) as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0][: len(_SCORES_PREFIX)] != _SCORES_PREFIX:
        raise ParseError(
            f"row 1: expected header starting with {','.join(_SCORES_PREFIX)}"
        )
    header, body = rows[0], rows[1:]
    channels = header[len(_SCORES_PREFIX) :]
    if not channels:
        raise SchemaError("row 1: scores file declares no channel columns")
    for k, name in enumerate(channels):
        if name in channels[:k]:
            raise SchemaError(f"row 1: channel {name!r} appears more than once")
    if body and all(len(row) == len(header) for row in body):
        ids, domains, corrects, *cells = zip(*body)
        is_id = np.array(domains) == "id"
        if is_id.any() and set(zip(domains, corrects)) <= _SCORES_KEYS:
            try:
                scores = {
                    ch: np.fromiter(map(float, col), np.float64, len(body))
                    for ch, col in zip(channels, cells)
                }
                return EvalSet.from_columns(ids, is_id, np.array(corrects) == "1", scores)
            except (ValueError, NonFiniteScore):
                pass
    # a row is malformed, a score is not a finite number or no row is an id
    # row: this scan names the first bad row as a row-by-row reader would
    for lineno, row in enumerate(body, start=2):
        _check_scores_row(row, lineno, header)
    raise EmptyIdPopulation("scores file contains no id rows")


def write_scores(eval_set: EvalSet, path) -> None:
    """Serialize an evaluation set back to the scores CSV format."""
    domains = np.where(eval_set.is_id, "id", "ood")
    corrects = np.where(eval_set.is_id, np.where(eval_set.id_correct, "1", "0"), "")
    # tolist() gives Python floats, whose repr is the shortest round trip
    scores = [map(repr, eval_set.channel(ch).tolist()) for ch in eval_set.channel_names]
    header = _SCORES_PREFIX + list(eval_set.channel_names)
    _write_csv(path, header, zip(eval_set.sample_ids, domains, corrects, *scores))


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
        grid = np.meshgrid(surface.id_thresholds, surface.ood_thresholds, indexing="ij")
        columns = [a.ravel() for a in (*grid, surface.coverage, surface.risk, surface.f1)]
        tau_id, tau_ood, cov, risk, _ = columns
        order = np.lexsort((tau_ood, tau_id, risk, cov))  # by coverage first
        _write_csv(
            path,
            ["tau_id", "tau_ood", "coverage", "risk", "f1"],
            zip(*(map(repr, col[order].tolist()) for col in columns)),
        )
        return

    if isinstance(curve_or_surface, BinnedCurve):
        k_bins = curve_or_surface.k_bins
        _write_csv(
            path,
            ["coverage", "risk", "threshold"],
            ([_fmt(b / k_bins), _fmt(v), ""] for b, v in enumerate(curve_or_surface.values)),
        )
        return

    points: Iterable[RiskCoveragePoint] = list(curve_or_surface)
    if any(not isinstance(p.threshold, (int, float)) for p in points):
        raise ValueError("pair-threshold points export via the surface format")
    triples = sorted(
        ((p.coverage, p.risk, float(p.threshold)) for p in points),
        key=lambda r: (r[0], r[1], r[2]),
    )
    _write_csv(path, ["coverage", "risk", "threshold"], (map(_fmt, t) for t in triples))
