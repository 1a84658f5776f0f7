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
import re
from dataclasses import dataclass
from itertools import chain, islice, starmap
from typing import Any, Iterable, Sequence

import numpy as np

from .core import DsevalError, EvalSet, NonFiniteScore

# Not called here: perfbench/spans.py wraps this name in this module.
from .core import build_eval_set  # noqa: F401
from .dsmetrics import PairSurface
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
    "VectorColumns",
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


def _open_read(path):
    try:
        # a leading byte order mark is dropped, also on a seek(0) to reread
        return open(path, "r", newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise IoError(str(exc)) from None


def _open_write(path):
    try:
        return open(path, "w", newline="", encoding="utf-8")
    except OSError as exc:
        raise IoError(str(exc)) from None


def _read_text(path, parse):
    """Open ``path`` as UTF-8 text and return ``parse(fh)``.

    If ``parse`` fails, a byte that is not UTF-8 is reported before what it
    found, by the file line of the first such byte: encoding belongs to the
    whole file, and the text decoder reads blocks ahead of the parser.
    """
    with _open_read(path) as fh:
        try:
            return parse(fh)
        except (DsevalError, UnicodeDecodeError) as exc:
            failure = exc
    with open(path, "rb") as fh:
        # a line break never sits inside a UTF-8 sequence, so lines decode alone
        for lineno, line in enumerate(fh, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(
                    f"line {lineno}: byte {line[exc.start]:#04x} is not valid UTF-8"
                ) from None
    if isinstance(failure, UnicodeDecodeError):
        raise IoError(f"{path} changed while it was read")
    raise failure


def _csv_rows(fh):
    """The rows of a CSV file; a row the reader rejects is a ParseError."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except csv.Error as exc:
        raise ParseError(f"row {reader.line_num}: {exc}") from None


_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _csv_cells(cells: list[str]) -> list[str]:
    """``cells`` as csv.writer writes them in rows of more than one field: a
    cell that holds a comma, a quote, CR or LF is wrapped in quotes with its
    quotes doubled, and any other cell is written as it is."""
    if _NEEDS_QUOTES.search("".join(cells)) is None:
        return cells
    return ['"' + c.replace('"', '""') + '"' if _NEEDS_QUOTES.search(c) else c for c in cells]


def _write_csv(path, header: list[str], columns: list[Iterable[str]]) -> None:
    """Write ``header`` and then one row per position of ``columns`` in the
    bytes csv.writer would write. A column yields cells ready to write
    (free text goes through ``_csv_cells``); one cell may hold several
    fields already joined by commas."""
    line = ",".join(["{}"] * len(columns)) + "\r\n"
    with _open_write(path) as fh:
        fh.write(",".join(_csv_cells(header)) + "\r\n")
        fh.writelines(starmap(line.format, zip(*columns)))


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


# the (domain, correct) cells of a valid scores row: bit 0 is_id, bit 1 correct
_SCORES_FLAGS = {("id", "1"): 3, ("id", "0"): 1, ("ood", ""): 0}


def _score_cells(rows, width: int, ids: list, flags: bytearray):
    """Record each row's id and flags and yield its score cells; a row with
    the wrong field count or flags raises ValueError or KeyError."""
    for row in rows:
        if len(row) != width:
            raise ValueError
        flags.append(_SCORES_FLAGS[row[1], row[2]])
        ids.append(row[0])
        yield row[len(_SCORES_PREFIX) :]


def _parse_scores(fh) -> EvalSet:
    # One pass: each row is checked and its cells parsed as the reader yields
    # it, so no cell text outlives its row.
    rows = _csv_rows(fh)
    header = next(rows, None)
    if not header or header[: len(_SCORES_PREFIX)] != _SCORES_PREFIX:
        raise ParseError(
            f"row 1: expected header starting with {','.join(_SCORES_PREFIX)}"
        )
    channels = header[len(_SCORES_PREFIX) :]
    if not channels:
        raise SchemaError("row 1: scores file declares no channel columns")
    for k, name in enumerate(channels):
        if not name:
            raise SchemaError(f"row 1: channel {k + 1} has an empty name")
        if name in channels[:k]:
            raise SchemaError(f"row 1: channel {name!r} appears more than once")
    ids, flags = [], bytearray()
    cells = chain.from_iterable(_score_cells(rows, len(header), ids, flags))
    try:
        matrix = np.fromiter(map(float, cells), np.float64).reshape(-1, len(channels))
        codes = np.frombuffer(flags, np.uint8)
        is_id = (codes & 1).astype(bool)
        if is_id.any():
            return EvalSet.from_columns(
                ids, is_id, (codes & 2).astype(bool), dict(zip(channels, matrix.T))
            )
    except (ValueError, KeyError, ParseError, NonFiniteScore):
        pass
    # a row is malformed, a score is not a finite number or no row is an id
    # row: a second read names the first bad row as a row-by-row reader would
    fh.seek(0)
    for lineno, row in enumerate(islice(_csv_rows(fh), 1, None), start=2):
        _check_scores_row(row, lineno, header)
    raise EmptyIdPopulation("scores file contains no id rows")


def load_scores(path) -> EvalSet:
    """Read a scores CSV (header sample_id,domain,correct,<channel...>)."""
    return _read_text(path, _parse_scores)


# the domain and correct fields of a scores row, indexed by is_id + id_correct
_SCORES_FLAG_CELLS = np.array(["ood,", "id,0", "id,1"], dtype=object)


def write_scores(eval_set: EvalSet, path) -> None:
    """Serialize an evaluation set back to the scores CSV format."""
    flags = _SCORES_FLAG_CELLS[eval_set.is_id + eval_set.id_correct.astype(np.intp)]
    # tolist() gives Python floats, whose repr is the shortest round trip
    scores = [map(repr, eval_set.channel(ch).tolist()) for ch in eval_set.channel_names]
    _write_csv(
        path,
        _SCORES_PREFIX + list(eval_set.channel_names),
        [_csv_cells(eval_set.sample_ids.tolist()), flags.tolist(), *scores],
    )


@dataclass(frozen=True)
class VectorColumns:
    """A logits or features file as columns: object ``sample_ids``, the ``is_id``
    mask, int64 ``labels`` (read at ID rows only) and the N x K float64 ``matrix``."""

    sample_ids: np.ndarray
    is_id: np.ndarray
    labels: np.ndarray
    matrix: np.ndarray


def _vector_rows(reader, width: int, ids: list, is_id: list, labels: list):
    """Check each row's field count, domain and label, record them and yield its cells."""
    for lineno, row in enumerate(reader, start=2):
        if len(row) != width:
            raise ParseError(f"row {lineno}: expected {width} fields, got {len(row)}")
        domain, label_text = row[1], row[2]
        if domain == "id":
            try:
                label = int(label_text)
            except ValueError:
                raise SchemaError(
                    f"row {lineno}, column 'label': id rows need an integer class "
                    f"index, got {label_text!r}"
                ) from None
            if not -(2**63) <= label < 2**63:
                raise SchemaError(
                    f"row {lineno}, column 'label': class index {label_text!r} "
                    "does not fit in int64"
                )
        elif domain == "ood":
            if label_text != "":
                raise SchemaError(
                    f"row {lineno}, column 'label': ood rows must leave this empty"
                )
            label = 0
        else:
            raise SchemaError(
                f"row {lineno}, column 'domain': expected 'id' or 'ood', got {domain!r}"
            )
        ids.append(row[0])
        is_id.append(domain == "id")
        labels.append(label)
        yield row[len(_VECTOR_PREFIX) :]


def _parse_vectors(fh, min_dim: int, kind: str) -> VectorColumns:
    # One pass: each row is checked and its cells parsed as the reader yields
    # it, so no cell text outlives its row.
    rows = _csv_rows(fh)
    header = next(rows, None)
    if not header or header[: len(_VECTOR_PREFIX)] != _VECTOR_PREFIX:
        raise ParseError(
            f"row 1: expected header starting with {','.join(_VECTOR_PREFIX)}"
        )
    columns = header[len(_VECTOR_PREFIX) :]
    if columns != [f"v{i}" for i in range(len(columns))]:
        raise SchemaError("row 1: vector columns must be named v0..v{K-1}")
    if len(columns) < min_dim:
        raise SchemaError(f"row 1: {kind} file needs at least {min_dim} components")
    ids, is_id, labels = [], [], []
    cells = chain.from_iterable(_vector_rows(rows, len(header), ids, is_id, labels))
    try:
        matrix = np.fromiter(map(float, cells), np.float64)
    except (ValueError, ParseError, SchemaError):
        matrix = None
    if matrix is None or not np.isfinite(matrix).all():
        # a row is malformed or a cell is not a finite number: a second
        # read names the first bad row and cell as a row-by-row reader would
        fh.seek(0)
        rows = _vector_rows(islice(_csv_rows(fh), 1, None), len(header), [], [], [])
        for lineno, row in enumerate(rows, start=2):
            for column, cell in zip(columns, row):
                _parse_float(cell, lineno, column)
        raise IoError(f"{fh.name} changed while it was read")
    ids, is_id, labels = np.array(ids, object), np.array(is_id, bool), np.array(labels, np.int64)
    return VectorColumns(ids, is_id, labels, matrix.reshape(-1, len(columns)))


def load_logits(path) -> VectorColumns:
    return _read_text(path, lambda fh: _parse_vectors(fh, min_dim=2, kind="logits"))


def load_features(path) -> VectorColumns:
    return _read_text(path, lambda fh: _parse_vectors(fh, min_dim=1, kind="features"))


def write_vector_file(records: Sequence[LogitRecord | FeatureRecord], path) -> None:
    """Serialize logit/feature records (mainly for fixtures and round trips)."""
    vectors = [r.logits if isinstance(r, LogitRecord) else r.features for r in records]
    # domain, label and vector joined per row: no table of every cell's text
    rows = (
        ",".join(
            [
                r.origin.value,
                "" if r.label is None else str(r.label),
                *map(repr, np.asarray(vec, np.float64).tolist()),
            ]
        )
        for r, vec in zip(records, vectors)
    )
    _write_csv(
        path,
        _VECTOR_PREFIX + [f"v{i}" for i in range(len(vectors[0]))],
        [_csv_cells([r.sample_id for r in records]), rows],
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


def _parse_report(fh) -> MetricReport:
    try:
        return MetricReport(json.load(fh))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid report JSON: {exc}") from None


def load_report(path) -> MetricReport:
    return _read_text(path, _parse_report)


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


def write_curve(surface: PairSurface, path) -> None:
    """Export a pair surface as CSV (tau_id,tau_ood,coverage,risk,f1 columns),
    rows sorted by coverage then risk."""
    if not isinstance(surface, PairSurface):
        raise TypeError(f"write_curve exports a PairSurface, not {type(surface).__name__}")
    # lexsort is stable, so pairs tied on (coverage, risk) stay in flat
    # order, which is (tau_id, tau_ood) order: both axes strictly increase
    order = np.lexsort((surface.risk.ravel(), surface.coverage.ravel()))
    i, j = np.divmod(order, surface.ood_thresholds.size)
    # each threshold is formatted once and picked per row
    taus = [
        np.array(list(map(repr, axis.tolist())), dtype=object)[at].tolist()
        for axis, at in ((surface.id_thresholds, i), (surface.ood_thresholds, j))
    ]
    values = [
        map(repr, col.ravel()[order].tolist())
        for col in (surface.coverage, surface.risk, surface.f1)
    ]
    _write_csv(path, ["tau_id", "tau_ood", "coverage", "risk", "f1"], [*taus, *values])
