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
from functools import partial
from itertools import islice
from operator import itemgetter
from typing import Any, Iterable, Iterator, Sequence

import numpy as np
import orjson

from .core import DsevalError, EvalSet

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
# the cells before the numbers in a row of either kind
_PREFIX_CELLS = 3


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


# Characters of text split per chunk of plain rows (a ``readlines`` hint).
# Small chunks keep few rows' text and Python floats alive at once; each
# chunk's numbers are one orjson call and one copy into the output array.
_PLAIN_CHUNK = 1 << 12

# orjson reads three JSON texts otherwise than float(): the integer -0 as
# int 0, and true and false, which become 1.0 and 0.0 in a float array. A
# chunk whose rests hold the letter t or f, or a -0 that ends as an integer
# does (at a comma, a bracket or white space), goes to the CSV reader's
# pass. null becomes nan, which sends the file there as any non-finite
# number does.
_JSON_INTEGER_MINUS_ZERO = ("-0,", "-0]", "-0 ", "-0\t", "-0\r", "-0\n")


def _read_plain(fh, k: int, take) -> np.ndarray | None:
    """The numbers of the rows left in ``fh`` as one N x k matrix, or None
    where the CSV reader's pass must decide instead: a row is not plain,
    ``take`` rejects it, a cell is not a number orjson reads as float()
    does, or a row is blank or holds other than k numbers. A number that is
    not finite is returned as read; ``_read_matrix`` sends that file to the
    CSV reader's pass as well, which names the row.

    A row is plain when it holds no quote and no NUL (Python 3.10's CSV
    reader rejects it), and its line is no longer than the CSV reader's
    field limit; its cells are then exactly its line split at commas. The
    lines are read a chunk at a time. Python splits each line into its
    first three cells and the rest, and hands the chunk's split rows to
    ``take``, which checks and records their first three cells,
    raising ValueError, KeyError, IndexError or a DsevalError at a row it
    rejects. The chunk's rests are parsed as one JSON array of rows by
    orjson, whose numbers are float()'s bit for bit; JSON rejects NaN,
    Infinity, a number that overflows, a leading zero or plus sign, a bare
    point and any character float() reads that JSON does not. Each block is
    copied into one output array grown in place and trimmed at the end, so
    no list of blocks holds the numbers a second time.
    """
    limit = csv.field_size_limit()
    matrix = np.empty((0, k))
    n = 0
    while lines := fh.readlines(_PLAIN_CHUNK):
        text = "".join(lines)
        if '"' in text or "\0" in text or (
            len(text) > limit and max(map(len, lines)) > limit
        ):
            return None
        # a rest keeps its line's terminator, which JSON takes as white
        # space; a row of fewer than four cells has no rest
        rows = [line.split(",", 3) for line in lines]
        try:
            take(rows)
            doc = "[[" + "],[".join(map(itemgetter(3), rows)) + "]]"
            if "t" in doc or "f" in doc or any(z in doc for z in _JSON_INTEGER_MINUS_ZERO):
                return None
            # a cell that is a JSON array or object fails here or below
            block = np.array(orjson.loads(doc), np.float64)
        except (ValueError, TypeError, KeyError, IndexError, DsevalError):
            return None
        # a blank rest is an empty row, a ragged one fails np.array above
        if block.shape != (len(rows), k):
            return None
        if n + len(rows) > len(matrix):
            # by an eighth at least: growing by each small block reallocates
            # the matrix hundreds of times and leaves the heap fragmented
            matrix.resize((max(n + len(rows), len(matrix) * 9 // 8), k), refcheck=False)
        matrix[n : n + len(rows)] = block
        n += len(rows)
    matrix.resize((n, k), refcheck=False)
    return matrix


_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _csv_cells(cells: list[str]) -> list[str]:
    """``cells`` as csv.writer writes them in rows of more than one field: a
    cell that holds a comma, a quote, CR or LF is wrapped in quotes with its
    quotes doubled, and any other cell is written as it is."""
    if _NEEDS_QUOTES.search("".join(cells)) is None:
        return cells
    return ['"' + c.replace('"', '""') + '"' if _NEEDS_QUOTES.search(c) else c for c in cells]


# Rows of a four-field file joined into one string per write, and numbers
# per orjson call: a chunk of ~60-byte rows is tens of kilobytes, and the
# per-call cost of the text layer is spread over them. Files of more fields
# take fewer rows per write, so a chunk of 64-d vector rows is not megabytes.
_CHUNK_ROWS = 1024


def _write_csv(path, header: list[str], columns: list[Iterable[str]]) -> None:
    """Write ``header`` and then one row per position of ``columns`` in the
    bytes csv.writer would write. A column yields cells ready to write
    (free text goes through ``_csv_cells``); one cell may hold several
    fields already joined by commas. Rows are joined and written a chunk
    of about ``4 * _CHUNK_ROWS`` fields at a time, so no more than a chunk
    of text is held."""
    rows = map(",".join, zip(*columns))
    step = max(1, 4 * _CHUNK_ROWS // len(header))
    with _open_write(path) as fh:
        fh.write(",".join(_csv_cells(header)) + "\r\n")
        while chunk := list(islice(rows, step)):
            chunk.append("")  # ends the last row
            fh.write("\r\n".join(chunk))


def _chunks(n: int, width: int) -> Iterator[slice]:
    """Slices that cover ``n`` rows of ``width`` numbers, each of about
    ``_CHUNK_ROWS`` numbers and a row at least, so that a chunk of wide rows
    holds few Python floats."""
    step = max(1, _CHUNK_ROWS // max(1, width))
    return (slice(lo, lo + step) for lo in range(0, n, step))


def _float_text(blocks: Iterable[np.ndarray]) -> Iterator[str]:
    """The ``repr`` of each row of each 2-d float64 block, its cells joined
    by commas, formatted by one orjson call per block.

    orjson writes repr's shortest round-trip digits, and repr's text too
    wherever 1e-4 <= |x| < 1e16 or x is zero. Elsewhere it writes another
    exponent form (1e16, 0.00001) or null (nan, +-inf), so the rows that
    hold such a cell are formatted by repr instead.
    """
    for block in blocks:
        items = block.tolist()  # orjson takes no numpy scalars or strided rows
        cells = orjson.dumps(items).decode()[2:-2].split("],[")
        magnitude = np.abs(block)
        # a comparison with nan is False, so nan lands here too
        odd = (block != 0) & ~((magnitude >= 1e-4) & (magnitude < 1e16))
        for i in np.flatnonzero(odd.any(axis=1)).tolist():
            cells[i] = ",".join(map(repr, items[i]))
        yield from cells


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


# the (domain, correct) cells of a valid scores row: bit 0 is_id, bit 1 correct
_SCORES_FLAGS = {("id", "1"): 3, ("id", "0"): 1, ("ood", ""): 0}


def _bad_scores_flags(domain: str, correct_text: str, lineno: int) -> SchemaError:
    """The error of a (domain, correct) pair outside ``_SCORES_FLAGS`` at row ``lineno``."""
    where = f"row {lineno}, column"
    if domain not in ("id", "ood"):
        return SchemaError(f"{where} 'domain': expected 'id' or 'ood', got {domain!r}")
    if domain == "id":
        return SchemaError(f"{where} 'correct': id rows need 0 or 1, got {correct_text!r}")
    return SchemaError(f"{where} 'correct': ood rows must leave this empty, got {correct_text!r}")


def _take_scores(rows, ids: list, flags: bytearray) -> None:
    """Record the ids and flags of a chunk of split plain rows; a row with
    flags outside the table raises KeyError."""
    flags.extend(map(_SCORES_FLAGS.__getitem__, map(itemgetter(1, 2), rows)))
    ids.extend(map(itemgetter(0), rows))


def _read_matrix(fh, header: list[str], records, take, take_row) -> np.ndarray:
    """The numbers of the rows after ``header`` as one N x K matrix, every
    one finite, with each row's first three cells recorded in ``records``.

    Plain rows are read in bulk (``_read_plain`` with ``take``). Any other
    file, or one that holds a number that is not finite, is read again from
    the start in one pass of the CSV reader, after ``records`` are emptied.
    That pass checks each row as the reader yields it: its field count,
    then ``take_row(row, lineno)``, which checks and records its first
    three cells, then its cells left to right. The first bad row raises;
    the numbers stream into one ``np.fromiter``, so no cell text outlives
    its row.
    """
    columns = header[_PREFIX_CELLS:]
    matrix = _read_plain(fh, len(columns), take)
    if matrix is not None and np.isfinite(matrix).all():
        return matrix
    for record in records:
        record.clear()
    fh.seek(0)

    def numbers():
        rows = islice(_csv_rows(fh), 1, None)
        for lineno, row in enumerate(rows, start=2):
            if len(row) != len(header):
                raise ParseError(f"row {lineno}: expected {len(header)} fields, got {len(row)}")
            take_row(row, lineno)
            for column, cell in zip(columns, row[_PREFIX_CELLS:]):
                yield _parse_float(cell, lineno, column)

    return np.fromiter(numbers(), np.float64).reshape(-1, len(columns))


def _parse_scores(fh) -> EvalSet:
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

    def take_row(row: list[str], lineno: int) -> None:
        try:
            flags.append(_SCORES_FLAGS[row[1], row[2]])
        except KeyError:
            raise _bad_scores_flags(row[1], row[2], lineno) from None
        ids.append(row[0])

    take = partial(_take_scores, ids=ids, flags=flags)
    matrix = _read_matrix(fh, header, (ids, flags), take, take_row)
    codes = np.frombuffer(flags, np.uint8)
    is_id = (codes & 1).astype(bool)
    if not is_id.any():
        raise EmptyIdPopulation("scores file contains no id rows")
    return EvalSet.from_columns(
        ids, is_id, (codes & 2).astype(bool), dict(zip(channels, matrix.T))
    )


def load_scores(path) -> EvalSet:
    """Read a scores CSV (header sample_id,domain,correct,<channel...>)."""
    return _read_text(path, _parse_scores)


# the domain and correct fields of a scores row, indexed by is_id + id_correct
_SCORES_FLAG_CELLS = np.array(["ood,", "id,0", "id,1"], dtype=object)


def write_scores(eval_set: EvalSet, path) -> None:
    """Serialize an evaluation set back to the scores CSV format."""
    flags = _SCORES_FLAG_CELLS[eval_set.is_id + eval_set.id_correct.astype(np.intp)]
    cells = [_csv_cells(eval_set.sample_ids.tolist()), flags.tolist()]
    columns = [eval_set.channel(ch) for ch in eval_set.channel_names]
    if columns:
        # the channels of a chunk of rows are stacked and formatted as whole rows
        cells.append(_float_text(
            np.column_stack([c[at] for c in columns])
            for at in _chunks(eval_set.n_total, len(columns))
        ))
    _write_csv(path, _SCORES_PREFIX + list(eval_set.channel_names), cells)


@dataclass(frozen=True)
class VectorColumns:
    """A logits or features file as columns: object ``sample_ids``, the ``is_id``
    mask, int64 ``labels`` (read at ID rows only) and the N x K float64 ``matrix``."""

    sample_ids: np.ndarray
    is_id: np.ndarray
    labels: np.ndarray
    matrix: np.ndarray


def _vector_label(domain: str, label_text: str, lineno: int) -> int:
    """The class label of one vector row, 0 at an ood row; a domain or label
    cell that is not valid is a SchemaError that names row ``lineno``."""
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
        return label
    if domain == "ood":
        if label_text != "":
            raise SchemaError(f"row {lineno}, column 'label': ood rows must leave this empty")
        return 0
    raise SchemaError(
        f"row {lineno}, column 'domain': expected 'id' or 'ood', got {domain!r}"
    )


def _parse_vectors(fh, min_dim: int, kind: str) -> VectorColumns:
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

    def take_row(row: list[str], lineno: int) -> None:
        labels.append(_vector_label(row[1], row[2], lineno))
        is_id.append(row[1] == "id")
        ids.append(row[0])

    def take(rows) -> None:
        for row in rows:
            take_row(row, 0)  # a rejected row goes to the CSV pass, which names it

    matrix = _read_matrix(fh, header, (ids, is_id, labels), take, take_row)
    ids, is_id, labels = np.array(ids, object), np.array(is_id, bool), np.array(labels, np.int64)
    return VectorColumns(ids, is_id, labels, matrix)


def load_logits(path) -> VectorColumns:
    return _read_text(path, lambda fh: _parse_vectors(fh, min_dim=2, kind="logits"))


def load_features(path) -> VectorColumns:
    return _read_text(path, lambda fh: _parse_vectors(fh, min_dim=1, kind="features"))


def write_vector_file(records: Sequence[LogitRecord | FeatureRecord], path) -> None:
    """Serialize logit/feature records (mainly for fixtures and round trips)."""
    vectors = [r.logits if isinstance(r, LogitRecord) else r.features for r in records]
    width = len(vectors[0])
    if any(len(v) != width for v in vectors):
        raise ValueError("the records' vectors differ in length")
    flags = (f"{r.origin.value},{'' if r.label is None else r.label}" for r in records)
    # stacked a chunk at a time: no second matrix of every vector is held
    rows = _float_text(np.array(vectors[at], np.float64) for at in _chunks(len(vectors), width))
    _write_csv(
        path,
        _VECTOR_PREFIX + [f"v{i}" for i in range(width)],
        [_csv_cells([r.sample_id for r in records]), flags, rows],
    )


def scaled(raw: float, scale: float = METRIC_SCALE) -> dict[str, float]:
    """A report entry carrying the raw value and its display-scaled twin."""
    raw = float(raw)
    return {"raw": raw, "display": raw * scale}


def _parse_report(fh) -> dict[str, Any]:
    try:
        return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid report JSON: {exc}") from None


def load_report(path) -> dict[str, Any]:
    return _read_text(path, _parse_report)


def write_report(report: dict[str, Any], path) -> None:
    """Write ``report`` as markdown if ``path`` ends in ``.md``, else as JSON.

    Keys are emitted in insertion order.
    """
    if str(path).endswith(".md"):
        text = _render_markdown(report)
    else:
        text = json.dumps(report, indent=2) + "\n"
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
    values = [surface.coverage.ravel(), surface.risk.ravel(), surface.f1.ravel()]
    # a chunk of rows is picked through the sort order and formatted as whole rows
    rows = _float_text(
        np.column_stack([surface.id_thresholds[i[at]], surface.ood_thresholds[j[at]],
                         *(v[order[at]] for v in values)])
        for at in _chunks(order.size, 5)
    )
    _write_csv(path, ["tau_id", "tau_ood", "coverage", "risk", "f1"], [rows])
