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
from itertools import filterfalse, islice
from operator import itemgetter
from typing import Any, Sequence

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
# 16 KiB read a 5000 x 64 features file and a 100k-row scores file faster
# than 4 KiB; 64 KiB was faster on the first and slower on the second.
_PLAIN_CHUNK = 1 << 14

# orjson reads three JSON texts otherwise than float(): the integer -0 as
# int 0, and true and false, which become 1.0 and 0.0 in a float array. A
# chunk whose rests hold the letter t or f goes to the CSV reader's pass,
# and so does one that holds a -0 ending as an integer does (at a comma, a
# bracket or white space). That text is searched for only when the parsed
# block holds a zero, since the integer -0 parses as one; real data holds
# many -0.x prefixes, each a partial match. null becomes nan, which sends
# the file there as any non-finite number does.
_JSON_INTEGER_MINUS_ZERO = ("-0,", "-0]", "-0 ", "-0\t", "-0\r", "-0\n")


def _read_plain(fh, k: int, take) -> np.ndarray | None:
    """The numbers of the rows left in ``fh`` as one N x k matrix, or None
    where the CSV reader's pass must decide instead: a row is not plain,
    ``take`` rejects it, a cell is not a number orjson reads as float()
    does, or a row is blank or holds other than k numbers. A number that is
    not finite is returned as read; ``_read_rows`` sends that file to the
    CSV reader's pass as well, which names the row.

    A row is plain when it holds no quote and no NUL (Python 3.10's CSV
    reader rejects it), and its line is no longer than the CSV reader's
    field limit; its cells are then exactly its line split at commas. The
    lines are read a chunk at a time. Python splits each line into its
    first three cells and the rest, and hands the chunk's split rows to
    ``take``, which checks and records their first three cells, raising
    IndexError or a DsevalError at a row it rejects. The chunk's rests are
    parsed as one JSON array of rows by orjson, whose numbers are float()'s
    bit for bit; JSON rejects NaN, Infinity, a number that overflows, a
    leading zero or plus sign, a bare point and any character float() reads
    that JSON does not. Rests that hold a t or an f are not parsed, and only
    a block that holds a zero is searched for the text of an integer -0,
    which orjson reads as 0. Each block is copied into one output array
    grown in place and trimmed at the end, so no list of blocks holds the
    numbers a second time.
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
            if "t" in doc or "f" in doc:
                return None
            # a cell that is a JSON array or object fails here or below
            block = np.array(orjson.loads(doc), np.float64)
        except (ValueError, TypeError, IndexError, DsevalError):
            return None
        # a blank rest is an empty row, a ragged one fails np.array above
        if block.shape != (len(rows), k):
            return None
        if not block.all() and any(z in doc for z in _JSON_INTEGER_MINUS_ZERO):
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


# Cells per chunk of rows: each chunk's numbers are one orjson call and its
# rows one write, 819 rows of a five-field file or 61 of a 64-d vector file.
# Twice as many raised write_scores' peak by 0.36 MB at 100k rows; a quarter
# as many wrote 12% slower.
_CHUNK_CELLS = 1 << 12


def _write_csv(path, header: list[str], n_rows: int, numbers, text=()) -> None:
    """Write ``header`` and then ``n_rows`` rows in the bytes csv.writer would
    write. A row's cells are its cells of each column of ``text``, ready to
    write (free text goes through ``_csv_cells``; one cell may hold several
    fields already joined by commas), then its row of ``numbers(rows)``, a 2-d
    float block for the slice ``rows``; ``numbers`` is None where there are no
    number columns. Rows are formatted and written a chunk of about
    ``_CHUNK_CELLS`` cells at a time, so no more than a chunk of text is held."""
    text = [iter(column) for column in text]
    step = max(1, _CHUNK_CELLS // len(header))
    with _open_write(path) as fh:
        fh.write(",".join(_csv_cells(header)) + "\r\n")
        for lo in range(0, n_rows, step):
            columns = [list(islice(column, step)) for column in text]
            if numbers is not None:
                columns.append(_float_rows(numbers(slice(lo, lo + step))))
            rows = columns[0] if len(columns) == 1 else list(map(",".join, zip(*columns)))
            rows.append("")  # ends the last row
            fh.write("\r\n".join(rows))


def _odd_rows(block: np.ndarray) -> np.ndarray:
    """Which rows of ``block`` hold a cell whose orjson text is not its
    ``repr``: a nonzero cell outside 1e-4 <= |x| < 1e16, nan or +-inf."""
    magnitude = np.abs(block)
    # a comparison with nan is False, so nan lands here too
    return ((block != 0) & ~((magnitude >= 1e-4) & (magnitude < 1e16))).any(axis=1)


def _float_rows(block: np.ndarray) -> list[str]:
    """The ``repr`` of each row of a 2-d float block of one row or more, its
    cells joined by commas, formatted from numpy by one orjson call.

    orjson writes repr's shortest round-trip digits, and repr's text too
    wherever 1e-4 <= |x| < 1e16 or x is zero. Elsewhere it writes another
    exponent form (1e16, 0.00001) or null (nan, +-inf), so the rows that
    hold such a cell are formatted by repr instead. orjson takes only a
    C-contiguous array and would print float32 with float32's shortest
    digits, so the block is made a contiguous float64 array first.
    """
    block = np.ascontiguousarray(block, dtype=np.float64)
    rows = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY).decode()[2:-2].split("],[")
    for i in np.flatnonzero(_odd_rows(block)).tolist():
        rows[i] = ",".join(map(repr, block[i].tolist()))
    return rows


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


def _header(fh, prefix: list[str]) -> list[str]:
    """The header row of ``fh``, which must start with the cells ``prefix``."""
    header = next(_csv_rows(fh), None)
    if not header or header[: len(prefix)] != prefix:
        raise ParseError(f"row 1: expected header starting with {','.join(prefix)}")
    return header


def _scores_correct(domain: str, correct_text: str, lineno: int) -> bool:
    """The correct flag of one scores row, False at an ood row; a domain or
    correct cell that is not valid is a SchemaError that names row ``lineno``."""
    if (domain, correct_text) in (("id", "1"), ("id", "0"), ("ood", "")):
        return correct_text == "1"
    if domain not in ("id", "ood"):
        raise SchemaError(f"row {lineno}, column 'domain': expected 'id' or 'ood', got {domain!r}")
    rule = "id rows need 0 or 1" if domain == "id" else "ood rows must leave this empty"
    raise SchemaError(f"row {lineno}, column 'correct': {rule}, got {correct_text!r}")


def _read_rows(fh, header: list[str], decode):
    """The ids (a list), ID mask, values and finite N x K matrix of the rows after ``header``.

    ``decode(domain, cell, lineno)`` gives a row's value from its second and
    third cells, or raises a DsevalError that names row ``lineno``; it runs
    once per distinct pair, on a miss in the table of (is ID, value) per
    pair. Each row keeps its code into that table: a byte until the table
    outgrows one, then a list entry. Plain rows are read in bulk
    (``_read_plain``); any other file, or one with a number that is not
    finite, is read again in one pass of the CSV reader, which checks each
    row's field count, then its pair, then its cells left to right, and
    streams the numbers into one ``np.fromiter``.
    """
    memo: dict[tuple[str, str], int] = {}
    table: list[tuple[bool, Any]] = []
    ids, codes = [], bytearray()
    pair_of = itemgetter(1, 2)

    def learn(domain: str, cell: str, lineno: int) -> int:
        nonlocal codes
        table.append((domain == "id", decode(domain, cell, lineno)))
        if len(table) == 257:  # the next code needs more than a byte
            codes = list(codes)
        return memo.setdefault((domain, cell), len(table) - 1)

    def take(rows) -> None:
        n = len(codes)
        try:
            codes.extend(map(memo.__getitem__, map(pair_of, rows)))
        except KeyError:
            del codes[n:]
            for pair in filterfalse(memo.__contains__, map(pair_of, rows)):
                learn(*pair, 0)  # the CSV pass names a rejected row
            codes.extend(map(memo.__getitem__, map(pair_of, rows)))
        ids.extend(map(itemgetter(0), rows))

    columns = header[_PREFIX_CELLS:]
    matrix = _read_plain(fh, len(columns), take)
    if matrix is None or not np.isfinite(matrix).all():
        ids, codes = [], codes[:0]  # empty, as wide as before
        fh.seek(0)

        def numbers():
            rows = islice(_csv_rows(fh), 1, None)
            for lineno, row in enumerate(rows, start=2):
                if len(row) != len(header):
                    raise ParseError(f"row {lineno}: expected {len(header)} fields, got {len(row)}")
                code = memo.get(pair_of(row))
                if code is None:  # learned first: it may widen the codes appended to
                    code = learn(row[1], row[2], lineno)
                codes.append(code)
                ids.append(row[0])
                for column, cell in zip(columns, row[_PREFIX_CELLS:]):
                    yield _parse_float(cell, lineno, column)

        matrix = np.fromiter(numbers(), np.float64).reshape(-1, len(columns))
    is_id, values = zip(*table) if table else ((), ())
    codes = np.asarray(codes)  # uint8 from the bytes, int64 from a list
    return ids, np.array(is_id, bool)[codes], np.array(values)[codes], matrix


def _parse_scores(fh) -> EvalSet:
    header = _header(fh, _SCORES_PREFIX)
    channels = header[_PREFIX_CELLS:]
    if not channels:
        raise SchemaError("row 1: scores file declares no channel columns")
    for k, name in enumerate(channels):
        if not name:
            raise SchemaError(f"row 1: channel {k + 1} has an empty name")
        if name in channels[:k]:
            raise SchemaError(f"row 1: channel {name!r} appears more than once")
    ids, is_id, correct, matrix = _read_rows(fh, header, _scores_correct)
    if not is_id.any():
        raise EmptyIdPopulation("scores file contains no id rows")
    return EvalSet.from_columns(ids, is_id, correct, dict(zip(channels, matrix.T)))


def load_scores(path) -> EvalSet:
    """Read a scores CSV (header sample_id,domain,correct,<channel...>)."""
    return _read_text(path, _parse_scores)


# the domain and correct fields of a scores row, indexed by is_id + id_correct
_SCORES_FLAG_CELLS = np.array(["ood,", "id,0", "id,1"], dtype=object)


def write_scores(eval_set: EvalSet, path) -> None:
    """Serialize an evaluation set back to the scores CSV format."""
    flags = _SCORES_FLAG_CELLS[eval_set.is_id + eval_set.id_correct.astype(np.intp)]
    columns = [eval_set.channel(ch) for ch in eval_set.channel_names]
    # the channels of a chunk of rows are stacked and formatted as whole rows
    stack = (lambda at: np.column_stack([c[at] for c in columns])) if columns else None
    cells = [_csv_cells(eval_set.sample_ids.tolist()), flags.tolist()]
    _write_csv(path, _SCORES_PREFIX + list(eval_set.channel_names), eval_set.n_total, stack, cells)


@dataclass(frozen=True)
class VectorColumns:
    """A logits or features file as columns: object ``sample_ids``, the ``is_id``
    mask, int64 ``labels`` (read at ID rows only) and the N x K float64 ``matrix``."""

    sample_ids: np.ndarray
    is_id: np.ndarray
    labels: np.ndarray
    matrix: np.ndarray


# the label cell of an id row: int() also reads 1_0, +1, " 1" and non-ASCII digits
_DECIMAL_INTEGER = re.compile("-?[0-9]+")


def _vector_label(domain: str, label_text: str, lineno: int) -> int:
    """The class label of one vector row, 0 at an ood row; a domain or label
    cell that is not valid is a SchemaError that names row ``lineno``."""
    if domain == "id":
        try:
            if _DECIMAL_INTEGER.fullmatch(label_text) is None:
                raise ValueError(label_text)
            label = int(label_text)  # refuses more than sys.get_int_max_str_digits()
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
    header = _header(fh, _VECTOR_PREFIX)
    columns = header[_PREFIX_CELLS:]
    if columns != [f"v{i}" for i in range(len(columns))]:
        raise SchemaError("row 1: vector columns must be named v0..v{K-1}")
    if len(columns) < min_dim:
        raise SchemaError(f"row 1: {kind} file needs at least {min_dim} components")
    ids, is_id, labels, matrix = _read_rows(fh, header, _vector_label)
    return VectorColumns(np.array(ids, object), is_id, labels.astype(np.int64, copy=False), matrix)


def load_logits(path) -> VectorColumns:
    return _read_text(path, lambda fh: _parse_vectors(fh, min_dim=2, kind="logits"))


def load_features(path) -> VectorColumns:
    return _read_text(path, lambda fh: _parse_vectors(fh, min_dim=1, kind="features"))


def write_vector_file(records: Sequence[LogitRecord | FeatureRecord], path) -> None:
    """Serialize logit/feature records (mainly for fixtures and round trips)."""
    if not records:
        raise ValueError("there is no record to take the vectors' width from")
    vectors = [r.logits if isinstance(r, LogitRecord) else r.features for r in records]
    width = len(vectors[0])
    if any(len(v) != width for v in vectors):
        raise ValueError("the records' vectors differ in length")
    if not width:
        raise ValueError("the records' vectors are empty; a vector file needs 1 component or more")
    flags = (f"{r.origin.value},{'' if r.label is None else r.label}" for r in records)
    ids = _csv_cells([r.sample_id for r in records])
    header = _VECTOR_PREFIX + [f"v{i}" for i in range(width)]
    # stacked a chunk at a time: no second matrix of every vector is held
    _write_csv(
        path, header, len(vectors), lambda at: np.array(vectors[at], np.float64), [ids, flags]
    )


def scaled(**raw: float) -> dict[str, dict[str, float]]:
    """Report entries in argument order: each raw value with its display twin,
    x1000 for a key that contains "aurc" (the AURC family), else x100."""
    scale = {key: AURC_SCALE if "aurc" in key else METRIC_SCALE for key in raw}
    return {key: {"raw": float(v), "display": float(v) * scale[key]} for key, v in raw.items()}


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


def _named(block) -> list[dict]:
    """The rows of a ``{name: row}`` block, each holding its name under "name"."""
    return [{"name": name, **row} for name, row in (block or {}).items()]


def _pair(double) -> list[dict]:
    """The double-score row, named by its channels; none without a double block."""
    return [{"name": "{ood_channel} + {id_channel}".format_map(double), **double}] if double else []


# Each Markdown table: the lines above it, its columns as (title, cell template:
# a key path into the row and a format; a missing key renders "-") and the rows
# it shows of a report. A table with no rows is not shown.
_TABLES = (
    ([], [("n_id", "{n_id}"), ("n_ood", "{n_ood}"), ("ID accuracy", "{id_accuracy[display]:.2f}")],
     lambda report: [report["dataset"]] if "n_id" in report.get("dataset", {}) else []),
    ([], [("Split", "{name}"), ("n_id", "{n_id}"), ("n_ood", "{n_ood}")],  # select's splits
     lambda report: [] if "n_id" in report.get("dataset", {}) else _named(report.get("dataset"))),
    (["Display scale: metrics x100, AURC x1000.", ""],
     [("Scores", "{name}"), ("F1", "{f1[display]:.2f}"), ("AURC", "{aurc[display]:.2f}"),
      ("DS-F1", "{ds_f1[display]:.2f}"), ("DS-AURC", "{ds_aurc[display]:.2f}")],
     lambda report: _named(report.get("single")) + _pair(report.get("double"))),
    ([], [("OOD channel", "{channel}"), ("AUROC", "{auroc[display]:.2f}"),
          ("FPR@95", "{fpr_at_95[display]:.2f}"), ("AUPR", "{aupr[display]:.2f}")],
     lambda report: [report["ood_detection"]] if report.get("ood_detection") else []),
    ([], [("Mode", "{name}"), ("tau_id", "{frozen[tau_id]}"), ("tau_ood", "{frozen[tau_ood]}"),
          ("val F1", "{val_f1[display]:.2f}"),
          ("test F1 (transfer)", "{test_f1_transfer[display]:.2f}"),
          ("test F1 (test-opt, leaky)", "{test_f1_opt[display]:.2f}")],
     lambda report: _named((report.get("selection") or {}).get("modes"))),
)


def _cell(row: dict, template: str) -> str:
    try:
        return template.format_map(row)
    except KeyError:  # a key missing from the row
        return "-"


def _render_markdown(report: dict[str, Any]) -> str:
    lines = ["# dseval report", ""]
    for above, columns, source in _TABLES:
        rows = source(report)
        if rows:
            table = [[title for title, _ in columns], ["---"] * len(columns)]
            table += [[_cell(row, template) for _, template in columns] for row in rows]
            lines += [*above, *("| " + " | ".join(cells) + " |" for cells in table), ""]
    config = report.get("config")
    if config:
        lines += ["## Config", "", "```json", json.dumps(config, indent=2), "```", ""]
    return "\n".join(lines)


def write_curve(surface: PairSurface, path) -> None:
    """Export a pair surface as CSV (tau_id,tau_ood,coverage,risk,f1 columns),
    rows sorted by coverage then risk. A NaN in coverage or risk has no
    place in that order and is a ValueError, raised before ``path`` is
    opened."""
    if not isinstance(surface, PairSurface):
        raise TypeError(f"write_curve exports a PairSurface, not {type(surface).__name__}")
    values = [surface.coverage.ravel(), surface.risk.ravel(), surface.f1.ravel()]
    for name, column in zip(("coverage", "risk"), values):
        if np.isnan(column).any():
            raise ValueError(f"write_curve cannot sort a surface whose {name} holds NaN")
    # numpy orders complex values by real part, then imaginary part, so one
    # sort of this key orders by coverage, then risk; it is stable, so pairs
    # tied on both stay in flat order, which is (tau_id, tau_ood) order, as
    # both axes strictly increase
    key = np.empty(values[0].size, np.complex128)
    key.real, key.imag = values[0], values[1]
    order = np.argsort(key, kind="stable")
    del key  # the sort order is the one full-size array held while writing
    n_cols = surface.ood_thresholds.size

    def rows(at: slice) -> np.ndarray:
        at = order[at]
        i, j = np.divmod(at, n_cols)
        return np.column_stack(
            [surface.id_thresholds[i], surface.ood_thresholds[j], *(v[at] for v in values)]
        )

    _write_csv(path, ["tau_id", "tau_ood", "coverage", "risk", "f1"], order.size, rows)
