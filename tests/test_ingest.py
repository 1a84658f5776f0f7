import csv
import dataclasses
import gc
import json
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dseval import (
    EvalSet, MixedSchema, Origin, SampleRecord, ThresholdGrid, build_eval_set, ds_metrics,
)
from dseval import ingest
from dseval.core import DsevalError
from dseval.cli import main
from dseval.dsmetrics import PairSurface
from dseval.ingest import (
    EmptyIdPopulation,
    IoError,
    ParseError,
    SchemaError,
    load_features,
    load_logits,
    load_report,
    load_scores,
    scaled,
    write_curve,
    write_report,
    write_scores,
    write_vector_file,
)
from dseval.scoring import FeatureRecord, LogitRecord
from conftest import make_fixture_set, make_random_set

FIXTURE_CSV = """sample_id,domain,correct,s_id,s_ood
A,id,1,0.9,0.9
B,id,1,0.8,0.8
C,id,0,0.7,0.8
X,ood,,0.6,0.1
Y,ood,,0.95,0.05
"""


def test_load_fixture(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text(FIXTURE_CSV)
    es = load_scores(path)
    assert es.n_id == 3 and es.n_ood == 2
    assert [r.sample_id for r in es.records] == ["A", "B", "C", "X", "Y"]
    assert es.channel("s_ood").tolist() == [0.9, 0.8, 0.8, 0.1, 0.05]


def test_round_trip_preserves_scores_exactly(tmp_path):
    rng = np.random.default_rng(1)
    es = make_random_set(rng, n=40, quantize_prob=0.0)
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    write_scores(es, first)
    loaded = load_scores(first)
    assert np.array_equal(loaded.channel("a"), es.channel("a"))
    assert np.array_equal(loaded.channel("b"), es.channel("b"))
    write_scores(loaded, second)
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize(
    "row,error,needle",
    [
        ("Z,ood,1,0.5,0.5", SchemaError, "correct"),
        ("Z,id,,0.5,0.5", SchemaError, "correct"),
        ("Z,weird,1,0.5,0.5", SchemaError, "domain"),
        ("Z,id,1,abc,0.5", ParseError, "s_id"),
        ("Z,id,1,nan,0.5", ParseError, "s_id"),
        ("Z,id,1,0.5", ParseError, "row 7"),
    ],
)
def test_bad_rows_are_diagnosed(tmp_path, row, error, needle):
    path = tmp_path / "scores.csv"
    path.write_text(FIXTURE_CSV + row + "\n")
    with pytest.raises(error) as excinfo:
        load_scores(path)
    assert "row 7" in str(excinfo.value)
    assert needle in str(excinfo.value)


def test_loaded_set_holds_columns_only(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text(FIXTURE_CSV)
    es = load_scores(path)
    assert "records" not in vars(es)
    assert es.sample_ids.tolist() == ["A", "B", "C", "X", "Y"]
    assert es.id_correct.tolist() == [True, True, False, False, False]


def test_repeated_channel_name_rejected(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("sample_id,domain,correct,a,b,a\nA,id,1,0.1,0.2,0.3\n")
    with pytest.raises(SchemaError, match="row 1: channel 'a' appears more than once"):
        load_scores(path)


def test_nul_suffixed_sample_id_rejected(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text(FIXTURE_CSV + "Z\0,ood,,0.1,0.1\n")
    with pytest.raises(MixedSchema, match=r"sample id 'Z\\x00' ends in a NUL character"):
        load_scores(path)


def test_repeated_sample_id_rejected(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text(FIXTURE_CSV + "Z,ood,,0.1,0.1\nB,ood,,0.5,0.5\nZ,id,1,0.5,0.5\n")
    with pytest.raises(MixedSchema, match="sample id 'B' appears more than once"):
        load_scores(path)


def test_first_bad_row_wins_over_a_later_one(tmp_path):
    # row 7 holds a non-finite score and row 8 a bad domain: the error names
    # row 7, as a row-by-row reader would
    path = tmp_path / "scores.csv"
    path.write_text(FIXTURE_CSV + "Z,id,1,inf,0.5\nW,weird,1,0.5,0.5\n")
    with pytest.raises(ParseError, match="row 7, column 's_id': non-finite value 'inf'"):
        load_scores(path)


def test_missing_header(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("A,id,1,0.9,0.9\n")
    with pytest.raises(ParseError):
        load_scores(path)


def test_no_id_rows(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("sample_id,domain,correct,a\nX,ood,,0.5\n")
    with pytest.raises(EmptyIdPopulation):
        load_scores(path)


@pytest.mark.parametrize(
    "rows, error, message",
    [
        # rows in order: the first bad row is named, whatever comes after it
        ("Z,id,1,0.5\nW,id,1,nan,0.5\n", ParseError, "row 2: expected 5 fields, got 4"),
        ("Z,weird,1,0.5,0.5\nW,id,1,abc,0.5\n", SchemaError, "row 2, column 'domain'"),
        ("", EmptyIdPopulation, "scores file contains no id rows"),
    ],
)
def test_first_bad_row_named_across_rows(tmp_path, rows, error, message):
    path = tmp_path / "scores.csv"
    path.write_text("sample_id,domain,correct,s_id,s_ood\n" + rows)
    with pytest.raises(error, match=re.escape(message)):
        load_scores(path)


@pytest.mark.parametrize(
    "rows, error, message",
    [
        # a row fault, a non-finite number included, outranks every set fault
        ("A\0,id,1,0.5,0.5\nB,id,1,inf,0.5\n", ParseError,
         "row 3, column 's_id': non-finite value 'inf'"),
        ("A,id,1,0.5,0.5\nA,id,1,0.5,0.5\nB,ood,,0.5,1e400\n", ParseError,
         "row 4, column 's_ood': non-finite value '1e400'"),
        ("X,ood,,0.5,0.5\nY,ood,,nan,0.5\n", ParseError, "row 3, column 's_id'"),
        # then a file with no ID row, then a NUL-suffixed id, then a repeated one
        ("X\0,ood,,0.5,0.5\nX\0,ood,,0.5,0.5\n", EmptyIdPopulation,
         "scores file contains no id rows"),
        ("A,id,1,0.5,0.5\nA,id,1,0.5,0.5\nB\0,ood,,0.5,0.5\n", MixedSchema,
         "sample id 'B\\x00' ends in a NUL character"),
    ],
)
def test_row_faults_outrank_set_faults(tmp_path, rows, error, message):
    path = tmp_path / "scores.csv"
    path.write_text("sample_id,domain,correct,s_id,s_ood\n" + rows)
    with pytest.raises(error, match=re.escape(message)):
        load_scores(path)


def test_empty_channel_name_rejected(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("sample_id,domain,correct,s_id,s_ood,\nA,id,1,0.1,0.2,0.3\n")
    with pytest.raises(SchemaError, match="row 1: channel 3 has an empty name"):
        load_scores(path)


_VEC = "sample_id,domain,label,v0,v1\n"
_LOADERS = {
    "scores": (load_scores, "sample_id,domain,correct,s_id,s_ood\n"),
    "logits": (load_logits, _VEC),
    "features": (load_features, _VEC),
}


@pytest.mark.parametrize("kind", sorted(_LOADERS))
def test_bad_byte_outranks_an_earlier_bad_row(tmp_path, kind):
    # the byte sits well past the text decoder's read-ahead from row 2
    loader, header = _LOADERS[kind]
    rows = "x,weird,1,0.5,0.5\n" + "".join(f"r{i},ood,,0.5,0.5\n" for i in range(2000))
    path = tmp_path / "data.csv"
    path.write_bytes((header + rows).encode() + b"z,ood,,0.5,\xe9\n")
    with pytest.raises(ParseError, match="^line 2003: byte 0xe9 is not valid UTF-8$"):
        loader(path)


@pytest.mark.parametrize("kind", sorted(_LOADERS))
def test_field_over_the_reader_limit(tmp_path, kind):
    loader, header = _LOADERS[kind]
    path = tmp_path / "data.csv"
    path.write_text(header + "x,ood,,0.5,0.5\n" + "y" * 200_000 + ",ood,,0.5,0.5\n")
    with pytest.raises(ParseError, match=r"^row 3: field larger than field limit \(131072\)$"):
        loader(path)
    # an earlier bad row is named first
    path.write_text(header + "x,ood,,0.5,nan\n" + "y" * 200_000 + ",ood,,0.5,0.5\n")
    with pytest.raises(ParseError, match="^row 2, column '(s_ood|v1)': non-finite"):
        loader(path)


@pytest.mark.parametrize("kind", sorted(_LOADERS))
def test_a_bad_file_is_read_by_the_csv_reader_twice(tmp_path, kind, monkeypatch):
    # once for the header, once for the checked pass that names the bad row
    loader, header = _LOADERS[kind]
    path = tmp_path / "data.csv"
    path.write_text(header + '"x",ood,,0.5,0.5\n' + "y,ood,,0.5,abc\n")
    calls = []
    csv_rows = ingest._csv_rows

    def counted(fh):
        calls.append(fh.tell())
        return csv_rows(fh)

    monkeypatch.setattr(ingest, "_csv_rows", counted)
    message = "^row 3, column '(s_ood|v1)': cannot parse 'abc' as a number$"
    with pytest.raises(ParseError, match=message):
        loader(path)
    assert calls == [0, 0]


def _loaded_columns(loaded):
    if isinstance(loaded, EvalSet):
        channels = [loaded.channel(ch).tolist() for ch in loaded.channel_names]
        return (loaded.sample_ids.tolist(), loaded.is_id.tolist(), loaded.id_correct.tolist(),
                list(loaded.channel_names), channels)
    return (loaded.sample_ids.tolist(), loaded.is_id.tolist(), loaded.labels.tolist(),
            loaded.matrix.tolist())


@pytest.mark.parametrize("kind", sorted(_LOADERS))
def test_byte_order_mark_is_dropped(tmp_path, kind):
    loader, header = _LOADERS[kind]
    text = header + "A,id,1,0.5,0.25\nX,ood,,0.1,-2.0\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(text.encode())
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert _loaded_columns(loader(marked)) == _loaded_columns(loader(plain))


@pytest.mark.parametrize("kind", sorted(_LOADERS))
def test_byte_order_mark_keeps_row_numbers(tmp_path, kind):
    # the bad cell sends the loader back to the start to name its row
    loader, header = _LOADERS[kind]
    path = tmp_path / "marked.csv"
    path.write_bytes(b"\xef\xbb\xbf" + (header + "A,id,1,0.5,0.5\nB,id,1,0.5,abc\n").encode())
    with pytest.raises(ParseError, match="^row 3, column '(s_ood|v1)': cannot parse 'abc'"):
        loader(path)


# A draw of _plain_vs_csv_file puts up to two of these faults into a file;
# with none, every row is plain and well formed and the bulk reader must
# take the file.
_MUTATIONS = ["quoted", "odd number", "odd text", "bad flags", "line ends", "blank line",
              "bom", "cell count", "field limit"]
_ODD_NUMBERS = [
    # float() reads these and JSON does not
    "1_0", "\u0661", "\x1c5", "6\x1f", "\x1d7", "\x1e8", "\x0c4", "\u30007", "\xa08", "nan",
    "-inf", "1e400", "NaN", "Infinity", "-Infinity", "01.5", ".5", "5.", "+1",
    # JSON reads these otherwise than float() (int 0, 1.0, 0.0, nan), or float() does not
    "-0", "true", "false", "null", "[1]", "{}",
    # both read these alike, or neither reads them
    " 1.5", "2.5 ", "\t3", "1e-400", "0", "7", "9007199254740993", "1" + "0" * 29, "1E5",
    "1e+5", "-0.0", "-0e0", "1e-0", "", " ", "0x1p3", "1d5", "\ufeff9", "[", "]",
]


@st.composite
def _plain_vs_csv_file(draw, kind):
    """The text of a scores, logits or features file, the faults put into
    it and the CSV field limit to read it with (None for the default)."""
    on = draw(st.lists(st.sampled_from(_MUTATIONS), max_size=2, unique=True))
    k = draw(st.integers(2 if kind == "logits" else 1, 3))
    names = [f"c{i}" for i in range(k)] if kind == "scores" else [f"v{i}" for i in range(k)]
    header = ["sample_id", "domain", "correct" if kind == "scores" else "label", *names]
    number = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    rows = []
    for i in range(draw(st.integers(1, 6))):
        domain = draw(st.sampled_from(["id", "id", "ood"]))
        if kind == "scores":
            flag = draw(st.sampled_from(["0", "1"])) if domain == "id" else ""
        else:
            flag = str(draw(st.integers(-3, 9))) if domain == "id" else ""
        rows.append([f"s{i}", domain, flag, *(draw(number) for _ in names)])
    at = st.integers(0, len(rows) - 1)
    if "odd number" in on:
        rows[draw(at)][3 + draw(st.integers(0, k - 1))] = draw(st.sampled_from(_ODD_NUMBERS))
    if "odd text" in on:
        rows[draw(at)][0] = draw(st.text(st.sampled_from('a,"\0'), min_size=1, max_size=3))
    if "bad flags" in on:
        rows[draw(at)][1:3] = draw(st.sampled_from(
            [("id", ""), ("ood", "1"), ("x", "0"), ("id", "2"), ("id", " 1"), ("id", "1_0"),
             ("id", "9" * 20)]
        ))
    if "cell count" in on:
        r = draw(at)
        rows[r] = draw(st.sampled_from([rows[r][:-1], rows[r] + [""], rows[r] + ["0.5"]]))
    if "field limit" in on:
        rows[draw(at)][0] = "y" * draw(st.integers(38, 42))  # around the limit of 40
    lines = [header, *rows]
    if "quoted" in on:
        quote = st.sampled_from([False, True])
        lines = [['"' + c.replace('"', '""') + '"' if draw(quote) else c for c in line]
                 for line in lines]
    ends = st.sampled_from(["\r\n", "\n", "\r"] if "line ends" in on else ["\r\n"])
    lines = [",".join(line) + draw(ends) for line in lines]
    if "line ends" in on and draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")  # no terminator at the end of the file
    if "blank line" in on:
        lines.insert(draw(st.integers(1, len(lines))), draw(ends))
    text = ("\ufeff" if "bom" in on else "") + "".join(lines)
    return on, text, (40 if "field limit" in on else None)


def _outcome(loader, path):
    """What a loader gives for ``path``: every column bit for bit, or its error."""
    try:
        got = loader(path)
    except DsevalError as exc:
        return type(exc), str(exc)
    if isinstance(got, EvalSet):
        columns = [got.channel(ch).tobytes() for ch in got.channel_names]
        return (got.sample_ids.tolist(), got.is_id.tobytes(), got.id_correct.tobytes(),
                got.channel_names, columns)
    return (got.sample_ids.tolist(), got.is_id.tobytes(), got.labels.tobytes(),
            got.matrix.shape, got.matrix.tobytes())


@pytest.mark.parametrize("kind", sorted(_LOADERS))
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_bulk_reader_matches_the_csv_pass(tmp_path_factory, kind, data):
    """The bulk reader of plain rows gives exactly what the CSV reader's pass
    gives: the same columns, or the same error, at any chunk size."""
    on, text, limit = data.draw(_plain_vs_csv_file(kind))
    chunk = data.draw(st.sampled_from([1, 2, 60, ingest._PLAIN_CHUNK]))
    path = tmp_path_factory.mktemp("plain") / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    loader = _LOADERS[kind][0]
    taken = []
    bulk = ingest._read_plain

    def read_plain(*args):
        matrix = bulk(*args)
        taken.append(matrix is not None)
        return matrix

    old_limit = csv.field_size_limit()
    try:
        if limit is not None:
            csv.field_size_limit(limit)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ingest, "_PLAIN_CHUNK", chunk)
            mp.setattr(ingest, "_read_plain", lambda *args: None)
            expected = _outcome(loader, path)
            mp.setattr(ingest, "_read_plain", read_plain)
            got = _outcome(loader, path)
    finally:
        csv.field_size_limit(old_limit)
    assert got == expected
    if not on:
        assert taken == [True]


@pytest.mark.parametrize("kind", sorted(_LOADERS))
@pytest.mark.parametrize("token", _ODD_NUMBERS)
def test_odd_number_gives_what_the_csv_pass_gives(tmp_path, kind, token):
    # alone in a middle cell, at the end of a line or at the end of the
    # file, where the JSON text around it differs
    loader, header = _LOADERS[kind]
    path = tmp_path / "data.csv"
    for rows in [f"a,id,1,{token},0.5\r\nb,ood,,0.25,0.5\r\n",
                 f"a,id,1,0.5,{token}\r\nb,ood,,0.25,0.5\r\n",
                 f"a,id,1,0.5,0.5\r\nb,ood,,0.25,{token}"]:
        path.write_bytes((header + rows).encode())
        got = _outcome(loader, path)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ingest, "_read_plain", lambda *args: None)
            assert got == _outcome(loader, path), rows


def _bulk_and_csv(loader, path):
    """The outcome of ``loader`` with the bulk reader, whether the bulk
    reader took the file, and the outcome of the CSV reader's pass alone."""
    taken = []
    bulk = ingest._read_plain

    def read_plain(*args):
        matrix = bulk(*args)
        taken.append(matrix is not None)
        return matrix

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest, "_read_plain", read_plain)
        got = _outcome(loader, path)
        mp.setattr(ingest, "_read_plain", lambda *args: None)
        return got, taken, _outcome(loader, path)


def _wide_rows(k=64):
    """Rows of ``k`` cells, most of them -0.x, across many chunks of the bulk
    reader, with zeros written 0, -0.0 and -0e0 but never -0. A row takes
    about 1.3 KB, so ``_PLAIN_CHUNK // 32`` rows span about 40 chunks."""
    rng = np.random.default_rng(61)
    rows = []
    for i in range(ingest._PLAIN_CHUNK // 32):
        cells = list(map(repr, (-rng.random(k)).tolist()))
        cells[i % k] = ("0", "-0.0", "-0e0")[i % 3]
        domain, label = ("id", str(i % 10)) if i % 2 else ("ood", "")
        rows.append([f"r{i}", domain, label, *cells])
    return rows


def _write_rows(path, rows, kind="features"):
    header = ["sample_id", "domain", "label", *(f"v{i}" for i in range(len(rows[0]) - 3))]
    if kind == "scores":
        header[2:] = ["correct", *(f"c{i}" for i in range(len(rows[0]) - 3))]
    path.write_text("".join(",".join(row) + "\r\n" for row in [header, *rows]))
    assert path.stat().st_size > 30 * ingest._PLAIN_CHUNK


def test_zeros_without_an_integer_minus_zero_stay_in_bulk(tmp_path):
    path = tmp_path / "features.csv"
    _write_rows(path, _wide_rows())
    got, taken, expected = _bulk_and_csv(load_features, path)
    assert taken == [True]
    assert got == expected
    matrix = load_features(path).matrix
    n = matrix.shape[0]
    signs = [np.signbit(matrix[i, i % 64]) for i in range(n)]
    assert signs == [i % 3 > 0 for i in range(n)]
    assert np.count_nonzero(matrix) == n * 63


def test_a_late_integer_minus_zero_gives_the_csv_pass(tmp_path):
    rows = _wide_rows()
    rows[190][3 + 5] = "-0"
    path = tmp_path / "features.csv"
    _write_rows(path, rows)
    got, taken, expected = _bulk_and_csv(load_features, path)
    assert taken == [False]
    assert got == expected
    assert np.signbit(load_features(path).matrix[190, 5])


@pytest.mark.parametrize(
    "kind, domain, label, message",
    [
        ("features", "id", "x",
         "row 152, column 'label': id rows need an integer class index, got 'x'"),
        ("features", "id", "1_0",
         "row 152, column 'label': id rows need an integer class index, got '1_0'"),
        ("features", "ood", "3", "row 152, column 'label': ood rows must leave this empty"),
        ("features", "test", "", "row 152, column 'domain': expected 'id' or 'ood', got 'test'"),
        ("scores", "id", "2", "row 152, column 'correct': id rows need 0 or 1, got '2'"),
        ("scores", "id", "", "row 152, column 'correct': id rows need 0 or 1, got ''"),
        ("scores", "ood", "0",
         "row 152, column 'correct': ood rows must leave this empty, got '0'"),
        ("scores", "test", "", "row 152, column 'domain': expected 'id' or 'ood', got 'test'"),
    ],
)
def test_a_late_bad_label_or_domain_is_named(tmp_path, kind, domain, label, message):
    # the rows before it hold every valid (domain, label or correct) pair of the file
    rows = _wide_rows()
    if kind == "scores":
        for i, row in enumerate(rows):
            row[2] = str(i // 2 % 2) if row[1] == "id" else ""
    rows[150][1:3] = [domain, label]
    path = tmp_path / f"{kind}.csv"
    _write_rows(path, rows, kind)
    loader = load_scores if kind == "scores" else load_features
    got, taken, expected = _bulk_and_csv(loader, path)
    assert taken == [False]
    assert got == expected == (SchemaError, message)


@pytest.mark.parametrize("quoted", [None, 0, 1999])
def test_row_codes_outgrow_a_byte(tmp_path, quoted):
    # 2000 distinct labels over several chunks: a row's code into the table
    # of pairs outgrows a byte. A quote in the first row sends the file to
    # the CSV pass, which widens the codes; one in the last row sends it
    # there after the bulk reader has widened them.
    rows = [f"r{i},id,{i},0.5,0.25\r\n" for i in range(2000)]
    if quoted is not None:
        rows[quoted] = f'"r{quoted}",id,{quoted},0.5,0.25\r\n'
    path = tmp_path / "logits.csv"
    path.write_text(_VEC + "".join(rows))
    assert path.stat().st_size > 2 * ingest._PLAIN_CHUNK
    got, taken, expected = _bulk_and_csv(load_logits, path)
    assert taken == [quoted is None]
    assert got == expected
    assert load_logits(path).labels.tolist() == list(range(2000))


@pytest.mark.parametrize(
    "cell, label",
    [("1_0", None), (" 1", None), ("+1", None), ("١", None), ("--1", None), ("-", None),
     ("01", 1), ("-3", -3)],
)
def test_vector_labels_are_ascii_decimal_integers(tmp_path, cell, label):
    # int() reads every one of these but "--1" and "-"
    path = tmp_path / "logits.csv"
    path.write_text(_VEC + f"a,id,{cell},0.5,0.25\r\nb,ood,,0.1,0.2\r\n", encoding="utf-8")
    got, taken, expected = _bulk_and_csv(load_logits, path)
    assert got == expected
    if label is None:
        assert taken == [False]
        assert got == (SchemaError, "row 2, column 'label': id rows need an integer class "
                                    f"index, got {cell!r}")
    else:
        assert taken == [True]
        assert load_logits(path).labels.tolist() == [label, 0]


def test_load_scores_peak_memory(tmp_path):
    # No table of cell text is held. The base counts the str objects of the
    # ids as well as the columns, 0.52 + 1.17 MB; the tracemalloc peak is
    # about 1.5x that base, 2.6 MB. Reading every row's cells before parsing
    # any reached about 3.5x.
    path = tmp_path / "scores.csv"
    assert main(["synth", "--n-id", "10000", "--n-ood", "10000", "--seed", "3",
                 "--out", str(path)]) == 0
    load_scores(path)
    tracemalloc.start()
    try:
        es = load_scores(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(a.nbytes for a in (es.sample_ids, es.is_id, es.id_correct))
    held += sum(es.channel(ch).nbytes for ch in es.channel_names)
    held += sum(map(sys.getsizeof, es.sample_ids.tolist()))
    assert peak <= 2 * held, (peak, held)


@pytest.mark.parametrize("kind", sorted(_LOADERS))
@pytest.mark.parametrize("quote", ["", '"'])
def test_loaders_leave_no_reference_cycles(tmp_path, kind, quote):
    # Garbage in a cycle waits for the collector, so a loader whose row
    # state sat in one would hold each file's ids past its return, and
    # repeated loads would raise the peak. A quote gives the CSV pass.
    loader, header = _LOADERS[kind]
    path = tmp_path / "data.csv"
    path.write_text(header + f"{quote}A{quote},id,1,0.5,0.25\r\nX,ood,,0.1,-2.0\r\n")
    gc.collect()
    gc.disable()
    try:
        loader(path)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_load_features_peak_memory(tmp_path):
    # Each chunk's block is copied into one output array grown in place: the
    # tracemalloc peak is about 1.29x the 2.56 MB of the 5000 x 64 matrix
    # (np.fromiter over every cell reached 1.57x). Parsing chunks into a list
    # of blocks and joining them holds the numbers twice, about 2.2x.
    rng = np.random.default_rng(5)
    records = [
        FeatureRecord(f"s{i:05d}", Origin.ID if i % 2 else Origin.OOD, i % 10 if i % 2 else None,
                      rng.normal(size=64))
        for i in range(5000)
    ]
    path = tmp_path / "features.csv"
    write_vector_file(records, path)
    load_features(path)
    tracemalloc.start()
    try:
        matrix = load_features(path).matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert matrix.shape == (5000, 64)
    assert peak <= 1.5 * matrix.nbytes, (peak, matrix.nbytes)


# 200 floats either side of each edge of the range where orjson writes
# repr's text, both signs, and the values it writes otherwise or not at all
_FORMAT_EDGES = np.concatenate(
    [sign * (np.array([edge]).view(np.int64) + np.arange(-200, 201)).view(np.float64)
     for edge in (1e-4, 1e16) for sign in (1.0, -1.0)]
    + [[0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, np.nan, np.inf, -np.inf, 1e15,
        2.0**53, 0.1]]
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    values=st.lists(st.floats() | st.sampled_from(_FORMAT_EDGES.tolist()), max_size=24),
    width=st.integers(1, 4),
    chunk=st.sampled_from([1, 3, ingest._CHUNK_CELLS]),
)
def test_float_rows_is_repr(values, width, chunk):
    # nan, +-inf, +-0.0, subnormals and the edges, in one-cell and wider
    # rows, across chunk boundaries
    column = np.array(values, np.float64).reshape(-1, 1)
    matrix = column[: column.size // width * width].reshape(-1, width)
    for block, expected in (
        (column, [[v] for v in values]),
        (matrix, matrix.tolist()),
        # a strided column, as a matrix's first column is
        (matrix[:, :1], matrix[:, :1].tolist()),
    ):
        chunks = (ingest._float_rows(block[lo : lo + chunk]) for lo in range(0, len(block), chunk))
        rows = [",".join(map(repr, row)) for row in expected]
        assert [row for chunk_rows in chunks for row in chunk_rows] == rows


def test_float32_blocks_print_float64_repr():
    # orjson would print float32's shortest digits (0.1), not the float64 repr
    # of the value; one row needs repr's path and one does not
    block = np.array([[0.1, 0.7], [3e-5, 0.25]], np.float32)
    rows = [",".join(map(repr, row)) for row in block.tolist()]
    assert rows[0] == "0.10000000149011612,0.699999988079071"
    assert ingest._float_rows(block) == rows
    assert ingest._float_rows(block[:1]) == rows[:1]
    # a strided float32 column
    assert ingest._float_rows(block[:, :1]) == [repr(v) for v in block[:, 0].tolist()]


def test_write_vector_file_matches_per_row_repr(tmp_path, monkeypatch):
    # every edge value, in rows of 4 written 7 at a time: 7 rows of 7 cells
    monkeypatch.setattr(ingest, "_CHUNK_CELLS", 49)
    vectors = _FORMAT_EDGES[: _FORMAT_EDGES.size // 4 * 4].reshape(-1, 4)
    records = [
        FeatureRecord(f"s{i}", Origin.ID if i % 3 else Origin.OOD, i % 5 if i % 3 else None, v)
        for i, v in enumerate(vectors)
    ]
    write_vector_file(records, tmp_path / "ours.csv")
    # the writer this replaced: one repr per cell, joined per row
    lines = ["sample_id,domain,label,v0,v1,v2,v3"] + [
        ",".join([r.sample_id, r.origin.value, "" if r.label is None else str(r.label),
                  *map(repr, r.features.tolist())])
        for r in records
    ]
    reference = "".join(line + "\r\n" for line in lines)
    assert (tmp_path / "ours.csv").read_bytes() == reference.encode()


def test_zero_channel_set_writes_its_rows(tmp_path):
    es = build_eval_set(
        [SampleRecord("A", Origin.ID, True, {}), SampleRecord("X", Origin.OOD, None, {})]
    )
    path = tmp_path / "scores.csv"
    write_scores(es, path)
    assert path.read_bytes() == b"sample_id,domain,correct\r\nA,id,1\r\nX,ood,\r\n"


def test_write_scores_peak_memory(tmp_path):
    # Beside the eval set, the writer holds the id and flag lists, about 24
    # bytes a row (about 2.7 MB at 100k rows), and one chunk of rows at a time.
    # Holding a channel's Python floats (32 bytes each with the list) or the
    # whole file's text (about 55 bytes a row) passes 32 bytes a row.
    n = 100_000
    rng = np.random.default_rng(6)
    es = EvalSet.from_columns(
        [f"id-{i:06d}" for i in range(n)], rng.random(n) < 0.5, rng.random(n) < 0.7,
        {"s_id": rng.normal(size=n), "s_ood": rng.normal(size=n)},
    )
    path = tmp_path / "scores.csv"
    write_scores(es, path)
    tracemalloc.start()
    try:
        write_scores(es, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * n + 2**20, (peak, n)


def _csv_writer_scores(eval_set, path):
    """The scores file as csv.writer writes it: the reference for write_scores."""
    columns = [eval_set.channel(ch).tolist() for ch in eval_set.channel_names]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_id", "domain", "correct", *eval_set.channel_names])
        for sid, is_id, ok, *scores in zip(
            eval_set.sample_ids.tolist(), eval_set.is_id.tolist(),
            eval_set.id_correct.tolist(), *columns,
        ):
            flags = ["id", "1" if ok else "0"] if is_id else ["ood", ""]
            writer.writerow([sid, *flags, *map(repr, scores)])


# free text that csv.writer must quote, and text it must not
_TEXT = st.text(st.sampled_from([",", '"', "\r", "\n", " ", "\t", "é", "a"]), max_size=4)


@settings(max_examples=80, deadline=None)
@given(
    ids=st.lists(_TEXT, min_size=1, max_size=6, unique=True),
    channels=st.lists(_TEXT, max_size=3, unique=True),
    data=st.data(),
)
def test_write_scores_matches_csv_writer(tmp_path_factory, ids, channels, data):
    n = len(ids)
    is_id = [True] + data.draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    correct = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    scores = {ch: data.draw(st.lists(finite, min_size=n, max_size=n)) for ch in channels}
    es = EvalSet.from_columns(ids, is_id, correct, scores)
    work = tmp_path_factory.mktemp("scores")
    write_scores(es, work / "ours.csv")
    _csv_writer_scores(es, work / "reference.csv")
    assert (work / "ours.csv").read_bytes() == (work / "reference.csv").read_bytes()
    if not channels or "" in channels:
        with pytest.raises(SchemaError, match="row 1: "):
            load_scores(work / "ours.csv")
        return
    loaded = load_scores(work / "ours.csv")
    assert loaded.sample_ids.tolist() == ids
    assert loaded.channel_names == tuple(channels)
    assert loaded.is_id.tolist() == es.is_id.tolist()
    assert loaded.id_correct.tolist() == es.id_correct.tolist()
    for ch in channels:
        assert np.array_equal(loaded.channel(ch).view(np.uint64), es.channel(ch).view(np.uint64))


# free text csv.writer must quote, placed on both sides of each chunk boundary
_QUOTED = ["a,b", 'say "hi"', "cr\rx", "lf\nx", '",\r\n"']


@pytest.mark.parametrize("chunk_rows", [3, 1024, ingest._CHUNK_CELLS // 5])
def test_write_scores_across_chunks_matches_csv_writer(tmp_path, monkeypatch, chunk_rows):
    # rows of five cells, so chunks of chunk_rows rows
    monkeypatch.setattr(ingest, "_CHUNK_CELLS", 5 * chunk_rows)
    n = 3 * chunk_rows + 2
    ids = [f"s{i}" for i in range(n)]
    for k, boundary in enumerate(range(chunk_rows, n, chunk_rows)):
        ids[boundary - 1] = f"{_QUOTED[k % 5]}-{k}-before"
        ids[boundary] = f"{_QUOTED[(k + 1) % 5]}-{k}-after"
    ids[-1] = _QUOTED[4] + "-last"
    rng = np.random.default_rng(4)
    is_id = rng.random(n) < 0.6
    is_id[0] = True
    es = EvalSet.from_columns(
        ids, is_id, rng.random(n) < 0.5, {"a,b": rng.normal(size=n), "c": rng.random(n) * 1e-300}
    )
    write_scores(es, tmp_path / "ours.csv")
    _csv_writer_scores(es, tmp_path / "reference.csv")
    assert (tmp_path / "ours.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    assert load_scores(tmp_path / "ours.csv").sample_ids.tolist() == ids


def test_missing_file_is_io_error(tmp_path):
    with pytest.raises(IoError):
        load_scores(tmp_path / "absent.csv")


class TestVectorFiles:
    @staticmethod
    def _round_trip(records, path, loader, attr):
        write_vector_file(records, path)
        loaded = loader(path)
        assert loaded.sample_ids.tolist() == [r.sample_id for r in records]
        assert loaded.is_id.tolist() == [r.origin is Origin.ID for r in records]
        assert loaded.labels.dtype == np.int64
        assert [int(k) for k, r in zip(loaded.labels, records) if r.label is not None] == [
            r.label for r in records if r.label is not None
        ]
        vectors = np.stack([getattr(r, attr) for r in records])
        assert loaded.matrix.dtype == np.float64 and loaded.matrix.shape == vectors.shape
        # bit for bit, so -0.0 and 0.0 differ
        assert np.array_equal(loaded.matrix.view(np.uint64), vectors.view(np.uint64))

    def test_logits_round_trip(self, tmp_path):
        edge = [-0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e308, -1e308]
        records = [
            LogitRecord("a", Origin.ID, 1, np.array([0.5, 1.5, -0.25])),
            LogitRecord("b", Origin.OOD, None, np.array([0.1, 0.2, 0.3])),
            LogitRecord("c", Origin.ID, 2**63 - 1, np.array(edge[:3])),
            LogitRecord("d", Origin.ID, -(2**63), np.array(edge[3:])),
            LogitRecord("e", Origin.OOD, None, np.array([1.7976931348623157e308, 0.0, -0.0])),
        ]
        self._round_trip(records, tmp_path / "logits.csv", load_logits, "logits")

    def test_features_round_trip(self, tmp_path):
        records = [FeatureRecord("a", Origin.ID, 0, np.array([1.25]))]
        self._round_trip(records, tmp_path / "features.csv", load_features, "features")

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
                st.one_of(st.none(), st.integers(-(2**63), 2**63 - 1)),
                st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3, max_size=3),
            ),
            max_size=8,
        )
    )
    def test_round_trip_property(self, tmp_path_factory, rows):
        records = [
            FeatureRecord(
                sid, Origin.OOD if label is None else Origin.ID, label, np.array(vec)
            )
            for sid, label, vec in rows
        ]
        path = tmp_path_factory.mktemp("vectors") / "features.csv"
        if records:
            self._round_trip(records, path, load_features, "features")
        else:
            path.write_text("sample_id,domain,label,v0,v1,v2\n")
            loaded = load_features(path)
            assert loaded.matrix.shape == (0, 3) and loaded.sample_ids.size == 0

    def test_vectors_of_other_lengths_rejected(self, tmp_path):
        # in one chunk of rows or in two, as the header holds one width
        for at in (1, 200):
            vectors = [np.zeros(3)] * 300
            vectors[at] = np.zeros(2)
            records = [FeatureRecord(f"s{i}", Origin.OOD, None, v) for i, v in enumerate(vectors)]
            with pytest.raises(ValueError, match="vectors differ in length"):
                write_vector_file(records, tmp_path / "features.csv")

    def test_no_records_rejected(self, tmp_path):
        # the header needs a width, and no record gives one
        with pytest.raises(ValueError, match="no record to take the vectors' width from"):
            write_vector_file([], tmp_path / "features.csv")
        assert not (tmp_path / "features.csv").exists()

    @pytest.mark.parametrize("record", [FeatureRecord, LogitRecord])
    def test_empty_vectors_rejected(self, tmp_path, record):
        # a width of 0 would write rows its own loaders refuse
        path = tmp_path / "vectors.csv"
        with pytest.raises(ValueError, match="^the records' vectors are empty"):
            write_vector_file([record("a", Origin.ID, 1, np.empty(0))], path)
        assert not path.exists()

    def test_label_on_ood_rejected(self, tmp_path):
        path = tmp_path / "logits.csv"
        path.write_text("sample_id,domain,label,v0,v1\nx,ood,3,0.0,0.0\n")
        with pytest.raises(SchemaError):
            load_logits(path)

    def test_logits_need_two_classes(self, tmp_path):
        path = tmp_path / "logits.csv"
        path.write_text("sample_id,domain,label,v0\nx,id,0,0.0\n")
        with pytest.raises(SchemaError):
            load_logits(path)

    def test_bad_vector_header(self, tmp_path):
        path = tmp_path / "logits.csv"
        path.write_text("sample_id,domain,label,a,b\nx,id,0,0.0,1.0\n")
        with pytest.raises(SchemaError):
            load_logits(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "row 1: expected header"),
            ("\nx,id,0,0.0,1.0\n", "row 1: expected header"),
            (_VEC + "x,id,0,0.0,1.0\ny,id,0,0.0\n", "row 3: expected 5 fields, got 4"),
            (_VEC + "x,id,0,0.0,1.0\ny,id,0,0.0,nan\n", "row 3, column 'v1': non-finite value"),
            # rows in order: the first bad row is named, whatever comes after it
            (_VEC + "x,id,0,0.0,abc\ny,test,0,0.0,1.0\n", "row 2, column 'v1': cannot parse 'abc'"),
            (_VEC + "x,test,0,0.0,1.0\ny,id,0,0.0,abc\n", "row 2, column 'domain'"),
            (_VEC + "x,id,0,0.0\ny,id,0,0.0,nan\n", "row 2: expected 5 fields, got 4"),
            (_VEC + "x,id,0,nan,0.0\ny,test,0,0.0,1.0\n", "row 2, column 'v0': non-finite"),
            (_VEC + "x,id,0,inf,0.0\ny,id,0,0.0,abc\n", "row 2, column 'v0': non-finite"),
            (_VEC + "x,id,0,0.0,1.0\ny,id,0,0.0,abc\nz,id,0,nan,0.0\n", "row 3, column 'v1'"),
            # within a row: fields, domain and label before cells, cells left to right
            (_VEC + "x,test,0,abc,1.0\n", "row 2, column 'domain'"),
            (_VEC + "x,id,one,abc,1.0\n", "row 2, column 'label'"),
            (_VEC + "x,ood,0,abc,1.0\n", "row 2, column 'label'"),
            (_VEC + "x,id,99999999999999999999999,abc,1.0\n", "row 2, column 'label'"),
            (_VEC + "x,id,0,abc,nan\n", "row 2, column 'v0': cannot parse"),
            (_VEC + "x,id,0,nan,abc\n", "row 2, column 'v0': non-finite"),
            # the cell is quoted as written
            (_VEC + "x,id,0,0.0,inf\n", "row 2, column 'v1': non-finite value 'inf'"),
            (_VEC + "x,id,0,0.0,1e999\n", "row 2, column 'v1': non-finite value '1e999'"),
            (_VEC + "x,id,0,0.0,-Infinity\n", "non-finite value '-Infinity'"),
            (_VEC + "x,id,0,0.0,abc\n", "row 2, column 'v1': cannot parse 'abc' as a number"),
            (_VEC + "x,id,0,0.0,\n", "row 2, column 'v1': cannot parse '' as a number"),
        ],
    )
    def test_malformed_rows_named(self, tmp_path, text, message):
        path = tmp_path / "logits.csv"
        path.write_text(text)
        # a bad domain or label is a schema error, anything else a parse error
        error = SchemaError if "'domain'" in message or "'label'" in message else ParseError
        with pytest.raises(error, match=re.escape(message)):
            load_logits(path)


class TestReports:
    def test_scaled_entries(self):
        entry = scaled(f1=0.6742)["f1"]
        assert entry["display"] == entry["raw"] * 100.0
        assert f"{entry['display']:.2f}" == "67.42"
        entry = scaled(aurc=0.20238)["aurc"]
        assert entry["display"] == entry["raw"] * 1000.0
        assert f"{entry['display']:.2f}" == "202.38"

    def test_json_round_trip_identity(self, tmp_path):
        report = {
            "dataset": {"n_id": 3, "n_ood": 2, **scaled(id_accuracy=2 / 3)},
            "single": {"s_id": scaled(f1=2 / 3, aurc=0.1)},
            "double": {
                "id_channel": "s_id",
                "ood_channel": "s_ood",
                **scaled(ds_f1=0.8, ds_aurc=0.05),
            },
        }
        first = tmp_path / "r1.json"
        second = tmp_path / "r2.json"
        write_report(report, first)
        write_report(load_report(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_bad_byte_is_a_parse_error(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_bytes(b'{\n  "a": "\xff"\n}\n')
        with pytest.raises(ParseError, match="^line 2: byte 0xff is not valid UTF-8$"):
            load_report(path)

    def test_invalid_json_is_a_parse_error(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text('{"a": ')
        with pytest.raises(ParseError, match="^invalid report JSON: "):
            load_report(path)

    def test_markdown_layout(self, tmp_path):
        report = {
            "dataset": {"n_id": 3, "n_ood": 2, **scaled(id_accuracy=2 / 3)},
            "single": {"s_id": scaled(f1=0.6742, aurc=0.20238)},
            "double": {
                "id_channel": "s_id",
                "ood_channel": "s_ood",
                **scaled(ds_f1=0.8, ds_aurc=0.19708),
            },
        }
        path = tmp_path / "report.md"
        write_report(report, path)
        text = path.read_text()
        assert "| s_id | 67.42 | 202.38 | - | - |" in text
        assert "| s_ood + s_id | - | - | 80.00 | 197.08 |" in text


class TestCurveExport:
    def test_fixture_surface_row(self, tmp_path):
        es = make_fixture_set()
        grid = ThresholdGrid(
            id_thresholds=np.array([-0.4, 0.75]),
            ood_thresholds=np.array([-0.95, 0.5]),
        )
        surface = ds_metrics(es, "s_id", "s_ood", grid, return_surface=True)[0].surface
        path = tmp_path / "surface.csv"
        write_curve(surface, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "tau_id,tau_ood,coverage,risk,f1"
        assert "0.75,0.5,0.6666666666666666,0.0,0.8" in lines

    @staticmethod
    def _per_row_reference(surface, path):
        """The surface as csv.writer writes it, one repr per cell."""
        order = np.lexsort((surface.risk.ravel(), surface.coverage.ravel()))
        i, j = np.divmod(order, surface.ood_thresholds.size)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["tau_id", "tau_ood", "coverage", "risk", "f1"])
            for row in zip(
                surface.id_thresholds[i].tolist(), surface.ood_thresholds[j].tolist(),
                *(col.ravel()[order].tolist() for col in (surface.coverage, surface.risk, surface.f1)),
            ):
                writer.writerow(map(repr, row))

    @pytest.mark.parametrize(
        "coverage",
        ["one run", "all distinct", "signed zeros", "odd magnitudes", "scattered odd rows", "float32"],
    )
    def test_matches_a_per_row_reference(self, tmp_path, monkeypatch, coverage):
        # 54 rows of five cells in chunks of 7 rows: the last chunk is short
        monkeypatch.setattr(ingest, "_CHUNK_CELLS", 35)
        rng = np.random.default_rng(9)
        shape = (6, 9)
        cov = {
            "one run": np.full(shape, 0.3),
            "all distinct": rng.permutation(np.arange(54) / 7).reshape(shape),
            # equal as floats, so sorted together, but printed apart
            "signed zeros": np.where(rng.random(shape) < 0.5, 0.0, -0.0),
            # below 1e-4, where orjson's text is not repr's
            "odd magnitudes": rng.random(shape) * 1e-5,
            # increasing in flat order, so sorted rows are flat rows
            "scattered odd rows": (np.arange(54) / 54).reshape(shape),
            "float32": rng.random(shape),
        }[coverage]
        surface = PairSurface(
            id_thresholds=np.sort(rng.normal(size=shape[0])),
            ood_thresholds=np.sort(rng.normal(size=shape[1])),
            coverage=cov,
            # ties on risk too, so that flat order decides
            risk=np.round(rng.random(shape), 1),
            f1=rng.random(shape),
        )
        if coverage == "odd magnitudes":
            # rows that hold such a cell are formatted by repr as a whole
            surface = dataclasses.replace(
                surface,
                id_thresholds=np.array([-1e300, -5e-324, -0.0, 5e-324, 0.25, 1e300]),
                ood_thresholds=np.array(
                    [-1e300, -2.5, -5e-324, -0.0, 5e-324, 3e-5, 0.7, 1e16, 1e300]
                ),
                risk=surface.risk * 1e-5,
            )
        chunks, repr_chunks = [], []
        if coverage == "scattered odd rows":
            # one odd cell in each of chunks 0, 2, 4 and 6, so chunks with
            # and without a row for repr alternate
            f1 = surface.f1.ravel().copy()
            f1[[3, 15, 30, 44]] = [3e-5, 1e16, 5e-324, 2.5e17]
            surface = dataclasses.replace(surface, f1=f1.reshape(shape))
            float_rows = ingest._float_rows

            def counted(block):
                chunks.append(block)
                if ingest._odd_rows(block).any():
                    repr_chunks.append(block)
                return float_rows(block)

            monkeypatch.setattr(ingest, "_float_rows", counted)
        if coverage == "float32":
            # printed as the float64 repr of each float32 value, not its shortest float32 text
            surface = PairSurface(
                *(np.asarray(getattr(surface, f.name), np.float32) for f in dataclasses.fields(surface))
            )
        write_curve(surface, tmp_path / "ours.csv")
        if coverage == "scattered odd rows":
            # one formatter call per chunk
            assert len(chunks) == 8 and len(repr_chunks) == 4
        self._per_row_reference(surface, tmp_path / "reference.csv")
        assert (tmp_path / "ours.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_empty_surface_writes_the_header(self, tmp_path):
        empty = np.empty((0, 0))
        write_curve(PairSurface(np.empty(0), np.empty(0), empty, empty, empty), tmp_path / "c.csv")
        assert (tmp_path / "c.csv").read_bytes() == b"tau_id,tau_ood,coverage,risk,f1\r\n"

    def test_peak_memory_at_257_squared(self, tmp_path):
        """Only the complex sort key and the sort order are held whole; the
        rows are picked and formatted a chunk at a time.

        A 257 x 257 surface has 66049 cells. The key takes 16 bytes per
        cell and the int64 order 8, about 24 bytes per cell at the peak;
        the key is freed before the rows are written. Full-size threshold
        indices beside the order took about 30, an object array of
        formatted thresholds picked per row 45, and coverage held as one
        list of its cells 65, or 79 as a list of Python floats.
        """
        rng = np.random.default_rng(3)
        n = 20_000
        es = EvalSet.from_columns(
            [f"s{i}" for i in range(n)], rng.random(n) < 0.5, rng.random(n) < 0.7,
            {"a": rng.normal(size=n), "b": rng.normal(size=n)},
        )
        grid = ThresholdGrid.quantile(es, "a", "b", t_grid=256)
        surface = ds_metrics(es, "a", "b", grid, return_surface=True)[0].surface
        cells = surface.coverage.size
        assert cells == 257 * 257
        path = tmp_path / "surface.csv"
        write_curve(surface, path)
        tracemalloc.start()
        try:
            write_curve(surface, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * cells, (peak, cells)

    def test_only_a_surface_exports(self, tmp_path):
        with pytest.raises(TypeError, match="PairSurface"):
            write_curve([], tmp_path / "curve.csv")

    @pytest.mark.parametrize("field", ["coverage", "risk"])
    def test_nan_sort_key_is_refused_before_the_file_opens(self, tmp_path, field):
        # the complex key would sort a NaN-risk row after every finite row,
        # where lexsort keeps it in its coverage group
        columns = {"coverage": np.array([[0.5, 0.9, 0.5]]), "risk": np.array([[0.2, 0.1, 0.2]])}
        columns[field][0, 0] = np.nan
        surface = PairSurface(np.array([0.0]), np.array([0.0, 1.0, 2.0]), f1=np.zeros((1, 3)), **columns)
        path = tmp_path / "curve.csv"
        path.write_bytes(b"kept")
        with pytest.raises(ValueError, match=f"{field} holds NaN"):
            write_curve(surface, path)
        assert path.read_bytes() == b"kept"

    # every key value the sort orders, with ties: +-0.0 sort together
    # but print apart, and +-inf sort at the ends
    _SORT_POOL = [0.0, -0.0, np.inf, -np.inf, 5e-324, 1e-300, 0.25, 0.5, 1.0]

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
        data=st.data(),
        chunk=st.sampled_from([1, 4, ingest._CHUNK_CELLS // 5]),
    )
    def test_sort_matches_lexsort(self, tmp_path_factory, shape, data, chunk):
        cells = shape[0] * shape[1]
        coverage, risk = (
            np.array(data.draw(st.lists(st.sampled_from(self._SORT_POOL), min_size=cells, max_size=cells)))
            .reshape(shape)
            for _ in range(2)
        )
        surface = PairSurface(
            id_thresholds=np.arange(shape[0]) - 0.5,
            ood_thresholds=np.arange(shape[1]) * 1.5,
            coverage=coverage,
            risk=risk,
            f1=np.arange(cells).reshape(shape) / 8,
        )
        path = tmp_path_factory.mktemp("sort")
        with pytest.MonkeyPatch.context() as mp:
            # rows of five cells, so chunks of chunk rows
            mp.setattr(ingest, "_CHUNK_CELLS", 5 * chunk)
            write_curve(surface, path / "ours.csv")
        self._per_row_reference(surface, path / "reference.csv")
        assert (path / "ours.csv").read_bytes() == (path / "reference.csv").read_bytes()
