import csv
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dseval import EvalSet, MixedSchema, Origin, SampleRecord, ThresholdGrid, build_eval_set, ds_f1
from dseval.cli import main
from dseval.ingest import (
    AURC_SCALE,
    METRIC_SCALE,
    EmptyIdPopulation,
    IoError,
    MetricReport,
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


def test_load_scores_peak_memory(tmp_path):
    # One pass holds no table of cell text. The tracemalloc peak is about
    # 4.8x the bytes the loaded set holds; reading every row's cells before
    # parsing any reached about 11x.
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
    assert peak <= 7 * held, (peak, held)


def test_zero_channel_set_writes_its_rows(tmp_path):
    es = build_eval_set(
        [SampleRecord("A", Origin.ID, True, {}), SampleRecord("X", Origin.OOD, None, {})]
    )
    path = tmp_path / "scores.csv"
    write_scores(es, path)
    assert path.read_bytes() == b"sample_id,domain,correct\r\nA,id,1\r\nX,ood,\r\n"


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
        entry = scaled(0.6742, METRIC_SCALE)
        assert entry["display"] == entry["raw"] * 100.0
        assert f"{entry['display']:.2f}" == "67.42"
        entry = scaled(0.20238, AURC_SCALE)
        assert entry["display"] == entry["raw"] * 1000.0
        assert f"{entry['display']:.2f}" == "202.38"

    def test_json_round_trip_identity(self, tmp_path):
        report = MetricReport(
            {
                "dataset": {"n_id": 3, "n_ood": 2, "id_accuracy": scaled(2 / 3)},
                "single": {"s_id": {"f1": scaled(2 / 3), "aurc": scaled(0.1, 1000.0)}},
                "double": {
                    "id_channel": "s_id",
                    "ood_channel": "s_ood",
                    "ds_f1": scaled(0.8),
                    "ds_aurc": scaled(0.05, 1000.0),
                },
            }
        )
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
        report = MetricReport(
            {
                "dataset": {"n_id": 3, "n_ood": 2, "id_accuracy": scaled(2 / 3)},
                "single": {
                    "s_id": {"f1": scaled(0.6742), "aurc": scaled(0.20238, 1000.0)}
                },
                "double": {
                    "id_channel": "s_id",
                    "ood_channel": "s_ood",
                    "ds_f1": scaled(0.8),
                    "ds_aurc": scaled(0.19708, 1000.0),
                },
            }
        )
        path = tmp_path / "report.md"
        write_report(report, path, format="markdown")
        text = path.read_text()
        assert "| s_id | 67.42 | 202.38 | - | - |" in text
        assert "| s_ood + s_id | - | - | 80.00 | 197.08 |" in text

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            write_report(MetricReport({}), tmp_path / "x", format="yaml")


class TestCurveExport:
    def test_fixture_surface_row(self, tmp_path):
        es = make_fixture_set()
        grid = ThresholdGrid(
            id_thresholds=np.array([-0.4, 0.75]),
            ood_thresholds=np.array([-0.95, 0.5]),
        )
        surface = ds_f1(es, "s_id", "s_ood", grid, return_surface=True).surface
        path = tmp_path / "surface.csv"
        write_curve(surface, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "tau_id,tau_ood,coverage,risk,f1"
        assert "0.75,0.5,0.6666666666666666,0.0,0.8" in lines

    def test_only_a_surface_exports(self, tmp_path):
        with pytest.raises(TypeError, match="PairSurface"):
            write_curve([], tmp_path / "curve.csv")
