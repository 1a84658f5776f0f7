import json

import numpy as np
import pytest

from dseval import MixedSchema, Origin, ThresholdGrid, ds_f1
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
from dseval.metrics_single import RiskCoveragePoint
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


def test_missing_file_is_io_error(tmp_path):
    with pytest.raises(IoError):
        load_scores(tmp_path / "absent.csv")


class TestVectorFiles:
    def test_logits_round_trip(self, tmp_path):
        records = [
            LogitRecord("a", Origin.ID, 1, np.array([0.5, 1.5, -0.25])),
            LogitRecord("b", Origin.OOD, None, np.array([0.1, 0.2, 0.3])),
        ]
        path = tmp_path / "logits.csv"
        write_vector_file(records, path)
        loaded = load_logits(path)
        assert loaded[0].label == 1 and loaded[1].label is None
        assert np.array_equal(loaded[0].logits, records[0].logits)

    def test_features_round_trip(self, tmp_path):
        records = [FeatureRecord("a", Origin.ID, 0, np.array([1.25]))]
        path = tmp_path / "features.csv"
        write_vector_file(records, path)
        loaded = load_features(path)
        assert np.array_equal(loaded[0].features, records[0].features)

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
            (
                "sample_id,domain,label,v0,v1\nx,id,0,0.0,1.0\ny,id,0,0.0\n",
                "row 3: expected 5 fields, got 4",
            ),
            (
                "sample_id,domain,label,v0,v1\nx,id,0,0.0,1.0\ny,id,0,0.0,nan\n",
                "row 3, column 'v1': non-finite value",
            ),
        ],
    )
    def test_malformed_rows_named(self, tmp_path, text, message):
        path = tmp_path / "logits.csv"
        path.write_text(text)
        with pytest.raises(ParseError, match=message):
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

    def test_empty_points_header_only(self, tmp_path):
        path = tmp_path / "curve.csv"
        write_curve([], path)
        assert path.read_text().splitlines() == ["coverage,risk,threshold"]

    def test_points_sorted_and_reloadable(self, tmp_path):
        points = [
            RiskCoveragePoint(1.0, 0.4, 0.1),
            RiskCoveragePoint(0.5, 0.2, 0.9),
            RiskCoveragePoint(0.5, 0.1, 1.2),
        ]
        path = tmp_path / "curve.csv"
        write_curve(points, path)
        lines = path.read_text().splitlines()
        assert lines[1].startswith("0.5,0.1")
        assert lines[2].startswith("0.5,0.2")
        # re-reading reproduces the values exactly
        rows = [line.split(",") for line in lines[1:]]
        parsed = [(float(a), float(b), float(c)) for a, b, c in rows]
        assert (1.0, 0.4, 0.1) in parsed
