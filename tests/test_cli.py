import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import dseval
from dseval import (
    Origin, ThresholdGrid, best_f1_single, cli, ds_f1, ds_metrics, dsmetrics, metrics_single,
)
from dseval.cli import main
from dseval.ingest import load_features, load_logits, load_scores, write_scores, write_vector_file
from dseval.oracle import oracle_ds_aurc, oracle_ds_f1
from dseval.scoring import (
    METHODS,
    FeatureRecord,
    LogitRecord,
    build_feature_bank,
    energy,
    knn_score,
    msp,
)
from dseval.synth import config_to_dict, far_ood_config
from conftest import make_fixture_set


def run(args):
    return main([str(a) for a in args])


def read_json(path):
    return json.loads(path.read_text())


def oracle_check(scores):
    """DS-F1 and DS-AURC over the exhaustive grid of a scores file equal the oracles."""
    es = load_scores(scores)
    grid = ThresholdGrid.exhaustive(es, "s_id", "s_ood")
    f1, area = ds_metrics(es, "s_id", "s_ood", grid)
    assert f1.value == oracle_ds_f1(es, "s_id", "s_ood")[0]
    assert area.value == oracle_ds_aurc(es, "s_id", "s_ood", k_bins=dsmetrics.DEFAULT_K_BINS)


# the third line's sample id replaced by a byte that is not UTF-8, or by a
# field longer than the CSV reader's limit, and the message that names it
_DAMAGE = {
    "byte": (b"\xff", "line 3: byte 0xff is not valid UTF-8"),
    "field": (b"y" * 200_000, "row 3: field larger than field limit (131072)"),
}


def _damage(path, damage):
    lines = path.read_bytes().split(b"\r\n")
    lines[2] = _DAMAGE[damage][0] + lines[2][lines[2].index(b","):]
    path.write_bytes(b"\r\n".join(lines))


@pytest.fixture
def fixture_csv(tmp_path):
    path = tmp_path / "fixture.csv"
    write_scores(make_fixture_set(), path)
    return path


class TestSynthCommand:
    def test_byte_identical_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        flags = ["--seed", 7, "--n-id", 50, "--n-ood", 20, "--acc", 0.8]
        assert run(["synth", *flags, "--out", a]) == 0
        assert run(["synth", *flags, "--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_custom_preset_needs_config(self, tmp_path):
        assert run(["synth", "--preset", "custom", "--out", tmp_path / "x.csv"]) == 2

    def test_custom_config(self, tmp_path):
        config = {
            "n_id": 10,
            "n_ood": 5,
            "id_accuracy": 0.9,
            "seed": 3,
            "correct": {"mean_s_id": 1.0, "mean_s_ood": 0.0},
            "wrong": {"mean_s_id": -1.0, "mean_s_ood": 0.0},
            "ood": {"mean_s_id": 0.0, "mean_s_ood": -4.0},
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "scores.csv"
        assert run(["synth", "--preset", "custom", "--config", cfg, "--out", out]) == 0
        es = load_scores(out)
        assert es.n_id == 10 and es.n_ood == 5


class TestEvalCommand:
    def test_fixture_report(self, fixture_csv, tmp_path):
        out = tmp_path / "report.json"
        assert (
            run(
                [
                    "eval",
                    "--scores",
                    fixture_csv,
                    "--id-channel",
                    "s_id",
                    "--ood-channel",
                    "s_ood",
                    "--out",
                    out,
                ]
            )
            == 0
        )
        report = read_json(out)
        assert f"{report['double']['ds_f1']['display']:.2f}" == "80.00"
        assert report["single"]["s_id"]["f1"]["display"] == pytest.approx(100 * 2 / 3)
        assert report["dataset"] == {
            "n_id": 3,
            "n_ood": 2,
            "id_accuracy": {"raw": 2 / 3, "display": (2 / 3) * 100.0},
        }

    def test_far_synth_has_high_auroc(self, tmp_path):
        scores = tmp_path / "scores.csv"
        out = tmp_path / "report.json"
        run(["synth", "--preset", "far", "--n-id", 2000, "--n-ood", 2000, "--out", scores])
        run(
            [
                "eval",
                "--scores", scores,
                "--id-channel", "s_id",
                "--ood-channel", "s_ood",
                "--out", out,
            ]
        )
        assert read_json(out)["ood_detection"]["auroc"]["display"] >= 99.9

    def test_no_ood_rows(self, tmp_path):
        scores = tmp_path / "scores.csv"
        out = tmp_path / "report.json"
        run(["synth", "--acc", 1.0, "--n-id", 50, "--n-ood", 0, "--out", scores])
        run(
            [
                "eval",
                "--scores", scores,
                "--id-channel", "s_id",
                "--ood-channel", "s_ood",
                "--out", out,
            ]
        )
        report = read_json(out)
        assert report["ood_detection"] is None
        assert report["double"]["ds_aurc"]["display"] == 0.0
        assert report["single"]["s_id"]["aurc"]["display"] == 0.0

    def test_same_channel_on_both_axes(self, fixture_csv, tmp_path, capsys):
        # the report keys its single-score blocks by channel, so one channel on
        # both axes would silently leave one block
        out = tmp_path / "report.json"
        args = ["eval", "--scores", fixture_csv, "--id-channel", "s_id", "--ood-channel", "s_id"]
        assert run([*args, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("dseval: error: UsageError: --id-channel and --ood-channel"), err
        assert err.count("\n") == 1, err
        assert not out.exists()
        # the library still reduces a pair on one channel to its single-score F1
        es = make_fixture_set()
        grid = ThresholdGrid.quantile(es, "s_id", "s_id")
        single, _ = best_f1_single(es, "s_id", grid.id_thresholds)
        assert ds_f1(es, "s_id", "s_id", grid).value == pytest.approx(single, abs=1e-12)

    def test_constant_ood_channel_matches_single(self, tmp_path):
        es = make_fixture_set()
        rows = [
            (r.sample_id, r.origin, r.correct, {"s_id": r.scores["s_id"], "flat": 0.5})
            for r in es.records
        ]
        from dseval import SampleRecord, build_eval_set

        flat = build_eval_set([SampleRecord(*row) for row in rows])
        scores = tmp_path / "flat.csv"
        write_scores(flat, scores)
        out = tmp_path / "report.json"
        run(
            [
                "eval",
                "--scores", scores,
                "--id-channel", "s_id",
                "--ood-channel", "flat",
                "--out", out,
            ]
        )
        report = read_json(out)
        assert report["double"]["ds_f1"]["raw"] == pytest.approx(
            report["single"]["s_id"]["f1"]["raw"], abs=1e-12
        )
        assert report["double"]["ds_aurc"]["raw"] == pytest.approx(
            report["single"]["s_id"]["aurc"]["raw"], abs=1e-12
        )

    def test_row_order_invariance(self, tmp_path):
        rng = np.random.default_rng(0)
        es = make_fixture_set()
        shuffled_records = [es.records[i] for i in rng.permutation(len(es.records))]
        from dseval import build_eval_set

        orig, shuf = tmp_path / "orig", tmp_path / "shuf"
        orig.mkdir(), shuf.mkdir()
        write_scores(es, orig / "scores.csv")
        write_scores(build_eval_set(shuffled_records), shuf / "scores.csv")
        reports = []
        for d in (orig, shuf):
            run(
                [
                    "eval",
                    "--scores", d / "scores.csv",
                    "--id-channel", "s_id",
                    "--ood-channel", "s_ood",
                    "--out", d / "report.json",
                ]
            )
            report = read_json(d / "report.json")
            report["config"].pop("scores")
            reports.append(report)
        assert reports[0] == reports[1]

    def test_surface_export(self, fixture_csv, tmp_path):
        surface = tmp_path / "surface.csv"
        run(
            [
                "eval",
                "--scores", fixture_csv,
                "--id-channel", "s_id",
                "--ood-channel", "s_ood",
                "--surface", surface,
                "--out", tmp_path / "report.json",
            ]
        )
        header = surface.read_text().splitlines()[0]
        assert header == "tau_id,tau_ood,coverage,risk,f1"

    def test_oracle_cross_check(self, fixture_csv):
        oracle_check(fixture_csv)

    def test_markdown_output(self, fixture_csv, tmp_path):
        out = tmp_path / "report.md"
        run(
            [
                "eval",
                "--scores", fixture_csv,
                "--id-channel", "s_id",
                "--ood-channel", "s_ood",
                "--out", out,
            ]
        )
        assert "| 80.00 |" in out.read_text()


class TestSelectCommand:
    def test_fixture_transfer(self, fixture_csv, tmp_path):
        out = tmp_path / "selection.json"
        assert (
            run(
                [
                    "select",
                    "--val", fixture_csv,
                    "--test", fixture_csv,
                    "--mode", "double",
                    "--grid", 64,
                    "--out", out,
                ]
            )
            == 0
        )
        report = read_json(out)
        modes = report["selection"]["modes"]
        assert set(modes) == {"id_only", "ood_only", "double"}
        assert modes["double"]["test_f1_transfer"]["raw"] == pytest.approx(0.8)
        assert modes["double"]["val_f1"]["raw"] == pytest.approx(0.8)
        assert modes["id_only"]["test_f1_transfer"]["raw"] == pytest.approx(2 / 3)
        assert modes["double"]["test_counts"]["ta"] == 2

    def test_same_channel_on_both_axes(self, fixture_csv, tmp_path, capsys):
        out = tmp_path / "selection.json"
        args = ["select", "--val", fixture_csv, "--test", fixture_csv]
        assert run([*args, "--id-channel", "s_ood", "--ood-channel", "s_ood", "--out", out]) == 2
        err = capsys.readouterr().err
        assert err == (
            "dseval: error: UsageError: --id-channel and --ood-channel must name "
            "different channels\n"
        )
        assert not out.exists()

    def test_missing_test_flag(self, fixture_csv, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(["select", "--val", fixture_csv, "--out", tmp_path / "x.json"])
        assert excinfo.value.code == 2
        assert "UsageError" in capsys.readouterr().err


class TestScoreCommand:
    @pytest.fixture
    def vector_files(self, tmp_path):
        rng = np.random.default_rng(42)
        logits, features = [], []

        def add(sid, origin, label):
            z = rng.normal(0, 2, 4)
            if label is not None:
                z[label] += 4.0
            f = rng.normal(0, 1, 6) + (2.0 if origin is Origin.ID else -2.0)
            logits.append(LogitRecord(sid, origin, label, z))
            features.append(FeatureRecord(sid, origin, label, f))

        for i in range(24):
            add(f"fit{i}", Origin.ID, int(rng.integers(0, 4)))
        fit_logits, fit_features = logits[:], features[:]
        logits.clear(), features.clear()
        for i in range(8):
            add(f"ev{i}", Origin.ID, int(rng.integers(0, 4)))
        for i in range(4):
            add(f"ood{i}", Origin.OOD, None)

        paths = {}
        for name, recs in [
            ("logits", logits),
            ("features", features),
            ("fit_logits", fit_logits),
            ("fit_features", fit_features),
        ]:
            paths[name] = tmp_path / f"{name}.csv"
            write_vector_file(recs, paths[name])
        return paths, logits, features, fit_features

    def test_channels_match_module_calls(self, tmp_path, vector_files):
        paths, logits, features, fit_features = vector_files
        out = tmp_path / "scores.csv"
        assert (
            run(
                [
                    "score",
                    "--logits", paths["logits"],
                    "--features", paths["features"],
                    "--fit", paths["fit_logits"],
                    "--fit", paths["fit_features"],
                    "--method", "msp,energy,knn",
                    "--k", 3,
                    "--out", out,
                ]
            )
            == 0
        )
        es = load_scores(out)
        assert es.channel_names == ("msp", "energy", "knn")
        bank = build_feature_bank(np.stack([r.features for r in fit_features]))
        for i, rec in enumerate(logits):
            row = es.records[i]
            assert row.sample_id == rec.sample_id
            assert row.scores["msp"] == msp(rec.logits)
            assert row.scores["energy"] == energy(rec.logits)
            assert row.scores["knn"] == knn_score(features[i].features, bank, 3)
            if rec.origin is Origin.ID:
                assert row.correct == (int(rec.logits.argmax()) == rec.label)

    def test_mds_requires_features(self, tmp_path, vector_files, capsys):
        paths, *_ = vector_files
        code = run(
            [
                "score",
                "--logits", paths["logits"],
                "--fit", paths["fit_logits"],
                "--method", "mds",
                "--out", tmp_path / "x.csv",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("dseval: error: UsageError:") and err.count("\n") == 1

    def test_features_only_cannot_derive_correctness(self, tmp_path, vector_files, capsys):
        paths, *_ = vector_files
        code = run(
            [
                "score",
                "--features", paths["features"],
                "--fit", paths["fit_features"],
                "--method", "l1",
                "--out", tmp_path / "x.csv",
            ]
        )
        assert code == 2
        err = self._error_line(capsys, "UsageError")
        assert "scores for ID rows need a correctness flag" in err and "--logits" in err

    def test_all_methods_run(self, tmp_path, vector_files):
        paths, logits, *_ = vector_files
        out = tmp_path / "all.csv"
        methods = "msp,mls,energy,neg_entropy,klm,mds,knn,l1,residual,vim,sirc_msp_l1,sirc_msp_res"
        assert (
            run(
                [
                    "score",
                    "--logits", paths["logits"],
                    "--features", paths["features"],
                    "--fit", paths["fit_logits"],
                    "--fit", paths["fit_features"],
                    "--method", methods,
                    "--pca-dim", 3,
                    "--out", out,
                ]
            )
            == 0
        )
        es = load_scores(out)
        assert len(es.channel_names) == 12
        assert es.n_id == 8 and es.n_ood == 4

    def _score(self, paths, method, *flags, features=None, fit_logits=None):
        return run(
            [
                "score",
                "--logits", paths["logits"],
                "--features", features or paths["features"],
                "--fit", fit_logits or paths["fit_logits"],
                "--fit", paths["fit_features"],
                "--method", method,
                *flags,
                "--out", paths["logits"].parent / "out.csv",
            ]
        )

    @staticmethod
    def _error_line(capsys, kind):
        err = capsys.readouterr().err
        assert err.startswith(f"dseval: error: {kind}:"), err
        assert err.count("\n") == 1, err
        return err

    @pytest.mark.parametrize("flag", ["--k", "--pca-dim"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_flags_below_one_rejected(self, vector_files, capsys, flag, value):
        paths, *_ = vector_files
        assert self._score(paths, "knn,residual", flag, value) == 2
        err = self._error_line(capsys, "UsageError")
        assert flag in err

    def test_pca_dim_at_feature_dim(self, vector_files, capsys):
        paths, *_ = vector_files  # 6-d features: the subspace must be smaller
        assert self._score(paths, "residual", "--pca-dim", 6) == 1
        self._error_line(capsys, "OutOfRange")

    def test_vim_negative_alpha(self, vector_files, capsys, tmp_path):
        paths, *_ = vector_files
        shifted = tmp_path / "fit_logits_shifted.csv"
        fit = load_logits(paths["fit_logits"])
        assert fit.is_id.all()
        write_vector_file(
            [
                LogitRecord(sid, Origin.ID, int(label), z - 50.0)
                for sid, label, z in zip(fit.sample_ids, fit.labels, fit.matrix)
            ],
            shifted,
        )
        assert self._score(paths, "vim", fit_logits=shifted) == 1
        err = self._error_line(capsys, "OutOfRange")
        assert "alpha" in err

    def test_row_count_mismatch(self, vector_files, capsys, tmp_path):
        paths, _, features, _ = vector_files
        short = tmp_path / "short.csv"
        write_vector_file(features[:-1], short)
        assert self._score(paths, "msp,l1", features=short) == 2
        err = self._error_line(capsys, "UsageError")
        assert "logits and features files hold different sample counts" in err

    @pytest.mark.parametrize("change", ["id", "domain"])
    def test_sample_mismatch_names_first_sample(self, vector_files, capsys, tmp_path, change):
        paths, logits, features, _ = vector_files

        def changed(r):
            if change == "id":
                return FeatureRecord(r.sample_id + "x", r.origin, r.label, r.features)
            if r.origin is Origin.ID:
                return FeatureRecord(r.sample_id, Origin.OOD, None, r.features)
            return FeatureRecord(r.sample_id, Origin.ID, 0, r.features)

        mismatched = tmp_path / "mismatched.csv"
        write_vector_file(
            [changed(r) if i in (3, 9) else r for i, r in enumerate(features)], mismatched
        )
        assert self._score(paths, "msp,l1", features=mismatched) == 2
        err = self._error_line(capsys, "UsageError")
        assert f"logits/features row mismatch at sample {logits[3].sample_id!r}" in err
        assert repr(logits[9].sample_id) not in err

    @pytest.mark.parametrize("kind, method", [("logits", "klm"), ("features", "mds")])
    def test_fit_file_without_id_rows(self, vector_files, capsys, tmp_path, kind, method):
        paths, logits, features, _ = vector_files
        rows = logits if kind == "logits" else features
        ood_only = tmp_path / "ood_only.csv"
        write_vector_file([r for r in rows if r.origin is Origin.OOD], ood_only)
        if kind == "logits":
            code = self._score(paths, method, fit_logits=ood_only)
        else:
            code = self._score({**paths, "fit_features": ood_only}, method)
        assert code == 2
        err = self._error_line(capsys, "UsageError")
        assert f"{kind} fit file has no id rows" in err

    @pytest.mark.parametrize(
        "kind, method", [("logits", "klm,vim"), ("features", "knn,mds,residual,klm,vim")]
    )
    def test_fit_file_width_mismatch(self, vector_files, capsys, tmp_path, kind, method):
        paths, _, _, fit_features = vector_files
        wide = tmp_path / "wide_fit.csv"
        if kind == "logits":
            fit = load_logits(paths["fit_logits"])
            rows = [
                LogitRecord(sid, Origin.ID, int(label), np.append(z, 0.0))
                for sid, label, z in zip(fit.sample_ids, fit.labels, fit.matrix)
            ]
        else:
            rows = [
                FeatureRecord(r.sample_id, r.origin, r.label, np.append(r.features, 0.0))
                for r in fit_features
            ]
        write_vector_file(rows, wide)
        if kind == "logits":
            code = self._score(paths, method, fit_logits=wide)
        else:
            code = self._score({**paths, "fit_features": wide}, method)
        assert code == 1
        err = self._error_line(capsys, "SchemaError")
        width = 4 if kind == "logits" else 6
        assert f"fit file {wide} holds {width + 1}-wide vectors" in err
        assert f"but {paths[kind]} holds {width}-wide vectors" in err

    def test_empty_fit_path(self, vector_files, capsys, tmp_path):
        paths, *_ = vector_files
        argv = ["score", "--logits", paths["logits"], "--fit", "", "--method", "klm"]
        assert run([*argv, "--out", tmp_path / "x.csv"]) == 1
        self._error_line(capsys, "IoError")

    def test_fit_label_beyond_int64(self, vector_files, capsys, tmp_path):
        paths, *_ = vector_files
        text = paths["fit_features"].read_text().splitlines()
        row = text[2].split(",")
        row[2] = "99999999999999999999999"
        text[2] = ",".join(row)
        huge = tmp_path / "huge_label.csv"
        huge.write_text("\n".join(text) + "\n")
        assert self._score({**paths, "fit_features": huge}, "mds") == 1
        err = self._error_line(capsys, "SchemaError")
        assert "row 3, column 'label'" in err and "99999999999999999999999" in err

    def test_zero_feature_row_names_first_sample(self, vector_files, capsys, tmp_path):
        paths, _, features, _ = vector_files
        zeroed = tmp_path / "zeroed.csv"
        write_vector_file(
            [
                FeatureRecord(r.sample_id, r.origin, r.label, 0.0 * r.features)
                if i in (2, 9) else r
                for i, r in enumerate(features)
            ],
            zeroed,
        )
        assert self._score(paths, "msp,knn", "--k", 3, features=zeroed) == 1
        err = self._error_line(capsys, "ZeroVector")
        assert repr(features[2].sample_id) in err
        assert repr(features[9].sample_id) not in err

    @pytest.mark.filterwarnings("error")
    def test_huge_and_subnormal_features(self, vector_files, capsys, tmp_path):
        paths, _, features, fit_features = vector_files
        odd = {0: 1e200, 1: 5e-324, 2: 1e-160}  # row -> scale of its features

        def rescaled(records, name):
            records = [
                FeatureRecord(r.sample_id, r.origin, r.label, odd[i] * r.features)
                if i in odd else r
                for i, r in enumerate(records)
            ]
            write_vector_file(records, tmp_path / name)
            return records

        features = rescaled(features, "odd.csv")
        fit_features = rescaled(fit_features, "odd_fit.csv")
        argv = [
            "score", "--logits", paths["logits"], "--features", tmp_path / "odd.csv",
            "--fit", paths["fit_logits"], "--fit", tmp_path / "odd_fit.csv",
            "--method", "knn", "--k", 3, "--out", tmp_path / "out.csv",
        ]
        assert run(argv) == 0
        assert capsys.readouterr().err == ""
        bank = build_feature_bank(np.stack([r.features for r in fit_features]))
        assert not np.any(np.all(bank.vectors == 0.0, axis=1))
        knn = load_scores(tmp_path / "out.csv").channel("knn")
        assert np.array_equal(knn, [knn_score(r.features, bank, 3) for r in features])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scaled", ["fit", "eval"])
    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_features_at_1e200_give_scores_or_one_line(
        self, vector_files, capsys, tmp_path, method, scaled
    ):
        paths, _, features, fit_features = vector_files
        records = fit_features if scaled == "fit" else features
        write_vector_file(
            [FeatureRecord(r.sample_id, r.origin, r.label, 1e200 * r.features) for r in records],
            tmp_path / "huge.csv",
        )
        files = {"fit": paths["fit_features"], "eval": paths["features"]}
        files[scaled] = tmp_path / "huge.csv"
        argv = [
            "score", "--logits", paths["logits"], "--features", files["eval"],
            "--fit", paths["fit_logits"], "--fit", files["fit"],
            "--method", method, "--out", tmp_path / "out.csv",
        ]
        assert run(argv) in (0, 1)
        err = capsys.readouterr().err
        assert err == "" or (err.startswith("dseval: error: ") and err.count("\n") == 1), err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "scaled, method, message",
        [
            # the fit rows' residual norms overflow, which alpha alone would not say
            ("fit", "vim", "OutOfRange: the mean residual norm of the fit features is inf: "
                           "they overflow"),
            # the overflowed products of the distance sum to nan
            ("eval", "mds", "OutOfRange: method 'mds' failed on sample 'ev0': "
                            "the Mahalanobis distance overflows"),
        ],
    )
    def test_overflow_at_1e200_is_named(
        self, vector_files, capsys, tmp_path, scaled, method, message
    ):
        paths, _, features, fit_features = vector_files
        records = fit_features if scaled == "fit" else features
        write_vector_file(
            [FeatureRecord(r.sample_id, r.origin, r.label, 1e200 * r.features) for r in records],
            tmp_path / "huge.csv",
        )
        key = "fit_features" if scaled == "fit" else "features"
        argv = [
            "score", "--logits", paths["logits"], "--features", paths["features"],
            "--fit", paths["fit_logits"], "--fit", paths["fit_features"],
            "--method", method, "--out", tmp_path / "out.csv",
        ]
        argv[argv.index(paths[key])] = tmp_path / "huge.csv"
        assert run(argv) == 1
        assert capsys.readouterr().err == f"dseval: error: {message}\n"

    @pytest.mark.parametrize("kind", ["logits", "features"])
    @pytest.mark.parametrize("damage", sorted(_DAMAGE))
    def test_unreadable_vector_file(self, vector_files, capsys, kind, damage):
        paths, *_ = vector_files
        _damage(paths[kind], damage)
        assert self._score(paths, "msp,l1") == 1
        err = self._error_line(capsys, "ParseError")
        assert _DAMAGE[damage][1] in err

    def test_zero_temperature(self, vector_files, capsys):
        paths, *_ = vector_files
        assert self._score(paths, "msp,energy", "--temperature", 0) == 1
        self._error_line(capsys, "NonPositiveTemperature")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "value, method, code, kind",
        [
            ("nan", "msp", 2, "UsageError"),
            ("nan", "energy", 2, "UsageError"),
            ("inf", "energy", 2, "UsageError"),
            ("-inf", "msp,energy", 2, "UsageError"),
            # the logits overflow when divided by it
            ("1e-320", "energy", 1, "OutOfRange"),
        ],
    )
    def test_temperature_out_of_range(self, vector_files, capsys, value, method, code, kind):
        paths, logits, *_ = vector_files
        assert self._score(paths, method, f"--temperature={value}") == code
        err = self._error_line(capsys, kind)
        if kind == "OutOfRange":
            assert f"on sample {logits[0].sample_id!r}" in err

    def test_all_id_fit_file_is_not_copied(self, tmp_path):
        # the fit matrix of a file that holds only ID rows is used as loaded;
        # a mask copy would hold a second matrix at once
        rng = np.random.default_rng(8)
        path = tmp_path / "fit_features.csv"
        write_vector_file(
            [FeatureRecord(f"f{i}", Origin.ID, i % 3, rng.normal(size=64)) for i in range(2000)],
            path,
        )
        tracemalloc.start()
        try:
            loaded = load_features(path)
            load_peak = tracemalloc.get_traced_memory()[1]
            del loaded
            tracemalloc.reset_peak()
            matrix, labels = cli._fit_matrix(path, load_features, "features")
            fit_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert matrix.shape == (2000, 64) and labels.tolist() == [i % 3 for i in range(2000)]
        assert fit_peak < load_peak + matrix.nbytes // 4, (fit_peak, load_peak, matrix.nbytes)

    def test_k_larger_than_bank(self, vector_files, capsys):
        paths, *_ = vector_files  # the bank holds the 24 fit rows
        assert self._score(paths, "knn", "--k", 25) == 1
        self._error_line(capsys, "KTooLarge")

    def test_energy_temperature(self, vector_files):
        paths, logits, *_ = vector_files
        assert self._score(paths, "energy", "--temperature", 2) == 0
        es = load_scores(paths["logits"].parent / "out.csv")
        for row, rec in zip(es.records, logits):
            assert row.scores["energy"] == energy(rec.logits, 2.0)


def _child_env():
    """The environment of a child that imports the same dseval as this process, installed or not."""
    package_root = str(Path(dseval.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_console_entry_point(tmp_path):
    out = tmp_path / "scores.csv"
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "dseval.cli",
            "synth",
            "--n-id", "5",
            "--n-ood", "2",
            "--out", str(out),
        ],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


def test_cli_does_not_import_the_oracles():
    """The oracles are the tests' reference; the CLI loads neither them nor their exact types."""
    probe = (
        "import sys, dseval.cli; "
        "print('dseval.oracle' in sys.modules, 'fractions' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=_child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


_FAR = config_to_dict(far_ood_config(10, 10))


def test_eval_at_huge_magnitudes(tmp_path):
    # at |score| ~ 1e17, min - 1 == min; the accept-all sentinel must still
    # order the threshold grid
    es = make_fixture_set()
    rows = [
        (r.sample_id, r.origin.value, "" if r.correct is None else str(int(r.correct)),
         repr(1e17 + 64.0 * round(10 * r.scores["s_id"])),
         repr(-1e17 + 64.0 * round(10 * r.scores["s_ood"])))
        for r in es.records
    ]
    scores = tmp_path / "huge.csv"
    scores.write_text(
        "sample_id,domain,correct,s_id,s_ood\n" + "".join(",".join(r) + "\n" for r in rows)
    )
    out = tmp_path / "report.json"
    args = ["eval", "--scores", scores, "--id-channel", "s_id", "--ood-channel", "s_ood"]
    assert run([*args, "--surface", tmp_path / "surface.csv", "--out", out]) == 0
    oracle_check(scores)
    report = read_json(out)
    assert report["double"]["ds_f1"]["raw"] == pytest.approx(0.8)


@pytest.mark.parametrize(
    "argv, config, code, kind",
    [
        (["eval", "--grid", 0], None, 2, "UsageError"),
        (["eval", "--grid", -3], None, 2, "UsageError"),
        (["eval", "--bins", 0], None, 2, "UsageError"),
        (["eval", "--bins", 10**12], None, 1, "GridTooLarge"),
        (["select", "--grid", 0], None, 2, "UsageError"),
        (["synth", "--seed", -1], None, 1, "InvalidConfig"),
        (["synth", "--preset", "custom"], "{not json", 1, "InvalidConfig"),
        (["synth", "--preset", "custom"], json.dumps({**_FAR, "n_id": "abc"}), 1, "InvalidConfig"),
        (["synth", "--preset", "custom"], json.dumps({**_FAR, "seed": 1.5e400}), 1,
         "InvalidConfig"),
        (["synth", "--preset", "custom"], "[1, 2]", 1, "InvalidConfig"),
        (["synth", "--n-id", 100_000_000_000], None, 1, "InvalidConfig"),
        (["synth", "--n-ood", 10_000_000], None, 1, "InvalidConfig"),
        (["synth", "--preset", "custom"], json.dumps({**_FAR, "n_id": 10**11}), 1,
         "InvalidConfig"),
        (["synth", "--preset", "custom"], json.dumps({**_FAR, "seed": 1.9}), 1, "InvalidConfig"),
        (["synth", "--preset", "custom"], json.dumps({**_FAR, "n_id": True}), 1, "InvalidConfig"),
        (["synth", "--preset", "custom"],
         json.dumps({**_FAR, "correct": {**_FAR["correct"], "mean_s_id": "nan"}}), 1,
         "InvalidConfig"),
        (["synth", "--preset", "custom"],
         json.dumps({**_FAR, "correct": {**_FAR["correct"], "mean_s_id": 1e308,
                                           "std_s_id": 1e308}}),
         1, "InvalidConfig"),
    ],
)
def test_bad_flags_give_one_line(tmp_path, capsys, fixture_csv, argv, config, code, kind):
    if config is not None:
        (tmp_path / "config.json").write_text(config)
        argv = [*argv, "--config", tmp_path / "config.json"]
    inputs = {
        "eval": ["--scores", fixture_csv, "--id-channel", "s_id", "--ood-channel", "s_ood"],
        "select": ["--val", fixture_csv, "--test", fixture_csv],
        "synth": [],
    }[argv[0]]
    assert run([*argv, *inputs, "--out", tmp_path / "out"]) == code
    err = capsys.readouterr().err
    assert err.startswith(f"dseval: error: {kind}:"), err
    assert err.count("\n") == 1, err


@pytest.mark.parametrize("damage", sorted(_DAMAGE))
def test_unreadable_scores_file(fixture_csv, tmp_path, capsys, damage):
    _damage(fixture_csv, damage)
    args = ["eval", "--scores", fixture_csv, "--id-channel", "s_id", "--ood-channel", "s_ood"]
    assert run([*args, "--out", tmp_path / "r.json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"dseval: error: ParseError: {_DAMAGE[damage][1]}"), err
    assert err.count("\n") == 1, err


@pytest.mark.parametrize(
    "name, text, message",
    [
        ("scores.csv", "sample_id,domain,correct,s_id,s_ood\r\nA,id,1,0.9,0.9\r\n\r\n"
         "X,ood,,0.6,0.1\r\n", "ParseError: row 3: expected 5 fields, got 0"),
        ("scores.csv", "sample_id,domain,correct,s_id,s_ood\r\nA,id,1,,\r\n",
         "ParseError: row 2, column 's_id': cannot parse '' as a number"),
        ("features.csv", "sample_id,domain,label,v0\r\na,id,0,\r\nb,ood,,\r\n",
         "ParseError: row 2, column 'v0': cannot parse '' as a number"),
        ("features.csv", "sample_id,domain,label,v0,v1\r\na,id,0,1.5,2\r\n\r\n",
         "ParseError: row 3: expected 5 fields, got 0"),
    ],
)
def test_blank_rows_and_empty_cells_give_one_line(tmp_path, capsys, name, text, message):
    # an empty cell or a blank line may reach the bulk reader's JSON parse,
    # which must hand the file to the CSV pass without a warning: here it
    # would be an error
    path = tmp_path / name
    path.write_text(text, newline="")
    if name == "scores.csv":
        args = ["eval", "--scores", path, "--id-channel", "s_id", "--ood-channel", "s_ood"]
    else:
        args = ["score", "--features", path, "--method", "mds"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([*args, "--out", tmp_path / "out"]) == 1
    err = capsys.readouterr().err
    assert err == f"dseval: error: {message}\n", err


def test_errors_are_single_line(tmp_path, capsys):
    code = run(
        [
            "eval",
            "--scores", tmp_path / "missing.csv",
            "--id-channel", "a",
            "--ood-channel", "b",
            "--out", tmp_path / "r.json",
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("dseval: error: IoError:")
    assert err.strip().count("\n") == 0


@pytest.fixture
def no_huge_arrays(monkeypatch):
    """Make numpy refuse to build an array of more than 10**8 entries, so a
    size flag that slipped through fails the test and allocates nothing."""

    def bounded(build):
        def guarded(*args, **kwargs):
            sizes = [a for a in args if isinstance(a, (int, np.integer))]
            assert all(abs(a) <= 10**8 for a in sizes), f"{build.__name__}{args}"
            return build(*args, **kwargs)

        return guarded

    for name in ("arange", "full", "empty", "zeros"):
        monkeypatch.setattr(np, name, bounded(getattr(np, name)))


def _distinct_scores(tmp_path):
    """A 10k-row scores file with 10k distinct values on each channel."""
    scores = tmp_path / "scores.csv"
    assert run(["synth", "--n-id", 5000, "--n-ood", 5000, "--seed", 3, "--out", scores]) == 0
    es = load_scores(scores)
    assert np.unique(es.channel("s_id")).size == np.unique(es.channel("s_ood")).size == 10_000
    return scores


def test_grid_over_the_cell_budget_gives_one_line(tmp_path, capsys):
    scores = _distinct_scores(tmp_path)
    out = tmp_path / "report.json"
    args = ["eval", "--scores", scores, "--id-channel", "s_id", "--ood-channel", "s_ood"]
    assert run([*args, "--grid", 10_000, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("dseval: error: GridTooLarge: a 10001 x 10001 threshold grid"), err
    assert err.count("\n") == 1, err
    assert not out.exists()


def test_surface_over_the_table_budget_gives_one_line(fixture_csv, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(dsmetrics, "MAX_TABLE_CELLS", 3)
    out, surface = tmp_path / "report.json", tmp_path / "surface.csv"
    args = ["eval", "--scores", fixture_csv, "--id-channel", "s_id", "--ood-channel", "s_ood"]
    assert run([*args, "--surface", surface, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("dseval: error: GridTooLarge: a "), err
    assert "threshold grid needs" in err and "above the budget of 3;" in err, err
    assert err.count("\n") == 1, err
    assert not out.exists() and not surface.exists()
    # without a surface no table is filled, so the budget does not apply
    assert run([*args, "--out", out]) == 0


@pytest.mark.parametrize("command", ["eval", "select"])
def test_huge_grid_flag_is_refused_before_allocating(tmp_path, capsys, no_huge_arrays, command):
    # the grid stops at one threshold per distinct score, 10001 per axis
    # here, which is still over the cell budget
    scores = _distinct_scores(tmp_path)
    out = tmp_path / "report.json"
    inputs = ["--scores", scores] if command == "eval" else ["--val", scores, "--test", scores]
    args = [command, *inputs, "--id-channel", "s_id", "--ood-channel", "s_ood"]
    assert run([*args, "--grid", 10**9, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("dseval: error: GridTooLarge: a 10001 x 10001 threshold grid"), err
    assert err.count("\n") == 1, err
    assert not out.exists()


def test_grid_past_the_sample_count_reports_the_grid_asked_for(
    fixture_csv, tmp_path, no_huge_arrays
):
    # thresholds stop growing at one per sample; the config echoes the flag
    args = ["eval", "--scores", fixture_csv, "--id-channel", "s_id", "--ood-channel", "s_ood"]
    assert run([*args, "--grid", 5, "--out", tmp_path / "at_n.json"]) == 0
    assert run([*args, "--grid", 10**9, "--out", tmp_path / "huge.json"]) == 0
    at_n, huge = read_json(tmp_path / "at_n.json"), read_json(tmp_path / "huge.json")
    assert huge["config"].pop("grid") == 10**9
    at_n["config"].pop("grid")
    assert huge == at_n


def _recording(fn, grids):
    def recorded(*args, **kwargs):
        grids.append(args[3])
        return fn(*args, **kwargs)

    return recorded


class TestSweepCount:
    """Each subcommand sweeps only as often as it has distinct grids to reduce."""

    @pytest.fixture
    def sweeps(self, monkeypatch):
        """Grids handed to the count engine and to the table-building sweep."""
        calls = {"_sweep": [], "ds_sweep_fast": []}
        for name, grids in calls.items():
            monkeypatch.setattr(dsmetrics, name, _recording(getattr(dsmetrics, name), grids))
        return calls

    def test_eval_sweeps_once_without_tables(self, sweeps, fixture_csv, tmp_path):
        args = ["eval", "--scores", fixture_csv, "--id-channel", "s_id", "--ood-channel", "s_ood"]
        assert run([*args, "--out", tmp_path / "r.json"]) == 0
        assert len(sweeps["_sweep"]) == 1
        assert len(sweeps["ds_sweep_fast"]) == 0

    def test_eval_sweeps_once(self, sweeps, fixture_csv, tmp_path):
        args = ["eval", "--scores", fixture_csv, "--id-channel", "s_id", "--ood-channel", "s_ood"]
        assert run([*args, "--surface", tmp_path / "s.csv", "--out", tmp_path / "r.json"]) == 0
        assert len(sweeps["_sweep"]) == 1
        assert len(sweeps["ds_sweep_fast"]) == 1

    def test_select_sweeps_val_and_test_once_each(self, sweeps, fixture_csv, tmp_path):
        args = ["select", "--val", fixture_csv, "--test", fixture_csv]
        assert run([*args, "--out", tmp_path / "r.json"]) == 0
        assert len(sweeps["_sweep"]) == 2
        assert len(sweeps["ds_sweep_fast"]) == 0


def test_eval_and_select_count_only_through_the_sweep(monkeypatch, fixture_csv, tmp_path):
    """The single-score blocks and modes come from the sweep's sentinel lines."""

    def refuse(*args, **kwargs):
        raise AssertionError("the single-threshold reference was called")

    for name in ("best_f1_single", "risk_coverage_curve", "_population_counts"):
        monkeypatch.setattr(metrics_single, name, refuse)
    eval_args = ["eval", "--scores", fixture_csv, "--id-channel", "s_id", "--ood-channel", "s_ood"]
    assert run([*eval_args, "--out", tmp_path / "r.json"]) == 0
    assert run([*eval_args, "--surface", tmp_path / "s.csv", "--out", tmp_path / "r.json"]) == 0
    assert run(["select", "--val", fixture_csv, "--test", fixture_csv,
                "--out", tmp_path / "r.json"]) == 0
