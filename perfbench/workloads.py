"""The benchmark's workloads: seeded inputs, one closed-loop operation, output checks.

Every operation is a short sequence of ``dseval`` subcommands run in-process
through ``dseval.cli.main`` with paths relative to the working directory, so
reports (which echo their input paths) are byte-identical wherever the
checkout lives.
"""

from __future__ import annotations

import csv
import json
from typing import NamedTuple

import numpy as np

from dseval import scoring as sc
from dseval.cli import main as dseval_main
from dseval.core import Origin
from dseval.ingest import write_vector_file
from dseval.scoring import FeatureRecord, LogitRecord

# Outputs produced at this seed must match the SHA-256 digests in reference.json.
REFERENCE_SEED = 0

CHANNELS = ["--id-channel", "s_id", "--ood-channel", "s_ood"]
SCORE_METHODS = (
    "msp", "mls", "energy", "neg_entropy", "klm", "mds", "knn", "l1", "residual",
    "vim", "sirc_msp_l1", "sirc_msp_res",
)
# Per-row scores may be computed by other arithmetic later (e.g. a Gram-matrix
# kNN), so sampled rows are compared within this tolerance, not bit for bit.
SCORE_RTOL = 1e-9
SCORE_ATOL = 1e-9


class Step(NamedTuple):
    label: str  # end-to-end metric the step's wall time feeds, e.g. "eval_s"
    argv: list
    rows: int  # input rows the step writes (synth) or reads (eval/select/score)


def _synth(preset: str, n_id: int, n_ood: int, seed: int, out: str) -> list:
    return [
        "synth", "--preset", preset, "--n-id", str(n_id), "--n-ood", str(n_ood),
        "--seed", str(seed), "--out", out,
    ]


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_eval_report(path, n_id: int, n_ood: int) -> list[str]:
    """DS-F1 is at least each single-score F1, and the counts are as generated."""
    report = _read_json(path)
    problems = []
    dataset = report["dataset"]
    if (dataset["n_id"], dataset["n_ood"]) != (n_id, n_ood):
        problems.append(
            f"{path}: n_id/n_ood {dataset['n_id']}/{dataset['n_ood']}, "
            f"generated {n_id}/{n_ood}"
        )
    ds_f1 = report["double"]["ds_f1"]["raw"]
    for channel, block in report["single"].items():
        if not ds_f1 >= block["f1"]["raw"]:
            problems.append(
                f"{path}: DS-F1 {ds_f1!r} < single F1 {block['f1']['raw']!r} ({channel})"
            )
    return problems


def check_select_report(path, n_id: int, n_ood: int) -> list[str]:
    """Counts are as generated; the joint pair is at least as good on val as either axis."""
    report = _read_json(path)
    problems = [
        f"{path}: {split} n_id/n_ood {c['n_id']}/{c['n_ood']}, generated {n_id}/{n_ood}"
        for split, c in report["dataset"].items()
        if (c["n_id"], c["n_ood"]) != (n_id, n_ood)
    ]
    modes = report["selection"]["modes"]
    double = modes["double"]["val_f1"]["raw"]
    for mode in ("id_only", "ood_only"):
        if not double >= modes[mode]["val_f1"]["raw"]:
            problems.append(f"{path}: double val F1 {double!r} < {mode} val F1")
    return problems


class SynthEval:
    """synth-eval-100k: synth a 100k-row far-preset file, then eval it.

    Ingest and core dominate eval while the sweep is small; synth writes sit
    beside eval reads, so a layout that helps one and hurts the other shows.
    """

    name = "synth-eval-100k"
    digested = ("scores.csv", "eval.json")

    def __init__(self, seed: int, n_id: int = 50_000, n_ood: int = 50_000):
        self.seed, self.n_id, self.n_ood = seed, n_id, n_ood

    def setup(self) -> None:
        """Nothing to generate: each operation synthesizes its own input."""

    def steps(self, i: int) -> list[Step]:
        n = self.n_id + self.n_ood
        return [
            Step("synth_s", _synth("far", self.n_id, self.n_ood, self.seed + i, "scores.csv"), n),
            Step(
                "eval_s",
                ["eval", "--scores", "scores.csv", *CHANNELS, "--grid", "256",
                 "--bins", "200", "--out", "eval.json"],
                n,
            ),
        ]

    def check(self, i: int) -> list[str]:
        return check_eval_report("eval.json", self.n_id, self.n_ood)


class GridSweep:
    """grid-2048: large threshold grids on a 20k-row near-preset file.

    The 2-D sweep and its reductions dominate and peak memory is the count
    tables; the surface export must keep the whole table.
    """

    name = "grid-2048"
    digested = (
        "val.csv", "test.csv", "eval.json", "select.json", "surface.csv", "surface_eval.json",
    )

    def __init__(self, seed: int, n_id: int = 10_000, n_ood: int = 10_000, grid: int = 2048):
        self.seed, self.n_id, self.n_ood, self.grid = seed, n_id, n_ood, grid

    def setup(self) -> None:
        for seed, out in ((self.seed, "val.csv"), (self.seed + 1, "test.csv")):
            if dseval_main(_synth("near", self.n_id, self.n_ood, seed, out)) != 0:
                raise RuntimeError(f"synth failed while writing {out}")

    def steps(self, i: int) -> list[Step]:
        n = self.n_id + self.n_ood
        grid = str(self.grid)
        return [
            Step(
                "eval_s",
                ["eval", "--scores", "val.csv", *CHANNELS, "--grid", grid,
                 "--bins", "1000", "--out", "eval.json"],
                n,
            ),
            Step(
                "select_s",
                ["select", "--val", "val.csv", "--test", "test.csv", "--mode", "double",
                 "--grid", grid, "--out", "select.json"],
                2 * n,
            ),
            Step(
                "eval_surface_s",
                ["eval", "--scores", "val.csv", *CHANNELS, "--grid", "256",
                 "--bins", "200", "--surface", "surface.csv", "--out", "surface_eval.json"],
                n,
            ),
        ]

    def check(self, i: int) -> list[str]:
        return (
            check_eval_report("eval.json", self.n_id, self.n_ood)
            + check_select_report("select.json", self.n_id, self.n_ood)
            + check_eval_report("surface_eval.json", self.n_id, self.n_ood)
        )


class ScoreAll:
    """score-all: all twelve score methods on stored logits and features.

    The only workload that reaches scoring; per-row scoring (kNN above all)
    dominates and the metric core is never entered.
    """

    name = "score-all"
    n_classes = 10
    dim = 64
    n_sampled = 16  # output rows recomputed per operation
    digested = ()  # checked by tolerance, see check()

    def __init__(self, seed: int, n_side: int = 2_500, n_fit: int = 5_000):
        self.seed, self.n_side, self.n_fit = seed, n_side, n_fit
        self._expected = None

    def _draw(self, rng, means, n_id: int, n_ood: int):
        labels = rng.integers(0, self.n_classes, n_id)
        features = np.vstack(
            [
                means[labels] + rng.standard_normal((n_id, self.dim)),
                rng.standard_normal((n_ood, self.dim)),
            ]
        )
        logits = features @ means.T + rng.standard_normal((n_id + n_ood, self.n_classes))
        return labels, logits, features

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        means = rng.normal(0.0, 0.35, (self.n_classes, self.dim))
        self.labels, self.logits, self.features = self._draw(rng, means, self.n_side, self.n_side)
        self.fit_labels, self.fit_logits, self.fit_features = self._draw(
            rng, means, self.n_fit, 0
        )
        for prefix, labels, logits, features in (
            ("", self.labels, self.logits, self.features),
            ("fit_", self.fit_labels, self.fit_logits, self.fit_features),
        ):
            ids = [f"{prefix or 'ev_'}{i:06d}" for i in range(len(logits))]
            rows = [
                (sid, Origin.ID, int(labels[i])) if i < labels.size else (sid, Origin.OOD, None)
                for i, sid in enumerate(ids)
            ]
            write_vector_file(
                [LogitRecord(*row, vec) for row, vec in zip(rows, logits)],
                f"{prefix}logits.csv",
            )
            write_vector_file(
                [FeatureRecord(*row, vec) for row, vec in zip(rows, features)],
                f"{prefix}features.csv",
            )
        self._expected = None

    def steps(self, i: int) -> list[Step]:
        return [
            Step(
                "score_s",
                ["score", "--logits", "logits.csv", "--features", "features.csv",
                 "--fit", "fit_logits.csv", "--fit", "fit_features.csv",
                 "--method", ",".join(SCORE_METHODS), "--out", "scores.csv"],
                2 * self.n_side + self.n_fit,
            )
        ]

    def expected_row(self, r: int) -> dict[str, float]:
        """Reference scores of eval row ``r`` from the public per-row functions."""
        if self._expected is None:
            fl, ff = self.fit_logits, self.fit_features
            basis = sc.fit_principal_subspace(ff, sc.default_pca_dim(ff.shape[1]))
            bank = sc.build_feature_bank(ff)
            self._expected = {
                "templates": sc.fit_class_templates(
                    np.stack([sc.softmax(z) for z in fl]), fl.argmax(axis=1)
                ),
                "stats": sc.fit_gaussian_stats(ff, self.fit_labels),
                "bank": bank,
                "k": sc.default_k(bank.size),
                "basis": basis,
                "alpha": sc.fit_vim_alpha(fl, ff, basis),
                "l1": sc.fit_sirc_params([sc.l1_feature_norm(f) for f in ff]),
                "res": sc.fit_sirc_params([sc.residual_score(f, basis) for f in ff]),
            }
        a = self._expected
        z, f = self.logits[r], self.features[r]
        return {
            "msp": sc.msp(z),
            "mls": sc.max_logit(z),
            "energy": sc.energy(z),
            "neg_entropy": sc.neg_entropy(z),
            "klm": sc.klm(sc.softmax(z), a["templates"]),
            "mds": sc.mahalanobis(f, a["stats"]),
            "knn": sc.knn_score(f, a["bank"], a["k"]),
            "l1": sc.l1_feature_norm(f),
            "residual": sc.residual_score(f, a["basis"]),
            "vim": sc.vim(z, f, a["basis"], a["alpha"]),
            "sirc_msp_l1": sc.sirc_combine(
                sc.msp(z), 1.0, sc.l1_feature_norm(f), a["l1"].a, a["l1"].b
            ),
            "sirc_msp_res": sc.sirc_combine(
                sc.msp(z), 1.0, sc.residual_score(f, a["basis"]), a["res"].a, a["res"].b
            ),
        }

    def check(self, i: int) -> list[str]:
        with open("scores.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        if header != ["sample_id", "domain", "correct", *SCORE_METHODS]:
            return [f"scores.csv: unexpected header {header}"]
        domains = [row[1] for row in body]
        counts = (domains.count("id"), domains.count("ood"))
        if counts != (self.n_side, self.n_side):
            return [f"scores.csv: n_id/n_ood {counts}, generated {self.n_side}/{self.n_side}"]
        problems = []
        sample = np.random.default_rng([self.seed, i]).choice(
            len(body), size=min(self.n_sampled, len(body)), replace=False
        )
        for r in sorted(int(r) for r in sample):
            row = body[r]
            is_id = r < self.n_side
            correct = str(int(self.logits[r].argmax() == self.labels[r])) if is_id else ""
            if row[:3] != [f"ev_{r:06d}", "id" if is_id else "ood", correct]:
                problems.append(f"scores.csv row {r}: sample_id/domain/correct {row[:3]}")
            for method, want in self.expected_row(r).items():
                got = float(row[3 + SCORE_METHODS.index(method)])
                if not abs(got - want) <= SCORE_ATOL + SCORE_RTOL * abs(want):
                    problems.append(f"scores.csv row {r}: {method} {got!r} != {want!r}")
        return problems


WORKLOADS = {w.name: w for w in (SynthEval, GridSweep, ScoreAll)}
