"""Acceptance suite: one test per release criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s``. Every tolerance is fixed
here; nothing is calibrated at runtime.
"""

import json
import math
import time

import numpy as np
import pytest

from dseval import (
    Origin,
    SampleRecord,
    ThresholdGrid,
    ThresholdPair,
    aupr,
    auroc,
    aurc,
    best_f1_single,
    build_eval_set,
    confusion_counts,
    ds_aurc,
    ds_f1,
    ds_sweep_fast,
    f1_from_counts,
    fpr_at_tpr,
    risk_coverage_curve,
    selective_risk,
)
from dseval.cli import main as cli_main
from dseval.ingest import write_scores
from dseval.oracle import oracle_auroc, oracle_ds_aurc, oracle_ds_f1
from dseval.scoring import energy, msp
from dseval.selection import SelectionMode, apply_thresholds, select_thresholds
from dseval.selection import test_opt as optimize_on_test
from dseval.synth import (
    PopulationParams,
    SynthConfig,
    far_ood_config,
    generate,
    near_ood_config,
)
from conftest import make_fixture_set, make_random_set

EXACT = 1e-12


def _passed(name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {name}: PASS{suffix}")


def _varied_config(seed: int) -> SynthConfig:
    rng = np.random.default_rng(seed)

    def pop():
        return PopulationParams(
            mean_s_id=float(rng.uniform(-3, 3)),
            mean_s_ood=float(rng.uniform(-3, 3)),
            std_s_id=float(rng.uniform(0.3, 2.0)),
            std_s_ood=float(rng.uniform(0.3, 2.0)),
            corr=float(rng.uniform(-0.8, 0.8)),
        )

    n_id = int(rng.integers(50, 151))
    return SynthConfig(
        n_id=n_id,
        n_ood=200 - n_id,
        id_accuracy=float(rng.uniform(0.5, 0.95)),
        correct=pop(),
        wrong=pop(),
        ood=pop(),
        seed=seed,
    )


def test_criterion_1_dominance_suite():
    """Pair metrics never lose to single-threshold metrics, 1000 datasets."""
    k_bins = 50
    started = time.perf_counter()
    for seed in range(1000):
        es = generate(_varied_config(123_000 + seed))
        grid = ThresholdGrid.exhaustive(es, "s_id", "s_ood")
        double_f1 = ds_f1(es, "s_id", "s_ood", grid).value
        double_aurc = ds_aurc(es, "s_id", "s_ood", grid, k_bins=k_bins).value
        for ch, axis in (("s_id", grid.id_thresholds), ("s_ood", grid.ood_thresholds)):
            single_f1, _ = best_f1_single(es, ch, axis)
            assert double_f1 >= single_f1 - EXACT, (seed, ch)
            single_aurc = aurc(risk_coverage_curve(es, ch, axis), k_bins)
            assert double_aurc <= single_aurc + EXACT, (seed, ch)
    elapsed = time.perf_counter() - started
    assert elapsed <= 60.0, f"dominance suite took {elapsed:.1f}s"
    _passed("criterion-1 dominance", f"1000 datasets, 0 violations, {elapsed:.1f}s")


def test_criterion_2_reduction_suite():
    """(a) no OOD: mixed risk equals ID-only risk; (b) constant channel: pair
    metrics equal single metrics."""
    rng = np.random.default_rng(2024)
    for _ in range(200):
        n = int(rng.integers(5, 60))
        records = [
            SampleRecord(
                f"i{k}",
                Origin.ID,
                bool(rng.random() < 0.7),
                {"a": float(rng.normal()), "b": float(rng.normal())},
            )
            for k in range(n)
        ]
        es = build_eval_set(records)
        accepted = np.flatnonzero(rng.random(n) < rng.uniform(0.1, 0.9))
        mixed = selective_risk(es, accepted)
        wrong = sum(1 for i in accepted if not records[i].correct)
        id_only = wrong / accepted.size if accepted.size else 0.0
        assert mixed == id_only

    for trial in range(200):
        base = make_random_set(np.random.default_rng(5000 + trial))
        const = float(np.random.default_rng(trial).normal())
        records = [
            SampleRecord(r.sample_id, r.origin, r.correct, {"a": r.scores["a"], "b": const})
            for r in base.records
        ]
        es = build_eval_set(records)
        grid = ThresholdGrid.exhaustive(es, "a", "b")
        double_f1 = ds_f1(es, "a", "b", grid).value
        single_f1, _ = best_f1_single(es, "a", grid.id_thresholds)
        assert abs(double_f1 - single_f1) <= EXACT
        double_aurc = ds_aurc(es, "a", "b", grid, k_bins=40).value
        single_aurc = aurc(risk_coverage_curve(es, "a", grid.id_thresholds), 40)
        assert abs(double_aurc - single_aurc) <= EXACT
    _passed("criterion-2 reduction", "200 + 200 instances")


def test_criterion_3_oracle_equivalence():
    """Fast paths match brute force: integer-exact counts, 1e-12 reals."""
    rng = np.random.default_rng(31337)
    sizes = [int(rng.integers(5, 51)) for _ in range(485)]
    sizes += [int(rng.integers(51, 121)) for _ in range(12)]
    sizes += [int(rng.integers(121, 201)) for _ in range(3)]
    assert len(sizes) == 500 and max(sizes) <= 200

    for trial, n in enumerate(sizes):
        es = make_random_set(rng, n=n)
        grid = ThresholdGrid.exhaustive(es, "a", "b")
        k_bins = int(rng.integers(1, 40))

        fast = ds_f1(es, "a", "b", grid)
        ref_value, ref_pair = oracle_ds_f1(es, "a", "b")
        assert abs(fast.value - ref_value) <= EXACT, trial
        assert fast.best_pair == ref_pair, trial

        fast_aurc = ds_aurc(es, "a", "b", grid, k_bins=k_bins).value
        assert abs(fast_aurc - oracle_ds_aurc(es, "a", "b", k_bins)) <= EXACT, trial

        tables = ds_sweep_fast(es, "a", "b", grid)
        for i, tau_id in enumerate(grid.id_thresholds):
            for j, tau_ood in enumerate(grid.ood_thresholds):
                c = confusion_counts(
                    es, "a", "b", ThresholdPair(float(tau_id), float(tau_ood))
                )
                assert (
                    tables.ta[i, j] == c.ta
                    and tables.accepted_id[i, j] == c.accepted_id
                    and tables.accepted_ood[i, j] == c.accepted_ood
                ), trial

        col = es.channel("b")
        if es.n_ood:
            fast_roc = auroc(col[es.is_id], col[~es.is_id])
            ref_roc = oracle_auroc(col[es.is_id], col[~es.is_id])
            assert abs(fast_roc - ref_roc) <= EXACT, trial
    _passed("criterion-3 oracle equivalence", "500 instances")


def test_criterion_4_fixture_check():
    """Hand-verified five-record fixture values."""
    es = make_fixture_set()
    grid = ThresholdGrid.exhaustive(es, "s_id", "s_ood")

    result = ds_f1(es, "s_id", "s_ood", grid)
    assert abs(result.value - 0.8) <= EXACT
    quoted = ThresholdPair(0.75, 0.5)
    assert abs(f1_from_counts(confusion_counts(es, "s_id", "s_ood", quoted)) - 0.8) <= EXACT

    for ch, axis in (("s_id", grid.id_thresholds), ("s_ood", grid.ood_thresholds)):
        single, _ = best_f1_single(es, ch, axis)
        assert abs(single - 2 / 3) <= EXACT, ch

    assert abs(selective_risk(es, np.arange(5)) - 0.6) <= EXACT

    tables = ds_sweep_fast(es, "s_id", "s_ood", grid)
    # FR = 3 - TA and FA = accepted - TA count samples, so neither is negative
    assert np.all((0 <= tables.ta) & (tables.ta <= tables.accepted_id) & (tables.accepted_id <= 3))
    for i, tau_id in enumerate(grid.id_thresholds):
        for j, tau_ood in enumerate(grid.ood_thresholds):
            c = confusion_counts(es, "s_id", "s_ood", ThresholdPair(float(tau_id), float(tau_ood)))
            assert c.ta + c.fr == 3 and c.ta + c.fa == c.accepted_total
    _passed("criterion-4 fixture", "DS-F1 0.8 at (0.75, 0.5); singles 2/3; risk 0.6")


def test_criterion_5_threshold_transfer_protocol():
    """Val-selected double thresholds beat single transfers on fresh test sets."""
    double_wins = 0
    opt_dominates = True
    for run in range(100):
        val = generate(far_ood_config(300, 300, 0.75, seed=50_000 + 2 * run))
        test = generate(far_ood_config(300, 300, 0.75, seed=50_000 + 2 * run + 1))
        val_grid = ThresholdGrid.exhaustive(val, "s_id", "s_ood")
        test_grid = ThresholdGrid.exhaustive(test, "s_id", "s_ood")
        transferred = {}
        for mode, picked in select_thresholds(val, "s_id", "s_ood", val_grid).items():
            transferred[mode], _ = apply_thresholds(test, "s_id", "s_ood", picked.frozen)
        if transferred[SelectionMode.DOUBLE] >= max(
            transferred[SelectionMode.ID_ONLY], transferred[SelectionMode.OOD_ONLY]
        ):
            double_wins += 1
        opt = optimize_on_test(test, "s_id", "s_ood", test_grid)[SelectionMode.DOUBLE]
        opt_dominates &= opt.test_f1 >= transferred[SelectionMode.DOUBLE] - EXACT
    assert double_wins >= 95, f"double transfer won only {double_wins}/100"
    assert opt_dominates
    _passed("criterion-5 transfer protocol", f"double won {double_wins}/100")


def test_criterion_6_near_far_gap():
    """The double-over-single gap is larger under far-OOD than near-OOD."""

    def gap(config):
        es = generate(config)
        grid = ThresholdGrid.exhaustive(es, "s_id", "s_ood")
        double = ds_f1(es, "s_id", "s_ood", grid).value
        single = max(
            best_f1_single(es, "s_id", grid.id_thresholds)[0],
            best_f1_single(es, "s_ood", grid.ood_thresholds)[0],
        )
        return double - single

    diffs = []
    for seed in range(100):
        far = gap(far_ood_config(300, 300, 0.75, seed=90_000 + seed))
        near = gap(near_ood_config(300, 300, 0.75, seed=90_000 + seed))
        diffs.append(far - near)
    diffs = np.array(diffs)
    assert diffs.mean() > 0

    wins = int((diffs > 0).sum())
    losses = int((diffs < 0).sum())
    n = wins + losses
    p_value = sum(math.comb(n, i) for i in range(wins, n + 1)) / 2**n
    assert p_value < 0.01, f"sign test p={p_value}"
    _passed(
        "criterion-6 near/far gap",
        f"mean gap far-near {diffs.mean():.4f}, sign test p={p_value:.2e}",
    )


def test_criterion_7_reporting_convention(tmp_path):
    """Display values are raw*100 (metrics) and raw*1000 (AURC), two-decimal style."""
    scores = tmp_path / "fixture.csv"
    write_scores(make_fixture_set(), scores)
    out = tmp_path / "report.json"
    assert (
        cli_main(
            [
                "eval",
                "--scores", str(scores),
                "--id-channel", "s_id",
                "--ood-channel", "s_ood",
                "--out", str(out),
            ]
        )
        == 0
    )
    report = json.loads(out.read_text())

    checked = 0

    def walk(node, key=""):
        nonlocal checked
        if isinstance(node, dict):
            if set(node) == {"raw", "display"}:
                scale = 1000.0 if "aurc" in key else 100.0
                assert node["display"] == node["raw"] * scale, key
                checked += 1
            else:
                for k, v in node.items():
                    walk(v, k)

    walk(report)
    assert checked >= 8

    md = tmp_path / "report.md"
    cli_main(
        [
            "eval",
            "--scores", str(scores),
            "--id-channel", "s_id",
            "--ood-channel", "s_ood",
            "--out", str(md),
        ]
    )
    text = md.read_text()
    assert "80.00" in text  # DS-F1 0.8 rendered in table style
    assert f"{0.20238 * 1000.0:.2f}" == "202.38"
    assert f"{0.6742 * 100.0:.2f}" == "67.42"
    _passed("criterion-7 reporting convention", f"{checked} scaled entries checked")


def test_criterion_8_scoring_sanity():
    rng = np.random.default_rng(88)

    sep_id = rng.uniform(1.0, 2.0, 10_000)
    sep_ood = rng.uniform(-2.0, -1.0, 10_000)
    assert auroc(sep_id, sep_ood) == 1.0
    assert fpr_at_tpr(sep_id, sep_ood) == 0.0
    assert aupr(sep_id, sep_ood) == 1.0

    same_id = rng.normal(0.0, 1.0, 10_000)
    same_ood = rng.normal(0.0, 1.0, 10_000)
    assert abs(auroc(same_id, same_ood) - 0.5) <= 0.02

    for _ in range(1000):
        z = rng.normal(0.0, 4.0, int(rng.integers(2, 12)))
        c = float(rng.normal(0.0, 4.0))
        assert abs(energy(z + c) - (energy(z) + c)) <= EXACT
        assert abs(msp(z + c) - msp(z)) <= EXACT
    _passed("criterion-8 scoring sanity")


def test_criterion_9_performance(tmp_path):
    """100k samples, 256-quantile grid + sentinels, 200 bins, eval <= 5 s."""
    scores = tmp_path / "big.csv"
    write_scores(generate(far_ood_config(50_000, 50_000, 0.75, seed=7)), scores)

    out = tmp_path / "report.json"
    started = time.perf_counter()
    code = cli_main(
        [
            "eval",
            "--scores", str(scores),
            "--id-channel", "s_id",
            "--ood-channel", "s_ood",
            "--grid", "256",
            "--bins", "200",
            "--out", str(out),
        ]
    )
    elapsed = time.perf_counter() - started
    assert code == 0
    assert elapsed <= 5.0, f"eval took {elapsed:.2f}s"

    def core_time(es):
        grid = ThresholdGrid.quantile(es, "s_id", "s_ood", t_grid=256)
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            ds_f1(es, "s_id", "s_ood", grid)
            ds_aurc(es, "s_id", "s_ood", grid, k_bins=200)
            best = min(best, time.perf_counter() - t0)
        return best

    half = generate(far_ood_config(25_000, 25_000, 0.75, seed=7))
    full = generate(far_ood_config(50_000, 50_000, 0.75, seed=7))
    ratio = core_time(full) / core_time(half)
    assert ratio < 3.5, f"doubling N scaled runtime by {ratio:.2f}x"
    _passed(
        "criterion-9 performance",
        f"eval {elapsed:.2f}s on N=100000; doubling ratio {ratio:.2f}x",
    )
