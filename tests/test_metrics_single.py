import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dseval import (
    EmptySide,
    NoPoints,
    Origin,
    RiskCoveragePoint,
    SampleRecord,
    ThresholdGrid,
    accept_all_threshold,
    aupr,
    auroc,
    aurc,
    best_f1_single,
    build_eval_set,
    coverage,
    fpr_at_tpr,
    risk_coverage_curve,
    selective_risk,
)
from dseval.oracle import oracle_auroc
from conftest import make_random_set


def test_coverage_sentinel_and_extremes(fixture_set):
    lo = accept_all_threshold(fixture_set.channel("s_ood"))
    assert coverage(fixture_set, "s_ood", lo) == 1.0
    assert coverage(fixture_set, "s_ood", 2.0) == 0.0
    # all three ID samples clear 0.5 on the OOD channel
    assert coverage(fixture_set, "s_ood", 0.5) == 1.0


def test_selective_risk_fixture(fixture_set):
    assert selective_risk(fixture_set, np.arange(5)) == pytest.approx(0.6)
    assert selective_risk(fixture_set, []) == 0.0
    assert selective_risk(fixture_set, [0, 1]) == 0.0


def test_selective_risk_equals_id_only_risk_without_ood():
    rng = np.random.default_rng(3)
    records = [
        SampleRecord(f"i{k}", Origin.ID, bool(rng.random() < 0.6), {"a": float(rng.normal())})
        for k in range(40)
    ]
    es = build_eval_set(records)
    for _ in range(20):
        accepted = np.flatnonzero(rng.random(40) < 0.5)
        mixed = selective_risk(es, accepted)
        wrong = sum(1 for i in accepted if not es.records[i].correct)
        id_only = wrong / accepted.size if accepted.size else 0.0
        assert mixed == id_only


class TestRiskCoverageCurve:
    def test_monotone_fixture(self):
        # scores sorted so every low scorer is an error: risk grows with coverage
        records = [
            SampleRecord(f"i{k}", Origin.ID, k >= 4, {"a": float(k)}) for k in range(10)
        ]
        es = build_eval_set(records)
        points = risk_coverage_curve(es, "a", np.arange(10, dtype=float))
        by_cov = sorted(points, key=lambda p: p.coverage)
        risks = [p.risk for p in by_cov]
        assert risks == sorted(risks)

    def test_all_correct_no_ood(self):
        records = [
            SampleRecord(f"i{k}", Origin.ID, True, {"a": float(k)}) for k in range(5)
        ]
        es = build_eval_set(records)
        points = risk_coverage_curve(es, "a", np.arange(5, dtype=float))
        assert all(p.risk == 0.0 for p in points)

    def test_single_sentinel_point(self, fixture_set):
        lo = accept_all_threshold(fixture_set.channel("s_id"))
        points = risk_coverage_curve(fixture_set, "s_id", [lo])
        assert len(points) == 1
        assert points[0].coverage == 1.0
        assert points[0].risk == pytest.approx(0.6)  # 1 wrong ID + 2 OOD of 5

    def test_descending_threshold_order(self, fixture_set):
        points = risk_coverage_curve(fixture_set, "s_id", [0.1, 0.9, 0.5])
        assert [p.threshold for p in points] == [0.9, 0.5, 0.1]


class TestAurc:
    def test_all_zero_risks(self):
        points = [RiskCoveragePoint(c, 0.0, 0.0) for c in (0.2, 0.5, 1.0)]
        assert aurc(points, 10) == 0.0

    def test_constant_risk_is_rectangle(self):
        points = [RiskCoveragePoint(c, 0.3, 0.0) for c in np.linspace(0, 1, 7)]
        assert aurc(points, 5) == pytest.approx(0.3)

    def test_one_bin_is_min_risk(self):
        points = [
            RiskCoveragePoint(0.2, 0.5, 0.0),
            RiskCoveragePoint(0.6, 0.1, 0.0),
            RiskCoveragePoint(1.0, 0.4, 0.0),
        ]
        assert aurc(points, 1) == pytest.approx(0.1)

    def test_no_points(self):
        with pytest.raises(NoPoints):
            aurc([], 10)

    def test_against_direct_integration(self, fixture_set):
        grid = ThresholdGrid.exhaustive(fixture_set, "s_id", "s_ood")
        points = risk_coverage_curve(fixture_set, "s_id", grid.id_thresholds)
        k = len({p.coverage for p in points})
        got = aurc(points, k)
        # independent integration: per-bin min, left Riemann sum
        bins = {}
        for p in points:
            b = min(int(p.coverage * k), k - 1)
            bins[b] = min(bins.get(b, math.inf), p.risk)
        filled = sorted(bins)
        total = 0.0
        for b in range(k):
            if b in bins:
                total += bins[b]
            elif b < filled[0]:
                total += bins[filled[0]]
            elif b > filled[-1]:
                total += bins[filled[-1]]
            else:
                lo = max(f for f in filled if f < b)
                hi = min(f for f in filled if f > b)
                total += bins[lo] + (bins[hi] - bins[lo]) * (b - lo) / (hi - lo)
        assert got == pytest.approx(total / k, abs=1e-12)


class TestBestF1Single:
    def test_fixture_exhaustive(self, fixture_set):
        grid = ThresholdGrid.exhaustive(fixture_set, "s_id", "s_ood")
        f1, tau = best_f1_single(fixture_set, "s_id", grid.id_thresholds)
        assert f1 == pytest.approx(2 / 3)
        assert tau == 0.8
        f1, _ = best_f1_single(fixture_set, "s_ood", grid.ood_thresholds)
        assert f1 == pytest.approx(2 / 3)

    def test_fixture_coarse_grid(self, fixture_set):
        f1, tau = best_f1_single(fixture_set, "s_id", [0.25, 0.5, 0.75, 1.0])
        assert f1 == pytest.approx(2 / 3)
        assert tau == 0.75

    def test_perfectly_separable(self):
        records = [
            SampleRecord("i0", Origin.ID, True, {"a": 2.0}),
            SampleRecord("i1", Origin.ID, True, {"a": 3.0}),
            SampleRecord("o0", Origin.OOD, None, {"a": 0.0}),
        ]
        es = build_eval_set(records)
        f1, tau = best_f1_single(es, "a", [0.0, 1.0, 2.0, 3.0])
        assert f1 == 1.0 and tau == 1.0  # smallest threshold achieving the max

    def test_all_id_misclassified(self):
        records = [
            SampleRecord(f"i{k}", Origin.ID, False, {"a": float(k)}) for k in range(4)
        ]
        es = build_eval_set(records)
        f1, _ = best_f1_single(es, "a", np.arange(4, dtype=float))
        assert f1 == 0.0

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            es = make_random_set(rng)
            grid = ThresholdGrid.exhaustive(es, "a", "b")
            f1_before, _ = best_f1_single(es, "a", grid.id_thresholds)
            warped = build_eval_set(
                [
                    SampleRecord(
                        r.sample_id,
                        r.origin,
                        r.correct,
                        {"a": float(np.tanh(r.scores["a"])), "b": r.scores["b"]},
                    )
                    for r in es.records
                ]
            )
            warped_grid = ThresholdGrid.exhaustive(warped, "a", "b")
            f1_after, _ = best_f1_single(warped, "a", warped_grid.id_thresholds)
            assert f1_after == pytest.approx(f1_before, abs=1e-12)


class TestOodDetectionMetrics:
    def test_perfect_separation(self):
        assert auroc([2, 3], [0, 1]) == 1.0
        assert fpr_at_tpr([2, 3], [0, 1]) == 0.0
        assert aupr([2, 3], [0, 1]) == 1.0

    def test_all_ties(self):
        assert auroc([1.0, 1.0], [1.0, 1.0, 1.0]) == 0.5

    def test_reversed(self):
        assert auroc([0, 1], [2, 3]) == 0.0

    def test_negation_flips_auroc(self):
        rng = np.random.default_rng(5)
        ids = rng.normal(1, 1, 30)
        oods = rng.normal(0, 1, 20)
        assert auroc(-ids, -oods) == pytest.approx(1 - auroc(ids, oods), abs=1e-12)

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            ids = np.round(rng.normal(0.5, 1, 10), 1)
            oods = np.round(rng.normal(0, 1, 7), 1)
            assert auroc(ids, oods) == pytest.approx(
                oracle_auroc(ids, oods), abs=1e-12
            )

    def test_fpr_at_tpr_partial(self):
        ids = np.array([0.9, 0.8, 0.7, 0.1])
        oods = np.array([0.75, 0.05])
        # TPR >= 0.95 forces accepting all four ID samples, tau = 0.1
        assert fpr_at_tpr(ids, oods, 0.95) == 0.5
        # TPR >= 0.75 reachable at tau = 0.7, which keeps one OOD sample in
        assert fpr_at_tpr(ids, oods, 0.75) == 0.5

    def test_empty_side(self):
        with pytest.raises(EmptySide):
            auroc([], [1.0])
        with pytest.raises(EmptySide):
            aupr([1.0], [])
        with pytest.raises(EmptySide):
            fpr_at_tpr([], [])

    def test_aupr_known_value(self):
        # descending scores: id, ood, id -> AP = 0.5*1 + 0.5*(2/3)
        assert aupr([3.0, 1.0], [2.0]) == pytest.approx(0.5 + 0.5 * 2 / 3)


def _naive_aupr(id_scores, ood_scores) -> Fraction:
    """Precision times the recall step at each distinct score, highest first, exactly."""
    area = Fraction(0)
    for tau in sorted(set(id_scores) | set(ood_scores), reverse=True):
        tp = sum(s >= tau for s in id_scores)
        fp = sum(s >= tau for s in ood_scores)
        step = Fraction(tp - sum(s > tau for s in id_scores), len(id_scores))
        area += step * Fraction(tp, tp + fp)
    return area


# few distinct values, so most draws hold ties within and across the sides
_TIED = st.lists(st.sampled_from([-2.0, -0.5, -0.0, 0.0, 0.25, 1.0, 3.0]), min_size=1,
                 max_size=12)


@settings(max_examples=200, deadline=None)
@given(id_scores=_TIED, ood_scores=_TIED)
def test_ood_metrics_match_naive_references(id_scores, ood_scores):
    assert auroc(id_scores, ood_scores) == oracle_auroc(id_scores, ood_scores)
    assert aupr(id_scores, ood_scores) == pytest.approx(
        float(_naive_aupr(id_scores, ood_scores)), rel=1e-12
    )
