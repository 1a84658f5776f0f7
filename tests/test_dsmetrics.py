import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dseval import (
    EmptyGrid,
    EmptyScores,
    Origin,
    SampleRecord,
    ThresholdGrid,
    ThresholdPair,
    aurc,
    best_f1_single,
    build_eval_set,
    confusion_counts,
    ds_aurc,
    ds_f1,
    ds_sweep_fast,
    f1_from_counts,
    quantile_grid,
    risk_coverage_curve,
)
from dseval.oracle import oracle_ds_aurc
from conftest import make_random_set


class TestQuantileGrid:
    def test_quartiles_nearest_rank(self):
        grid = quantile_grid(np.arange(1, 101, dtype=float), 4, include_sentinel=False)
        assert grid.tolist() == [25.0, 50.0, 75.0, 100.0]

    def test_all_equal_scores(self):
        grid = quantile_grid([5.0, 5.0, 5.0], 16)
        assert grid.tolist() == [4.0, 5.0]  # sentinel + single value

    def test_dense_grid_covers_all_values(self):
        scores = [3.0, 1.0, 2.0]
        grid = quantile_grid(scores, 64, include_sentinel=False)
        assert grid.tolist() == [1.0, 2.0, 3.0]

    def test_empty_scores(self):
        with pytest.raises(EmptyScores):
            quantile_grid([], 4)


class TestConfusionCounts:
    def test_fixture_pair(self, fixture_set):
        c = confusion_counts(fixture_set, "s_id", "s_ood", ThresholdPair(0.75, 0.5))
        assert (c.ta, c.fa, c.fr) == (2, 0, 1)
        assert c.accepted_total == 2 and c.accepted_id == 2 and c.accepted_ood == 0

    def test_accept_all(self, fixture_set):
        lo = ThresholdPair(-1.0, -1.0)
        c = confusion_counts(fixture_set, "s_id", "s_ood", lo)
        assert (c.ta, c.fa, c.fr, c.accepted_total) == (2, 3, 1, 5)

    def test_reject_all(self, fixture_set):
        c = confusion_counts(fixture_set, "s_id", "s_ood", ThresholdPair(5.0, 5.0))
        assert (c.ta, c.fa, c.fr) == (0, 0, 3)

    def test_identities_random(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            es = make_random_set(rng)
            pair = ThresholdPair(float(rng.normal()), float(rng.normal()))
            c = confusion_counts(es, "a", "b", pair)
            assert c.ta + c.fr == es.n_id
            assert c.ta + c.fa == c.accepted_total
            assert c.fa == c.accepted_ood + (c.accepted_id - c.ta)


def test_f1_from_counts(fixture_set):
    c = confusion_counts(fixture_set, "s_id", "s_ood", ThresholdPair(0.75, 0.5))
    assert f1_from_counts(c) == pytest.approx(0.8)
    accept_all = confusion_counts(fixture_set, "s_id", "s_ood", ThresholdPair(-1, -1))
    assert f1_from_counts(accept_all) == pytest.approx(0.5)
    empty = confusion_counts(fixture_set, "s_id", "s_ood", ThresholdPair(9, 9))
    assert f1_from_counts(empty) == 0.0


class TestDsF1:
    def test_fixture(self, fixture_set):
        grid = ThresholdGrid.exhaustive(fixture_set, "s_id", "s_ood")
        result = ds_f1(fixture_set, "s_id", "s_ood", grid)
        assert result.value == pytest.approx(0.8)
        # reported pair is the lexicographically smallest (tau_ood, tau_id) optimum
        assert result.best_pair == ThresholdPair(tau_id=0.8, tau_ood=0.1)
        # the pair quoted alongside the fixture attains the same value
        quoted = confusion_counts(fixture_set, "s_id", "s_ood", ThresholdPair(0.75, 0.5))
        assert f1_from_counts(quoted) == pytest.approx(result.value)
        # and it strictly beats the best single threshold on either channel
        for ch, axis in (("s_id", grid.id_thresholds), ("s_ood", grid.ood_thresholds)):
            single, _ = best_f1_single(fixture_set, ch, axis)
            assert single == pytest.approx(2 / 3)

    def test_constant_ood_channel_reduces_to_single(self):
        rng = np.random.default_rng(8)
        records = []
        for i in range(50):
            origin = Origin.ID if i < 30 else Origin.OOD
            correct = bool(rng.random() < 0.7) if origin is Origin.ID else None
            records.append(
                SampleRecord(
                    f"s{i}", origin, correct, {"a": float(rng.normal()), "b": 1.0}
                )
            )
        es = build_eval_set(records)
        grid = ThresholdGrid.exhaustive(es, "a", "b")
        double = ds_f1(es, "a", "b", grid).value
        single, _ = best_f1_single(es, "a", grid.id_thresholds)
        assert double == single

    def test_perfect_system(self):
        records = [
            SampleRecord("i0", Origin.ID, True, {"a": 1.0, "b": 1.0}),
            SampleRecord("i1", Origin.ID, True, {"a": 2.0, "b": 2.0}),
            SampleRecord("o0", Origin.OOD, None, {"a": 3.0, "b": -1.0}),
        ]
        es = build_eval_set(records)
        grid = ThresholdGrid.exhaustive(es, "a", "b")
        assert ds_f1(es, "a", "b", grid).value == 1.0

    def test_surface_on_request_only(self, fixture_set):
        grid = ThresholdGrid.exhaustive(fixture_set, "s_id", "s_ood")
        assert ds_f1(fixture_set, "s_id", "s_ood", grid).surface is None
        surf = ds_f1(fixture_set, "s_id", "s_ood", grid, return_surface=True).surface
        assert surf.f1.shape == (len(grid.id_thresholds), len(grid.ood_thresholds))


class TestSweepCoverageRisk:
    def test_fixture_points(self, fixture_set):
        grid = ThresholdGrid(
            id_thresholds=np.array([-0.4, 0.75, 2.0]),
            ood_thresholds=np.array([-0.95, 0.5]),
            id_has_sentinel=True,
            ood_has_sentinel=True,
        )
        tables = ds_sweep_fast(fixture_set, "s_id", "s_ood", grid)
        assert tables.coverage.shape == tables.risk.shape == (3, 2)
        # (tau_id, tau_ood) = (-0.4, -0.95): the sentinel pair
        assert tables.coverage[0, 0] == 1.0
        # (0.75, 0.5)
        assert tables.coverage[1, 1] == pytest.approx(2 / 3)
        assert tables.risk[1, 1] == 0.0
        # (2.0, 0.5)
        assert tables.coverage[2, 1] == 0.0 and tables.risk[2, 1] == 0.0


class TestDsAurc:
    def test_all_correct_no_ood(self):
        records = [
            SampleRecord(f"i{k}", Origin.ID, True, {"a": float(k), "b": float(-k)})
            for k in range(6)
        ]
        es = build_eval_set(records)
        grid = ThresholdGrid.exhaustive(es, "a", "b")
        assert ds_aurc(es, "a", "b", grid, k_bins=10).value == 0.0

    def test_constant_ood_channel_reduces_to_single(self):
        rng = np.random.default_rng(13)
        records = []
        for i in range(60):
            origin = Origin.ID if i < 40 else Origin.OOD
            correct = bool(rng.random() < 0.6) if origin is Origin.ID else None
            records.append(
                SampleRecord(
                    f"s{i}", origin, correct, {"a": float(rng.normal()), "b": 0.0}
                )
            )
        es = build_eval_set(records)
        grid = ThresholdGrid.exhaustive(es, "a", "b")
        double = ds_aurc(es, "a", "b", grid, k_bins=25).value
        points = risk_coverage_curve(es, "a", grid.id_thresholds)
        assert double == pytest.approx(aurc(points, 25), abs=1e-12)

    def test_fixture_matches_oracle(self, fixture_set):
        grid = ThresholdGrid.exhaustive(fixture_set, "s_id", "s_ood")
        fast = ds_aurc(fixture_set, "s_id", "s_ood", grid, k_bins=3).value
        assert fast == pytest.approx(
            oracle_ds_aurc(fixture_set, "s_id", "s_ood", 3), abs=1e-12
        )

    def test_curve_is_exposed(self, fixture_set):
        grid = ThresholdGrid.exhaustive(fixture_set, "s_id", "s_ood")
        result = ds_aurc(fixture_set, "s_id", "s_ood", grid, k_bins=4)
        assert result.curve.k_bins == 4
        assert result.curve.values.shape == (4,)


class TestSweepFast:
    def test_matches_pairwise_confusion(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            es = make_random_set(rng, n=25)
            grid = ThresholdGrid.exhaustive(es, "a", "b")
            tables = ds_sweep_fast(es, "a", "b", grid)
            for i, tau_id in enumerate(grid.id_thresholds):
                for j, tau_ood in enumerate(grid.ood_thresholds):
                    c = confusion_counts(
                        es, "a", "b", ThresholdPair(float(tau_id), float(tau_ood))
                    )
                    assert tables.ta[i, j] == c.ta
                    assert tables.accepted_id[i, j] == c.accepted_id
                    assert tables.accepted_ood[i, j] == c.accepted_ood
                    assert tables.fa[i, j] == c.fa
                    assert tables.fr[i, j] == c.fr

    def test_single_cell_grid_gives_population_totals(self, fixture_set):
        lo_id = fixture_set.channel("s_id").min() - 1.0
        lo_ood = fixture_set.channel("s_ood").min() - 1.0
        grid = ThresholdGrid(
            id_thresholds=np.array([lo_id]),
            ood_thresholds=np.array([lo_ood]),
        )
        tables = ds_sweep_fast(fixture_set, "s_id", "s_ood", grid)
        assert tables.ta[0, 0] == 2
        assert tables.accepted_id[0, 0] == 3
        assert tables.accepted_ood[0, 0] == 2

    def test_row_order_invariance(self):
        rng = np.random.default_rng(17)
        es = make_random_set(rng, n=30)
        perm = rng.permutation(len(es.records))
        shuffled = build_eval_set([es.records[i] for i in perm])
        grid = ThresholdGrid.exhaustive(es, "a", "b")
        t1 = ds_sweep_fast(es, "a", "b", grid)
        t2 = ds_sweep_fast(shuffled, "a", "b", grid)
        assert np.array_equal(t1.ta, t2.ta)
        assert np.array_equal(t1.accepted_id, t2.accepted_id)
        assert np.array_equal(t1.accepted_ood, t2.accepted_ood)

    def test_identities_hold_tablewide(self):
        rng = np.random.default_rng(23)
        es = make_random_set(rng, n=35)
        grid = ThresholdGrid.exhaustive(es, "a", "b")
        t = ds_sweep_fast(es, "a", "b", grid)
        assert np.all(t.ta + t.fr == es.n_id)
        assert np.all(t.ta + t.fa == t.accepted_total)


def test_empty_grid_rejected():
    with pytest.raises(EmptyGrid):
        ThresholdGrid(id_thresholds=np.array([]), ood_thresholds=np.array([0.0]))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_rank_invariance_of_ds_metrics(seed):
    es = make_random_set(np.random.default_rng(seed), n=20)
    warped = build_eval_set(
        [
            SampleRecord(
                r.sample_id,
                r.origin,
                r.correct,
                {"a": r.scores["a"] ** 3, "b": float(np.expm1(r.scores["b"]))},
            )
            for r in es.records
        ]
    )
    g1 = ThresholdGrid.exhaustive(es, "a", "b")
    g2 = ThresholdGrid.exhaustive(warped, "a", "b")
    assert ds_f1(es, "a", "b", g1).value == pytest.approx(
        ds_f1(warped, "a", "b", g2).value, abs=1e-12
    )
    assert ds_aurc(es, "a", "b", g1, k_bins=7).value == pytest.approx(
        ds_aurc(warped, "a", "b", g2, k_bins=7).value, abs=1e-12
    )


def test_dominance_spot_checks():
    rng = np.random.default_rng(31)
    for _ in range(15):
        es = make_random_set(rng, quantize_prob=0.0)  # tie-free
        grid = ThresholdGrid.exhaustive(es, "a", "b")
        double_f1 = ds_f1(es, "a", "b", grid).value
        double_aurc = ds_aurc(es, "a", "b", grid, k_bins=12).value
        for ch, axis in (("a", grid.id_thresholds), ("b", grid.ood_thresholds)):
            single_f1, _ = best_f1_single(es, ch, axis)
            assert double_f1 >= single_f1 - 1e-12
            single_aurc = aurc(risk_coverage_curve(es, ch, axis), 12)
            assert double_aurc <= single_aurc + 1e-12


def test_tied_scores_can_break_aurc_dominance_documented():
    """With ties, pairs can realize coverages no single threshold reaches,
    filling a bin with a high minimum where the single curve interpolates low.
    This is a property of the binned metric, not a bug; kept as documentation.
    """
    records = [
        SampleRecord("A", Origin.ID, True, {"a": 0.8, "b": 0.1}),
        SampleRecord("B", Origin.ID, False, {"a": 0.8, "b": 0.2}),
    ]
    es = build_eval_set(records)
    grid = ThresholdGrid.exhaustive(es, "a", "b")
    double = ds_aurc(es, "a", "b", grid, k_bins=4).value
    single = aurc(risk_coverage_curve(es, "a", grid.id_thresholds), 4)
    assert double > single
