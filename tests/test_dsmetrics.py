import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dseval import (
    EmptyGrid,
    EmptyScores,
    EvalSet,
    GridTooLarge,
    Origin,
    SampleRecord,
    ThresholdGrid,
    ThresholdPair,
    aurc,
    best_f1_single,
    bin_risk_points,
    build_eval_set,
    confusion_counts,
    ds_aurc,
    ds_f1,
    ds_metrics,
    ds_sweep_fast,
    f1_from_counts,
    quantile_grid,
    risk_coverage_curve,
)
from dseval import dsmetrics
from dseval.oracle import oracle_ds_aurc
from conftest import make_random_set


class TestQuantileGrid:
    def test_quartiles_nearest_rank(self):
        grid = quantile_grid(np.arange(1, 101, dtype=float), 4)[1:]
        assert grid.tolist() == [25.0, 50.0, 75.0, 100.0]

    def test_all_equal_scores(self):
        grid = quantile_grid([5.0, 5.0, 5.0], 16)
        assert grid.tolist() == [4.0, 5.0]  # sentinel + single value

    def test_dense_grid_covers_all_values(self):
        scores = [3.0, 1.0, 2.0]
        grid = quantile_grid(scores, 64)[1:]
        assert grid.tolist() == [1.0, 2.0, 3.0]

    def test_empty_scores(self):
        with pytest.raises(EmptyScores):
            quantile_grid([], 4)

    def test_grid_past_the_sample_count_is_the_grid_at_it(self):
        # from t_grid = n on, every order statistic is a threshold; a huge
        # t_grid is not built (10**12 int64 ranks would be 8 TB)
        scores = np.round(np.random.default_rng(2).normal(size=50), 1)
        at_n = quantile_grid(scores, scores.size)
        assert at_n[1:].tolist() == np.unique(scores).tolist()
        tracemalloc.start()
        try:
            for t_grid in (51, 137, 10**12):
                assert quantile_grid(scores, t_grid).tolist() == at_n.tolist()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16


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
        surf = ds_metrics(fixture_set, "s_id", "s_ood", grid, return_surface=True)[0].surface
        assert surf.f1.shape == (len(grid.id_thresholds), len(grid.ood_thresholds))

    def test_aurc_surface_on_request_only(self, fixture_set):
        grid = ThresholdGrid.exhaustive(fixture_set, "s_id", "s_ood")
        assert ds_aurc(fixture_set, "s_id", "s_ood", grid).surface is None
        plain = ds_aurc(fixture_set, "s_id", "s_ood", grid, k_bins=7)
        f1, with_surface = ds_metrics(
            fixture_set, "s_id", "s_ood", grid, k_bins=7, return_surface=True
        )
        assert with_surface.value == plain.value
        assert with_surface.surface is None  # the surface rides on the F1 result
        surf = f1.surface
        f1_surface = ds_metrics(fixture_set, "s_id", "s_ood", grid, return_surface=True)[0].surface
        assert np.array_equal(surf.f1, f1_surface.f1)


class TestSweepCoverageRisk:
    def test_fixture_points(self, fixture_set):
        grid = ThresholdGrid(
            id_thresholds=np.array([-0.4, 0.75, 2.0]),
            ood_thresholds=np.array([-0.95, 0.5]),
        )
        surface = ds_metrics(fixture_set, "s_id", "s_ood", grid, return_surface=True)[0].surface
        assert surface.coverage.shape == surface.risk.shape == (3, 2)
        # (tau_id, tau_ood) = (-0.4, -0.95): the sentinel pair
        assert surface.coverage[0, 0] == 1.0
        # (0.75, 0.5)
        assert surface.coverage[1, 1] == pytest.approx(2 / 3)
        assert surface.risk[1, 1] == 0.0
        # (2.0, 0.5)
        assert surface.coverage[2, 1] == 0.0 and surface.risk[2, 1] == 0.0


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
        # FR = n_id - TA and FA = accepted - TA count samples, so neither is negative
        assert np.all((0 <= t.ta) & (t.ta <= t.accepted_id) & (t.accepted_id <= es.n_id))
        assert np.all((0 <= t.accepted_ood) & (t.accepted_ood <= es.n_ood))
        # a higher threshold on either axis accepts a subset
        for table in (t.ta, t.accepted_id, t.accepted_ood):
            assert np.all(np.diff(table, axis=0) <= 0) and np.all(np.diff(table, axis=1) <= 0)


def _naive_tables(es, grid):
    """TA, accepted-ID and accepted-OOD tables by a double cumsum over full histograms."""
    bin_id = np.searchsorted(grid.id_thresholds, es.channel("a"), side="right")
    bin_ood = np.searchsorted(grid.ood_thresholds, es.channel("b"), side="right")
    shape = (grid.id_thresholds.size + 1, grid.ood_thresholds.size + 1)

    def suffix(mask):
        h = np.zeros(shape, dtype=np.int64)
        np.add.at(h, (bin_id[mask], bin_ood[mask]), 1)
        return np.cumsum(np.cumsum(h[::-1, ::-1], axis=0), axis=1)[::-1, ::-1][1:, 1:]

    return suffix(es.id_correct), suffix(es.is_id), suffix(~es.is_id)


_POPULATIONS = {
    "mixed": ((True, True), (True, False), (False, False)),
    "no_ood": ((True, True), (True, False)),
    "all_correct": ((True, True), (False, False)),
    "all_wrong": ((True, False), (False, False)),
}


@st.composite
def _sweep_cases(draw):
    """A small set with tied scores at some magnitude, and a grid over it."""
    kinds = _POPULATIONS[draw(st.sampled_from(sorted(_POPULATIONS)))]
    n = draw(st.integers(1, 30))
    rows = draw(st.lists(st.sampled_from(kinds), min_size=n, max_size=n))
    rows[0] = kinds[0]  # at least one ID row
    scale = draw(st.sampled_from([1.0, 1e17, 1e300]))
    a, b = (
        np.array(draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n))) * scale / 6
        for _ in range(2)
    )
    es = EvalSet.from_columns(
        [f"s{i}" for i in range(n)],
        [is_id for is_id, _ in rows],
        [ok for _, ok in rows],
        {"a": a, "b": b},
    )
    shape = draw(st.sampled_from(["exhaustive", "quantile", "one", "free"]))
    start = 0 if draw(st.booleans()) else 1  # 1 drops the sentinels
    if shape == "exhaustive":
        built = ThresholdGrid.exhaustive(es, "a", "b")
        return es, ThresholdGrid(built.id_thresholds[start:], built.ood_thresholds[start:])
    if shape == "quantile":  # skinny either way round
        t_id, t_ood = draw(st.integers(1, 30)), draw(st.integers(1, 30))
        return es, ThresholdGrid(
            quantile_grid(a, t_id)[start:], quantile_grid(b, t_ood)[start:]
        )
    if shape == "one":  # one threshold on the ID axis, and maybe on the OOD axis
        one = np.array([draw(st.sampled_from(a.tolist()))])
        ood = np.array([float(b.max())]) if draw(st.booleans()) else np.unique(b)
        return es, ThresholdGrid(one, ood)
    axes = [  # thresholds that need not be data values
        np.unique(draw(st.lists(st.integers(-8, 8), min_size=1, max_size=20))) * scale / 6
        for _ in range(2)
    ]
    return es, ThresholdGrid(*axes)


@settings(max_examples=200, deadline=None)
@given(
    case=_sweep_cases(),
    picks=st.lists(st.tuples(st.integers(0), st.integers(0)), max_size=5),
    block=st.sampled_from([1, 3, 64, 1 << 16]),
    row_add_cols=st.sampled_from([1, 1 << 30]),  # row adds, or one strided cumsum
)
def test_sweep_matches_references(case, picks, block, row_add_cols):
    es, grid = case
    with mock.patch.object(dsmetrics, "_BLOCK_CELLS", block), mock.patch.object(
        dsmetrics, "_ROW_ADD_COLS", row_add_cols
    ):
        tables = ds_sweep_fast(es, "a", "b", grid)
    ta, accepted_id, accepted_ood = _naive_tables(es, grid)
    assert tables.ta.dtype == tables.accepted_id.dtype == np.int64
    assert np.array_equal(tables.ta, ta)
    assert np.array_equal(tables.accepted_id, accepted_id)
    assert np.array_equal(tables.accepted_ood, accepted_ood)
    for i, j in picks:
        i, j = i % grid.id_thresholds.size, j % grid.ood_thresholds.size
        pair = ThresholdPair(float(grid.id_thresholds[i]), float(grid.ood_thresholds[j]))
        c = confusion_counts(es, "a", "b", pair)
        assert (c.ta, c.accepted_id, c.accepted_ood) == (
            tables.ta[i, j], tables.accepted_id[i, j], tables.accepted_ood[i, j]
        )


def _table_formulas(es, ta, accepted_id, accepted_ood):
    """F1, coverage and risk of every pair, computed on whole tables."""
    accepted = accepted_id + accepted_ood
    risk = np.divide(accepted - ta, accepted, out=np.zeros(ta.shape), where=accepted > 0)
    return 2.0 * ta / (accepted + es.n_id), accepted_id / es.n_id, risk


@settings(max_examples=150, deadline=None)
@given(
    case=_sweep_cases(),
    block=st.sampled_from([1, 3, 64, 1 << 16]),
    row_add_cols=st.sampled_from([1, 1 << 30]),
    k_bins=st.integers(1, 12),
)
def test_block_reductions_match_table_formulas(case, block, row_add_cols, k_bins):
    """At any block size, the streamed metrics and the tables equal the whole-table results."""
    es, grid = case
    with mock.patch.object(dsmetrics, "_BLOCK_CELLS", block), mock.patch.object(
        dsmetrics, "_ROW_ADD_COLS", row_add_cols
    ):
        f1, aurc_result = ds_metrics(es, "a", "b", grid, k_bins)
        alone = ds_f1(es, "a", "b", grid), ds_aurc(es, "a", "b", grid, k_bins)
        tables = ds_sweep_fast(es, "a", "b", grid)
    naive = _naive_tables(es, grid)
    for table, expected in zip((tables.ta, tables.accepted_id, tables.accepted_ood), naive):
        assert np.array_equal(table, expected)
    f1_table, coverage, risk = _table_formulas(es, *naive)
    best = float(f1_table.max())
    rows, cols = np.nonzero(f1_table == best)
    j = int(cols.min())
    i = int(rows[cols == j].min())
    assert f1.value == best
    assert f1.best_pair == ThresholdPair(
        float(grid.id_thresholds[i]), float(grid.ood_thresholds[j])
    )
    curve = bin_risk_points(coverage.ravel(), risk.ravel(), k_bins)
    assert np.array_equal(aurc_result.curve.values, curve.values)
    assert np.array_equal(aurc_result.curve.filled, curve.filled)
    assert aurc_result.value == float(np.sum(curve.values)) / k_bins
    assert alone[0] == f1 and alone[1].value == aurc_result.value


@settings(max_examples=150, deadline=None)
@given(
    case=_sweep_cases(),
    block=st.sampled_from([1, 3, 64, 1 << 16]),
    row_add_cols=st.sampled_from([1, 1 << 30]),
    k_bins=st.integers(1, 12),
)
def test_sentinel_lines_equal_single_scores(case, block, row_add_cols, k_bins):
    """Column 0 and row 0 of the sweep give the single-threshold metrics exactly,
    wherever the first threshold on the other axis accepts every sample."""
    es, grid = case
    with mock.patch.object(dsmetrics, "_BLOCK_CELLS", block), mock.patch.object(
        dsmetrics, "_ROW_ADD_COLS", row_add_cols
    ):
        f1, aurc_result = ds_metrics(es, "a", "b", grid, k_bins)
        alone = ds_f1(es, "a", "b", grid), ds_aurc(es, "a", "b", grid, k_bins)
    lines = [
        ("id_only", "a", grid.id_thresholds, grid.ood_thresholds[0] <= es.channel("b").min()),
        ("ood_only", "b", grid.ood_thresholds, grid.id_thresholds[0] <= es.channel("a").min()),
    ]
    for name, channel, axis, exists in lines:
        results = [getattr(r, name) for r in (f1, aurc_result, *alone)]
        if not exists:
            assert results == [None] * 4
            continue
        value, tau = best_f1_single(es, channel, axis)
        area = aurc(risk_coverage_curve(es, channel, axis), k_bins)
        at = "tau_id" if name == "id_only" else "tau_ood"
        for best in (results[0], results[2]):
            assert best.value == value and getattr(best.best_pair, at) == tau
        assert results[1].value == area and results[3].value == area


def test_no_lines_without_an_accept_all_threshold(fixture_set):
    built = ThresholdGrid.exhaustive(fixture_set, "s_id", "s_ood")
    grid = ThresholdGrid(built.id_thresholds[2:], built.ood_thresholds[2:])
    f1, aurc_result = ds_metrics(fixture_set, "s_id", "s_ood", grid, 4)
    assert f1.id_only is f1.ood_only is aurc_result.id_only is aurc_result.ood_only is None
    # the data, not how the grid was built, decides: a grid's minimum accepts all
    full = ThresholdGrid(built.id_thresholds[1:], built.ood_thresholds[1:])
    assert ds_f1(fixture_set, "s_id", "s_ood", full).id_only.value == pytest.approx(2 / 3)


@pytest.mark.parametrize("sweep", [ds_sweep_fast, ds_metrics])
def test_sweep_refuses_oversized_grid_before_allocating(fixture_set, sweep):
    axis = np.arange(100_000, dtype=np.float64)
    grid = ThresholdGrid(axis, axis.copy())
    tracemalloc.start()
    try:
        with pytest.raises(GridTooLarge, match="100000 x 100000 threshold grid"):
            sweep(fixture_set, "s_id", "s_ood", grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_sweep_takes_the_cell_budget_exactly(fixture_set):
    grid = ThresholdGrid(np.arange(9, dtype=np.float64), np.array([0.0]))  # 10 x 2 cells
    with mock.patch.object(dsmetrics, "MAX_SWEEP_CELLS", 20):
        assert ds_sweep_fast(fixture_set, "s_id", "s_ood", grid).ta.shape == (9, 1)
    with mock.patch.object(dsmetrics, "MAX_SWEEP_CELLS", 19):
        with pytest.raises(GridTooLarge):
            ds_sweep_fast(fixture_set, "s_id", "s_ood", grid)
        with pytest.raises(GridTooLarge):
            ds_f1(fixture_set, "s_id", "s_ood", grid)


def _pair_surface(eval_set, ch_id, ch_ood, grid):
    return ds_metrics(eval_set, ch_id, ch_ood, grid, return_surface=True)[0].surface


@pytest.mark.parametrize("tables", [ds_sweep_fast, _pair_surface])
def test_tables_over_their_budget_refused_before_allocating(fixture_set, tables):
    # within the streamed sweep's budget: only the tables are refused
    axis = np.arange(4097, dtype=np.float64)
    grid = ThresholdGrid(axis, axis.copy())
    assert dsmetrics.MAX_TABLE_CELLS < 4098 * 4098 <= dsmetrics.MAX_SWEEP_CELLS
    tracemalloc.start()
    try:
        with pytest.raises(GridTooLarge, match="4097 x 4097 threshold grid .* 16777216;"):
            tables(fixture_set, "s_id", "s_ood", grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_tables_take_their_budget_exactly(fixture_set):
    grid = ThresholdGrid(np.arange(9, dtype=np.float64), np.array([0.0]))  # 10 x 2 cells
    with mock.patch.object(dsmetrics, "MAX_TABLE_CELLS", 20):
        assert ds_sweep_fast(fixture_set, "s_id", "s_ood", grid).ta.shape == (9, 1)
        assert _pair_surface(fixture_set, "s_id", "s_ood", grid).coverage.shape == (9, 1)
    with mock.patch.object(dsmetrics, "MAX_TABLE_CELLS", 19):
        for tables in (ds_sweep_fast, _pair_surface):
            with pytest.raises(GridTooLarge, match="20 cells .* above the budget of 19;"):
                tables(fixture_set, "s_id", "s_ood", grid)
        # a streamed sweep holds no table
        assert ds_metrics(fixture_set, "s_id", "s_ood", grid)[0].surface is None


@pytest.mark.parametrize("reduce", [ds_aurc, ds_metrics])
def test_coverage_bins_over_the_budget_refused_before_allocating(fixture_set, reduce):
    grid = ThresholdGrid.quantile(fixture_set, "s_id", "s_ood")
    tracemalloc.start()
    try:
        with pytest.raises(GridTooLarge, match="1000000000000 coverage bins"):
            reduce(fixture_set, "s_id", "s_ood", grid, k_bins=10**12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_coverage_bins_take_the_budget_exactly(fixture_set):
    grid = ThresholdGrid(np.arange(9, dtype=np.float64), np.array([0.0]))  # 10 x 2 cells
    with mock.patch.object(dsmetrics, "MAX_SWEEP_CELLS", 20):
        assert ds_aurc(fixture_set, "s_id", "s_ood", grid, k_bins=20).curve.k_bins == 20
        with pytest.raises(GridTooLarge):
            ds_aurc(fixture_set, "s_id", "s_ood", grid, k_bins=21)


def test_eval_metrics_peak_memory():
    """Streamed DS-F1 and DS-AURC hold less than one int64 count table at once."""
    rng = np.random.default_rng(5)
    n = 20_000
    es = EvalSet.from_columns(
        [f"s{i}" for i in range(n)],
        rng.random(n) < 0.6,
        rng.random(n) < 0.7,
        {"a": rng.normal(size=n), "b": rng.normal(size=n)},
    )
    grid = ThresholdGrid.quantile(es, "a", "b", t_grid=2048)
    assert grid.id_thresholds.size == grid.ood_thresholds.size == 2049
    table_bytes = 2049 * 2049 * 8  # 33.6 MB
    tracemalloc.start()
    try:
        ds_f1(es, "a", "b", grid)
        ds_aurc(es, "a", "b", grid, k_bins=200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < table_bytes


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
