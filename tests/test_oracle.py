import numpy as np
import pytest

from dseval import Origin, SampleRecord, ThresholdGrid, build_eval_set, ds_f1
from dseval.oracle import CapExceeded, oracle_auroc, oracle_ds_aurc, oracle_ds_f1
from conftest import make_random_set


def test_fixture_value(fixture_set):
    value, pair = oracle_ds_f1(fixture_set, "s_id", "s_ood")
    assert value == pytest.approx(0.8)
    assert (pair.tau_id, pair.tau_ood) == (0.8, 0.1)


def test_single_correct_id_sample():
    es = build_eval_set([SampleRecord("i", Origin.ID, True, {"a": 1.0, "b": 1.0})])
    value, _ = oracle_ds_f1(es, "a", "b")
    assert value == 1.0


def test_accept_all_floor():
    # a maximally permissive pair is always enumerated, so the oracle can
    # never return less than the accept-all F1
    rng = np.random.default_rng(4)
    for _ in range(10):
        es = make_random_set(rng, n=12)
        n_correct = int(es.id_correct.sum())
        accept_all_f1 = 2 * n_correct / (es.n_total + es.n_id)
        value, _ = oracle_ds_f1(es, "a", "b")
        assert value >= accept_all_f1 - 1e-15


def test_huge_magnitudes_match_the_sweep():
    # at |score| ~ 1e17, min - 1 == min: the accept-all sentinel must still
    # sit strictly below every score on both paths
    rng = np.random.default_rng(8)
    raw = make_random_set(rng, n=25)
    es = build_eval_set(
        [
            SampleRecord(r.sample_id, r.origin, r.correct, {
                "a": 1e17 + 16.0 * round(r.scores["a"]),
                "b": -1e17 + 16.0 * round(r.scores["b"]),
            })
            for r in raw.records
        ]
    )
    grid = ThresholdGrid.exhaustive(es, "a", "b")
    assert grid.id_thresholds[0] < es.channel("a").min()
    assert grid.ood_thresholds[0] < es.channel("b").min()
    fast = ds_f1(es, "a", "b", grid)
    value, pair = oracle_ds_f1(es, "a", "b")
    assert fast.value == value
    assert fast.best_pair == pair


def test_cap_enforced():
    rng = np.random.default_rng(6)
    es = make_random_set(rng, n=30)
    with pytest.raises(CapExceeded):
        oracle_ds_f1(es, "a", "b", cap=10)
    with pytest.raises(CapExceeded):
        oracle_ds_aurc(es, "a", "b", 5, cap=10)


def test_aurc_trivial_cases():
    records = [
        SampleRecord(f"i{k}", Origin.ID, True, {"a": float(k), "b": float(k)})
        for k in range(4)
    ]
    assert oracle_ds_aurc(build_eval_set(records), "a", "b", 5) == 0.0

    constant = [
        SampleRecord("i0", Origin.ID, True, {"a": 1.0, "b": 1.0}),
        SampleRecord("i1", Origin.ID, False, {"a": 1.0, "b": 1.0}),
        SampleRecord("o0", Origin.OOD, None, {"a": 1.0, "b": 1.0}),
    ]
    # every candidate pair accepts everything: a single-point curve at risk 2/3
    es = build_eval_set(constant)
    assert oracle_ds_aurc(es, "a", "b", 1) == pytest.approx(2 / 3)
    assert oracle_ds_aurc(es, "a", "b", 10) == pytest.approx(2 / 3)


def test_oracle_auroc_extremes():
    assert oracle_auroc([2, 3], [0, 1]) == 1.0
    assert oracle_auroc([0, 1], [2, 3]) == 0.0
    assert oracle_auroc([1, 1], [1, 1]) == 0.5
