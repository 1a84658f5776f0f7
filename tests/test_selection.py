import numpy as np
import pytest

from dseval import (
    Origin,
    SampleRecord,
    ThresholdGrid,
    ThresholdPair,
    accept_all_threshold,
    build_eval_set,
)
from dseval.selection import SelectionMode, apply_thresholds, select_thresholds
from dseval.selection import test_opt as optimize_on_test
from dseval.synth import far_ood_config, generate


def test_fixture_double_mode(fixture_set):
    grid = ThresholdGrid.exhaustive(fixture_set, "s_id", "s_ood")
    result = select_thresholds(fixture_set, "s_id", "s_ood", grid)[SelectionMode.DOUBLE]
    assert result.f1 == pytest.approx(0.8)
    assert result.frozen == ThresholdPair(tau_id=0.8, tau_ood=0.1)
    # re-applying the frozen pair to the same data reproduces the value
    f1, counts = apply_thresholds(fixture_set, "s_id", "s_ood", result.frozen)
    assert f1 == pytest.approx(0.8)
    assert counts.ta == 2

    # the pair quoted with the fixture is another valid frozen choice
    f1_quoted, _ = apply_thresholds(
        fixture_set, "s_id", "s_ood", ThresholdPair(0.75, 0.5)
    )
    assert f1_quoted == pytest.approx(0.8)


def test_single_modes_fix_other_axis_at_sentinel(fixture_set):
    grid = ThresholdGrid.exhaustive(fixture_set, "s_id", "s_ood")
    results = select_thresholds(fixture_set, "s_id", "s_ood", grid)
    id_only = results[SelectionMode.ID_ONLY]
    assert id_only.f1 == pytest.approx(2 / 3)
    assert id_only.frozen.tau_id == 0.8
    assert id_only.frozen.tau_ood == accept_all_threshold(fixture_set.channel("s_ood"))
    ood_only = results[SelectionMode.OOD_ONLY]
    assert ood_only.f1 == pytest.approx(2 / 3)
    assert ood_only.frozen.tau_id == accept_all_threshold(fixture_set.channel("s_id"))


def test_all_correct_no_ood_gives_one_at_sentinels():
    records = [
        SampleRecord(f"i{k}", Origin.ID, True, {"a": float(k), "b": float(k)})
        for k in range(5)
    ]
    es = build_eval_set(records)
    grid = ThresholdGrid.exhaustive(es, "a", "b")
    results = select_thresholds(es, "a", "b", grid)
    for mode in SelectionMode:
        result = results[mode]
        assert result.f1 == 1.0
        assert result.frozen.tau_id <= es.channel("a").min()
        assert result.frozen.tau_ood <= es.channel("b").min()


def test_frozen_above_all_test_scores_gives_zero(fixture_set):
    f1, counts = apply_thresholds(
        fixture_set, "s_id", "s_ood", ThresholdPair(10.0, 10.0)
    )
    assert f1 == 0.0 and counts.accepted_total == 0


def test_double_val_dominates_single_modes():
    for seed in range(10):
        val = generate(far_ood_config(120, 120, 0.7, seed=400 + seed))
        grid = ThresholdGrid.exhaustive(val, "s_id", "s_ood")
        results = select_thresholds(val, "s_id", "s_ood", grid)
        assert (
            results[SelectionMode.DOUBLE].f1
            >= results[SelectionMode.ID_ONLY].f1 - 1e-12
        )
        assert (
            results[SelectionMode.DOUBLE].f1
            >= results[SelectionMode.OOD_ONLY].f1 - 1e-12
        )


def test_test_opt_dominates_transfer():
    for seed in range(10):
        val = generate(far_ood_config(120, 120, 0.7, seed=800 + 2 * seed))
        test = generate(far_ood_config(120, 120, 0.7, seed=800 + 2 * seed + 1))
        val_grid = ThresholdGrid.exhaustive(val, "s_id", "s_ood")
        test_grid = ThresholdGrid.exhaustive(test, "s_id", "s_ood")
        picked = select_thresholds(val, "s_id", "s_ood", val_grid)[SelectionMode.DOUBLE]
        transferred, _ = apply_thresholds(test, "s_id", "s_ood", picked.frozen)
        opt = optimize_on_test(test, "s_id", "s_ood", test_grid)[SelectionMode.DOUBLE]
        assert opt.f1 >= transferred


def test_grid_without_single_lines_is_refused(fixture_set):
    # the first threshold on each axis rejects the lowest sample
    built = ThresholdGrid.exhaustive(fixture_set, "s_id", "s_ood")
    grid = ThresholdGrid(built.id_thresholds[2:], built.ood_thresholds[2:])
    with pytest.raises(ValueError, match="single modes"):
        select_thresholds(fixture_set, "s_id", "s_ood", grid)
