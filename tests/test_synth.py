import numpy as np
import pytest

from dseval import ThresholdGrid, auroc, aurc, best_f1_single, ds_f1, risk_coverage_curve
from dseval.synth import (
    CHANNEL_ID,
    CHANNEL_OOD,
    InvalidConfig,
    PopulationParams,
    SynthConfig,
    config_from_dict,
    config_to_dict,
    far_ood_config,
    generate,
    near_ood_config,
)


def test_determinism_same_seed():
    config = far_ood_config(50, 30, 0.8, seed=99)
    a = generate(config)
    b = generate(config)
    for ra, rb in zip(a.records, b.records):
        assert ra == rb
    assert np.array_equal(a.channel(CHANNEL_ID), b.channel(CHANNEL_ID))


def test_different_seeds_differ():
    a = generate(far_ood_config(50, 30, 0.8, seed=1))
    b = generate(far_ood_config(50, 30, 0.8, seed=2))
    assert np.any(a.channel(CHANNEL_ID) != b.channel(CHANNEL_ID))


def test_population_sizes_exact():
    config = far_ood_config(101, 17, id_accuracy=0.63, seed=5)
    es = generate(config)
    assert es.n_id == 101 and es.n_ood == 17
    assert int(es.id_correct.sum()) == round(101 * 0.63)


def test_perfect_accuracy_no_ood_gives_zero_risk():
    es = generate(far_ood_config(40, 0, id_accuracy=1.0, seed=3))
    grid = ThresholdGrid.exhaustive(es, CHANNEL_ID, CHANNEL_OOD)
    points = risk_coverage_curve(es, CHANNEL_ID, grid.id_thresholds)
    assert all(p.risk == 0.0 for p in points)
    assert aurc(points, 20) == 0.0


def test_far_preset_separates_ood():
    es = generate(far_ood_config(5000, 5000, 0.75, seed=12))
    col = es.channel(CHANNEL_OOD)
    value = auroc(col[es.is_id], col[~es.is_id])
    assert value >= 0.999


def test_near_gap_below_far_gap_in_most_seeds():
    def gap(config):
        es = generate(config)
        grid = ThresholdGrid.exhaustive(es, CHANNEL_ID, CHANNEL_OOD)
        double = ds_f1(es, CHANNEL_ID, CHANNEL_OOD, grid).value
        single = max(
            best_f1_single(es, CHANNEL_ID, grid.id_thresholds)[0],
            best_f1_single(es, CHANNEL_OOD, grid.ood_thresholds)[0],
        )
        return double - single

    hits = 0
    for seed in range(100):
        near = gap(near_ood_config(200, 200, 0.75, seed=7000 + seed))
        far = gap(far_ood_config(200, 200, 0.75, seed=7000 + seed))
        hits += near < far
    assert hits >= 95


def test_invalid_configs():
    with pytest.raises(InvalidConfig):
        generate(far_ood_config(0, 10))
    with pytest.raises(InvalidConfig):
        generate(far_ood_config(10, -1))
    with pytest.raises(InvalidConfig):
        generate(far_ood_config(10, 10, id_accuracy=0.0))
    bad_pop = PopulationParams(0.0, 0.0, std_s_id=-1.0)
    with pytest.raises(InvalidConfig):
        generate(
            SynthConfig(10, 10, 0.5, bad_pop, bad_pop, bad_pop, seed=0)
        )
    with pytest.raises(InvalidConfig):
        config_from_dict({"n_id": 5})
    with pytest.raises(InvalidConfig):
        generate(far_ood_config(10, 10, seed=-1))
    fields = config_to_dict(far_ood_config(10, 10))
    for key, value in [("n_id", "abc"), ("correct", {"mean_s_id": "abc", "mean_s_ood": 0}),
                       ("wrong", [1, 2]), ("ood", {"mean_s_id": None, "mean_s_ood": 0})]:
        with pytest.raises(InvalidConfig):
            config_from_dict({**fields, key: value})


def test_config_round_trip():
    config = near_ood_config(10, 20, 0.9, seed=42)
    assert config_from_dict(config_to_dict(config)) == config
