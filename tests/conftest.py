from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import settings

from dseval import Origin, SampleRecord, build_eval_set, dsmetrics

# A failing randomized property prints the blob that replays it
# (@reproduce_failure). The profile extends the one already loaded, which on
# CI runners is Hypothesis's own `ci` profile, and tests that set their own
# @settings keep it.
settings.register_profile("print-blob", settings.default, print_blob=True)
settings.load_profile("print-blob")

# Hand-checked five-record set: two correct ID samples sit on top of both
# channels, the misclassified ID sample C fools the OOD channel, and the OOD
# sample Y fools the ID channel, so neither single threshold can isolate
# {A, B} but the pair (0.75, 0.5) can.
FIXTURE_ROWS = [
    ("A", Origin.ID, True, 0.9, 0.9),
    ("B", Origin.ID, True, 0.8, 0.8),
    ("C", Origin.ID, False, 0.7, 0.8),
    ("X", Origin.OOD, None, 0.6, 0.1),
    ("Y", Origin.OOD, None, 0.95, 0.05),
]


def make_fixture_set():
    return build_eval_set(
        [
            SampleRecord(sid, origin, correct, {"s_id": s_id, "s_ood": s_ood})
            for sid, origin, correct, s_id, s_ood in FIXTURE_ROWS
        ]
    )


def make_random_set(rng, n=None, quantize_prob=0.5, accuracy=0.7):
    """Small random mixed set; half the time scores are rounded to force ties."""
    if n is None:
        n = int(rng.integers(5, 41))
    n_id = int(rng.integers(1, n)) if n > 1 else 1
    quantize = rng.random() < quantize_prob
    records = []
    for i in range(n):
        pair = rng.normal(0.0, 2.0, size=2)
        if quantize:
            pair = np.round(pair)
        scores = {"a": float(pair[0]), "b": float(pair[1])}
        if i < n_id:
            records.append(
                SampleRecord(f"id{i}", Origin.ID, bool(rng.random() < accuracy), scores)
            )
        else:
            records.append(SampleRecord(f"ood{i}", Origin.OOD, None, scores))
    return build_eval_set(records)


def count_tables(eval_set, ch_id, ch_ood, grid, *consumers):
    """The TA, accepted-ID and accepted-OOD count of every pair, as int64
    tables filled from the count engine's blocks; ``consumers`` see the same
    blocks. A cell the engine never hands on keeps TA and accepted ID -1,
    which no count equals."""
    shape = grid.id_thresholds.size, grid.ood_thresholds.size
    tables = [np.full(shape, -1, dtype=np.int64) for _ in range(3)]

    def fill(start, *block):
        for table, part in zip(tables, block):
            table[start : start + len(part)] = part

    dsmetrics._sweep(eval_set, ch_id, ch_ood, grid, fill, *consumers)
    ta, accepted_id, accepted = tables
    return SimpleNamespace(ta=ta, accepted_id=accepted_id, accepted_ood=accepted - accepted_id)


@pytest.fixture
def fixture_set():
    return make_fixture_set()
