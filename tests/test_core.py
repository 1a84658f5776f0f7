import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dseval import (
    EvalSet,
    MissingCorrectness,
    MixedSchema,
    NonFiniteScore,
    Origin,
    SampleRecord,
    ThresholdPair,
    UnknownChannel,
    accept_all_threshold,
    acceptance_set,
    build_eval_set,
)
from dseval import core
from conftest import make_random_set


def _rec(sid, origin, correct, a, b):
    return SampleRecord(sid, origin, correct, {"a": a, "b": b})


class TestBuildEvalSet:
    def test_counts(self):
        records = [_rec(f"i{k}", Origin.ID, True, 0.1 * k, 0.2) for k in range(3)]
        records += [_rec(f"o{k}", Origin.OOD, None, 0.5, 0.1) for k in range(2)]
        es = build_eval_set(records)
        assert es.n_id == 3 and es.n_ood == 2 and es.n_total == 5
        assert es.channel_names == ("a", "b")
        assert [r.sample_id for r in es.records] == ["i0", "i1", "i2", "o0", "o1"]

    def test_id_without_correct(self):
        with pytest.raises(MissingCorrectness):
            build_eval_set([_rec("x", Origin.ID, None, 0.0, 0.0)])

    def test_ood_with_correct(self):
        records = [
            _rec("i", Origin.ID, True, 0.0, 0.0),
            _rec("o", Origin.OOD, True, 0.0, 0.0),
        ]
        with pytest.raises(MissingCorrectness):
            build_eval_set(records)

    def test_nan_score(self):
        with pytest.raises(NonFiniteScore):
            build_eval_set([_rec("x", Origin.ID, True, float("nan"), 0.0)])

    def test_inf_score(self):
        with pytest.raises(NonFiniteScore):
            build_eval_set([_rec("x", Origin.ID, True, float("inf"), 0.0)])

    def test_mixed_channels(self):
        records = [
            _rec("i", Origin.ID, True, 0.0, 0.0),
            SampleRecord("j", Origin.ID, True, {"a": 0.0, "c": 1.0}),
        ]
        with pytest.raises(MixedSchema):
            build_eval_set(records)

    def test_empty(self):
        with pytest.raises(MixedSchema):
            build_eval_set([])

    def test_needs_an_id_record(self):
        with pytest.raises(MissingCorrectness):
            build_eval_set([_rec("o", Origin.OOD, None, 0.0, 0.0)])

    def test_columns_are_read_only(self):
        es = build_eval_set([_rec("i", Origin.ID, True, 0.0, 0.0)])
        with pytest.raises(ValueError):
            es.channel("a")[0] = 1.0
        for column in (es.sample_ids, es.is_id, es.id_correct):
            with pytest.raises(ValueError):
                column[0] = column[0]

    def test_repeated_sample_id_names_first_repeat(self):
        records = [
            _rec("x", Origin.ID, True, 0.0, 0.0),
            _rec("y", Origin.OOD, None, 0.0, 0.0),
            _rec("y", Origin.ID, False, 1.0, 1.0),
            _rec("x", Origin.OOD, None, 1.0, 1.0),
        ]
        with pytest.raises(MixedSchema, match="sample id 'y' appears more than once"):
            build_eval_set(records)


class TestFromColumns:
    def test_columns(self):
        es = EvalSet.from_columns(
            ["i0", "i1", "o0"], [True, True, False], [True, False, True], {"a": [1.0, 2.0, 3.0]}
        )
        assert es.sample_ids.tolist() == ["i0", "i1", "o0"]
        assert es.is_id.tolist() == [True, True, False]
        # correctness is read at ID rows only
        assert es.id_correct.tolist() == [True, False, False]
        assert es.channel("a").tolist() == [1.0, 2.0, 3.0]
        assert es.n_id == 2 and es.n_ood == 1 and len(es) == 3

    def test_inputs_are_copied(self):
        scores = np.array([1.0, 2.0])
        is_id = np.array([True, False])
        es = EvalSet.from_columns(["a", "b"], is_id, [True, False], {"s": scores})
        scores[0] = 9.0
        is_id[1] = True
        assert scores.flags.writeable and is_id.flags.writeable
        assert es.channel("s").tolist() == [1.0, 2.0] and es.n_id == 1

    def test_records_are_derived_once_on_first_read(self):
        es = EvalSet.from_columns(["a", "b"], [True, False], [False, True], {"s": [1.0, 2.0]})
        assert "records" not in vars(es)
        assert es.records == (
            SampleRecord("a", Origin.ID, False, {"s": 1.0}),
            SampleRecord("b", Origin.OOD, None, {"s": 2.0}),
        )
        assert es.records is es.records

    @pytest.mark.parametrize(
        "ids, is_id, correct, channels, error, needle",
        [
            ([], [], [], {"a": []}, MixedSchema, "zero records"),
            (["i", "o"], [True], [True, False], {"a": [0.0, 0.0]}, MixedSchema, "one entry"),
            (["i", "o"], [True, False], [True, False], {"a": [0.0]}, MixedSchema, "one entry"),
            (["i"], [True], [True], {"a": [0.0], "b": [np.inf]}, NonFiniteScore,
             "record 'i' channel 'b' has non-finite score inf"),
            (["o"], [False], [False], {"a": [0.0]}, MissingCorrectness, "at least one ID"),
            (["a", "b", "b", "a"], [True] * 4, [True] * 4, {"s": [0.0] * 4}, MixedSchema,
             "sample id 'b' appears more than once"),
            # a numpy string column would store these as 'a' and ''
            (["a\0", "b"], [True, False], [True, False], {"s": [0.0, 0.0]}, MixedSchema,
             r"sample id 'a\\x00' ends in a NUL character"),
            (["b", "\0"], [True, False], [True, False], {"s": [0.0, 0.0]}, MixedSchema,
             r"sample id '\\x00' ends in a NUL character"),
        ],
    )
    def test_rejected(self, ids, is_id, correct, channels, error, needle):
        with pytest.raises(error, match=needle):
            EvalSet.from_columns(ids, is_id, correct, channels)

    def test_inner_nul_is_kept(self):
        es = EvalSet.from_columns(["a\0b", "c"], [True, False], [True, False], {"s": [0, 1]})
        assert es.sample_ids.tolist() == ["a\0b", "c"]

    def test_ids_are_held_as_given(self):
        ids = ["a", "b\0c", "d"]
        es = EvalSet.from_columns(ids, [True] * 3, [True] * 3, {"s": [0.0] * 3})
        assert es.sample_ids.dtype == object
        assert all(held is given for held, given in zip(es.sample_ids, ids))
        # other values are converted with str, numpy strings included
        es = EvalSet.from_columns(np.array(["x", "y"]), [True, False], [True, False], {"s": [0, 1]})
        assert [type(s) for s in es.sample_ids] == [str, str]
        es = EvalSet.from_columns([7, "7.5"], [True, False], [True, False], {"s": [0, 1]})
        assert es.sample_ids.tolist() == ["7", "7.5"]

    @pytest.mark.parametrize(
        "ids, repeat",
        [
            (["b", "a", "b", "a"], "b"),  # the first repeat by row, not by sort order
            (["z", "y", "x", "y", "z"], "y"),
            (["p", "q", "r"], None),
        ],
    )
    def test_equal_hashes_fall_back_to_comparing_ids(self, monkeypatch, ids, repeat):
        # every id hashes alike, so each pair must be told apart as strings
        monkeypatch.setattr(core, "_id_hashes", lambda sample_ids: np.zeros(len(sample_ids), np.int64))
        args = ([True] * len(ids), [True] * len(ids), {"s": np.zeros(len(ids))})
        if repeat is None:
            assert EvalSet.from_columns(ids, *args).sample_ids.tolist() == ids
        else:
            with pytest.raises(MixedSchema, match=f"sample id '{repeat}' appears more than once"):
                EvalSet.from_columns(ids, *args)

    def test_duplicate_check_peak_memory(self):
        """Checking 100k ids for repeats holds less than three id columns at once."""
        n = 100_000
        ids = [f"sample-{i}" for i in range(n)]
        id_bytes = np.array(ids, dtype=str).nbytes  # 4.8 MB
        flags = np.ones(n, dtype=bool)
        tracemalloc.start()
        try:
            EvalSet.from_columns(ids, flags, flags, {"a": np.zeros(n)})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * id_bytes


_record_lists = st.integers(1, 30).flatmap(
    lambda n: st.lists(
        st.tuples(
            st.sampled_from([(Origin.ID, True), (Origin.ID, False), (Origin.OOD, None)]),
            st.floats(-1e300, 1e300),
            st.floats(-1e300, 1e300),
        ),
        min_size=n,
        max_size=n,
    )
).filter(lambda rows: any(origin is Origin.ID for (origin, _), _a, _b in rows))


@settings(max_examples=60, deadline=None)
@given(rows=_record_lists)
def test_records_and_columns_agree(rows):
    records = [
        SampleRecord(f"s{k}", origin, correct, {"b": b, "a": a})
        for k, ((origin, correct), a, b) in enumerate(rows)
    ]
    from_records = build_eval_set(records)
    from_columns = EvalSet.from_columns(
        [r.sample_id for r in records],
        [r.origin is Origin.ID for r in records],
        [bool(r.correct) for r in records],
        {"b": [r.scores["b"] for r in records], "a": [r.scores["a"] for r in records]},
    )
    for es in (from_records, from_columns):
        assert es.channel_names == ("b", "a")
        assert es.sample_ids.tolist() == from_records.sample_ids.tolist()
        assert es.is_id.tolist() == from_records.is_id.tolist()
        assert es.id_correct.tolist() == from_records.id_correct.tolist()
        for ch in ("a", "b"):
            assert es.channel(ch).tobytes() == from_records.channel(ch).tobytes()
        assert es.records == tuple(records)


class TestAcceptanceSet:
    def test_fixture_pair(self, fixture_set):
        idx = acceptance_set(fixture_set, "s_id", "s_ood", ThresholdPair(0.75, 0.5))
        assert idx.tolist() == [0, 1]  # A and B

    def test_accept_all_sentinels(self, fixture_set):
        lo_id = accept_all_threshold(fixture_set.channel("s_id"))
        lo_ood = accept_all_threshold(fixture_set.channel("s_ood"))
        idx = acceptance_set(fixture_set, "s_id", "s_ood", ThresholdPair(lo_id, lo_ood))
        assert idx.tolist() == [0, 1, 2, 3, 4]

    def test_reject_all(self, fixture_set):
        hi = float(fixture_set.channel("s_id").max()) + 1.0
        idx = acceptance_set(fixture_set, "s_id", "s_ood", ThresholdPair(hi, 0.0))
        assert idx.size == 0

    def test_unknown_channel(self, fixture_set):
        with pytest.raises(UnknownChannel):
            acceptance_set(fixture_set, "nope", "s_ood", ThresholdPair(0.0, 0.0))

    def test_inclusive_comparisons(self, fixture_set):
        # thresholds exactly on B's scores keep B in
        idx = acceptance_set(fixture_set, "s_id", "s_ood", ThresholdPair(0.8, 0.8))
        assert idx.tolist() == [0, 1]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    bump_id=st.floats(0.0, 3.0),
    bump_ood=st.floats(0.0, 3.0),
)
def test_monotone_shrinkage(seed, bump_id, bump_ood):
    es = make_random_set(np.random.default_rng(seed))
    base = ThresholdPair(-1.0, -0.5)
    tighter = ThresholdPair(base.tau_id + bump_id, base.tau_ood + bump_ood)
    wide = set(acceptance_set(es, "a", "b", base).tolist())
    narrow = set(acceptance_set(es, "a", "b", tighter).tolist())
    assert narrow <= wide


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    tau_id_tenths=st.integers(-30, 30),
    tau_ood_tenths=st.integers(-30, 30),
)
def test_order_invariance_under_increasing_transform(seed, tau_id_tenths, tau_ood_tenths):
    # scores and thresholds live on a 0.1 lattice so the transforms stay
    # strictly increasing after float rounding
    raw = make_random_set(np.random.default_rng(seed))
    es = build_eval_set(
        [
            SampleRecord(
                r.sample_id,
                r.origin,
                r.correct,
                {ch: round(v, 1) for ch, v in r.scores.items()},
            )
            for r in raw.records
        ]
    )
    tau_id, tau_ood = tau_id_tenths / 10, tau_ood_tenths / 10
    before = acceptance_set(es, "a", "b", ThresholdPair(tau_id, tau_ood))

    transformed = build_eval_set(
        [
            SampleRecord(
                r.sample_id,
                r.origin,
                r.correct,
                {"a": float(np.exp(r.scores["a"])), "b": r.scores["b"] ** 3},
            )
            for r in es.records
        ]
    )
    after = acceptance_set(
        transformed, "a", "b", ThresholdPair(float(np.exp(tau_id)), tau_ood**3)
    )
    assert before.tolist() == after.tolist()


@pytest.mark.parametrize("low", [1e17, -1e17, 3e300, -1.7e308])
def test_accept_all_sentinel_at_huge_magnitudes(low):
    sentinel = accept_all_threshold([abs(low), low])
    assert sentinel < low
    assert sentinel == np.nextafter(low, -np.inf)


def test_accept_all_sentinel_is_min_minus_one():
    assert accept_all_threshold([0.25, -3.5, 7.0]) == -4.5
    assert accept_all_threshold([1e15]) == 1e15 - 1.0


def test_one_sentinel_reduces_to_single_axis(fixture_set):
    lo = accept_all_threshold(fixture_set.channel("s_ood"))
    pair = ThresholdPair(0.75, lo)
    idx = acceptance_set(fixture_set, "s_id", "s_ood", pair)
    expected = np.flatnonzero(fixture_set.channel("s_id") >= 0.75)
    assert idx.tolist() == expected.tolist()
