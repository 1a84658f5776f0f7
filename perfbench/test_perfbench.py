"""Self-tests of the benchmark; run with ``python3 -m pytest perfbench`` from the root."""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._import_program()
import spans  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SMALL = {
    "synth-eval-100k": functools.partial(workloads.SynthEval, n_id=400, n_ood=300),
    "grid-2048": functools.partial(workloads.GridSweep, n_id=300, n_ood=200, grid=64),
    "score-all": functools.partial(workloads.ScoreAll, n_side=60, n_fit=200),
}


def _quiet(*_):
    pass


def _originals():
    return [spans._resolve(m, a)[2] for m, a, _, _ in spans.WRAPPED]


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in BENCH["per_layer"]] == list(spans.UNITS)
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == spans.UNITS


@pytest.mark.parametrize("name", list(SMALL))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run(name, trace, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    before = _originals()
    result = run.run(SMALL[name], seed=5, seconds=0, trace=trace, digests=None, log=_quiet)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == (2 if trace else 1)
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    # wrappers are gone after a traced run and never installed in an untraced one
    assert all(a is b for a, b in zip(_originals(), before))


def test_untraced_run_installs_nothing(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    before = _originals()
    installs = []
    monkeypatch.setattr(spans.Tracer, "install", lambda self: installs.append(self))
    run.run(SMALL["synth-eval-100k"], seed=1, seconds=0, trace=False, digests=None, log=_quiet)
    assert installs == []
    assert all(a is b for a, b in zip(_originals(), before))
    import dseval.cli

    assert dseval.cli.load_scores is dseval.ingest.load_scores


def test_digest_mismatch_fails_the_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    result = run.run(
        SMALL["synth-eval-100k"], seed=1, seconds=0, trace=False,
        digests={"scores.csv": "0" * 64}, log=_quiet,
    )
    assert not result["correct"] and result["failed"] == 1 and result["attempted"] == 2


def test_score_check_catches_a_wrong_value(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    w = SMALL["score-all"](seed=2)
    w.setup()
    w.n_sampled = 2 * w.n_side  # every row
    loop = run.Loop(w)
    loop.op()
    assert loop.failed == 0 and w.check(0) == []
    w.features = w.features.copy()
    w.features[3] += 1.0
    assert any("row 3" in p for p in w.check(0))


def test_op_times_are_scaled_by_the_kernel_around_them(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    kernels = iter([[0.05] * 3, [0.1] * 3, [0.2] * 3])
    monkeypatch.setattr(run, "kernel_times", lambda: next(kernels))
    w = SMALL["synth-eval-100k"](seed=3)
    w.setup()
    loop = run.Loop(w)
    loop.op()
    loop.op()
    # each op is scaled by the median of the kernel times just before and after it
    assert loop.op_ref_s[0] == pytest.approx(loop.op_s[0] * run.KERNEL_REF_S / 0.075)
    assert loop.op_ref_s[1] == pytest.approx(loop.op_s[1] * run.KERNEL_REF_S / 0.15)
    assert sum(loop.step_ref_s[label][1] for label in loop.step_ref_s) == pytest.approx(
        loop.op_ref_s[1])


def _span(name, parent, start, end, minflt=0, counts=None):
    return [name, 0, parent, start, end, minflt, counts]


def test_self_time_on_a_toy_tree():
    #   cli.main [0, 10]
    #     dsmetrics.ds_f1 [1, 6]
    #       dsmetrics.sweep [2, 5]
    #     ingest.write_report [7, 8]
    toy = [
        _span("cli.main", None, 0.0, 10.0, minflt=100),
        _span("dsmetrics.ds_f1", 0, 1.0, 6.0, minflt=40),
        _span("dsmetrics.sweep", 1, 2.0, 5.0, minflt=30,
              counts={"dsmetrics.sweep.cells": 12}),
        _span("ingest.write_report", 0, 7.0, 8.0, minflt=5),
    ]
    assert spans.self_times(toy) == [4.0, 2.0, 3.0, 1.0]
    m = spans.layer_metrics(toy + toy, n_ops=2)
    assert m["cli.self_s"] == 4.0 and m["dsmetrics.ds_f1.self_s"] == 2.0
    assert m["dsmetrics.sweep.s"] == 3.0 and m["ingest.write_report.s"] == 1.0
    assert m["dsmetrics.sweep.calls"] == 1 and m["dsmetrics.sweep.cells"] == 12
    # only the outermost dsmetrics span counts, so the sweep's faults are not doubled
    assert m["dsmetrics.minflt"] == 40
    assert m["scoring.knn.s"] == 0
    # wrapper cost outside each child's interval is taken off its ancestors
    assert spans.self_times(toy, span_cost=0.5) == [3.0, 1.5, 3.0, 1.0]
    assert spans.durations(toy, span_cost=0.5) == [8.5, 4.5, 3.0, 1.0]
    m = spans.layer_metrics(toy, n_ops=1, span_cost=0.5)
    assert m["cli.self_s"] == 3.0 and m["dsmetrics.ds_f1.self_s"] == 1.5
    assert m["trace.span_cost_s"] == 0.5


def test_span_cost_is_measured():
    cost = spans.Tracer(wrapped=[]).span_cost(calls=2_000, repeats=3)
    assert 0.0 < cost < 1e-3


def test_live_spans_nest_and_carry_op_ids():
    tracer = spans.Tracer(wrapped=[])
    inner = tracer.wrap(lambda x: x + 1, "core.inner")
    outer = tracer.wrap(lambda x: inner(x) * 2, "dsmetrics.outer")
    tracer.op_id = 7
    assert tracer.call("cli.main", outer, (1,)) == 4
    names = [s[spans.NAME] for s in tracer.spans]
    assert names == ["cli.main", "dsmetrics.outer", "core.inner"]
    assert [s[spans.PARENT] for s in tracer.spans] == [None, 0, 1]
    assert {s[spans.OP] for s in tracer.spans} == {7}
    for parent, child in ((0, 1), (1, 2)):
        p, c = tracer.spans[parent], tracer.spans[child]
        assert p[spans.START] <= c[spans.START] <= c[spans.END] <= p[spans.END]


def test_percentile_needs_ten_samples_beyond():
    assert "no percentile" in run.percentile_line([1.0] * 19)
    assert "p50" in run.percentile_line([float(i) for i in range(20)])
    assert "p90" in run.percentile_line([float(i) for i in range(100)])


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-2048", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
