"""The benchmark's tracer must find every name it wraps in the current modules.

``perfbench/spans.py`` wraps functions where their callers look them up, so
a name the program stops binding breaks ``perfbench/run.py --trace 1``.
This file only reads ``perfbench/``.
"""

import importlib.util
from pathlib import Path

from dseval.cli import main
from dseval.ingest import write_scores
from conftest import make_fixture_set

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    spans = _load_spans()
    originals = [spans._resolve(module, attr)[2] for module, attr, _, _ in spans.WRAPPED]
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = [spans._resolve(module, attr)[2] for module, attr, _, _ in spans.WRAPPED]
        assert all(w is not o for w, o in zip(wrapped, originals))
    finally:
        tracer.uninstall()
    restored = [spans._resolve(module, attr)[2] for module, attr, _, _ in spans.WRAPPED]
    assert all(r is o for r, o in zip(restored, originals))


def test_traced_eval_records_its_one_sweep(tmp_path):
    """A ``--surface`` eval runs under the tracer and writes its surface once."""
    spans = _load_spans()
    scores = tmp_path / "scores.csv"
    write_scores(make_fixture_set(), scores)
    tracer = spans.Tracer()
    tracer.install()
    try:
        argv = ["eval", "--scores", str(scores), "--id-channel", "s_id",
                "--ood-channel", "s_ood", "--surface", str(tmp_path / "s.csv"),
                "--out", str(tmp_path / "r.json")]
        assert main(argv) == 0
    finally:
        tracer.uninstall()
    names = [span[spans.NAME] for span in tracer.spans]
    assert names.count("ingest.load_scores") == 1
    assert names.count("ingest.write_curve") == 1
