"""Outside-in tracing of dseval: wrap public functions where their callers look them up.

Each wrapper records one span per call: name, start, end, parent span, op id,
the ``ru_minflt`` delta of this process across the call, and optional counts.
Spans stay in memory until :meth:`Tracer.write`. Nothing under ``src/`` is
changed; :meth:`Tracer.uninstall` puts every original object back, and an
untraced run never calls :meth:`Tracer.install`.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import resource
import statistics
import time

# Span layout (lists, not dicts, so 100k spans per op stay cheap).
NAME, OP, PARENT, START, END, MINFLT, COUNTS = range(7)

ROOT_SPAN = "cli.main"


def _count_rows(args, kwargs, result):
    return {"core.build_eval_set.rows": len(result)}


def _count_read(args, kwargs, result):
    return {"ingest.bytes_read": os.path.getsize(args[0])}


def _count_written(args, kwargs, result):
    return {"ingest.bytes_written": os.path.getsize(args[1])}


def _count_curve(args, kwargs, result):
    curve = args[0]
    rows = curve.f1.size if hasattr(curve, "f1") else len(curve)
    return {"ingest.write_curve.rows": rows, "ingest.bytes_written": os.path.getsize(args[1])}


def _count_sweep(args, kwargs, result):
    tables = (result.ta, result.accepted_id, result.accepted_ood)
    return {
        "dsmetrics.sweep.cells": result.ta.size,
        "dsmetrics.sweep.bytes": sum(t.nbytes for t in tables),
    }


def _count_grid(args, kwargs, result):
    return {"dsmetrics.grid.cells": result.id_thresholds.size * result.ood_thresholds.size}


def _count_points(args, kwargs, result):
    return {"metrics_single.points": len(result)}


SCORE_FUNCS = (
    "msp", "max_logit", "energy", "neg_entropy", "softmax", "klm", "mahalanobis",
    "knn_score", "l1_feature_norm", "residual_score", "vim", "sirc_combine",
)
FIT_FUNCS = (
    "fit_class_templates", "fit_gaussian_stats", "build_feature_bank",
    "fit_principal_subspace", "fit_vim_alpha", "fit_sirc_params",
)

# (module the caller lives in, attribute as that module sees it, span name, counts)
# A span is named after the layer (module) that defines the callee.
WRAPPED = [
    ("dseval.cli", "load_scores", "ingest.load_scores", _count_read),
    ("dseval.cli", "load_logits", "ingest.load_logits", _count_read),
    ("dseval.cli", "load_features", "ingest.load_features", _count_read),
    ("dseval.cli", "write_scores", "ingest.write_scores", _count_written),
    ("dseval.cli", "write_report", "ingest.write_report", _count_written),
    ("dseval.cli", "write_curve", "ingest.write_curve", _count_curve),
    ("dseval.cli", "build_eval_set", "core.build_eval_set", _count_rows),
    ("dseval.ingest", "build_eval_set", "core.build_eval_set", _count_rows),
    ("dseval.synth", "build_eval_set", "core.build_eval_set", _count_rows),
    ("dseval.cli", "generate", "synth.generate", None),
    ("dseval.dsmetrics", "ThresholdGrid.quantile", "dsmetrics.grid", _count_grid),
    ("dseval.cli", "ds_f1", "dsmetrics.ds_f1", None),
    ("dseval.cli", "ds_aurc", "dsmetrics.ds_aurc", None),
    ("dseval.selection", "ds_f1", "dsmetrics.ds_f1", None),
    ("dseval.selection", "confusion_counts", "dsmetrics.confusion_counts", None),
    ("dseval.dsmetrics", "ds_sweep_fast", "dsmetrics.sweep", _count_sweep),
    ("dseval.cli", "best_f1_single", "metrics_single.best_f1_single", None),
    ("dseval.selection", "best_f1_single", "metrics_single.best_f1_single", None),
    ("dseval.cli", "risk_coverage_curve", "metrics_single.risk_coverage_curve", _count_points),
    ("dseval.cli", "aurc", "metrics_single.aurc", None),
    ("dseval.cli", "auroc", "metrics_single.auroc", None),
    ("dseval.cli", "fpr_at_tpr", "metrics_single.fpr_at_tpr", None),
    ("dseval.cli", "aupr", "metrics_single.aupr", None),
    ("dseval.cli", "select_thresholds", "selection.select_thresholds", None),
    ("dseval.cli", "apply_thresholds", "selection.apply_thresholds", None),
    ("dseval.cli", "test_opt", "selection.test_opt", None),
    ("dseval.selection", "select_thresholds", "selection.select_thresholds", None),
] + [("dseval.cli", f, f"scoring.{f}", None) for f in SCORE_FUNCS + FIT_FUNCS]


def _resolve(module_name: str, attr: str):
    """Return (owner, name, original) where owner.__dict__[name] is the original."""
    owner = importlib.import_module(module_name)
    *outer, name = attr.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name, vars(owner)[name]


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class Tracer:
    """Collects spans from the wrappers it installs."""

    def __init__(self, wrapped=WRAPPED):
        self.wrapped = wrapped
        self.spans: list[list] = []
        self.op_id = None
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def call(self, name: str, fn, args=(), kwargs=None, counts=None):
        """Run ``fn(*args, **kwargs)`` in a span named ``name`` under the open span."""
        kwargs = kwargs or {}
        spans, stack = self.spans, self._stack
        span = [name, self.op_id, stack[-1] if stack else None, 0.0, 0.0, 0, None]
        stack.append(len(spans))
        spans.append(span)
        flt = _minflt()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[END] = time.perf_counter()
            span[START] = start
            span[MINFLT] = _minflt() - flt
            stack.pop()
        if counts is not None:
            span[COUNTS] = counts(args, kwargs, result)
        return result

    def span_cost(self, calls: int = 20_000, repeats: int = 5) -> float:
        """Seconds one wrapped call costs its caller outside the span's own interval.

        That cost (span bookkeeping, two ``getrusage`` calls, the wrapper's own
        call) lands in the parent's self time. Measured on a no-op through a
        scratch tracer: wrapped minus plain call time minus the recorded span
        durations, median of ``repeats`` batches.
        """

        def noop():
            return None

        probe = Tracer(wrapped=[])
        wrapped = probe.wrap(noop, "trace.probe")
        costs = []
        for _ in range(repeats):
            probe.spans.clear()
            started = time.perf_counter()
            for _ in range(calls):
                noop()
            plain = time.perf_counter() - started
            started = time.perf_counter()
            for _ in range(calls):
                wrapped()
            traced = time.perf_counter() - started
            inside = sum(s[END] - s[START] for s in probe.spans)
            costs.append((traced - plain - inside) / calls)
        return max(0.0, statistics.median(costs))

    def wrap(self, fn, name: str, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counts)

        return traced

    def install(self) -> None:
        for module_name, attr, name, counts in self.wrapped:
            owner, key, original = _resolve(module_name, attr)
            if isinstance(original, classmethod):
                replacement = classmethod(self.wrap(original.__func__, name, counts))
            else:
                replacement = self.wrap(original, name, counts)
            self._originals.append((owner, key, original))
            setattr(owner, key, replacement)

    def uninstall(self) -> None:
        while self._originals:
            owner, key, original = self._originals.pop()
            setattr(owner, key, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# name,op,parent,start,end,minflt,counts\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def durations(spans, span_cost: float = 0.0) -> list[float]:
    """Each span's duration minus ``span_cost`` for every span nested in it."""
    out = [s[END] - s[START] for s in spans]
    if span_cost:
        for s in spans:
            parent = s[PARENT]
            while parent is not None:
                out[parent] -= span_cost
                parent = spans[parent][PARENT]
    return out


def self_times(spans, span_cost: float = 0.0) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so sibling intervals never overlap and the
    covered time is the sum of the children's durations, plus ``span_cost``
    per direct child for the wrapper work outside the child's interval.
    """
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            own[s[PARENT]] -= s[END] - s[START] + span_cost
    return own


def layer(name: str) -> str:
    return name.split(".", 1)[0]


# per-layer metric -> (kind, span names); kinds: "s" inclusive seconds,
# "self_s" seconds minus child spans, "calls" span count
_TIMED = {
    "ingest.load_scores.s": ("s", ["ingest.load_scores"]),
    "ingest.load_vectors.s": ("s", ["ingest.load_logits", "ingest.load_features"]),
    "ingest.write_scores.s": ("s", ["ingest.write_scores"]),
    "ingest.write_curve.s": ("s", ["ingest.write_curve"]),
    "ingest.write_report.s": ("s", ["ingest.write_report"]),
    "core.build_eval_set.s": ("s", ["core.build_eval_set"]),
    "synth.generate.self_s": ("self_s", ["synth.generate"]),
    "cli.self_s": ("self_s", [ROOT_SPAN]),
    "scoring.knn.s": ("s", ["scoring.knn_score"]),
    "scoring.score.s": ("s", [f"scoring.{f}" for f in SCORE_FUNCS]),
    "scoring.score.calls": ("calls", [f"scoring.{f}" for f in SCORE_FUNCS]),
    "scoring.fit.s": ("s", [f"scoring.{f}" for f in FIT_FUNCS]),
    "dsmetrics.sweep.s": ("s", ["dsmetrics.sweep"]),
    "dsmetrics.sweep.calls": ("calls", ["dsmetrics.sweep"]),
    "dsmetrics.grid.s": ("s", ["dsmetrics.grid"]),
    "dsmetrics.ds_f1.self_s": ("self_s", ["dsmetrics.ds_f1"]),
    "dsmetrics.ds_aurc.self_s": ("self_s", ["dsmetrics.ds_aurc"]),
    "metrics_single.single.s": (
        "s",
        ["metrics_single.best_f1_single", "metrics_single.risk_coverage_curve",
         "metrics_single.aurc"],
    ),
    "metrics_single.ood.s": (
        "s", ["metrics_single.auroc", "metrics_single.fpr_at_tpr", "metrics_single.aupr"]
    ),
    "selection.select.self_s": ("self_s", ["selection.select_thresholds"]),
    "selection.test_opt.self_s": ("self_s", ["selection.test_opt"]),
    "selection.apply.s": ("s", ["selection.apply_thresholds"]),
}
_COUNTED = [
    "core.build_eval_set.rows",
    "ingest.write_curve.rows",
    "ingest.bytes_read",
    "ingest.bytes_written",
    "dsmetrics.sweep.cells",
    "dsmetrics.sweep.bytes",
    "dsmetrics.grid.cells",
    "metrics_single.points",
]
_FAULTED = {"scoring.minflt": "scoring", "dsmetrics.minflt": "dsmetrics"}

UNITS = {name: ("count" if kind == "calls" else "s") for name, (kind, _) in _TIMED.items()}
UNITS.update({name: "count" for name in _COUNTED})
UNITS["dsmetrics.sweep.bytes"] = "computed_bytes"
UNITS["ingest.bytes_read"] = UNITS["ingest.bytes_written"] = "bytes"
UNITS.update({name: "count" for name in _FAULTED})
UNITS["trace.span_cost_s"] = "s"
UNITS["trace.overhead_ratio"] = "ratio"


def layer_metrics(spans, n_ops: int, span_cost: float = 0.0) -> dict[str, float]:
    """Per-op per-layer metrics from the spans of ``n_ops`` traced operations.

    Layers a workload never enters read 0. Times have ``span_cost`` (see
    :meth:`Tracer.span_cost`) taken off for every span nested in them, so
    wrapper cost does not count as the caller's work. ``*.minflt`` sums the
    fault deltas of a layer's outermost spans (those whose parent is in
    another layer), so nested spans of one layer are not counted twice.
    """
    inclusive = durations(spans, span_cost)
    own = self_times(spans, span_cost)
    out = {}
    for metric, (kind, names) in _TIMED.items():
        wanted = set(names)
        picked = [i for i, s in enumerate(spans) if s[NAME] in wanted]
        if kind == "s":
            total = sum(inclusive[i] for i in picked)
        elif kind == "self_s":
            total = sum(own[i] for i in picked)
        else:
            total = len(picked)
        out[metric] = total
    for metric in _COUNTED:
        out[metric] = sum((s[COUNTS] or {}).get(metric, 0) for s in spans)
    for metric, lay in _FAULTED.items():
        out[metric] = sum(
            s[MINFLT]
            for s in spans
            if layer(s[NAME]) == lay
            and (s[PARENT] is None or layer(spans[s[PARENT]][NAME]) != lay)
        )
    out = {
        name: (v / n_ops if UNITS[name] == "s" else _per_op_count(v, n_ops))
        for name, v in out.items()
    }
    out["trace.span_cost_s"] = span_cost
    return out


def _per_op_count(total: int, n_ops: int):
    q, r = divmod(total, n_ops)
    return q if r == 0 else total / n_ops
