"""Command-line front end: score, eval, select, synth.

Every subcommand is deterministic given its flags (plus the seed where one
applies), writes exactly one output file per path flag, and reports failures
as a single machine-parsable line on stderr with a nonzero exit code.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .core import DsevalError, EvalSet
from .dsmetrics import (
    DEFAULT_K_BINS,
    DEFAULT_T_GRID,
    ThresholdGrid,
    ds_metrics,
)
from .ingest import (
    AURC_SCALE,
    METRIC_SCALE,
    SchemaError,
    load_features,
    load_logits,
    load_scores,
    scaled,
    write_curve,
    write_report,
    write_scores,
)
from .metrics_single import aupr, auroc, fpr_at_tpr
from .scoring import (
    FEATURES,
    FIT_FEATURES,
    FIT_LOGITS,
    LOGITS,
    METHODS,
    FitSplit,
    ScoreInputs,
    ScoreOptions,
    ScoringError,
)

# Not called here: perfbench/spans.py wraps these names in this module.
from .core import build_eval_set  # noqa: F401
from .dsmetrics import ds_aurc, ds_f1  # noqa: F401
from .metrics_single import aurc, best_f1_single, risk_coverage_curve  # noqa: F401
from .scoring import (  # noqa: F401
    build_feature_bank,
    energy,
    fit_class_templates,
    fit_gaussian_stats,
    fit_principal_subspace,
    fit_sirc_params,
    fit_vim_alpha,
    klm,
    knn_score,
    l1_feature_norm,
    mahalanobis,
    max_logit,
    msp,
    neg_entropy,
    residual_score,
    sirc_combine,
    softmax,
    vim,
)
from .selection import SelectionMode, apply_thresholds, select_thresholds, test_opt
from .synth import (
    InvalidConfig,
    config_from_dict,
    far_ood_config,
    generate,
    near_ood_config,
)

__all__ = ["main", "UsageError"]


class UsageError(DsevalError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # single-line, machine-parsable
        print(f"dseval: error: UsageError: {message}", file=sys.stderr)
        raise SystemExit(2)


def _tool_block() -> dict:
    return {"name": "dseval", "version": __version__}


# ---------------------------------------------------------------------------
# score

_NEED_FLAGS = {
    LOGITS: "--logits",
    FEATURES: "--features",
    FIT_LOGITS: "a logits --fit file",
    FIT_FEATURES: "a features --fit file",
}


def _align(logits, features) -> None:
    if logits.sample_ids.size != features.sample_ids.size:
        raise UsageError("logits and features files hold different sample counts")
    differs = (logits.sample_ids != features.sample_ids) | (logits.is_id != features.is_id)
    if differs.any():
        raise UsageError(
            f"logits/features row mismatch at sample {logits.sample_ids[differs.argmax()]!r}"
        )


def _positive(flag: str, value):
    if value is not None and value < 1:
        raise UsageError(f"{flag} must be at least 1, got {value}")


def _distinct_channels(args) -> None:
    # a report holds one single-score block or line per channel
    if args.id_channel == args.ood_channel:
        raise UsageError("--id-channel and --ood-channel must name different channels")


def _fit_matrix(path, loader, kind: str):
    """The ID rows of a fit file and their labels; ``None, None`` without a file."""
    if path is None:
        return None, None
    fit = loader(path)
    if not fit.is_id.any():
        raise UsageError(f"{kind} fit file has no id rows")
    if fit.is_id.all():  # no mask copy of a matrix that is all ID rows
        return fit.matrix, fit.labels
    return fit.matrix[fit.is_id], fit.labels[fit.is_id]


def _channels(methods, inputs: ScoreInputs, fitted: dict, sample_ids) -> dict:
    """Every requested channel as one vector; a row's failure names its sample."""
    channels = {}
    for name in methods:
        try:
            channels[name] = METHODS[name].score_batch(inputs, fitted[name])
        except ScoringError as exc:
            where = "" if exc.row is None else f" on sample {sample_ids[exc.row]!r}"
            raise type(exc)(f"method {name!r} failed{where}: {exc}") from None
    return channels


def _cmd_score(args) -> int:
    methods = list(dict.fromkeys(m.strip() for m in args.method.split(",") if m.strip()))
    if not methods:
        raise UsageError("--method needs at least one method name")
    for m in methods:
        if m not in METHODS:
            raise UsageError(
                f"unknown method {m!r}; choose from {', '.join(sorted(METHODS))}"
            )
    _positive("--k", args.k)
    _positive("--pca-dim", args.pca_dim)
    if not math.isfinite(args.temperature):
        raise UsageError(f"--temperature must be a finite number, got {args.temperature}")
    if args.logits is None and args.features is None:
        raise UsageError("provide --logits and/or --features")

    logits = load_logits(args.logits) if args.logits else None
    features = load_features(args.features) if args.features else None
    if logits is not None and features is not None:
        _align(logits, features)

    fits = args.fit or []
    if len(fits) > 2:
        raise UsageError("--fit may be given at most twice (logits fit, features fit)")
    kinds = [k for k, path in ((LOGITS, args.logits), (FEATURES, args.features)) if path]
    # the --fit files pair up with the inputs given, in order: logits first
    fit_paths = dict(zip([FIT_LOGITS if k == LOGITS else FIT_FEATURES for k in kinds], fits))
    given = {*kinds, *fit_paths}
    for m in methods:
        for need in METHODS[m].needs:
            if need not in given:
                raise UsageError(f"method {m!r} requires {_NEED_FLAGS[need]}")

    base = logits if logits is not None else features
    if logits is None and base.is_id.any():
        raise UsageError(
            "scores for ID rows need a correctness flag, which is derived from "
            "model predictions; provide --logits"
        )

    # fit artifacts are estimated on the ID rows of the fit split only, all
    # before any scoring; the fit matrices are dropped once they are fitted
    fit_logits, _ = _fit_matrix(fit_paths.get(FIT_LOGITS), load_logits, "logits")
    fit_features, fit_labels = _fit_matrix(fit_paths.get(FIT_FEATURES), load_features, "features")
    for path, data, fit_path, fit in (
        (args.logits, logits, fit_paths.get(FIT_LOGITS), fit_logits),
        (args.features, features, fit_paths.get(FIT_FEATURES), fit_features),
    ):
        if fit is not None and fit.shape[1] != data.matrix.shape[1]:
            raise SchemaError(
                f"fit file {fit_path} holds {fit.shape[1]}-wide vectors, "
                f"but {path} holds {data.matrix.shape[1]}-wide vectors"
            )
    options = ScoreOptions(k=args.k, pca_dim=args.pca_dim, temperature=args.temperature)
    split = FitSplit(fit_logits, fit_features, fit_labels, options)
    fitted = {name: METHODS[name].fit(split) for name in methods}
    del split, fit_logits, fit_features

    channels, correct = {}, np.zeros(base.is_id.size, dtype=bool)
    if base.is_id.size:
        inputs = ScoreInputs(
            None if logits is None else logits.matrix,
            None if features is None else features.matrix,
        )
        channels = _channels(methods, inputs, fitted, base.sample_ids)
        if logits is not None:
            correct = logits.matrix.argmax(axis=1) == logits.labels
    write_scores(EvalSet.from_columns(base.sample_ids, base.is_id, correct, channels), args.out)
    return 0


# ---------------------------------------------------------------------------
# eval


def _cmd_eval(args) -> int:
    _positive("--grid", args.grid)
    _positive("--bins", args.bins)
    _distinct_channels(args)
    eval_set = load_scores(args.scores)
    grid = ThresholdGrid.quantile(
        eval_set, args.id_channel, args.ood_channel, t_grid=args.grid
    )

    ood_block = None
    if eval_set.n_ood > 0:
        col = eval_set.channel(args.ood_channel)
        id_scores = col[eval_set.is_id]
        ood_scores = col[~eval_set.is_id]
        ood_block = {
            "channel": args.ood_channel,
            "auroc": scaled(auroc(id_scores, ood_scores), METRIC_SCALE),
            "fpr_at_95": scaled(fpr_at_tpr(id_scores, ood_scores), METRIC_SCALE),
            "aupr": scaled(aupr(id_scores, ood_scores), METRIC_SCALE),
        }

    want_surface = args.surface is not None
    f1_result, aurc_result = ds_metrics(
        eval_set, args.id_channel, args.ood_channel, grid,
        k_bins=args.bins, return_surface=want_surface,
    )
    if want_surface:
        write_curve(f1_result.surface, args.surface)
    # each channel alone is a sentinel line of the sweep
    single = {
        ch: {
            "f1": scaled(f1.value, METRIC_SCALE),
            "f1_threshold": getattr(f1.best_pair, tau),
            "aurc": scaled(area.value, AURC_SCALE),
        }
        for ch, f1, area, tau in (
            (args.id_channel, f1_result.id_only, aurc_result.id_only, "tau_id"),
            (args.ood_channel, f1_result.ood_only, aurc_result.ood_only, "tau_ood"),
        )
    }

    report = {
        "tool": _tool_block(),
        "dataset": {
            "n_id": eval_set.n_id,
            "n_ood": eval_set.n_ood,
            "id_accuracy": scaled(eval_set.id_accuracy, METRIC_SCALE),
        },
        "single": single,
        "ood_detection": ood_block,
        "double": {
            "id_channel": args.id_channel,
            "ood_channel": args.ood_channel,
            "ds_f1": scaled(f1_result.value, METRIC_SCALE),
            "best_pair": asdict(f1_result.best_pair),
            "ds_aurc": scaled(aurc_result.value, AURC_SCALE),
        },
        "config": {
            "scores": str(args.scores),
            "id_channel": args.id_channel,
            "ood_channel": args.ood_channel,
            "grid": args.grid,
            "bins": args.bins,
            "include_sentinel": True,
            "seed": None,
        },
        "scaling": {"metrics": METRIC_SCALE, "aurc": AURC_SCALE},
    }

    write_report(report, args.out)
    return 0


# ---------------------------------------------------------------------------
# select

_MODE_FLAGS = {
    "id": SelectionMode.ID_ONLY,
    "ood": SelectionMode.OOD_ONLY,
    "double": SelectionMode.DOUBLE,
}


def _cmd_select(args) -> int:
    _positive("--grid", args.grid)
    _distinct_channels(args)
    val_set = load_scores(args.val)
    test_set = load_scores(args.test)
    val_grid = ThresholdGrid.quantile(
        val_set, args.id_channel, args.ood_channel, t_grid=args.grid
    )
    test_grid = ThresholdGrid.quantile(
        test_set, args.id_channel, args.ood_channel, t_grid=args.grid
    )
    # all three modes run so the report can contrast single vs double transfer
    chosen = select_thresholds(val_set, args.id_channel, args.ood_channel, val_grid)
    opt = test_opt(test_set, args.id_channel, args.ood_channel, test_grid)
    modes = {}
    for mode, picked in chosen.items():
        transfer_f1, counts = apply_thresholds(
            test_set, args.id_channel, args.ood_channel, picked.frozen
        )
        modes[mode.value] = {
            "frozen": asdict(picked.frozen),
            "val_f1": scaled(picked.val_f1, METRIC_SCALE),
            "test_f1_transfer": scaled(transfer_f1, METRIC_SCALE),
            "test_f1_opt": scaled(opt[mode].test_f1, METRIC_SCALE),
            "test_counts": asdict(counts),
        }
    report = {
        "tool": _tool_block(),
        "dataset": {
            "val": {"n_id": val_set.n_id, "n_ood": val_set.n_ood},
            "test": {"n_id": test_set.n_id, "n_ood": test_set.n_ood},
        },
        "selection": {"primary_mode": _MODE_FLAGS[args.mode].value, "modes": modes},
        "config": {
            "val": str(args.val),
            "test": str(args.test),
            "id_channel": args.id_channel,
            "ood_channel": args.ood_channel,
            "grid": args.grid,
            "include_sentinel": True,
            "seed": None,
        },
        "scaling": {"metrics": METRIC_SCALE, "aurc": AURC_SCALE},
    }
    write_report(report, args.out)
    return 0


# ---------------------------------------------------------------------------
# synth


def _cmd_synth(args) -> int:
    if args.preset == "custom":
        if not args.config:
            raise UsageError("--preset custom requires --config")
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise InvalidConfig(f"malformed synth config: {exc}") from None
        config = config_from_dict(data)
    else:
        if args.config:
            raise UsageError("--config is only valid with --preset custom")
        factory = far_ood_config if args.preset == "far" else near_ood_config
        config = factory(
            n_id=args.n_id, n_ood=args.n_ood, id_accuracy=args.acc, seed=args.seed
        )
    write_scores(generate(config), args.out)
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dseval", description=__doc__)
    parser.add_argument("--version", action="version", version=f"dseval {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("score", help="compute post-hoc scores from logits/features")
    p.add_argument("--logits", help="logits CSV for the evaluation samples")
    p.add_argument("--features", help="features CSV for the evaluation samples")
    p.add_argument(
        "--fit",
        action="append",
        help="fit-split CSV; repeat for logits fit then features fit",
    )
    p.add_argument("--method", required=True, help="comma-separated method names")
    p.add_argument("--k", type=int, help="neighbor count for knn")
    p.add_argument("--pca-dim", type=int, help="principal subspace dimension")
    p.add_argument("--temperature", type=float, default=1.0, help="energy temperature")
    p.add_argument("--out", required=True, help="output scores CSV")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("eval", help="single and double-scoring metrics report")
    p.add_argument("--scores", required=True)
    p.add_argument("--id-channel", required=True)
    p.add_argument("--ood-channel", required=True)
    p.add_argument("--grid", type=int, default=DEFAULT_T_GRID)
    p.add_argument("--bins", type=int, default=DEFAULT_K_BINS)
    p.add_argument("--surface", help="also export the per-pair surface CSV here")
    p.add_argument("--out", required=True, help="report path (.md for markdown)")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("select", help="pick thresholds on val, freeze, apply to test")
    p.add_argument("--val", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--id-channel", default="s_id")
    p.add_argument("--ood-channel", default="s_ood")
    p.add_argument("--mode", choices=sorted(_MODE_FLAGS), default="double")
    p.add_argument("--grid", type=int, default=DEFAULT_T_GRID)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("synth", help="write a seeded synthetic scores file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-id", type=int, default=1000)
    p.add_argument("--n-ood", type=int, default=1000)
    p.add_argument("--acc", type=float, default=0.75)
    p.add_argument("--preset", choices=["near", "far", "custom"], default="far")
    p.add_argument("--config", help="synth config JSON (with --preset custom)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"dseval: error: UsageError: {exc}", file=sys.stderr)
        return 2
    except DsevalError as exc:
        print(f"dseval: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"dseval: error: IoError: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
