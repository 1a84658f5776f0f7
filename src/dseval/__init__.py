"""Joint ID/OOD reliability evaluation with double-scoring metrics.

A classifier deployed on mixed in-distribution and out-of-distribution
traffic is judged here by how well two scores together, an OOD-detection
score and an ID-confidence score with one threshold each, accept correct ID
predictions while rejecting everything else. The package provides the
threshold-pair metrics (DS-F1, DS-AURC), their classical single-score
counterparts, post-hoc score computation from stored logits/features,
brute-force oracles, a synthetic benchmark generator, and a CLI.
"""

__version__ = "0.1.0"

from .core import (
    DsevalError,
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
from .dsmetrics import (
    ConfusionCounts,
    DsResult,
    EmptyGrid,
    EmptyScores,
    PairSurface,
    SweepTables,
    ThresholdGrid,
    confusion_counts,
    ds_aurc,
    ds_f1,
    ds_sweep_fast,
    f1_from_counts,
    quantile_grid,
)
from .metrics_single import (
    BinnedCurve,
    EmptySide,
    NoPoints,
    RiskCoveragePoint,
    aupr,
    auroc,
    aurc,
    best_f1_single,
    bin_risk_points,
    coverage,
    fpr_at_tpr,
    risk_coverage_curve,
    selective_risk,
)
from .selection import (
    SelectionMode,
    SelectionResult,
    apply_thresholds,
    select_thresholds,
    test_opt,
)
from .synth import SynthConfig, PopulationParams, far_ood_config, generate, near_ood_config

__all__ = [name for name in dir() if not name.startswith("_")]
