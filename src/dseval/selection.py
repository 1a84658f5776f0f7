"""Threshold selection on a validation split, frozen transfer to a test split.

Modes: a single threshold on the ID axis, a single threshold on the OOD axis
(the unused axis sits at its accept-all sentinel), or a joint pair. One DS-F1
sweep gives all three: the single modes are its sentinel column and row.
Transfer applies the raw frozen thresholds to the test set with no
re-optimization; ``test_opt`` re-optimizes on the test set and exists only to
expose the selection/deployment gap, so reports must label it as leaky.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

from .core import EvalSet, ThresholdPair
from .dsmetrics import ConfusionCounts, ThresholdGrid, confusion_counts, ds_f1, f1_from_counts

# Not called here: perfbench/spans.py wraps this name in this module.
from .metrics_single import best_f1_single  # noqa: F401

__all__ = ["SelectionMode", "SelectionResult", "select_thresholds", "apply_thresholds", "test_opt"]


class SelectionMode(Enum):
    ID_ONLY = "id_only"
    OOD_ONLY = "ood_only"
    DOUBLE = "double"


@dataclass(frozen=True)
class SelectionResult:
    mode: SelectionMode
    frozen: ThresholdPair
    val_f1: float
    test_f1: float | None = None


def select_thresholds(
    val_set: EvalSet, ch_id: str, ch_ood: str, grid: ThresholdGrid
) -> dict[SelectionMode, SelectionResult]:
    """The best operating point of every mode on the validation set, from one sweep.

    ID_ONLY is the grid's first column and OOD_ONLY its first row: a grid whose
    first threshold on either axis rejects a sample raises ValueError.
    """
    result = ds_f1(val_set, ch_id, ch_ood, grid)
    if result.id_only is None or result.ood_only is None:
        raise ValueError("the single modes need a grid whose first thresholds accept all")
    picks = {SelectionMode.ID_ONLY: result.id_only, SelectionMode.OOD_ONLY: result.ood_only,
             SelectionMode.DOUBLE: result}
    return {mode: SelectionResult(mode, pick.best_pair, pick.value) for mode, pick in picks.items()}


def apply_thresholds(
    test_set: EvalSet, ch_id: str, ch_ood: str, frozen: ThresholdPair
) -> tuple[float, ConfusionCounts]:
    """Evaluate the frozen pair on a test set; no re-optimization."""
    counts = confusion_counts(test_set, ch_id, ch_ood, frozen)
    return f1_from_counts(counts), counts


def test_opt(
    test_set: EvalSet, ch_id: str, ch_ood: str, grid: ThresholdGrid
) -> dict[SelectionMode, SelectionResult]:
    """Optimize every mode directly on the test set (leaky; reported as "test-opt")."""
    results = select_thresholds(test_set, ch_id, ch_ood, grid)
    return {mode: replace(result, test_f1=result.val_f1) for mode, result in results.items()}
