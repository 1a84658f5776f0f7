"""Single-score reliability metrics on mixed ID/OOD evaluation sets.

Risk follows the mixed convention: an accepted sample counts as a failure if
it is a misclassified ID sample or an OOD sample. The risk of an empty
acceptance set is defined as 0. Coverage is always the accepted fraction of
the ID population.

:func:`best_f1_single`, :func:`risk_coverage_curve` and :func:`aurc` are the
reference for the single-score lines of :mod:`dseval.dsmetrics`, which the CLI reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import DsevalError, EvalSet, ThresholdPair

__all__ = [
    "NoPoints",
    "EmptySide",
    "RiskCoveragePoint",
    "BinnedCurve",
    "risk_coverage_curve",
    "bin_risk_points",
    "aurc",
    "best_f1_single",
    "auroc",
    "fpr_at_tpr",
    "aupr",
]


class NoPoints(DsevalError):
    pass


class EmptySide(DsevalError):
    pass


@dataclass(frozen=True)
class RiskCoveragePoint:
    coverage: float
    risk: float
    threshold: float | ThresholdPair


@dataclass(frozen=True)
class BinnedCurve:
    """Per-bin aggregated risk over K equal-width coverage bins on [0, 1].

    ``values`` holds the post-fill risk per bin; ``filled`` marks bins that
    received at least one point before interpolation.
    """

    k_bins: int
    values: np.ndarray
    filled: np.ndarray

    @staticmethod
    def bin_index(coverages: np.ndarray, k_bins: int) -> np.ndarray:
        """floor(coverage * k_bins), clamped to the last bin."""
        return np.minimum((coverages * k_bins).astype(np.int64), k_bins - 1)

    @classmethod
    def from_minima(cls, minima: np.ndarray) -> "BinnedCurve":
        """Fill the bins of per-bin minimum risks, ``inf`` where no point fell.

        Empty bins between filled ones are linearly interpolated on the bin
        index; empty bins outside the filled range extend the nearest filled
        value.
        """
        filled = np.isfinite(minima)
        filled_idx = np.flatnonzero(filled)
        values = np.interp(np.arange(minima.size), filled_idx, minima[filled_idx])
        return cls(k_bins=minima.size, values=values, filled=filled)


def _population_counts(eval_set: EvalSet, channel: str, thresholds: np.ndarray):
    """Accepted counts (correct ID, wrong ID, OOD) per threshold, vectorized."""
    scores = eval_set.channel(channel)
    sc = np.sort(scores[eval_set.id_correct])
    sw = np.sort(scores[eval_set.id_wrong])
    so = np.sort(scores[~eval_set.is_id])
    n_c = sc.size - np.searchsorted(sc, thresholds, side="left")
    n_w = sw.size - np.searchsorted(sw, thresholds, side="left")
    n_o = so.size - np.searchsorted(so, thresholds, side="left")
    return n_c, n_w, n_o


def risk_coverage_curve(
    eval_set: EvalSet, channel: str, thresholds
) -> list[RiskCoveragePoint]:
    """One (coverage, risk) point per threshold, ordered by descending threshold."""
    thresholds = np.sort(np.asarray(thresholds, dtype=np.float64))[::-1]
    n_c, n_w, n_o = _population_counts(eval_set, channel, thresholds)
    n_id = eval_set.n_id
    points = []
    for tau, c, w, o in zip(thresholds, n_c, n_w, n_o):
        acc = int(c + w + o)
        risk = (int(w) + int(o)) / acc if acc > 0 else 0.0
        points.append(
            RiskCoveragePoint(
                coverage=(int(c) + int(w)) / n_id, risk=risk, threshold=float(tau)
            )
        )
    return points


def bin_risk_points(
    coverages: np.ndarray, risks: np.ndarray, k_bins: int
) -> BinnedCurve:
    """Bin points by coverage, keep the per-bin minimum risk, fill empty bins.

    Bins are assigned by :meth:`BinnedCurve.bin_index` and empty bins filled
    as :meth:`BinnedCurve.from_minima` describes.
    """
    if k_bins < 1:
        raise ValueError("k_bins must be >= 1")
    coverages = np.asarray(coverages, dtype=np.float64)
    risks = np.asarray(risks, dtype=np.float64)
    values = np.full(k_bins, np.inf)
    np.minimum.at(values, BinnedCurve.bin_index(coverages, k_bins), risks)
    return BinnedCurve.from_minima(values)


def aurc(points: Sequence[RiskCoveragePoint], k_bins: int) -> float:
    """Area under the binned risk-coverage curve (left Riemann sum).

    With k_bins=1 this reduces to the minimum risk over all points.
    """
    if not points:
        raise NoPoints("cannot integrate an empty risk-coverage curve")
    cov = np.array([p.coverage for p in points])
    risk = np.array([p.risk for p in points])
    curve = bin_risk_points(cov, risk, k_bins)
    return float(np.sum(curve.values)) / k_bins


def best_f1_single(eval_set: EvalSet, channel: str, thresholds) -> tuple[float, float]:
    """Best F1 over single thresholds on one channel (other axis accepts all).

    Returns ``(f1, tau)``; on ties the smallest achieving threshold wins.
    F1 treats correctly classified accepted ID samples as true accepts, so it
    equals the pair metric evaluated with the other threshold at the sentinel.
    """
    thresholds = np.sort(np.asarray(thresholds, dtype=np.float64))
    if thresholds.size == 0:
        raise NoPoints("threshold grid is empty")
    n_c, n_w, n_o = _population_counts(eval_set, channel, thresholds)
    n_id = eval_set.n_id
    best_f1 = -1.0
    best_tau = math.nan
    for tau, c, w, o in zip(thresholds, n_c, n_w, n_o):
        acc = int(c + w + o)
        f1 = 2.0 * int(c) / (acc + n_id)
        if f1 > best_f1:
            best_f1 = f1
            best_tau = float(tau)
    return best_f1, best_tau


def _check_sides(id_scores, ood_scores):
    id_scores = np.asarray(id_scores, dtype=np.float64)
    ood_scores = np.asarray(ood_scores, dtype=np.float64)
    if id_scores.size == 0 or ood_scores.size == 0:
        raise EmptySide("both ID and OOD score arrays must be non-empty")
    return id_scores, ood_scores


def _tie_counts(id_scores: np.ndarray, ood_scores: np.ndarray):
    """How many ID and how many OOD scores take each distinct value, in
    ascending order of the values."""
    values, inverse = np.unique(np.concatenate([id_scores, ood_scores]), return_inverse=True)
    n = id_scores.size
    return (
        np.bincount(inverse[:n], minlength=values.size),
        np.bincount(inverse[n:], minlength=values.size),
    )


def auroc(id_scores, ood_scores) -> float:
    """Probability that a random ID sample outscores a random OOD sample.

    Mann-Whitney statistic with 0.5 credit for ties; ID is the positive class.
    """
    id_scores, ood_scores = _check_sides(id_scores, ood_scores)
    n, m = id_scores.size, ood_scores.size
    id_counts, ood_counts = _tie_counts(id_scores, ood_scores)
    # twice U: two per OOD score below an ID score, one per tie; an exact integer
    ood_below = np.cumsum(ood_counts) - ood_counts
    u = np.dot(id_counts, 2 * ood_below + ood_counts) / 2
    return float(u / (n * m))


def fpr_at_tpr(id_scores, ood_scores, tpr: float = 0.95) -> float:
    """Smallest OOD acceptance rate among thresholds keeping TPR >= target."""
    id_scores, ood_scores = _check_sides(id_scores, ood_scores)
    n = id_scores.size
    k = math.ceil(tpr * n - 1e-9)  # guards float noise in tpr * n
    k = min(max(k, 1), n)
    tau = np.sort(id_scores)[n - k]
    return float(np.count_nonzero(ood_scores >= tau) / ood_scores.size)


def aupr(id_scores, ood_scores) -> float:
    """Area under the precision-recall curve with ID as the positive class.

    Step interpolation: sum of precision times recall increments over
    descending distinct thresholds.
    """
    id_scores, ood_scores = _check_sides(id_scores, ood_scores)
    id_counts, ood_counts = _tie_counts(id_scores, ood_scores)
    # one operating point per distinct score, from the highest down
    tp = np.cumsum(id_counts[::-1])
    total = tp + np.cumsum(ood_counts[::-1])
    recall = tp / id_scores.size
    precision = tp / total
    prev = np.concatenate([[0.0], recall[:-1]])
    return float(np.sum((recall - prev) * precision))
