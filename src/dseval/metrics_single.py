"""Single-score reliability metrics on mixed ID/OOD evaluation sets.

Risk follows the mixed convention: an accepted sample counts as a failure if
it is a misclassified ID sample or an OOD sample. The risk of an empty
acceptance set is defined as 0. Coverage is always the accepted fraction of
the ID population.
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
    "coverage",
    "selective_risk",
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


def coverage(eval_set: EvalSet, channel: str, tau: float) -> float:
    """Fraction of ID samples with channel score >= tau."""
    scores = eval_set.channel(channel)
    accepted_id = int(np.count_nonzero(scores[eval_set.is_id] >= tau))
    return accepted_id / eval_set.n_id


def selective_risk(eval_set: EvalSet, accepted) -> float:
    """Failure fraction of an accepted index set; 0 when nothing is accepted.

    Failures are misclassified accepted ID samples plus every accepted OOD
    sample.
    """
    accepted = np.asarray(accepted, dtype=np.intp)
    if accepted.size == 0:
        return 0.0
    failures = int(np.count_nonzero(~eval_set.id_correct[accepted]))
    return failures / accepted.size


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


def auroc(id_scores, ood_scores) -> float:
    """Probability that a random ID sample outscores a random OOD sample.

    Mann-Whitney statistic with 0.5 credit for ties; ID is the positive class.
    """
    id_scores, ood_scores = _check_sides(id_scores, ood_scores)
    n, m = id_scores.size, ood_scores.size
    combined = np.concatenate([id_scores, ood_scores])
    order = np.argsort(combined, kind="mergesort")
    sorted_vals = combined[order]
    # average ranks within tie groups (1-based)
    group = np.concatenate([[0], np.cumsum(np.diff(sorted_vals) != 0)])
    pos = np.arange(1, n + m + 1, dtype=np.float64)
    group_mean = np.bincount(group, weights=pos) / np.bincount(group)
    ranks = np.empty(n + m)
    ranks[order] = group_mean[group]
    u = ranks[:n].sum() - n * (n + 1) / 2.0
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
    n = id_scores.size
    combined = np.concatenate([id_scores, ood_scores])
    labels = np.concatenate([np.ones(n), np.zeros(ood_scores.size)])
    order = np.argsort(-combined, kind="mergesort")
    sorted_scores = combined[order]
    tp = np.cumsum(labels[order])
    total = np.arange(1, combined.size + 1)
    # keep only the last row of each tie group so ties share one operating point
    last = np.flatnonzero(
        np.concatenate([np.diff(sorted_scores) != 0, np.array([True])])
    )
    recall = tp[last] / n
    precision = tp[last] / total[last]
    prev = np.concatenate([[0.0], recall[:-1]])
    return float(np.sum((recall - prev) * precision))
