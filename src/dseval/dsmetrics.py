"""Double-scoring metrics over threshold pairs: DS-F1 and DS-AURC.

The acceptance rule applies one threshold per score axis. Confusion counts
use acceptance-oriented terms: TA (accepted, ID, correct), FA (accepted but
OOD or misclassified ID) and FR (ID not correctly accepted); an accepted
misclassified ID sample is counted in both FA and FR, which keeps
TA + FR = n_id and TA + FA = |accepted| exact.

DS-F1 maximises F1 over the grid product of thresholds. DS-AURC bins the
(coverage, risk) cloud of all pairs and keeps the minimum risk per coverage
bin. ``ds_sweep_fast`` produces the full count tables for every pair in
O(N log N + T_id * T_ood) via two-dimensional suffix sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import DsevalError, EvalSet, ThresholdPair, accept_all_threshold
from .metrics_single import BinnedCurve, bin_risk_points

__all__ = [
    "EmptyGrid",
    "EmptyScores",
    "ConfusionCounts",
    "ThresholdGrid",
    "SweepTables",
    "PairSurface",
    "DsResult",
    "quantile_grid",
    "confusion_counts",
    "f1_from_counts",
    "ds_sweep_fast",
    "ds_f1",
    "ds_aurc",
]

DEFAULT_T_GRID = 512
DEFAULT_K_BINS = 200


class EmptyGrid(DsevalError):
    pass


class EmptyScores(DsevalError):
    pass


@dataclass(frozen=True)
class ConfusionCounts:
    """Acceptance confusion at one threshold pair."""

    ta: int
    fa: int
    fr: int
    accepted_total: int
    accepted_id: int
    accepted_ood: int


def quantile_grid(scores, t_grid: int, include_sentinel: bool = True) -> np.ndarray:
    """Equally spaced empirical quantile thresholds (nearest rank), deduplicated.

    Optionally prepends the accept-all sentinel (:func:`accept_all_threshold`),
    so a full-coverage operating point is always reachable.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise EmptyScores("cannot build a threshold grid from zero scores")
    if t_grid < 1:
        raise ValueError("t_grid must be >= 1")
    ordered = np.sort(scores)
    n = ordered.size
    # nearest-rank quantile at p = k/t_grid is the ceil(p*n)-th order statistic
    ks = np.arange(1, t_grid + 1, dtype=np.int64)
    idx = (ks * n + t_grid - 1) // t_grid - 1
    thresholds = np.unique(ordered[idx])
    if include_sentinel:
        thresholds = np.concatenate([[accept_all_threshold(ordered)], thresholds])
    return thresholds


@dataclass(frozen=True)
class ThresholdGrid:
    """Sorted candidate thresholds per axis; sentinels, when present, come first."""

    id_thresholds: np.ndarray
    ood_thresholds: np.ndarray
    id_has_sentinel: bool = True
    ood_has_sentinel: bool = True

    def __post_init__(self):
        for arr in (self.id_thresholds, self.ood_thresholds):
            if arr.size == 0:
                raise EmptyGrid("threshold grid must be non-empty on both axes")
            if np.any(np.diff(arr) <= 0):
                raise ValueError("grid thresholds must be strictly increasing")
            arr.setflags(write=False)

    @classmethod
    def exhaustive(
        cls, eval_set: EvalSet, ch_id: str, ch_ood: str, include_sentinel: bool = True
    ) -> "ThresholdGrid":
        """Every distinct empirical value per axis, plus optional sentinels."""
        grids = []
        for ch in (ch_id, ch_ood):
            vals = np.unique(eval_set.channel(ch))
            if include_sentinel:
                vals = np.concatenate([[accept_all_threshold(vals)], vals])
            grids.append(vals)
        return cls(grids[0], grids[1], include_sentinel, include_sentinel)

    @classmethod
    def quantile(
        cls,
        eval_set: EvalSet,
        ch_id: str,
        ch_ood: str,
        t_grid: int = DEFAULT_T_GRID,
        include_sentinel: bool = True,
    ) -> "ThresholdGrid":
        return cls(
            quantile_grid(eval_set.channel(ch_id), t_grid, include_sentinel),
            quantile_grid(eval_set.channel(ch_ood), t_grid, include_sentinel),
            include_sentinel,
            include_sentinel,
        )


def confusion_counts(
    eval_set: EvalSet, ch_id: str, ch_ood: str, pair: ThresholdPair
) -> ConfusionCounts:
    """Per-sample confusion accounting at a single threshold pair."""
    s_id = eval_set.channel(ch_id)
    s_ood = eval_set.channel(ch_ood)
    acc = (s_id >= pair.tau_id) & (s_ood >= pair.tau_ood)
    accepted_id = int(np.count_nonzero(acc & eval_set.is_id))
    accepted_ood = int(np.count_nonzero(acc)) - accepted_id
    ta = int(np.count_nonzero(acc & eval_set.id_correct))
    return ConfusionCounts(
        ta=ta,
        fa=accepted_ood + (accepted_id - ta),
        fr=eval_set.n_id - ta,
        accepted_total=accepted_id + accepted_ood,
        accepted_id=accepted_id,
        accepted_ood=accepted_ood,
    )


def f1_from_counts(counts: ConfusionCounts) -> float:
    """F1 of a confusion record; 0 on an empty acceptance set."""
    n_id = counts.ta + counts.fr
    if counts.accepted_total == 0:
        return 0.0
    precision = counts.ta / counts.accepted_total
    recall = counts.ta / n_id
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


@dataclass(frozen=True)
class SweepTables:
    """Confusion count tables over the full grid product.

    Entry [i, j] corresponds to the pair (id_thresholds[i], ood_thresholds[j]).
    """

    id_thresholds: np.ndarray
    ood_thresholds: np.ndarray
    ta: np.ndarray
    accepted_id: np.ndarray
    accepted_ood: np.ndarray
    n_id: int
    n_ood: int

    @cached_property
    def accepted_total(self) -> np.ndarray:
        return self.accepted_id + self.accepted_ood

    @cached_property
    def fa(self) -> np.ndarray:
        return self.accepted_total - self.ta

    @cached_property
    def fr(self) -> np.ndarray:
        return self.n_id - self.ta

    @cached_property
    def f1(self) -> np.ndarray:
        # algebraically 2*precision*recall/(precision+recall); exact with the
        # empty-acceptance convention F1=0 since TA=0 there
        return 2.0 * self.ta / (self.accepted_total + self.n_id)

    @cached_property
    def coverage(self) -> np.ndarray:
        return self.accepted_id / self.n_id

    @cached_property
    def risk(self) -> np.ndarray:
        acc = self.accepted_total
        with np.errstate(invalid="ignore", divide="ignore"):
            r = self.fa / acc
        return np.where(acc > 0, r, 0.0)


def _suffix_table(bin_id, bin_ood, mask, shape):
    h = np.bincount(
        bin_id[mask] * shape[1] + bin_ood[mask], minlength=shape[0] * shape[1]
    ).reshape(shape)
    suffix = np.cumsum(np.cumsum(h[::-1, ::-1], axis=0), axis=1)[::-1, ::-1]
    return suffix[1:, 1:]


def ds_sweep_fast(
    eval_set: EvalSet, ch_id: str, ch_ood: str, grid: ThresholdGrid
) -> SweepTables:
    """Count tables for every threshold pair via 2-D bucketing and suffix sums.

    Each sample is bucketed once per axis (its bin is the number of grid
    thresholds it passes); suffix-summing the three population histograms
    yields, for every pair, counts identical to :func:`confusion_counts`.
    """
    tid = grid.id_thresholds
    tod = grid.ood_thresholds
    bin_id = np.searchsorted(tid, eval_set.channel(ch_id), side="right")
    bin_ood = np.searchsorted(tod, eval_set.channel(ch_ood), side="right")
    shape = (tid.size + 1, tod.size + 1)
    ta = _suffix_table(bin_id, bin_ood, eval_set.id_correct, shape)
    wrong = _suffix_table(bin_id, bin_ood, eval_set.id_wrong, shape)
    ood = _suffix_table(bin_id, bin_ood, ~eval_set.is_id, shape)
    return SweepTables(
        id_thresholds=tid,
        ood_thresholds=tod,
        ta=ta,
        accepted_id=ta + wrong,
        accepted_ood=ood,
        n_id=eval_set.n_id,
        n_ood=eval_set.n_ood,
    )


@dataclass(frozen=True)
class PairSurface:
    """Per-pair coverage/risk/F1 values over the grid product, for export."""

    id_thresholds: np.ndarray
    ood_thresholds: np.ndarray
    coverage: np.ndarray
    risk: np.ndarray
    f1: np.ndarray


@dataclass(frozen=True)
class DsResult:
    value: float
    best_pair: ThresholdPair | None = None
    surface: PairSurface | None = None
    curve: BinnedCurve | None = None


def _surface(tables: SweepTables) -> PairSurface:
    return PairSurface(
        id_thresholds=tables.id_thresholds,
        ood_thresholds=tables.ood_thresholds,
        coverage=tables.coverage,
        risk=tables.risk,
        f1=tables.f1,
    )


def ds_f1(
    eval_set: EvalSet,
    ch_id: str,
    ch_ood: str,
    grid: ThresholdGrid,
    return_surface: bool = False,
) -> DsResult:
    """Maximum F1 over all threshold pairs, with the achieving pair.

    Ties are broken by the lexicographically smallest (tau_ood, tau_id), so
    reported operating points are reproducible.
    """
    tables = ds_sweep_fast(eval_set, ch_id, ch_ood, grid)
    f1 = tables.f1
    best = float(f1.max())
    rows, cols = np.nonzero(f1 == best)
    j = int(cols.min())
    i = int(rows[cols == j].min())
    pair = ThresholdPair(
        tau_id=float(tables.id_thresholds[i]), tau_ood=float(tables.ood_thresholds[j])
    )
    return DsResult(
        value=best,
        best_pair=pair,
        surface=_surface(tables) if return_surface else None,
    )


def ds_aurc(
    eval_set: EvalSet,
    ch_id: str,
    ch_ood: str,
    grid: ThresholdGrid,
    k_bins: int = DEFAULT_K_BINS,
    return_surface: bool = False,
) -> DsResult:
    """Risk-coverage area where each coverage bin takes its minimum pair risk.

    Empty-acceptance pairs contribute (coverage 0, risk 0) per the empty-set
    risk convention, which makes the lowest bins optimistic by construction.
    """
    if k_bins < 1:
        raise ValueError("k_bins must be >= 1")
    tables = ds_sweep_fast(eval_set, ch_id, ch_ood, grid)
    curve = bin_risk_points(tables.coverage.ravel(), tables.risk.ravel(), k_bins)
    value = float(np.sum(curve.values)) / k_bins
    return DsResult(
        value=value,
        curve=curve,
        surface=_surface(tables) if return_surface else None,
    )
