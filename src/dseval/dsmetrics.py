"""Double-scoring metrics over threshold pairs: DS-F1 and DS-AURC.

The acceptance rule applies one threshold per score axis. Confusion counts
use acceptance-oriented terms: TA (accepted, ID, correct), FA (accepted but
OOD or misclassified ID) and FR (ID not correctly accepted); an accepted
misclassified ID sample is counted in both FA and FR, which keeps
TA + FR = n_id and TA + FA = |accepted| exact.

DS-F1 maximises F1 over the grid product of thresholds. DS-AURC bins the
(coverage, risk) cloud of all pairs and keeps the minimum risk per coverage
bin. ``ds_sweep_fast`` produces the full count tables for every pair in
O(N log N + T_id * T_ood) via two-dimensional suffix sums, accumulated in
place in the histogram buffers; it refuses grids whose tables would exceed
``MAX_SWEEP_CELLS`` cells with :class:`GridTooLarge`. One sweep feeds both
metrics: :func:`ds_f1_from_tables` and :func:`ds_aurc_from_tables` reduce a
computed :class:`SweepTables` block by block, holding no table-sized
buffer, and :func:`ds_f1` / :func:`ds_aurc` are sweep plus reduction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .core import DsevalError, EvalSet, ThresholdPair, accept_all_threshold
from .metrics_single import BinnedCurve

__all__ = [
    "EmptyGrid",
    "EmptyScores",
    "GridTooLarge",
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
    "ds_f1_from_tables",
    "ds_aurc_from_tables",
]

DEFAULT_T_GRID = 512
DEFAULT_K_BINS = 200
# Largest (T_id + 1) * (T_ood + 1) a sweep accepts: three int64 tables of
# this many cells take about 1.6 GB.
MAX_SWEEP_CELLS = 1 << 26
# Narrowest table row that the ID-axis suffix sum adds row by row; on
# narrower tables a strided cumsum is faster than one call per row.
_ROW_ADD_CELLS = 128
# Cells per block in the reductions, so each of their buffers is 512 KB.
_BLOCK_CELLS = 1 << 16


class EmptyGrid(DsevalError):
    pass


class EmptyScores(DsevalError):
    pass


class GridTooLarge(DsevalError):
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


def _suffix_table(bin_id, bin_ood, mask, shape) -> np.ndarray:
    """Count of ``mask`` samples at or above each threshold pair.

    Samples in bin 0 of either axis pass no threshold there and are left
    out; the rest are histogrammed on ``shape`` cells and suffix-summed in
    place, first along the contiguous OOD axis, then along the ID axis: by
    row adds from the last ID row up when rows hold at least
    ``_ROW_ADD_CELLS`` cells, else by one strided ``cumsum``.
    """
    keep = mask & (bin_id > 0) & (bin_ood > 0)
    counts = np.bincount(
        (bin_id[keep] - 1) * shape[1] + (bin_ood[keep] - 1), minlength=shape[0] * shape[1]
    ).reshape(shape)
    flipped = counts[:, ::-1]
    np.cumsum(flipped, axis=1, out=flipped)
    if shape[1] >= _ROW_ADD_CELLS:
        for i in range(shape[0] - 2, -1, -1):
            counts[i] += counts[i + 1]
    else:
        # per-row adds cost about 1 us each, too much on tall, narrow tables
        flipped = counts[::-1]
        np.cumsum(flipped, axis=0, out=flipped)
    return counts


def ds_sweep_fast(
    eval_set: EvalSet, ch_id: str, ch_ood: str, grid: ThresholdGrid
) -> SweepTables:
    """Count tables for every threshold pair via 2-D bucketing and suffix sums.

    Each sample is bucketed once per axis (its bin is the number of grid
    thresholds it passes); suffix-summing the population histograms yields,
    for every pair, counts identical to :func:`confusion_counts`. Raises
    :class:`GridTooLarge`, before allocating any table, when
    (T_id + 1) * (T_ood + 1) exceeds ``MAX_SWEEP_CELLS``.
    """
    tid = grid.id_thresholds
    tod = grid.ood_thresholds
    cells = (tid.size + 1) * (tod.size + 1)
    if cells > MAX_SWEEP_CELLS:
        raise GridTooLarge(
            f"a {tid.size} x {tod.size} threshold grid needs {cells} cells per count "
            f"table, above the budget of {MAX_SWEEP_CELLS}; use a coarser grid"
        )
    bin_id = np.searchsorted(tid, eval_set.channel(ch_id), side="right")
    bin_ood = np.searchsorted(tod, eval_set.channel(ch_ood), side="right")
    shape = (tid.size, tod.size)
    ta = _suffix_table(bin_id, bin_ood, eval_set.id_correct, shape)
    accepted_id = _suffix_table(bin_id, bin_ood, eval_set.id_wrong, shape)
    accepted_id += ta
    return SweepTables(
        id_thresholds=tid,
        ood_thresholds=tod,
        ta=ta,
        accepted_id=accepted_id,
        accepted_ood=_suffix_table(bin_id, bin_ood, ~eval_set.is_id, shape),
        n_id=eval_set.n_id,
        n_ood=eval_set.n_ood,
    )


def _row_blocks(tables: SweepTables):
    """Slices of whole ID-threshold rows, about ``_BLOCK_CELLS`` cells each."""
    n_rows, n_cols = tables.ta.shape
    step = max(1, _BLOCK_CELLS // n_cols)
    for start in range(0, n_rows, step):
        yield slice(start, start + step)


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


def ds_f1_from_tables(tables: SweepTables, return_surface: bool = False) -> DsResult:
    """Maximum F1 over the pairs of computed tables, with the achieving pair.

    Ties are broken by the lexicographically smallest (tau_ood, tau_id), so
    reported operating points are reproducible. F1 is taken one block of
    rows at a time as 2 * (TA / (accepted + n_id)), which equals
    ``tables.f1`` exactly (doubling is exact in binary floating point).
    """
    best, at = -1.0, None
    for rows in _row_blocks(tables):
        f1 = np.add(tables.accepted_id[rows], tables.accepted_ood[rows], dtype=np.float64)
        f1 += tables.n_id
        np.divide(tables.ta[rows], f1, out=f1)
        f1 *= 2.0
        top = float(f1.max())
        if top < best:
            continue
        hit = f1 == top
        j = int(hit.any(axis=0).argmax())
        here = (j, rows.start + int(hit[:, j].argmax()))
        if top > best or here < at:
            best, at = top, here
    j, i = at
    pair = ThresholdPair(
        tau_id=float(tables.id_thresholds[i]), tau_ood=float(tables.ood_thresholds[j])
    )
    return DsResult(
        value=best,
        best_pair=pair,
        surface=_surface(tables) if return_surface else None,
    )


def ds_aurc_from_tables(tables: SweepTables, k_bins: int = DEFAULT_K_BINS) -> DsResult:
    """DS-AURC of computed tables; see :func:`ds_aurc`.

    Works one block of rows at a time. A pair's coverage bin depends only
    on its accepted-ID count, so the bin of every count 0..n_id is computed
    once and looked up; bins and risks equal those that
    :func:`~dseval.metrics_single.bin_risk_points` gets from
    ``tables.coverage`` and ``tables.risk``.
    """
    if k_bins < 1:
        raise ValueError("k_bins must be >= 1")
    bin_of = BinnedCurve.bin_index(np.arange(tables.n_id + 1) / tables.n_id, k_bins)
    minima = np.full(k_bins, np.inf)
    for rows in _row_blocks(tables):
        accepted_id = tables.accepted_id[rows]
        accepted = accepted_id + tables.accepted_ood[rows]
        risk = np.subtract(accepted, tables.ta[rows], dtype=np.float64)
        # empty acceptance keeps risk 0: FA = 0 there
        np.divide(risk, accepted, out=risk, where=accepted > 0)
        np.minimum.at(minima, bin_of[accepted_id].ravel(), risk.ravel())
    curve = BinnedCurve.from_minima(minima)
    return DsResult(value=float(np.sum(curve.values)) / k_bins, curve=curve)


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
    return ds_f1_from_tables(tables, return_surface)


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
    result = ds_aurc_from_tables(tables, k_bins)
    if return_surface:
        return replace(result, surface=_surface(tables))
    return result
