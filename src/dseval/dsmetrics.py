"""Double-scoring metrics over threshold pairs: DS-F1 and DS-AURC.

The acceptance rule applies one threshold per score axis. Confusion counts
use acceptance-oriented terms: TA (accepted, ID, correct), FA (accepted but
OOD or misclassified ID) and FR (ID not correctly accepted); an accepted
misclassified ID sample is counted in both FA and FR, which keeps
TA + FR = n_id and TA + FA = |accepted| exact.

DS-F1 maximises F1 over the grid product of thresholds. DS-AURC bins the
(coverage, risk) cloud of all pairs and keeps the minimum risk per coverage
bin. One count engine builds the counts of every pair by 2-D suffix sums in
O(N log N + T_id * T_ood), a block of ID-threshold rows at a time, and hands
each block to the reductions at once: :func:`ds_f1`, :func:`ds_aurc` and
:func:`ds_metrics` (both from one sweep) hold no count table. Only a pair
surface needs the tables, which :func:`ds_sweep_fast` fills from the same
engine. Grids above ``MAX_SWEEP_CELLS`` cells, tables above
``MAX_TABLE_CELLS`` cells, and DS-AURC with more coverage bins than
``MAX_SWEEP_CELLS``, raise :class:`GridTooLarge`.

Each result also holds each channel's single-score metric, read off the
sentinel column and row of the same sweep (see :class:`_Lines`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
    "ds_metrics",
]

DEFAULT_T_GRID = 512
DEFAULT_K_BINS = 200
# Largest (T_id + 1) * (T_ood + 1) a sweep accepts. A streamed sweep holds no
# table, so for it this bounds time: DS-F1 plus DS-AURC take about 1.5 s here
# on one core of a 2-vCPU VM.
MAX_SWEEP_CELLS = 1 << 26
# Largest (T_id + 1) * (T_ood + 1) that ds_sweep_fast fills tables for. A pair
# surface peaks at 72 bytes per cell (tracemalloc at 2049^2): the three int64
# count tables, the three float64 surfaces and their temporaries. That is
# about 1.2 GB at this budget, and would be 4.9 GB at MAX_SWEEP_CELLS.
MAX_TABLE_CELLS = 1 << 24
# Cells per block of the count engine, so each of its three count layers
# and each reduction buffer takes 512 KB.
_BLOCK_CELLS = 1 << 16
# Narrowest row that the ID-axis suffix sum adds row by row; on narrower
# blocks a strided cumsum is faster than one call per row.
_ROW_ADD_COLS = 128


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


def quantile_grid(scores, t_grid: int) -> np.ndarray:
    """Equally spaced empirical quantile thresholds (nearest rank), deduplicated.

    The accept-all sentinel (:func:`accept_all_threshold`) comes first, so a
    full-coverage operating point is always reachable.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise EmptyScores("cannot build a threshold grid from zero scores")
    if t_grid < 1:
        raise ValueError("t_grid must be >= 1")
    ordered = np.sort(scores)
    n = ordered.size
    # from t_grid = n on, the ranks below take every order statistic, so a
    # larger t_grid gives the same thresholds and is not built
    t_grid = min(t_grid, n)
    # nearest-rank quantile at p = k/t_grid is the ceil(p*n)-th order statistic
    ks = np.arange(1, t_grid + 1, dtype=np.int64)
    idx = (ks * n + t_grid - 1) // t_grid - 1
    return np.concatenate([[accept_all_threshold(ordered)], np.unique(ordered[idx])])


@dataclass(frozen=True)
class ThresholdGrid:
    """Sorted candidate thresholds per axis; sentinels, when present, come first."""

    id_thresholds: np.ndarray
    ood_thresholds: np.ndarray

    def __post_init__(self):
        for arr in (self.id_thresholds, self.ood_thresholds):
            if arr.size == 0:
                raise EmptyGrid("threshold grid must be non-empty on both axes")
            if np.any(np.diff(arr) <= 0):
                raise ValueError("grid thresholds must be strictly increasing")
            arr.setflags(write=False)

    @classmethod
    def exhaustive(cls, eval_set: EvalSet, ch_id: str, ch_ood: str) -> "ThresholdGrid":
        """Every distinct empirical value per axis, after its sentinel."""
        grids = []
        for ch in (ch_id, ch_ood):
            vals = np.unique(eval_set.channel(ch))
            grids.append(np.concatenate([[accept_all_threshold(vals)], vals]))
        return cls(*grids)

    @classmethod
    def quantile(
        cls, eval_set: EvalSet, ch_id: str, ch_ood: str, t_grid: int = DEFAULT_T_GRID
    ) -> "ThresholdGrid":
        return cls(
            quantile_grid(eval_set.channel(ch_id), t_grid),
            quantile_grid(eval_set.channel(ch_ood), t_grid),
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


def _check_budget(grid: ThresholdGrid, budget: int) -> None:
    tid, tod = grid.id_thresholds.size, grid.ood_thresholds.size
    cells = (tid + 1) * (tod + 1)
    if cells > budget:
        raise GridTooLarge(
            f"a {tid} x {tod} threshold grid needs {cells} cells per count "
            f"table, above the budget of {budget}; use a coarser grid"
        )


def _sweep(eval_set: EvalSet, ch_id: str, ch_ood: str, grid: ThresholdGrid, *consumers) -> None:
    """The count engine: hands every block of ID-threshold rows to each consumer.

    Each sample is bucketed once per axis (its bin is the number of grid
    thresholds it passes) and sorted once by the block its ID bin falls in.
    From the last ID row up, each block of about ``_BLOCK_CELLS`` cells is
    histogrammed into one reused buffer, suffix-summed in place along both
    axes and offset by the row carried from the block below. Then
    ``consumer(start, ta, accepted_id, accepted_ood)`` gets views of table
    rows ``start:start + len(ta)``, valid until it returns, with counts
    identical to :func:`confusion_counts` at every pair.
    """
    _check_budget(grid, MAX_SWEEP_CELLS)
    n_rows, n_cols = grid.id_thresholds.size, grid.ood_thresholds.size
    step = min(n_rows, max(1, _BLOCK_CELLS // n_cols))
    row = np.searchsorted(grid.id_thresholds, eval_set.channel(ch_id), side="right")
    col = np.searchsorted(grid.ood_thresholds, eval_set.channel(ch_ood), side="right")
    # bin 0 on either axis passes no threshold there; layer 0 of a block
    # counts correct ID samples, layer 1 misclassified ID, layer 2 OOD
    keep = (row > 0) & (col > 0)
    layer = 2 - eval_set.is_id[keep].astype(np.int64) - eval_set.id_correct[keep]
    # counted from the last row, rows fall into blocks of `step`; a row sits
    # `step - 1 - offset` rows into the buffer, so a short top block fills its tail
    block, offset = np.divmod(n_rows - row[keep], step)
    key = (step - 1 - offset) * (3 * n_cols) + layer * n_cols + col[keep] - 1
    ends = np.cumsum(np.bincount(block, minlength=-(-n_rows // step))).tolist()
    if len(ends) > 1:  # a stable sort of small integers is a radix sort
        key = key[np.argsort(block.astype(np.min_scalar_type(len(ends))), kind="stable")]
    del row, col, keep, layer, block, offset
    buf = np.empty((step, 3, n_cols), dtype=np.int64)
    carry = np.zeros((3, n_cols), dtype=np.int64)
    for b, begin, end in zip(range(len(ends)), [0, *ends], ends):
        n = min(step, n_rows - b * step)
        counts = buf[step - n :]
        counts.fill(0)
        np.add.at(buf.reshape(-1), key[begin:end], 1)
        flipped = counts[..., ::-1]
        np.cumsum(flipped, axis=2, out=flipped)
        counts[-1] += carry
        if n_cols >= _ROW_ADD_COLS:
            for i in range(n - 2, -1, -1):
                counts[i] += counts[i + 1]
        else:  # one call per row costs too much on narrow rows
            flipped = counts[::-1]
            np.cumsum(flipped, axis=0, out=flipped)
        carry[...] = counts[0]
        counts[:, 1] += counts[:, 0]
        for consume in consumers:
            consume(n_rows - b * step - n, counts[:, 0], counts[:, 1], counts[:, 2])


def ds_sweep_fast(
    eval_set: EvalSet, ch_id: str, ch_ood: str, grid: ThresholdGrid, *consumers
) -> SweepTables:
    """Count tables for every threshold pair, filled from the count engine.

    ``consumers`` see every block as from :func:`_sweep`. A grid above
    ``MAX_TABLE_CELLS`` raises :class:`GridTooLarge` before any table is
    allocated.
    """
    _check_budget(grid, MAX_TABLE_CELLS)
    shape = (grid.id_thresholds.size, grid.ood_thresholds.size)
    tables = [np.empty(shape, dtype=np.int64) for _ in range(3)]

    def fill(start, *block):
        for table, part in zip(tables, block):
            table[start : start + len(part)] = part

    _sweep(eval_set, ch_id, ch_ood, grid, fill, *consumers)
    return SweepTables(grid.id_thresholds, grid.ood_thresholds, *tables, eval_set.n_id)


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
    """A metric over the grid product; ``id_only``/``ood_only`` hold it per single-score line."""

    value: float
    best_pair: ThresholdPair | None = None
    surface: PairSurface | None = None
    curve: BinnedCurve | None = None
    id_only: DsResult | None = None
    ood_only: DsResult | None = None


def _surface(tables: SweepTables) -> PairSurface:
    accepted = tables.accepted_id + tables.accepted_ood
    with np.errstate(invalid="ignore", divide="ignore"):
        risk = (accepted - tables.ta) / accepted
    return PairSurface(
        id_thresholds=tables.id_thresholds,
        ood_thresholds=tables.ood_thresholds,
        coverage=tables.accepted_id / tables.n_id,
        risk=np.where(accepted > 0, risk, 0.0),
        # algebraically 2*precision*recall/(precision+recall); exact with the
        # empty-acceptance convention F1=0 since TA=0 there
        f1=2.0 * tables.ta / (accepted + tables.n_id),
    )


class _BestF1:
    """Engine consumer: the maximum F1 over the blocks it is handed, and where.

    F1 is 2 * (TA / (accepted + n_id)), exactly the surface's 2 * TA / (accepted
    + n_id) as doubling is exact; ties go to the smallest (tau_ood, tau_id).
    """

    def __init__(self, n_id: int, grid: ThresholdGrid):
        self.n_id, self.grid, self.best, self.at, self._scratch = n_id, grid, -1.0, None, None

    def __call__(self, start, ta, accepted_id, accepted_ood):
        if self._scratch is None:  # the engine's first block is its largest
            self._scratch = np.empty(ta.shape), np.empty(ta.shape, dtype=bool)
        f1, hit = (a[: len(ta)] for a in self._scratch)
        np.add(accepted_id, accepted_ood, out=f1, dtype=np.float64)
        f1 += self.n_id
        np.divide(ta, f1, out=f1)
        f1 *= 2.0
        top = float(f1.max())
        if top < self.best:
            return
        np.equal(f1, top, out=hit)
        j = int(hit.any(axis=0).argmax())
        here = (j, start + int(hit[:, j].argmax()))
        if top > self.best or here < self.at:
            self.best, self.at = top, here

    def result(self) -> DsResult:
        j, i = self.at
        pair = ThresholdPair(float(self.grid.id_thresholds[i]), float(self.grid.ood_thresholds[j]))
        return DsResult(value=self.best, best_pair=pair)


class _MinRisk:
    """Engine consumer: the minimum risk per coverage bin over the blocks it is handed.

    A pair's coverage bin depends only on its accepted-ID count, so the bin of
    every count 0..n_id is computed once and looked up; bins and risks equal
    what :func:`~dseval.metrics_single.bin_risk_points` gets from a surface.
    """

    def __init__(self, bin_of: np.ndarray, k_bins: int):
        self.bin_of, self.minima, self._scratch = bin_of, np.full(k_bins, np.inf), None

    @staticmethod
    def bins(n_id: int, k_bins: int) -> np.ndarray:
        if k_bins < 1:
            raise ValueError("k_bins must be >= 1")
        if k_bins > MAX_SWEEP_CELLS:  # each reduction holds k_bins minima
            raise GridTooLarge(
                f"{k_bins} coverage bins are above the budget of {MAX_SWEEP_CELLS}; "
                "use fewer bins"
            )
        return BinnedCurve.bin_index(np.arange(n_id + 1) / n_id, k_bins)

    def __call__(self, start, ta, accepted_id, accepted_ood):
        if self._scratch is None:  # the engine's first block is its largest
            self._scratch = [np.empty(ta.shape, dtype=t) for t in (np.int64, np.float64, bool)]
        accepted, risk, any_accepted = (a[: len(ta)] for a in self._scratch)
        np.add(accepted_id, accepted_ood, out=accepted)
        np.subtract(accepted, ta, out=risk, dtype=np.float64)
        # empty acceptance keeps risk 0: FA = 0 there
        np.divide(risk, accepted, out=risk, where=np.greater(accepted, 0, out=any_accepted))
        bins = np.take(self.bin_of, accepted_id, out=accepted, mode="clip")
        np.minimum.at(self.minima, bins.ravel(), risk.ravel())

    def result(self) -> DsResult:
        curve = BinnedCurve.from_minima(self.minima)
        value = float(np.sum(curve.values)) / curve.k_bins
        return DsResult(value, curve=curve)


class _Lines:
    """Engine consumer: one reduction of the grid product and one of each single-score line.

    Column 0 is the ID channel alone if the first OOD threshold accepts every
    sample, and row 0 the OOD channel alone if the first ID threshold does:
    there a reduction sees each single threshold's counts, ties included.
    A line whose other threshold rejects a sample is no single score: None.
    """

    def __init__(self, eval_set, ch_id, ch_ood, grid, make):
        def line(other_axis, channel):
            return make() if other_axis[0] <= eval_set.channel(channel).min() else None

        self.full = make()
        self.id_only = line(grid.ood_thresholds, ch_ood)
        self.ood_only = line(grid.id_thresholds, ch_id)

    def __call__(self, start, *block):
        self.full(start, *block)
        if self.id_only is not None:
            self.id_only(start, *(part[:, :1] for part in block))
        if self.ood_only is not None and start == 0:
            self.ood_only(start, *(part[:1] for part in block))

    def result(self) -> DsResult:
        id_only, ood_only = (line and line.result() for line in (self.id_only, self.ood_only))
        return replace(self.full.result(), id_only=id_only, ood_only=ood_only)


def ds_f1(eval_set: EvalSet, ch_id: str, ch_ood: str, grid: ThresholdGrid) -> DsResult:
    """Maximum F1 over all threshold pairs, with the achieving pair.

    Ties are broken by the lexicographically smallest (tau_ood, tau_id), so
    reported operating points are reproducible; on a single-score line that
    is the smallest threshold.
    """
    best = _Lines(eval_set, ch_id, ch_ood, grid, lambda: _BestF1(eval_set.n_id, grid))
    _sweep(eval_set, ch_id, ch_ood, grid, best)
    return best.result()


def ds_aurc(
    eval_set: EvalSet, ch_id: str, ch_ood: str, grid: ThresholdGrid, k_bins: int = DEFAULT_K_BINS
) -> DsResult:
    """Risk-coverage area where each coverage bin takes its minimum pair risk.

    Empty-acceptance pairs contribute (coverage 0, risk 0) per the empty-set
    risk convention, which makes the lowest bins optimistic by construction.
    """
    bin_of = _MinRisk.bins(eval_set.n_id, k_bins)  # one table for the three reductions
    minima = _Lines(eval_set, ch_id, ch_ood, grid, lambda: _MinRisk(bin_of, k_bins))
    _sweep(eval_set, ch_id, ch_ood, grid, minima)
    return minima.result()


def ds_metrics(
    eval_set: EvalSet, ch_id: str, ch_ood: str, grid: ThresholdGrid,
    k_bins: int = DEFAULT_K_BINS, return_surface: bool = False,
) -> tuple[DsResult, DsResult]:
    """:func:`ds_f1` and :func:`ds_aurc` from one sweep; a surface rides on the first.

    Only a surface needs the count tables; without one the sweep holds none.
    """
    best = _Lines(eval_set, ch_id, ch_ood, grid, lambda: _BestF1(eval_set.n_id, grid))
    bin_of = _MinRisk.bins(eval_set.n_id, k_bins)
    minima = _Lines(eval_set, ch_id, ch_ood, grid, lambda: _MinRisk(bin_of, k_bins))
    if not return_surface:
        _sweep(eval_set, ch_id, ch_ood, grid, best, minima)
        return best.result(), minima.result()
    # looked up on the module, so that a wrapper installed there sees the call
    tables = ds_sweep_fast(eval_set, ch_id, ch_ood, grid, best, minima)
    return replace(best.result(), surface=_surface(tables)), minima.result()
