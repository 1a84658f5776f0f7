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
:func:`ds_metrics` (both from one sweep) hold no count table. DS-F1
starts from the F1 of the grid's first pair and reduces only the columns of
a block whose exact upper bound can reach the best F1 so far (see
:class:`_BestF1`). A pair surface is one more reduction of the same sweep,
which writes each block's coverage, risk and F1 into its arrays (see
:class:`_Surface`). Grids above ``MAX_SWEEP_CELLS`` cells, surfaces above
``MAX_SURFACE_CELLS`` cells, and DS-AURC with more coverage bins than
``MAX_SWEEP_CELLS``, raise :class:`GridTooLarge`.

Each result also holds each channel's single-score metric, read off the
sentinel column and row of the same sweep (see :class:`_Lines`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import DsevalError, EvalSet, ThresholdPair, acceptance_set, accept_all_threshold
from .metrics_single import BinnedCurve

__all__ = [
    "EmptyGrid",
    "EmptyScores",
    "GridTooLarge",
    "ConfusionCounts",
    "ThresholdGrid",
    "PairSurface",
    "DsResult",
    "quantile_grid",
    "confusion_counts",
    "f1_from_counts",
    "ds_f1",
    "ds_aurc",
    "ds_metrics",
]

DEFAULT_T_GRID = 512
DEFAULT_K_BINS = 200
# Largest (T_id + 1) * (T_ood + 1) a sweep accepts. A streamed sweep holds no
# table, so for it this bounds time: DS-F1 plus DS-AURC from one sweep take
# about 1.0 s of CPU at this budget (20k samples) on one core of a 2-vCPU VM,
# and DS-F1 alone about 0.3 s.
MAX_SWEEP_CELLS = 1 << 26
# Largest (T_id + 1) * (T_ood + 1) that a pair surface is built for. The
# surface's three float64 arrays peak at 24.8 bytes per cell (tracemalloc at
# 2049^2), and write_curve's complex128 sort key and int64 sort order add
# 24.0 more, so the export peaks at 48.0 bytes per cell: about 0.8 GB at this
# budget, and 3.2 GB at MAX_SWEEP_CELLS.
MAX_SURFACE_CELLS = 1 << 24
# Cells per block of the count engine, so each of its three int32 count
# layers takes 256 KB and each float64 reduction buffer 512 KB.
_BLOCK_CELLS = 1 << 16
# The engine counts in int32 below this many samples, and in int64 from it.
_INT32_SAMPLES = 1 << 31
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
    """Sorted candidate thresholds per axis; sentinels, when present, come first.

    Each axis is stored as a read-only 1-d float64 copy of what it was given.
    """

    id_thresholds: np.ndarray
    ood_thresholds: np.ndarray

    def __post_init__(self):
        for name in ("id_thresholds", "ood_thresholds"):
            arr = np.array(getattr(self, name), dtype=np.float64)
            if arr.ndim != 1:
                raise ValueError(f"grid thresholds must be 1-d, got {arr.ndim}-d {name}")
            if arr.size == 0:
                raise EmptyGrid("threshold grid must be non-empty on both axes")
            # a NaN fails every comparison, but a lone one has none; neighbours
            # are compared, not subtracted, which would overflow past 1.8e308
            if np.isnan(arr[0]) or not np.all(arr[1:] > arr[:-1]):
                raise ValueError("grid thresholds must be strictly increasing")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def exhaustive(cls, eval_set: EvalSet, ch_id: str, ch_ood: str) -> "ThresholdGrid":
        """Every distinct empirical value per axis, after its sentinel."""
        return cls.quantile(eval_set, ch_id, ch_ood, eval_set.n_total)

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
    acc = acceptance_set(eval_set, ch_id, ch_ood, pair)
    accepted_id = int(np.count_nonzero(eval_set.is_id[acc]))
    accepted_ood = acc.size - accepted_id
    ta = int(np.count_nonzero(eval_set.id_correct[acc]))
    return ConfusionCounts(
        ta=ta,
        fa=accepted_ood + (accepted_id - ta),
        fr=eval_set.n_id - ta,
        accepted_total=accepted_id + accepted_ood,
        accepted_id=accepted_id,
        accepted_ood=accepted_ood,
    )


def f1_from_counts(counts: ConfusionCounts) -> float:
    """F1 of a confusion record, 0 on an empty acceptance set: twice :func:`_half_f1`
    on Python ints (TA + FR is n_id), whose true division rounds the same quotient."""
    return 2.0 * (counts.ta / (counts.accepted_total + counts.ta + counts.fr))


def _check_budget(grid: ThresholdGrid, budget: int) -> None:
    tid, tod = grid.id_thresholds.size, grid.ood_thresholds.size
    cells = (tid + 1) * (tod + 1)
    if cells > budget:
        raise GridTooLarge(
            f"a {tid} x {tod} threshold grid needs {cells} cells per count "
            f"table, above the budget of {budget}; use a coarser grid"
        )


def _count_dtype(n_samples: int) -> type:
    """The engine's count dtype: no count exceeds the sample count."""
    return np.int32 if n_samples < _INT32_SAMPLES else np.int64


def _sweep(eval_set: EvalSet, ch_id: str, ch_ood: str, grid: ThresholdGrid, *consumers) -> None:
    """The count engine: hands every block of ID-threshold rows to each consumer.

    Each sample is bucketed once per axis (its bin is the number of grid
    thresholds it passes) and sorted once by the block its ID bin falls in.
    From the last ID row up, each block of about ``_BLOCK_CELLS`` cells is
    histogrammed into one reused buffer, suffix-summed in place along both
    axes and offset by the row carried from the block below. Then
    ``consumer(start, ta, accepted_id, accepted)`` gets views of table rows
    ``start:start + len(ta)``, valid until it returns: the TA, accepted-ID
    and accepted-total counts of each pair, identical to
    :func:`confusion_counts` (``accepted`` is its ``accepted_total``). The
    views are int32 below ``_INT32_SAMPLES`` samples and int64 from there.
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
    dtype = _count_dtype(eval_set.n_total)
    one = dtype(1)  # a Python 1 would take add.at off its fast path for int32
    buf = np.empty((step, 3, n_cols), dtype=dtype)
    carry = np.zeros((3, n_cols), dtype=dtype)
    for b, begin, end in zip(range(len(ends)), [0, *ends], ends):
        n = min(step, n_rows - b * step)
        counts = buf[step - n :]
        counts.fill(0)
        np.add.at(buf.reshape(-1), key[begin:end], one)
        # cumsum would otherwise sum int32 in the platform integer
        flipped = counts[..., ::-1]
        np.cumsum(flipped, axis=2, out=flipped, dtype=dtype)
        counts[-1] += carry
        if n_cols >= _ROW_ADD_COLS:
            for i in range(n - 2, -1, -1):
                counts[i] += counts[i + 1]
        else:  # one call per row costs too much on narrow rows
            flipped = counts[::-1]
            np.cumsum(flipped, axis=0, out=flipped, dtype=dtype)
        carry[...] = counts[0]
        # the layers handed on: TA, accepted ID, and all accepted
        counts[:, 1] += counts[:, 0]
        counts[:, 2] += counts[:, 1]
        for consume in consumers:
            consume(n_rows - b * step - n, counts[:, 0], counts[:, 1], counts[:, 2])


# Not called here: perfbench/spans.py wraps this name in this module.
ds_sweep_fast = _sweep


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


def _half_f1(ta, accepted, n_id: int, out=None) -> np.ndarray:
    """TA / (accepted + n_id) in float64: precision * recall / (precision + recall),
    0 where nothing is accepted. Doubling is exact, so twice this is each F1."""
    out = np.add(accepted, n_id, out=out, dtype=np.float64)
    return np.divide(ta, out, out=out)


class _Surface:
    """Engine consumer: the coverage, risk and F1 of every pair, for export.

    Each block is written into rows ``start:start + len(ta)`` of three float64
    arrays allocated up front; a grid above ``MAX_SURFACE_CELLS`` raises
    :class:`GridTooLarge` before they are.
    """

    def __init__(self, n_id: int, grid: ThresholdGrid):
        _check_budget(grid, MAX_SURFACE_CELLS)
        shape = grid.id_thresholds.size, grid.ood_thresholds.size
        arrays = (np.empty(shape) for _ in range(3))
        self.n_id = n_id
        self.surface = PairSurface(grid.id_thresholds, grid.ood_thresholds, *arrays)

    def __call__(self, start, ta, accepted_id, accepted):
        rows = slice(start, start + len(ta))
        f1 = _half_f1(ta, accepted, self.n_id, self.surface.f1[rows])
        f1 *= 2.0
        risk = np.subtract(accepted, ta, out=self.surface.risk[rows], dtype=np.float64)
        # empty acceptance keeps risk 0: FA = 0 there, and 0 / 1 is 0
        np.divide(risk, np.maximum(accepted, 1), out=risk)
        np.divide(accepted_id, self.n_id, out=self.surface.coverage[rows])


class _BestF1:
    """Engine consumer: the maximum F1 over the blocks it is handed, and where.

    It starts from ``first``, the F1 of the grid's first pair (0, 0), which
    no tie displaces. No count rises from one row of a block to the next, so
    :func:`_half_f1` of a column's TA in the first row and accepted total in
    the last bounds every half F1 of that column; the inputs are exact
    integers and a correctly rounded division keeps their order, so the
    bound is exact too. Only the span of columns whose bound reaches the
    best so far is reduced, and only each block's maximum is doubled, which
    gives the surface's value exactly. Ties go to the smallest
    (tau_ood, tau_id).
    """

    def __init__(self, n_id: int, grid: ThresholdGrid, first: float):
        self.n_id, self.grid, self.half, self.at = n_id, grid, 0.5 * first, (0, 0)
        self._scratch = None

    def __call__(self, start, ta, accepted_id, accepted):
        n, n_cols = ta.shape
        if self._scratch is None:  # the engine's first block is its largest
            self._scratch = np.empty(ta.size), np.empty(ta.size, dtype=bool), np.empty(n_cols)
        half, hit, bound = self._scratch
        _half_f1(ta[0], accepted[-1], self.n_id, bound)
        cols = np.flatnonzero(bound >= self.half)
        if cols.size == 0:
            return
        lo, hi = int(cols[0]), int(cols[-1]) + 1
        half, hit = (a[: n * (hi - lo)].reshape(n, hi - lo) for a in (half, hit))
        _half_f1(ta[:, lo:hi], accepted[:, lo:hi], self.n_id, half)
        top = float(half.max())
        if top < self.half:
            return
        np.equal(half, top, out=hit)
        j = int(hit.any(axis=0).argmax())
        here = (lo + j, start + int(hit[:, j].argmax()))
        if top > self.half or here < self.at:
            self.half, self.at = top, here

    def result(self) -> DsResult:
        j, i = self.at
        pair = ThresholdPair(float(self.grid.id_thresholds[i]), float(self.grid.ood_thresholds[j]))
        return DsResult(value=2.0 * self.half, best_pair=pair)


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

    def __call__(self, start, ta, accepted_id, accepted):
        if self._scratch is None:  # the engine's first block is its largest
            dtypes = self.bin_of.dtype, np.float64, bool
            self._scratch = [np.empty(ta.shape, dtype=t) for t in dtypes]
        bins, risk, any_accepted = (a[: len(ta)] for a in self._scratch)
        np.subtract(accepted, ta, out=risk, dtype=np.float64)
        # empty acceptance keeps risk 0: FA = 0 there
        np.divide(risk, accepted, out=risk, where=np.greater(accepted, 0, out=any_accepted))
        np.take(self.bin_of, accepted_id, out=bins, mode="clip")
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


def _best_f1(eval_set: EvalSet, ch_id: str, ch_ood: str, grid: ThresholdGrid) -> _Lines:
    """The DS-F1 reductions of a sweep, each started from the grid's first pair."""
    pair = ThresholdPair(float(grid.id_thresholds[0]), float(grid.ood_thresholds[0]))
    first = f1_from_counts(confusion_counts(eval_set, ch_id, ch_ood, pair))
    return _Lines(eval_set, ch_id, ch_ood, grid, lambda: _BestF1(eval_set.n_id, grid, first))


def ds_f1(eval_set: EvalSet, ch_id: str, ch_ood: str, grid: ThresholdGrid) -> DsResult:
    """Maximum F1 over all threshold pairs, with the achieving pair.

    Ties are broken by the lexicographically smallest (tau_ood, tau_id), so
    reported operating points are reproducible; on a single-score line that
    is the smallest threshold.
    """
    best = _best_f1(eval_set, ch_id, ch_ood, grid)
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
    """:func:`ds_f1` and :func:`ds_aurc` from one sweep; a surface rides on the first."""
    # the surface's budget is checked before anything is allocated
    surface = _Surface(eval_set.n_id, grid) if return_surface else None
    best = _best_f1(eval_set, ch_id, ch_ood, grid)
    bin_of = _MinRisk.bins(eval_set.n_id, k_bins)
    minima = _Lines(eval_set, ch_id, ch_ood, grid, lambda: _MinRisk(bin_of, k_bins))
    if surface is None:
        _sweep(eval_set, ch_id, ch_ood, grid, best, minima)
        return best.result(), minima.result()
    _sweep(eval_set, ch_id, ch_ood, grid, best, minima, surface)
    return replace(best.result(), surface=surface.surface), minima.result()
