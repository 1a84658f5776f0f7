"""Core dataset types and the two-threshold acceptance primitive.

An evaluation set mixes in-distribution (ID) samples, which carry a
correctness flag, with out-of-distribution (OOD) samples, which do not.
Every sample exposes the same named score channels; all downstream metrics
are pure functions of an :class:`EvalSet` and thresholds on its channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "DsevalError",
    "MixedSchema",
    "MissingCorrectness",
    "NonFiniteScore",
    "UnknownChannel",
    "Origin",
    "SampleRecord",
    "ThresholdPair",
    "EvalSet",
    "build_eval_set",
    "acceptance_set",
    "accept_all_threshold",
]


class DsevalError(Exception):
    """Base class for errors raised by this package."""


class MixedSchema(DsevalError):
    pass


class MissingCorrectness(DsevalError):
    pass


class NonFiniteScore(DsevalError):
    pass


class UnknownChannel(DsevalError):
    pass


class Origin(Enum):
    ID = "id"
    OOD = "ood"


@dataclass(frozen=True)
class SampleRecord:
    """One evaluation sample.

    ``correct`` must be set for ID samples and must be None for OOD samples;
    :func:`build_eval_set` enforces this rather than the constructor, so that
    invalid records can be rejected with a proper diagnostic.
    """

    sample_id: str
    origin: Origin
    correct: bool | None
    scores: Mapping[str, float]


@dataclass(frozen=True)
class ThresholdPair:
    """Acceptance thresholds, one per score axis. Comparisons are inclusive."""

    tau_id: float
    tau_ood: float


def accept_all_threshold(values: Sequence[float] | np.ndarray) -> float:
    """A sentinel threshold strictly below every value, so ``>=`` accepts all:
    ``min - 1``, or the next float below ``min`` once ``- 1`` no longer moves it."""
    low = float(np.min(values))
    below = low - 1.0
    return below if below < low else math.nextafter(low, -math.inf)


class EvalSet:
    """Immutable mixed ID/OOD evaluation set, held as columns.

    Instances are built by :meth:`from_columns` (or from records by
    :func:`build_eval_set`), are safe to share across concurrent readers,
    and never mutate after construction.
    """

    def __init__(self, sample_ids, is_id, id_correct, channel_names, matrix):
        self._sample_ids, self._is_id, self._id_correct = sample_ids, is_id, id_correct
        self._channel_names, self._matrix = channel_names, matrix
        for arr in (sample_ids, is_id, id_correct, matrix):
            arr.setflags(write=False)

    @classmethod
    def from_columns(cls, sample_ids, is_id, correct, channels: Mapping) -> "EvalSet":
        """Validate equal-length columns, one entry per sample, and build the set.

        ``sample_ids`` are strings, ``is_id`` and ``correct`` booleans, and
        ``channels`` maps each channel name to its scores. ``correct`` is
        read at ID rows only. Requires at least one sample, at least one ID
        sample, finite scores and unique sample ids. Row order is preserved.
        """
        sample_ids = np.array(sample_ids, dtype=str)
        n = sample_ids.size
        if n == 0:
            raise MixedSchema("cannot build an evaluation set from zero records")
        is_id, correct = np.array(is_id, dtype=bool), np.asarray(correct, dtype=bool)
        names = tuple(channels)
        columns = [np.asarray(channels[name], dtype=np.float64) for name in names]
        if any(col.shape != (n,) for col in (sample_ids, is_id, correct, *columns)):
            raise MixedSchema(f"every column needs one entry for each of {n} samples")
        matrix = np.column_stack(columns) if columns else np.empty((n, 0))
        bad = np.argwhere(~np.isfinite(matrix))
        if bad.size:
            i, j = bad[0]
            raise NonFiniteScore(
                f"record {str(sample_ids[i])!r} channel {names[j]!r} has non-finite "
                f"score {float(matrix[i, j])!r}"
            )
        if not is_id.any():
            raise MissingCorrectness("an evaluation set needs at least one ID record")
        _, first = np.unique(sample_ids, return_index=True)
        if first.size < n:
            repeat = str(sample_ids[np.setdiff1d(np.arange(n), first)[0]])
            raise MixedSchema(f"sample id {repeat!r} appears more than once")
        return cls(sample_ids, is_id, is_id & correct, names, matrix)

    @cached_property
    def records(self) -> tuple[SampleRecord, ...]:
        """One record per row, derived from the columns on first use."""
        names, ids = self._channel_names, self._sample_ids.tolist()
        rows = zip(ids, self._is_id.tolist(), self._id_correct.tolist(), self._matrix.tolist())
        return tuple(
            SampleRecord(sid, Origin.ID, ok, dict(zip(names, row)))
            if iid
            else SampleRecord(sid, Origin.OOD, None, dict(zip(names, row)))
            for sid, iid, ok, row in rows
        )

    @property
    def sample_ids(self) -> np.ndarray:
        return self._sample_ids

    @property
    def channel_names(self) -> tuple[str, ...]:
        return self._channel_names

    @property
    def n_total(self) -> int:
        return self._is_id.size

    @property
    def n_id(self) -> int:
        return int(self._is_id.sum())

    @property
    def n_ood(self) -> int:
        return self.n_total - self.n_id

    @property
    def is_id(self) -> np.ndarray:
        """Boolean mask, True at ID rows."""
        return self._is_id

    @property
    def id_correct(self) -> np.ndarray:
        """Boolean mask, True only at correctly classified ID rows."""
        return self._id_correct

    @property
    def id_wrong(self) -> np.ndarray:
        return self._is_id & ~self._id_correct

    @property
    def id_accuracy(self) -> float:
        return float(self._id_correct.sum() / self.n_id)

    def channel(self, name: str) -> np.ndarray:
        """Read-only float64 column for a named score channel."""
        try:
            col = self._channel_names.index(name)
        except ValueError:
            raise UnknownChannel(
                f"unknown channel {name!r}; available: {list(self._channel_names)}"
            ) from None
        return self._matrix[:, col]

    def __len__(self) -> int:
        return self.n_total

    def __repr__(self) -> str:
        return (
            f"EvalSet(n_id={self.n_id}, n_ood={self.n_ood}, "
            f"channels={list(self._channel_names)})"
        )


def build_eval_set(records: Sequence[SampleRecord]) -> EvalSet:
    """Build an :class:`EvalSet` from records through :meth:`EvalSet.from_columns`.

    Checks here only what records can get wrong and columns cannot: a
    channel set that differs between records, and a correctness flag that
    does not fit the origin. Input order is preserved.
    """
    records = tuple(records)
    names = tuple(records[0].scores) if records else ()
    schema = frozenset(names)
    for rec in records:
        if frozenset(rec.scores.keys()) != schema:
            raise MixedSchema(
                f"record {rec.sample_id!r} has channels {sorted(rec.scores)} "
                f"but the set schema is {sorted(schema)}"
            )
        if rec.origin is Origin.ID and rec.correct is None:
            raise MissingCorrectness(f"ID record {rec.sample_id!r} lacks a correctness flag")
        if rec.origin is not Origin.ID and rec.correct is not None:
            raise MissingCorrectness(
                f"OOD record {rec.sample_id!r} must not carry a correctness flag"
            )
    return EvalSet.from_columns(
        [rec.sample_id for rec in records],
        [rec.origin is Origin.ID for rec in records],
        [bool(rec.correct) for rec in records],
        {name: [float(rec.scores[name]) for rec in records] for name in names},
    )


def acceptance_set(
    eval_set: EvalSet, ch_id: str, ch_ood: str, pair: ThresholdPair
) -> np.ndarray:
    """Indices accepted by the pair rule: s_ood >= tau_ood and s_id >= tau_id.

    Both comparisons are inclusive, so ties at a threshold are accepted.
    Returned indices are in ascending dataset order.
    """
    s_id = eval_set.channel(ch_id)
    s_ood = eval_set.channel(ch_ood)
    return np.flatnonzero((s_id >= pair.tau_id) & (s_ood >= pair.tau_ood))
