"""Brute-force reference implementations used by tests and cross-checks.

Everything here is deliberately naive pure Python: per-sample scans over
every candidate threshold pair, exact fractions for comparisons, no shared
code with the fast paths. Inputs are capped in size; these functions exist
to validate, not to perform.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .core import DsevalError, EvalSet, ThresholdPair

__all__ = [
    "CapExceeded",
    "DEFAULT_CAP",
    "oracle_ds_f1",
    "oracle_ds_aurc",
    "oracle_auroc",
]

DEFAULT_CAP = 500


class CapExceeded(DsevalError):
    pass


def _check_cap(eval_set: EvalSet, cap: int) -> None:
    if eval_set.n_total > cap:
        raise CapExceeded(
            f"oracle is capped at {cap} samples, got {eval_set.n_total}"
        )


def _columns(eval_set: EvalSet, ch_id: str, ch_ood: str):
    s_id = [float(v) for v in eval_set.channel(ch_id)]
    s_ood = [float(v) for v in eval_set.channel(ch_ood)]
    is_id = [bool(v) for v in eval_set.is_id]
    correct = [bool(v) for v in eval_set.id_correct]
    return s_id, s_ood, is_id, correct


def _candidate_thresholds(values: list[float]) -> list[float]:
    distinct = sorted(set(values))
    below = distinct[0] - 1.0  # at huge magnitudes - 1 does not move it
    return [below if below < distinct[0] else math.nextafter(below, -math.inf)] + distinct


def oracle_ds_f1(
    eval_set: EvalSet, ch_id: str, ch_ood: str, cap: int = DEFAULT_CAP
) -> tuple[float, ThresholdPair]:
    """Exact DS-F1 by enumerating every pair of distinct values plus sentinels."""
    _check_cap(eval_set, cap)
    s_id, s_ood, is_id, correct = _columns(eval_set, ch_id, ch_ood)
    n_id = sum(is_id)
    best = Fraction(-1)
    best_pair = None
    for tau_ood in _candidate_thresholds(s_ood):
        for tau_id in _candidate_thresholds(s_id):
            ta = 0
            accepted = 0
            for sid, sood, iid, cor in zip(s_id, s_ood, is_id, correct):
                if sid >= tau_id and sood >= tau_ood:
                    accepted += 1
                    if iid and cor:
                        ta += 1
            if accepted == 0 or ta == 0:
                f1 = Fraction(0)
            else:
                precision = Fraction(ta, accepted)
                recall = Fraction(ta, n_id)
                f1 = 2 * precision * recall / (precision + recall)
            if f1 > best:
                best = f1
                best_pair = ThresholdPair(tau_id=tau_id, tau_ood=tau_ood)
    return float(best), best_pair


def oracle_ds_aurc(
    eval_set: EvalSet, ch_id: str, ch_ood: str, k_bins: int, cap: int = DEFAULT_CAP
) -> float:
    """Exhaustive pair enumeration, per-bin minimum risk, left Riemann integral."""
    _check_cap(eval_set, cap)
    s_id, s_ood, is_id, correct = _columns(eval_set, ch_id, ch_ood)
    n_id = sum(is_id)

    bins = [None] * k_bins
    for tau_ood in _candidate_thresholds(s_ood):
        for tau_id in _candidate_thresholds(s_id):
            accepted = 0
            accepted_id = 0
            failures = 0
            for sid, sood, iid, cor in zip(s_id, s_ood, is_id, correct):
                if sid >= tau_id and sood >= tau_ood:
                    accepted += 1
                    if iid:
                        accepted_id += 1
                        if not cor:
                            failures += 1
                    else:
                        failures += 1
            risk = failures / accepted if accepted > 0 else 0.0
            u = accepted_id / n_id
            b = min(int(u * k_bins), k_bins - 1)
            if bins[b] is None or risk < bins[b]:
                bins[b] = risk

    filled = [b for b in range(k_bins) if bins[b] is not None]
    values = []
    for b in range(k_bins):
        if bins[b] is not None:
            values.append(bins[b])
        elif b < filled[0]:
            values.append(bins[filled[0]])
        elif b > filled[-1]:
            values.append(bins[filled[-1]])
        else:
            lo = max(f for f in filled if f < b)
            hi = min(f for f in filled if f > b)
            frac = (b - lo) / (hi - lo)
            values.append(bins[lo] + (bins[hi] - bins[lo]) * frac)
    return sum(values) / k_bins


def oracle_auroc(id_scores, ood_scores) -> float:
    """All-pairs comparison with half credit for ties."""
    id_scores = list(id_scores)
    ood_scores = list(ood_scores)
    if not id_scores or not ood_scores:
        raise DsevalError("both sides must be non-empty")
    wins = Fraction(0)
    for a in id_scores:
        for b in ood_scores:
            if a > b:
                wins += 1
            elif a == b:
                wins += Fraction(1, 2)
    return float(wins / (len(id_scores) * len(ood_scores)))
