"""Evaluation metrics: ranking error, l2 error, ties, percentiles, trial stats.

The error metrics take aligned 1-D vectors: the caller puts truth and
estimate in one review order, once, and a shape mismatch raises
``ValueError``."""

from __future__ import annotations

import numpy as np


class AllTiedError(ValueError):
    """The truth vector has no strictly ordered pair, so the ranking error is
    undefined."""


class EmptyStatisticsError(ValueError):
    pass


TIE_TOLERANCE = 1e-4
"""Two estimate values closer than this are tied. Truth values tie only when
exactly equal, so truth ties are transitive and form runs of equal values."""

_BLOCK = 512


def _aligned(truth, estimate) -> tuple[np.ndarray, np.ndarray]:
    t = np.asarray(truth, dtype=float)
    e = np.asarray(estimate, dtype=float)
    if t.ndim != 1 or t.shape != e.shape:
        raise ValueError(
            f"truth and estimate must be aligned 1-D vectors, got shapes {t.shape} and {e.shape}"
        )
    return t, e


def kendall_tau_error(truth, estimate) -> float:
    """Normalized ranking error of ``estimate`` against ``truth``, two aligned
    1-D vectors (entry i of each describes the same review).

    Over all index pairs whose truth values differ (exactly equal truth values
    are omitted), count 1 for each pair the estimate orders the other way and
    1/2 for each pair the estimate ties (absolute difference below
    ``TIE_TOLERANCE``), divided by the number of truth-ordered pairs.
    Comparisons are global across the whole vector, not per reviewer. Direct
    O(n^2) computation, in row blocks to bound memory.
    """
    t, e = _aligned(truth, estimate)
    n = t.shape[0]
    ordered = 0
    penalty = 0.0
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        dt = t[start:stop, None] - t[None, :]
        de = e[start:stop, None] - e[None, :]
        upper = np.arange(n)[None, :] > np.arange(start, stop)[:, None]
        is_ordered = upper & (dt != 0.0)
        ordered += int(is_ordered.sum())
        oriented = np.sign(dt) * de
        # exact equality always ties, whatever the tolerance: equal values
        # order nothing, so the half penalty is the only sound treatment
        tied = (np.abs(de) < TIE_TOLERANCE) | (de == 0.0)
        penalty += float((is_ordered & tied).sum()) * 0.5
        penalty += float((is_ordered & ~tied & (oriented < 0)).sum())
    if ordered == 0:
        raise AllTiedError("no strictly ordered truth pair")
    return penalty / ordered


def l2_error(truth, estimate) -> float:
    """Euclidean distance between two aligned 1-D vectors."""
    t, e = _aligned(truth, estimate)
    return float(np.linalg.norm(t - e))


def project_to_original_scale(y_hat):
    """Map a dequantized value on the coarse (half) scale back to the fine
    integer scale: round 2*y - 0.5 to the nearest integer, halves rounding up
    (so values in [1, 1.5) go to 2 and values in [1.5, 2) go to 3)."""
    arr = np.floor(2.0 * np.asarray(y_hat, dtype=float) - 0.5 + 0.5).astype(int)
    if np.ndim(y_hat) == 0:
        return int(arr)
    return arr


def tie_fraction(values) -> float:
    """Fraction of unordered pairs of a 1-D vector closer than ``TIE_TOLERANCE``."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError(f"values must be a 1-D vector, got shape {values.shape}")
    n = values.shape[0]
    total = n * (n - 1) // 2
    if total == 0:
        return 0.0
    tied = 0
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        diff = np.abs(values[start:stop, None] - values[None, :])
        upper = np.arange(n)[None, :] > np.arange(start, stop)[:, None]
        tied += int((upper & (diff < TIE_TOLERANCE)).sum())
    return tied / total


def percentiles(values: dict) -> dict:
    """Percentile rank (0..100) of each value among all values, ties sharing
    the mean rank: with n values, the k-th smallest sits at 100*(k - 0.5)/n."""
    keys = sorted(values)
    arr = np.array([values[k] for k in keys], dtype=float)
    pct = 100.0 * (_average_ranks(arr) - 0.5) / arr.shape[0]
    return {k: float(p) for k, p in zip(keys, pct)}


def _average_ranks(arr: np.ndarray) -> np.ndarray:
    """1-based ranks, each run of equal values sharing the mean of its ranks:
    a run at sorted positions [start, end) gets (start + end + 1) / 2."""
    order = np.argsort(arr, kind="stable")
    ordered = arr[order]
    run_start = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    starts = np.flatnonzero(run_start)
    ends = np.append(starts[1:], arr.shape[0])
    ranks = np.empty(arr.shape[0])
    ranks[order] = ((starts + ends + 1) / 2.0)[np.cumsum(run_start) - 1]
    return ranks


def trial_statistics(errors) -> tuple[float, float]:
    """Mean and standard error of the mean; a single trial has SEM 0 by
    convention."""
    arr = np.asarray(list(errors), dtype=float)
    if arr.size == 0:
        raise EmptyStatisticsError("no trials")
    if arr.size == 1:
        return float(arr[0]), 0.0
    return float(arr.mean()), float(arr.std(ddof=1) / np.sqrt(arr.size))
