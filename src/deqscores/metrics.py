"""Evaluation metrics: ranking error, l2 error, ties, percentiles, trial stats.

The error metrics take aligned 1-D vectors: the caller puts truth and
estimate in one review order, once, and a shape mismatch or a non-finite
value raises ``ValueError``. The pair counts of ``kendall_tau_error`` and
``tie_fraction`` are sort-based (O(n log^2 n) and O(n log n)) and decide
every pair exactly as a direct pairwise comparison would."""

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


def _aligned(truth, estimate) -> tuple[np.ndarray, np.ndarray]:
    t = _finite(truth, "truth")
    e = _finite(estimate, "estimate")
    if t.ndim != 1 or t.shape != e.shape:
        raise ValueError(
            f"truth and estimate must be aligned 1-D vectors, got shapes {t.shape} and {e.shape}"
        )
    return t, e


def _finite(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if not np.isfinite(arr).all():
        # NaN compares False with everything, so it would tie nothing and
        # order nothing: a perfect score for a vector that holds no values
        raise ValueError(f"{name} contains non-finite values")
    return arr


def _vector(values) -> np.ndarray:
    arr = _finite(values, "values")
    if arr.ndim != 1:
        raise ValueError(f"values must be a 1-D vector, got shape {arr.shape}")
    return arr


def _tie_bounds(s: np.ndarray) -> np.ndarray:
    """For ascending ``s``, the first position p > r with
    ``s[p] - s[r] >= TIE_TOLERANCE`` as computed in floating point (``n`` if
    none), for each position r: positions r+1 .. p-1 are r's ties above it.

    Rounding is monotone, so the rounded difference never decreases as p
    grows: the positions at or past the tolerance form a suffix. A
    ``searchsorted`` against ``s + TIE_TOLERANCE`` finds its start up to the
    rounding of that sum; the loop then moves each guess over whole runs of
    equal values until the direct difference agrees on both sides of it.
    """
    padded = np.append(s, np.inf)
    bound = np.searchsorted(s, s + TIE_TOLERANCE)
    while True:
        low = padded[bound] - s < TIE_TOLERANCE
        high = (bound > 0) & (padded[bound - 1] - s >= TIE_TOLERANCE)
        if not (low.any() or high.any()):
            return bound
        bound[low] = np.searchsorted(s, s[bound[low]], side="right")
        bound[high] = np.searchsorted(s, s[bound[high] - 1], side="left")


def kendall_tau_error(truth, estimate) -> float:
    """Normalized ranking error of ``estimate`` against ``truth``, two aligned
    1-D vectors (entry i of each describes the same review).

    Over all index pairs whose truth values differ (exactly equal truth values
    are omitted), count 1 for each pair the estimate orders the other way and
    1/2 for each pair the estimate ties, divided by the number of
    truth-ordered pairs. Comparisons are global across the whole vector, not
    per reviewer. A pair ties when its estimates' difference, computed in
    floating point, is below ``TIE_TOLERANCE`` in absolute value; the result
    equals that pairwise rule's bit for bit. Non-finite inputs raise
    ``ValueError``.

    Sort-based, O(n log^2 n): one sort by (truth, estimate), tied pairs from
    the tie boundary of each estimate, discordant pairs from a bottom-up merge
    tree over truth order.
    """
    t, e = _aligned(truth, estimate)
    n = t.shape[0]
    order = np.lexsort((e, t))
    t, e = t[order], e[order]
    new_run = np.concatenate(([True], t[1:] != t[:-1]))
    run = np.cumsum(new_run) - 1
    run_sizes = np.bincount(run)
    ordered = n * (n - 1) // 2 - int((run_sizes * (run_sizes - 1) // 2).sum())
    if ordered == 0:
        raise AllTiedError("no strictly ordered truth pair")

    # rank: position in a stable sort of the estimates; within a truth run the
    # estimates ascend, so ranks ascend too
    by_estimate = np.argsort(e, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[by_estimate] = np.arange(n)
    bound = _tie_bounds(e[by_estimate])
    # the estimates ranked at or above ``above`` are the ones at least
    # TIE_TOLERANCE higher than this one, by the rounded difference
    above = bound[rank]
    tied = int((bound - np.arange(n) - 1).sum())
    # subtract tied pairs inside one truth run: the run's ties of each review
    # are its later entries ranked below ``above``
    keys = run * (n + 1) + rank
    tied -= int((np.searchsorted(keys, keys - rank + above) - np.arange(n) - 1).sum())

    # a pair (a before b in truth order) is discordant when a is ranked at or
    # above b's ``above``; an earlier review of b's own run never is. A merge
    # tree counts each pair at the level where a falls in a left block and b
    # in its right sibling. Padding to a power of two adds left entries
    # ranked -1 and right entries with ``above`` n, which count nothing.
    size = 1 << (n - 1).bit_length()
    ranks = np.full(size, -1, dtype=np.int64)
    ranks[:n] = rank
    thresholds = np.full(size, n, dtype=np.int64)
    thresholds[:n] = above
    discordant = 0
    width = 1
    while width < size:
        blocks = size // (2 * width)
        # keys of block j lie in [j(n+1) - 1, j(n+1) + n - 1], so one sorted
        # array holds every left block in turn, block j from j * width on
        offset = np.arange(blocks)[:, None] * (n + 1)
        left = (np.sort(ranks.reshape(blocks, 2, width)[:, 0], axis=1) + offset).ravel()
        query = (thresholds.reshape(blocks, 2, width)[:, 1] + offset).ravel()
        # b of block j is discordant with (j + 1) * width - searchsorted(b)
        # entries of its left sibling; summed over the width b's of each block
        at_or_above = width * width * blocks * (blocks + 1) // 2
        discordant += at_or_above - int(np.searchsorted(left, query).sum())
        width *= 2
    return (tied * 0.5 + discordant) / ordered


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
    """Fraction of unordered pairs of a 1-D vector whose difference, computed
    in floating point, is below ``TIE_TOLERANCE`` in absolute value: the tie
    rule of ``kendall_tau_error``, counted by sorting in O(n log n).
    Non-finite values raise ``ValueError``."""
    values = _vector(values)
    n = values.shape[0]
    total = n * (n - 1) // 2
    if total == 0:
        return 0.0
    tied = int((_tie_bounds(np.sort(values)) - np.arange(n) - 1).sum())
    return tied / total


def percentiles(values) -> np.ndarray:
    """Percentile rank (0..100) of each entry of a 1-D vector among all its
    entries, ties sharing the mean rank: with n values, the k-th smallest
    sits at 100*(k - 0.5)/n. Non-finite values raise ``ValueError``."""
    arr = _vector(values)
    return 100.0 * (_average_ranks(arr) - 0.5) / arr.shape[0]


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
