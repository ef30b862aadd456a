"""Evaluation metrics: ranking error, l2 error, ties, percentiles, trial stats.

The error metrics take aligned 1-D vectors: the caller puts truth and
estimate in one review order, once, and a shape mismatch or a non-finite
value raises ``ValueError``. The pair counts of the Kendall error and of
``tie_fraction`` are sort-based (O(n log^2 n) and O(n log n)) and decide
every pair exactly as a direct pairwise comparison would. There is one
Kendall kernel, ``kendall_tau_errors``, which scores many estimates of one
truth (a lambda grid's solutions) in batches, each batch as one array;
``kendall_tau_error`` is that kernel on one estimate."""

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
    return t, _aligned_with(t, estimate)


def _aligned_with(t: np.ndarray, estimate) -> np.ndarray:
    e = _finite(estimate, "estimate")
    if t.ndim != 1 or t.shape != e.shape:
        raise ValueError(
            f"truth and estimate must be aligned 1-D vectors, got shapes {t.shape} and {e.shape}"
        )
    return e


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


def _gather(values: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``values[r, index[r, j]]`` for every row r and column j of the 2-D
    ``index`` (``np.take_along_axis`` along rows, as one flat take)."""
    rows, width = values.shape
    return values.ravel()[index + np.arange(rows)[:, None] * width]


# ``kendall_tau_errors`` works on batches of at most this many entries (the
# vectors' length padded to a power of two, times their number; one vector
# when it is longer). A batch's working memory is about a dozen arrays of
# its size: at n = 240 eight vectors take about 200 KB, no more than the
# memory ``select_lambda`` frees before scoring, and larger batches were
# little faster. From n = 2 400 up a batch is one vector.
_BATCH_ENTRIES = 1 << 11


def kendall_tau_errors(truth, estimates) -> np.ndarray:
    """``kendall_tau_error`` of each vector of ``estimates`` (a sequence of
    1-D vectors, or the rows of a 2-D array) against one ``truth``, as an
    array equal to one call per vector, bit for bit.

    Sort-based, O(n log^2 n) per vector: a sort by (truth, estimate), tied
    pairs from the tie boundary of each estimate and discordant pairs from a
    bottom-up merge tree over truth order. Each step runs on a batch of
    vectors as one array; a batch holds at most ``_BATCH_ENTRIES`` entries.
    """
    t = _finite(truth, "truth")
    rows = [_aligned_with(t, estimate) for estimate in estimates]
    n = t.shape[0]
    ascending = t[np.argsort(t, kind="stable")]
    # the run of equal truth of each position in truth order
    run = np.cumsum(np.concatenate(([True], ascending[1:] != ascending[:-1]))) - 1
    run_sizes = np.bincount(run)
    ordered = n * (n - 1) // 2 - int((run_sizes * (run_sizes - 1) // 2).sum())
    if ordered == 0:
        raise AllTiedError("no strictly ordered truth pair")
    per_batch = max(1, _BATCH_ENTRIES // (1 << (n - 1).bit_length()))
    disagreement = np.empty(len(rows))
    for first in range(0, len(rows), per_batch):
        batch = np.stack(rows[first:first + per_batch])
        rank, above, tied = _ranks_and_ties(t, batch, run)
        disagreement[first:first + rank.shape[0]] = tied * 0.5 + _discordant(rank, above)
    return disagreement / ordered


def _ranks_and_ties(
    t: np.ndarray, e: np.ndarray, run: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each row of ``e`` (k, n), one vector of estimates of the truth
    ``t`` whose runs of equal values ``run`` numbers in truth order: in
    (truth, estimate) order, each review's ``rank`` and ``above`` (see
    below), and the number of pairs of reviews with distinct truth that the
    row ties."""
    k, n = e.shape
    positions = np.arange(n)
    row = np.arange(k)
    e = _gather(e, np.lexsort((e, np.broadcast_to(t, e.shape)), axis=1))
    # rank: position in a stable sort of a row's estimates; within a truth
    # run the estimates ascend, so ranks ascend too
    by_estimate = np.argsort(e, axis=1, kind="stable")
    rank = np.empty(k * n, dtype=np.int64)
    rank[(by_estimate + row[:, None] * n).ravel()] = np.tile(positions, k)
    rank = rank.reshape(k, n)
    bound = np.stack([_tie_bounds(values) for values in _gather(e, by_estimate)])
    # the estimates ranked at or above ``above`` are the ones at least
    # TIE_TOLERANCE higher than this one, by the rounded difference
    above = _gather(bound, rank)
    tied = (bound - positions - 1).sum(axis=1)
    # subtract tied pairs inside one truth run: the run's ties of each review
    # are its later entries ranked below ``above``. Keys ascend along a row,
    # and row r's lie in [r * stride, (r + 1) * stride), so one sorted array
    # holds every row in turn, row r's keys from r * n on
    stride = (int(run[-1]) + 1) * (n + 1)
    start = run * (n + 1) + row[:, None] * stride
    inside = np.searchsorted((start + rank).ravel(), (start + above).ravel()).reshape(k, n)
    tied -= (inside - row[:, None] * n - positions - 1).sum(axis=1)
    return rank, above, tied


def _discordant(rank: np.ndarray, above: np.ndarray) -> np.ndarray:
    """For each row of ``rank`` and ``above`` (k, n), in (truth, estimate)
    order: the number of pairs of reviews with distinct truth that the row's
    estimates order against the truth.

    A pair (a before b in truth order) is discordant when a is ranked at or
    above b's ``above``; an earlier review of b's own run never is. A merge
    tree counts each pair at the level where a falls in a left block and b
    in its right sibling. Padding each row to a power of two adds left
    entries ranked -1 and right entries with ``above`` n, which count
    nothing.
    """
    k, n = rank.shape
    size = 1 << (n - 1).bit_length()
    ranks = np.full((k, size), -1, dtype=np.int64)
    ranks[:, :n] = rank
    thresholds = np.full((k, size), n, dtype=np.int64)
    thresholds[:, :n] = above
    found = np.zeros(k, dtype=np.int64)
    at_or_above = at_or_above_per_row = 0
    width = 1
    while width < size:
        # the blocks of all rows in turn; keys of block j lie in
        # [j(n+1) - 1, j(n+1) + n - 1], so one sorted array holds every left
        # block in turn, block j from j * width on
        blocks = size // (2 * width)  # per row
        offset = np.arange(k * blocks)[:, None] * (n + 1)
        left = (np.sort(ranks.reshape(-1, 2, width)[:, 0], axis=1) + offset).ravel()
        query = (thresholds.reshape(-1, 2, width)[:, 1] + offset).ravel()
        found += np.searchsorted(left, query).reshape(k, -1).sum(axis=1)
        # b of block j is discordant with (j + 1) * width - searchsorted(b)
        # entries of its left sibling; row r's blocks are j = r * blocks ..
        at_or_above += width * width * blocks * (blocks + 1) // 2
        at_or_above_per_row += width * width * blocks * blocks
        width *= 2
    return at_or_above + np.arange(k) * at_or_above_per_row - found


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
    ``ValueError``. This is ``kendall_tau_errors`` on one vector.
    """
    return float(kendall_tau_errors(truth, [estimate])[0])


def l2_error(truth, estimate) -> float:
    """Euclidean distance between two aligned 1-D vectors. The squares are
    summed by numpy's own loop, not by BLAS, whose threads split a long sum
    and round it differently with their number."""
    t, e = _aligned(truth, estimate)
    d = t - e
    return float(np.sqrt(np.einsum("i,i->", d, d)))


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
