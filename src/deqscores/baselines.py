"""Reference methods the QP output is compared against.

All of them operate per reviewer and only ever move values inside a
quantization bin (a reviewer's papers sharing one score), preserving the bin
mean so the adjusted outputs stay centered on the reported score.

Tie breaking inside bins has one rule: the group-wise adjustment of
``partial_rankings_adjusted_scores``, which orders a bin by the tie groups
of a group-total ranking. The rank-wise ``bre_adjusted_scores`` (BRE) is
that rule restricted to total rankings, where every group is one paper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import DEFAULT_EPSILON, DequantizedScores, ReviewDataset


class NotTotalRanking(ValueError):
    """A reviewer's ranking does not order every pair of their papers."""


class GroupsInconsistent(ValueError):
    """The reported pairs do not form a total order over tie groups."""


class UnequalReviewCounts(ValueError):
    """The closed form requires every paper to have the same review count."""


@dataclass(frozen=True)
class QuantizationBin:
    """Papers sharing one quantized score within one reviewer's assignment."""

    reviewer_id: str
    score_value: int
    members: tuple[str, ...]


@dataclass(frozen=True)
class RankedGroup:
    """Mutually tied papers at one level of a reviewer's group-total order;
    higher ``group_index`` means ranked better."""

    group_index: int
    members: tuple[str, ...]


def _reviewer(dataset: ReviewDataset, reviewer_id: str) -> int:
    """The position of ``reviewer_id`` in the dataset's reviewer table."""
    r = int(dataset.reviewer_ids.searchsorted(reviewer_id))
    if dataset.reviewer_ids[r : r + 1].tolist() != [reviewer_id]:
        raise KeyError(reviewer_id)
    return r


def quantization_bins(dataset: ReviewDataset, reviewer_id: str) -> list[QuantizationBin]:
    reviews = dataset.reviews_of(_reviewer(dataset, reviewer_id))
    by_score: dict[int, list[str]] = {}
    for paper, score in zip(
        dataset.paper_ids[dataset.paper[reviews]], dataset.scores[reviews].tolist()
    ):
        by_score.setdefault(score, []).append(paper)
    return [
        QuantizationBin(reviewer_id, score, tuple(papers))
        for score, papers in sorted(by_score.items())
    ]


def quantized_baseline(dataset: ReviewDataset) -> DequantizedScores:
    """The reported scores themselves, as reals."""
    return DequantizedScores(
        values=dict(zip(dataset.pairs(), dataset.scores.astype(float).tolist()))
    )


def bre_adjusted_scores(
    dataset: ReviewDataset, epsilon: float = DEFAULT_EPSILON
) -> DequantizedScores:
    """Break ties inside each quantization bin by rank, preserving bin means.

    The group-wise rule of ``partial_rankings_adjusted_scores`` restricted to
    total rankings, where every tie group is one paper: papers in a bin of
    size m get equally spaced epsilon increments by their rank within the bin
    and are then recentered onto the bin's score, which works out to
    z + epsilon * (rank_in_bin - 1/2 - m/2). Raises ``NotTotalRanking``
    naming the first reviewer, in sorted order, whose ranking leaves a pair
    of their papers unordered.
    """
    # each reviewer's distinct pairs of scored papers that a row orders, one
    # way or the other, as (lower, higher) review positions
    ends = np.sort(dataset.ranked_reviews, axis=0)
    ordered = np.unique(ends[:, (ends[0] >= 0) & (ends[0] != ends[1])], axis=1)
    width = dataset.reviewer_ids.shape[0]
    covered = np.bincount(dataset.reviewer[ordered[0]], minlength=width)
    load = np.bincount(dataset.reviewer, minlength=width)
    short = np.flatnonzero(covered < load * (load - 1) // 2)
    if short.size:
        reviewer = dataset.reviewer_ids[short[0]]
        raise NotTotalRanking(f"reviewer {reviewer!r} has an incomplete ranking")
    return partial_rankings_adjusted_scores(dataset, epsilon)


def ranked_groups(
    dataset: ReviewDataset, reviewer_id: str
) -> list[RankedGroup]:
    """Recover the tie groups of a reviewer's group-total order.

    Papers are grouped by how many papers they beat. The ranking is
    group-total exactly when its reported pairs are the pairs this grouping
    implies: every paper over every paper that beats fewer. A total ranking
    is the case where every group is one paper. Raises
    ``GroupsInconsistent`` naming the least pair reported or implied but not
    both.
    """
    r = _reviewer(dataset, reviewer_id)
    papers = dataset.paper_ids[dataset.paper[dataset.reviews_of(r)]].tolist()
    rows = dataset.rankings_of(r)
    reported = set(
        zip(dataset.paper_ids[dataset.better[rows]], dataset.paper_ids[dataset.worse[rows]])
    )
    beats = {p: 0 for p in papers}
    for better, _worse in reported:
        beats[better] += 1
    implied = {(p, q) for p in papers for q in papers if beats[p] > beats[q]}
    if reported != implied:
        raise GroupsInconsistent(
            f"reviewer {reviewer_id!r}: the reported pairs are no total order over "
            f"tie groups; first mismatch {min(reported ^ implied)!r}"
        )
    levels: dict[int, list[str]] = {}
    for p in papers:
        levels.setdefault(beats[p], []).append(p)
    return [
        RankedGroup(group_index=i + 1, members=tuple(sorted(levels[k])))
        for i, k in enumerate(sorted(levels))
    ]


def partial_rankings_adjusted_scores(
    dataset: ReviewDataset, epsilon: float = DEFAULT_EPSILON
) -> DequantizedScores:
    """Group-wise tie breaking for group-total partial rankings.

    Within each quantization bin, the t-th lowest tie group present gets
    offset t*epsilon (all its papers together) and the bin is recentered onto
    its score, its members summed in group order. A bin spanned by a single
    group keeps the reported score exactly. On total rankings this is
    ``bre_adjusted_scores``, bit for bit.
    """
    values: dict = {}
    for reviewer in dataset.reviewer_ids[np.unique(dataset.reviewer)]:
        level = {
            p: g.group_index for g in ranked_groups(dataset, reviewer) for p in g.members
        }
        for bin_ in quantization_bins(dataset, reviewer):
            members = sorted(bin_.members, key=level.get)
            present = sorted({level[p] for p in members})
            offset_of = {g: t * epsilon for t, g in enumerate(present)}
            raw = {p: bin_.score_value + offset_of[level[p]] for p in members}
            excess = sum(raw.values()) / len(members) - bin_.score_value
            for p in members:
                values[(reviewer, p)] = raw[p] - excess
    return DequantizedScores(values=values)


def score_only_closed_form(dataset: ReviewDataset, lam: float) -> DequantizedScores:
    """Analytic scores-only solution: the exact minimizer of the consensus+fit
    objective when no rankings are reported.

    Per paper, each output is a convex combination of the reviewer's own
    score and the paper's output mean m, clipped into the half-unit box:
    y_r = clip((m + lam*z_r) / (1 + lam), z_r - 1/2, z_r + 1/2). These are the
    objective's KKT conditions, so for lam > 0 the result is its unique
    minimizer. m is the fixed point of m = mean_r(y_r), found exactly by
    ``_output_mean``. When no clip is one-sided, m is the mean score and the
    form reduces to the published weights: (1 + mu*lam) / (mu*(1 + lam)) on
    the reviewer's own score and 1 / (mu*(1 + lam)) on each other score of
    the paper. Requires every paper to have the same review count mu;
    rankings are ignored.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    counts = set(np.unique(dataset.paper, return_counts=True)[1].tolist())
    if len(counts) != 1:
        raise UnequalReviewCounts(f"papers have differing review counts {sorted(counts)}")
    pairs = dataset.pairs()
    values: dict = {}
    # one row per paper, its reviews in reviewer order
    by_paper = np.lexsort((dataset.reviewer, dataset.paper)).reshape(-1, counts.pop())
    for reviews in by_paper.tolist():
        z = [float(dataset.scores[i]) for i in reviews]
        m = _output_mean(z, lam)
        for i, zr in zip(reviews, z):
            values[pairs[i]] = _boxed_pull(m, zr, lam)
    return DequantizedScores(values=values)


def _boxed_pull(m: float, z: float, lam: float) -> float:
    """The minimizer's value for score z when its paper's output mean is m."""
    return min(max((m + lam * z) / (1.0 + lam), z - 0.5), z + 0.5)


def _output_mean(z: list[float], lam: float) -> float:
    """The unique root of g(m) = m, g(m) = mean_r _boxed_pull(m, z_r, lam).

    g is piecewise linear with slope at most 1/(1 + lam) < 1, bending at the
    breakpoints z_r -/+ (1 + lam)/2 where a clip starts or stops, so g(m) - m
    is strictly decreasing: positive at the lowest breakpoint, negative at
    the highest. The root is solved exactly on the one linear piece whose
    breakpoints bracket it.
    """
    half = 0.5 * (1.0 + lam)
    breaks = sorted({zr + side for zr in z for side in (-half, half)})
    j = next(
        i for i, b in enumerate(breaks)
        if sum(_boxed_pull(b, zr, lam) for zr in z) <= len(z) * b
    )
    mid = 0.5 * (breaks[j - 1] + breaks[j])
    clipped = [_boxed_pull(mid, zr, lam) for zr in z if abs(mid - zr) > half]
    free = [zr for zr in z if abs(mid - zr) <= half]
    # m * mu = sum(clipped) + sum_free (m + lam*z_r)/(1 + lam), times (1 + lam)
    return ((1.0 + lam) * sum(clipped) + lam * sum(free)) / (
        len(clipped) + len(z) * lam
    )
