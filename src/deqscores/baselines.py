"""Reference methods the QP output is compared against.

Each returns one float64 value per review, aligned with the dataset's
reviews (``dataset.pairs()`` order). All of them operate per reviewer and
only ever move values inside a quantization bin (a reviewer's papers sharing
one score), preserving the bin mean so the adjusted outputs stay centered on
the reported score.

Tie breaking inside bins has one rule: the group-wise adjustment of
``partial_rankings_adjusted_scores``, which orders a bin by the tie groups
of a group-total ranking. The rank-wise ``bre_adjusted_scores`` (BRE) is
that rule restricted to total rankings, where every group is one paper.
"""

from __future__ import annotations

import numpy as np

from .model import DEFAULT_EPSILON, ReviewDataset

# the baselines' method names, as the experiment harness and the
# ``baseline`` command take them
BASELINES = ("quantized", "bre_adjusted", "partial_rankings_adjusted")


class NotTotalRanking(ValueError):
    """A reviewer's ranking does not order every pair of their papers."""


class GroupsInconsistent(ValueError):
    """The reported pairs do not form a total order over tie groups."""


def quantized_baseline(dataset: ReviewDataset) -> np.ndarray:
    """The reported scores themselves, as reals."""
    return dataset.scores.astype(float)


def bre_adjusted_scores(dataset: ReviewDataset, epsilon: float = DEFAULT_EPSILON) -> np.ndarray:
    """Break ties inside each quantization bin by rank, preserving bin means.

    The group-wise rule of ``partial_rankings_adjusted_scores`` restricted to
    total rankings, where every tie group is one paper: papers in a bin of
    size m get equally spaced epsilon increments by their rank within the bin
    and are then recentered onto the bin's score, which works out to
    z + epsilon * (rank_in_bin - 1/2 - m/2). Raises ``NotTotalRanking``
    naming the first reviewer, in sorted order, whose papers do not all have
    distinct levels (see ``partial_rankings_adjusted_scores``). On a valid
    dataset, whose rankings are acyclic, that is the first reviewer whose
    ranking leaves a pair of their papers unordered: an acyclic ranking of m
    papers orders every pair exactly when its levels are 0..m-1.
    """
    n = dataset.num_reviews
    key = np.sort(dataset.reviewer * (n + 1) + _levels(dataset)[0])
    tied = key[1:][key[1:] == key[:-1]] // (n + 1)
    if tied.size:
        reviewer = dataset.reviewer_ids[tied[0]]
        raise NotTotalRanking(f"reviewer {reviewer!r} has an incomplete ranking")
    return partial_rankings_adjusted_scores(dataset, epsilon)


def _levels(dataset: ReviewDataset) -> tuple[np.ndarray, np.ndarray]:
    """(each review's level, the mask of ranking rows counted in it), as
    ``partial_rankings_adjusted_scores`` defines levels."""
    ends = dataset.ranked_reviews
    scored = (ends >= 0).all(axis=0)
    return np.bincount(ends[0, scored], minlength=dataset.num_reviews), scored


def partial_rankings_adjusted_scores(
    dataset: ReviewDataset, epsilon: float = DEFAULT_EPSILON
) -> np.ndarray:
    """Group-wise tie breaking for group-total partial rankings.

    A review's level is how many of its reviewer's rows name it as the
    better paper, counting the rows whose two papers the reviewer scored.
    Its tie group is the reviewer's papers at its level. The ranking is
    group-total exactly when its rows are the pairs this grouping implies:
    every paper over every paper of a lower level. A total ranking is the
    case where every group is one paper. Otherwise ``GroupsInconsistent``
    names the first such reviewer, in sorted order, and the least pair
    reported or implied but not both.

    Within each quantization bin, the t-th lowest level present gets offset
    t*epsilon (all its papers together) and the bin is recentered onto its
    score, its members summed in (level, paper) order. A bin spanned by a
    single group keeps the reported score exactly. On total rankings this is
    ``bre_adjusted_scores``, bit for bit.
    """
    reviewer, z = dataset.reviewer, dataset.scores
    n, width = z.shape[0], dataset.reviewer_ids.shape[0]
    level, scored = _levels(dataset)
    better, worse = dataset.ranked_reviews[:, scored]
    # group-total: every row goes down a level, and there are as many rows
    # as implied pairs, each review over its reviewer's reviews of lower level
    key = reviewer * (n + 1) + level
    ordered = np.sort(key)
    below = np.searchsorted(ordered, key) - np.searchsorted(ordered, key - level)
    rows = np.bincount(dataset.ranked_by, minlength=width)
    fallen = np.bincount(dataset.ranked_by[scored][level[better] > level[worse]], minlength=width)
    failed = (rows != np.bincount(reviewer, below, minlength=width)) | (fallen < rows)
    failed = np.flatnonzero(failed & (np.bincount(reviewer, minlength=width) > 0))
    if failed.size:
        raise GroupsInconsistent(_mismatch(dataset, int(failed[0]), level))

    # bins in (reviewer, score) order, each in (level, paper) order; a
    # review's t is the number of distinct levels below its own in its bin
    order = np.lexsort((dataset.paper, level, z, reviewer))
    r, z, level = reviewer[order], z[order], level[order]
    change = np.ones((3, n), dtype=bool)
    change[:, 1:] = np.stack([r[1:] != r[:-1], z[1:] != z[:-1], level[1:] != level[:-1]])
    opens = change[0] | change[1]
    starts = np.flatnonzero(opens)
    bin_of = np.cumsum(opens) - 1
    group = np.cumsum(opens | change[2])
    raw = z + (group - group[starts][bin_of]) * epsilon
    # each bin's total added member by member, in order: one step per
    # position within a bin
    size = np.diff(np.append(starts, n))
    total = np.zeros(starts.shape[0])
    for j in range(int(size.max(initial=0))):
        longer = size > j
        total[longer] += raw[starts[longer] + j]
    values = np.empty(n)
    values[order] = raw - (total / size - z[starts])[bin_of]
    return values


def _mismatch(dataset: ReviewDataset, reviewer: int, level: np.ndarray) -> str:
    """The message of ``GroupsInconsistent`` for the reviewer at
    ``reviewer_ids[reviewer]``, whose rows are not the pairs its levels
    imply."""
    reviews, rows = dataset.reviewer == reviewer, dataset.ranked_by == reviewer
    papers = dataset.paper_ids[dataset.paper[reviews]].tolist()
    levels = level[reviews].tolist()
    reported = set(
        zip(dataset.paper_ids[dataset.better[rows]], dataset.paper_ids[dataset.worse[rows]])
    )
    implied = {
        (p, q) for p, a in zip(papers, levels) for q, b in zip(papers, levels) if a > b
    }
    return (
        f"reviewer {dataset.reviewer_ids[reviewer]!r}: the reported pairs are no total "
        f"order over tie groups; first mismatch {min(reported ^ implied)!r}"
    )
