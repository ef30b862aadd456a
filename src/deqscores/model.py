"""Domain types for review data: scales, scores and partial rankings.

Reviewer and paper ids are opaque strings, interned once into sorted id
tables. Reviews are held in lexicographic (reviewer_id, paper_id) order, the
order of every dense vector over them, so that matrix layouts are
reproducible across runs. Every score vector of the package, from the
synthetic truth to the dequantized output, is a float array in that order
(``ReviewDataset.pairs()`` names its entries).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

Pair = tuple[str, str]

OUT_OF_RANGE = "OUT_OF_RANGE"
UNASSIGNED_PAIR = "UNASSIGNED_PAIR"
RANK_SCORE_INCONSISTENT = "RANK_SCORE_INCONSISTENT"
RANK_CYCLE = "RANK_CYCLE"

DEFAULT_EPSILON = 0.05  # ranking separation: the gap every reported pair must leave


class ValidationError(Exception):
    """Raised when an operation requires a dataset that fails validation."""

    def __init__(self, violations: list["Violation"]):
        self.violations = violations
        lines = ", ".join(str(v) for v in violations[:5])
        more = "" if len(violations) <= 5 else f" (+{len(violations) - 5} more)"
        super().__init__(f"invalid review dataset: {lines}{more}")


@dataclass(frozen=True)
class Violation:
    """One violated invariant, identified by a reason code and the ids involved."""

    code: str
    reviewer_id: str
    detail: str

    def __str__(self) -> str:
        return f"{self.code}[{self.reviewer_id}]: {self.detail}"


@dataclass(frozen=True)
class ScoreScale:
    """Integer score range [lower_bound, upper_bound] used by all reviewers."""

    lower_bound: int
    upper_bound: int

    def __post_init__(self) -> None:
        if self.lower_bound >= self.upper_bound:
            raise ValueError(
                f"score scale needs lower < upper, got [{self.lower_bound}, {self.upper_bound}]"
            )


@dataclass(frozen=True, eq=False)
class ReviewDataset:
    """Quantized scores plus per-reviewer partial rankings, as interned arrays.

    ``reviewer_ids`` and ``paper_ids`` are sorted id tables covering every id
    that a review or a ranking row names. Review i is reviewer
    ``reviewer[i]``'s score ``scores[i]`` for paper ``paper[i]`` (indices
    into the tables); the reviews are in lexicographic (reviewer_id,
    paper_id) order, so each reviewer's reviews are one contiguous slice.
    Ranking row k says that reviewer ``ranked_by[k]`` put paper ``better[k]``
    over paper ``worse[k]``; the rows are distinct and in lexicographic
    (reviewer, better, worse) order. ``from_columns`` builds a dataset from
    interned columns, ``from_records`` from id records.

    Invariants such as "a ranked paper has the reviewer's score" are checked
    by ``validate``, not at construction, so that invalid input can be
    diagnosed.
    """

    scale: ScoreScale
    reviewer_ids: np.ndarray
    paper_ids: np.ndarray
    reviewer: np.ndarray
    paper: np.ndarray
    scores: np.ndarray
    ranked_by: np.ndarray
    better: np.ndarray
    worse: np.ndarray

    @classmethod
    def from_columns(
        cls, scale, reviewer_ids, paper_ids, reviewer, paper, scores, ranked_by, better, worse
    ) -> ReviewDataset:
        """Sort id tables given in any order and remap the int columns that
        index them: review i is ``(reviewer[i], paper[i], scores[i])`` and
        ranking row k ``(ranked_by[k], better[k], worse[k])`` (repeats count
        once). Scores must fit int64."""
        tables = [np.array(ids, dtype=object) for ids in (reviewer_ids, paper_ids)]
        orders = [np.argsort(ids, kind="stable") for ids in tables]
        r_at, p_at = (np.argsort(order) for order in orders)  # positions in the sorted tables
        columns = reviewer, paper, scores, ranked_by, better, worse
        r, p, z, by, b, w = (np.asarray(c, dtype=np.int64) for c in columns)
        order = np.lexsort((p_at[p], r_at[r]))
        # np.unique sorts the rows by (reviewer, better, worse)
        ranked = np.unique(np.stack([r_at[by], p_at[b], p_at[w]]), axis=1)
        ids = (ids[order] for ids, order in zip(tables, orders))
        return cls(scale, *ids, r_at[r[order]], p_at[p[order]], z[order], *ranked)

    @classmethod
    def from_records(
        cls, scale: ScoreScale, scores: dict[Pair, int], rankings=()
    ) -> ReviewDataset:
        """``from_columns`` of ``{(reviewer_id, paper_id): score}`` and
        ranking rows ``(reviewer_id, better_paper_id, worse_paper_id)``."""
        reviewer_ids: dict[str, int] = {}
        paper_ids: dict[str, int] = {}

        def intern(records, width: int) -> list[list[int]]:
            columns = zip((reviewer_ids, paper_ids, paper_ids), zip(*records))
            return [[t.setdefault(i, len(t)) for i in ids] for t, ids in columns] or [[]] * width

        reviews, rows = intern(scores, 2), intern(rankings, 3)
        return cls.from_columns(
            scale, list(reviewer_ids), list(paper_ids), *reviews, list(scores.values()), *rows
        )

    @cached_property
    def violations(self) -> tuple[Violation, ...]:
        """``validate(self)``, computed once per dataset."""
        return tuple(validate(self))

    @property
    def num_reviews(self) -> int:
        return self.scores.shape[0]

    def pairs(self) -> list[Pair]:
        """The (reviewer_id, paper_id) of each review, in review order."""
        return list(zip(self.reviewer_ids[self.reviewer], self.paper_ids[self.paper]))

    @cached_property
    def ranked_reviews(self) -> np.ndarray:
        """The review positions of each ranking row's better paper (row 0)
        and worse paper (row 1), -1 where the reviewer scored no such paper."""
        width = self.paper_ids.shape[0]
        keys = self.reviewer * width + self.paper  # ascending
        query = self.ranked_by * width + np.stack([self.better, self.worse])
        at = np.searchsorted(keys, query)
        at[np.append(keys, -1)[at] != query] = -1
        return at


def validate(dataset: ReviewDataset) -> list[Violation]:
    """Check every dataset invariant; an empty result means the dataset is valid.

    Reason codes: OUT_OF_RANGE (score outside the scale), UNASSIGNED_PAIR
    (a ranking pair naming a paper the reviewer did not score),
    RANK_SCORE_INCONSISTENT (a reported pair contradicting the scores),
    RANK_CYCLE (cyclic ranking relation, including self-pairs). The
    out-of-range scores come first, in review order; then each reviewer's
    ranking rows in order, each reviewer's cycles after its rows. Each cycle
    is named once, by the papers of one strongly connected component of the
    reviewer's usable pairs, and a reviewer's cycles are ordered by their
    sorted member lists.
    """
    reviewer_ids, paper_ids, z = dataset.reviewer_ids, dataset.paper_ids, dataset.scores
    lo, hi = dataset.scale.lower_bound, dataset.scale.upper_bound
    bad = (z < lo) | (z > hi)
    violations = [
        Violation(
            OUT_OF_RANGE,
            reviewer_ids[r],
            f"score {s} for paper {paper_ids[p]!r} outside [{lo}, {hi}]",
        )
        for r, p, s in zip(dataset.reviewer[bad], dataset.paper[bad], z[bad].tolist())
    ]

    better, worse = dataset.ranked_reviews
    self_pair = dataset.better == dataset.worse
    usable = ~self_pair & (better >= 0) & (worse >= 0)
    inconsistent = np.zeros_like(usable)
    inconsistent[usable] = z[better[usable]] < z[worse[usable]]
    # (reviewer, 0 for a ranking row or 1 for a cycle, code, detail)
    found: list[tuple[int, int, str, str]] = []
    for k in np.flatnonzero(~usable | inconsistent).tolist():
        r, b, w = dataset.ranked_by[k], paper_ids[dataset.better[k]], paper_ids[dataset.worse[k]]
        if self_pair[k]:
            found.append((r, 0, RANK_CYCLE, f"self-pair ({b!r}, {w!r})"))
        elif usable[k]:
            detail = f"({b!r}, {w!r}) but scores are {z[better[k]]} < {z[worse[k]]}"
            found.append((r, 0, RANK_SCORE_INCONSISTENT, detail))
        else:
            for paper in [p for p, at in ((b, better[k]), (w, worse[k])) if at < 0]:
                detail = f"ranking references unscored paper {paper!r}"
                found.append((r, 0, UNASSIGNED_PAIR, detail))

    # rankings never link two reviewers, so each strong component of the
    # whole dataset's ranking graph lies inside one reviewer's reviews
    for members in _cycles(z.shape[0], better[usable], worse[usable]):
        detail = "cycle through " + " > ".join(map(repr, paper_ids[dataset.paper[members]]))
        found.append((dataset.reviewer[members[0]], 1, RANK_CYCLE, detail))
    found.sort(key=lambda entry: entry[:2])
    return violations + [Violation(code, reviewer_ids[r], detail) for r, _, code, detail in found]


def _cycles(n: int, tail: np.ndarray, head: np.ndarray) -> list[list[int]]:
    """The strong components of more than one node of the graph on nodes
    0..n-1 with an edge from each ``tail`` to its ``head``, as sorted node
    lists, sorted. A node without in- or out-edges lies on no cycle: such
    nodes are peeled in vectorized rounds, each looking only at the far ends
    of the last round's edges, so every edge is touched once. An iterative
    Tarjan search (SIAM J. Comput. 1(2), 1972) takes what is left, in
    linear time and without recursion."""
    # each node's out-edges, then its in-edges, as runs of their far ends
    degree = [np.bincount(tail, minlength=n), np.bincount(head, minlength=n)]
    runs = [np.concatenate([[0], np.cumsum(count)]) for count in degree]
    ends = [head[np.argsort(tail, kind="stable")], tail[np.argsort(head, kind="stable")]]
    peeled = np.zeros(n, dtype=bool)
    frontier = np.flatnonzero((degree[0] == 0) | (degree[1] == 0))
    while frontier.size:
        peeled[frontier] = True
        touched = []
        for start, end, other_degree in zip(runs, ends, degree[::-1]):
            # an edge out of (into) the frontier is its far end's in- (out-)edge
            counts = start[frontier + 1] - start[frontier]
            first = np.repeat(start[frontier] - np.cumsum(counts) + counts, counts)
            far = end[first + np.arange(first.size)]
            np.subtract.at(other_degree, far, 1)
            touched.append(far)
        touched = np.concatenate(touched)
        touched = np.sort(touched[~peeled[touched] & (degree[0][touched] * degree[1][touched] == 0)])
        frontier = touched[np.diff(touched, prepend=-1) != 0]

    kept = ~peeled[tail] & ~peeled[head]
    successors: dict[int, list[int]] = {}
    for u, v in zip(tail[kept].tolist(), head[kept].tolist()):
        successors.setdefault(u, []).append(v)
    # Tarjan's search; a node whose component is taken gets index n, so
    # that only nodes still on the stack lower a low link
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    stack: list[int] = []
    components = []
    for root in successors:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        path = [(root, iter(successors[root]))]
        while path:
            v, children = path[-1]
            for w in children:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    path.append((w, iter(successors[w])))
                    break
                low[v] = min(low[v], index[w])
            else:
                path.pop()
                if path:
                    low[path[-1][0]] = min(low[path[-1][0]], low[v])
                if low[v] == index[v]:
                    component = [stack.pop()]
                    while component[-1] != v:
                        component.append(stack.pop())
                    index.update(dict.fromkeys(component, n))
                    if len(component) > 1:
                        components.append(sorted(component))
    return sorted(components)


def require_valid(dataset: ReviewDataset) -> None:
    if dataset.violations:
        raise ValidationError(list(dataset.violations))


def derive_rankings_from_raw_scores(dataset: ReviewDataset, raw) -> ReviewDataset:
    """``dataset`` with its rankings derived from real values ``raw``,
    aligned with its reviews, by strict comparison.

    For each reviewer, every pair of scored papers with strictly different
    raw values yields one ordered pair, the higher value better; exact ties
    yield none.
    """
    raw = np.asarray(raw)
    # each review against every review of its reviewer's slice, in row-major
    # order, so the rows come out sorted by (reviewer, better, worse)
    start = np.searchsorted(dataset.reviewer, dataset.reviewer)
    size = np.searchsorted(dataset.reviewer, dataset.reviewer, side="right") - start
    first = np.repeat(np.arange(raw.shape[0]), size)
    second = np.repeat(start - np.cumsum(size) + size, size) + np.arange(first.shape[0])
    keep = raw[first] > raw[second]
    first, second = first[keep], second[keep]
    return replace(
        dataset,
        ranked_by=dataset.reviewer[first],
        better=dataset.paper[first],
        worse=dataset.paper[second],
    )
