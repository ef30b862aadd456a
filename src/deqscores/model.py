"""Domain types for review data: scales, assignments, scores, and partial rankings.

Reviewer and paper ids are opaque strings. Wherever a dense vector layout is
needed, review pairs are indexed in lexicographic (reviewer_id, paper_id)
order so that matrix layouts are reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

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

    def contains(self, score: int) -> bool:
        return self.lower_bound <= score <= self.upper_bound


@dataclass(frozen=True)
class Assignment:
    """The set of (reviewer_id, paper_id) pairs under review."""

    pairs: frozenset[Pair]
    reviewer_ids: frozenset[str]
    paper_ids: frozenset[str]

    @classmethod
    def from_pairs(cls, pairs) -> "Assignment":
        pairs = frozenset(pairs)
        return cls(
            pairs=pairs,
            reviewer_ids=frozenset(r for r, _ in pairs),
            paper_ids=frozenset(p for _, p in pairs),
        )

    def __post_init__(self) -> None:
        missing_r = {r for r, _ in self.pairs} - self.reviewer_ids
        missing_p = {p for _, p in self.pairs} - self.paper_ids
        if missing_r or missing_p:
            raise ValueError(f"ids in pairs missing from id sets: {missing_r | missing_p}")

    @cached_property
    def papers_of_reviewer(self) -> dict[str, tuple[str, ...]]:
        out: dict[str, list[str]] = {r: [] for r in self.reviewer_ids}
        for r, p in sorted(self.pairs):
            out[r].append(p)
        return {r: tuple(ps) for r, ps in out.items()}

    @cached_property
    def reviewers_of_paper(self) -> dict[str, tuple[str, ...]]:
        out: dict[str, list[str]] = {p: [] for p in self.paper_ids}
        for r, p in sorted(self.pairs):
            out[p].append(r)
        return {p: tuple(rs) for p, rs in out.items()}


@dataclass(frozen=True)
class PartialRanking:
    """Strict ordered pairs (better_paper, worse_paper) reported by one reviewer.

    Invariants (checked by ``validate``, not at construction, so that invalid
    input can be diagnosed): both papers of every pair are assigned to the
    reviewer, the relation is irreflexive, and its transitive closure is
    acyclic.
    """

    reviewer_id: str
    ordered_pairs: frozenset[Pair]

    @property
    def is_empty(self) -> bool:
        return not self.ordered_pairs

    def is_total_over(self, papers) -> bool:
        """True if every pair of distinct papers is ordered one way or the other."""
        papers = list(papers)
        for i, p in enumerate(papers):
            for q in papers[i + 1 :]:
                if (p, q) not in self.ordered_pairs and (q, p) not in self.ordered_pairs:
                    return False
        return True


@dataclass(frozen=True)
class ReviewDataset:
    """Quantized scores plus per-reviewer partial rankings over an assignment."""

    scale: ScoreScale
    assignment: Assignment
    scores: dict[Pair, int]
    rankings: tuple[PartialRanking, ...]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for ranking in self.rankings:
            if ranking.reviewer_id in seen:
                raise ValueError(f"multiple rankings for reviewer {ranking.reviewer_id!r}")
            seen.add(ranking.reviewer_id)

    @cached_property
    def pair_index(self) -> dict[Pair, int]:
        """Dense variable index per review pair, lexicographic by (reviewer, paper)."""
        return {pair: i for i, pair in enumerate(sorted(self.assignment.pairs))}

    @cached_property
    def ranking_of(self) -> dict[str, PartialRanking]:
        return {rk.reviewer_id: rk for rk in self.rankings}

    @cached_property
    def violations(self) -> tuple[Violation, ...]:
        """``validate(self)``, computed once per dataset."""
        return tuple(validate(self))

    @property
    def num_reviews(self) -> int:
        return len(self.assignment.pairs)

    def ranking_pairs(self):
        """Yield (reviewer_id, better_paper, worse_paper) over all reported pairs."""
        for ranking in self.rankings:
            for better, worse in sorted(ranking.ordered_pairs):
                yield ranking.reviewer_id, better, worse


@dataclass(frozen=True)
class DequantizedScores:
    """Real-valued output scores, defined exactly on the originating assignment."""

    values: dict[Pair, float]


def validate(dataset: ReviewDataset) -> list[Violation]:
    """Check every dataset invariant; an empty result means the dataset is valid.

    Reason codes: OUT_OF_RANGE (score outside the scale), UNASSIGNED_PAIR
    (scores or ranking pairs not matching the assignment), RANK_SCORE_INCONSISTENT
    (a reported pair contradicting the scores), RANK_CYCLE (cyclic ranking
    relation, including self-pairs). Each cycle is named once, by the papers
    of one strongly connected component of the reviewer's usable pairs. Each
    reviewer's cycles follow that reviewer's pair-level violations, ordered
    by their sorted member lists.
    """
    violations: list[Violation] = []
    pairs = dataset.assignment.pairs

    for (r, p), z in sorted(dataset.scores.items()):
        if (r, p) not in pairs:
            violations.append(Violation(UNASSIGNED_PAIR, r, f"score for unassigned paper {p!r}"))
        elif not dataset.scale.contains(z):
            violations.append(
                Violation(
                    OUT_OF_RANGE,
                    r,
                    f"score {z} for paper {p!r} outside "
                    f"[{dataset.scale.lower_bound}, {dataset.scale.upper_bound}]",
                )
            )
    for r, p in sorted(pairs):
        if (r, p) not in dataset.scores:
            violations.append(Violation(UNASSIGNED_PAIR, r, f"missing score for paper {p!r}"))

    # rankings never link two reviewers, so each strong component of the
    # whole dataset's ranking graph lies inside one reviewer's papers
    index = dataset.pair_index
    better_nodes: list[int] = []
    worse_nodes: list[int] = []
    by_reviewer: dict[str, list[Violation]] = {}
    for ranking in dataset.rankings:
        r = ranking.reviewer_id
        found = by_reviewer[r] = []
        for better, worse in sorted(ranking.ordered_pairs):
            if better == worse:
                found.append(Violation(RANK_CYCLE, r, f"self-pair ({better!r}, {worse!r})"))
                continue
            ok = True
            for paper in (better, worse):
                if (r, paper) not in pairs or (r, paper) not in dataset.scores:
                    found.append(
                        Violation(UNASSIGNED_PAIR, r, f"ranking references unscored paper {paper!r}")
                    )
                    ok = False
            if not ok:
                continue
            better_nodes.append(index[(r, better)])
            worse_nodes.append(index[(r, worse)])
            if dataset.scores[(r, better)] < dataset.scores[(r, worse)]:
                found.append(
                    Violation(
                        RANK_SCORE_INCONSISTENT,
                        r,
                        f"({better!r}, {worse!r}) but scores are "
                        f"{dataset.scores[(r, better)]} < {dataset.scores[(r, worse)]}",
                    )
                )

    ones = np.ones(len(better_nodes))
    graph = sp.csr_matrix((ones, (better_nodes, worse_nodes)), shape=(len(index), len(index)))
    _, labels = connected_components(graph, connection="strong")
    keys = list(index)
    cycles: dict[int, list[Pair]] = {}
    for node in np.flatnonzero(np.bincount(labels)[labels] > 1):
        cycles.setdefault(labels[node], []).append(keys[node])
    for members in sorted(cycles.values()):
        r = members[0][0]
        by_reviewer[r].append(
            Violation(RANK_CYCLE, r, "cycle through " + " > ".join(p for _, p in members))
        )
    for found in by_reviewer.values():
        violations.extend(found)
    return violations


def require_valid(dataset: ReviewDataset) -> None:
    if dataset.violations:
        raise ValidationError(list(dataset.violations))


def derive_rankings_from_raw_scores(raw: dict[Pair, float]) -> list[PartialRanking]:
    """Build per-reviewer rankings from real-valued scores by strict comparison.

    For each reviewer, every pair of assigned papers with strictly different
    raw values yields one ordered pair; exact ties yield none.
    """
    by_reviewer: dict[str, list[tuple[str, float]]] = {}
    for (r, p), value in raw.items():
        by_reviewer.setdefault(r, []).append((p, value))
    rankings = []
    for r in sorted(by_reviewer):
        entries = by_reviewer[r]
        ordered = set()
        for i, (p, vp) in enumerate(entries):
            for q, vq in entries[i + 1 :]:
                if vp > vq:
                    ordered.add((p, q))
                elif vq > vp:
                    ordered.add((q, p))
        rankings.append(PartialRanking(reviewer_id=r, ordered_pairs=frozenset(ordered)))
    return rankings
