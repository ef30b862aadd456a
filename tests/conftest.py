"""Shared builders for small hand-constructed datasets and test oracles."""

from __future__ import annotations

import os

# run the tests with the single OpenBLAS thread that ``import deqscores``
# gives the command line; nothing imports numpy before this file
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import pytest

from deqscores.model import ReviewDataset, ScoreScale


def make_dataset(scores, ranking_pairs=None, scale=(0, 10)):
    """Build a dataset from {(reviewer, paper): score} and optional
    {reviewer: [(better, worse), ...]}."""
    rows = [
        (reviewer, better, worse)
        for reviewer, pairs in (ranking_pairs or {}).items()
        for better, worse in pairs
    ]
    return ReviewDataset.from_records(ScoreScale(*scale), scores, rows)


def score_records(dataset) -> dict:
    """{(reviewer_id, paper_id): score} of a dataset's reviews."""
    return dict(zip(dataset.pairs(), dataset.scores.tolist()))


def dataset_layout(dataset: ReviewDataset) -> dict[str, list]:
    """A dataset's id tables and columns as lists, keyed by field name."""
    names = ("reviewer_ids", "paper_ids", "reviewer", "paper", "scores")
    names += ("ranked_by", "better", "worse")
    return {name: getattr(dataset, name).tolist() for name in names}


def by_pair(dataset, values) -> dict:
    """{(reviewer_id, paper_id): value} of a vector aligned with a dataset's
    reviews."""
    return dict(zip(dataset.pairs(), np.asarray(values, dtype=float).tolist()))


def ranking_records(dataset) -> list[tuple[str, str, str]]:
    """(reviewer_id, better_paper_id, worse_paper_id) of each ranking row."""
    return list(
        zip(
            dataset.reviewer_ids[dataset.ranked_by].tolist(),
            dataset.paper_ids[dataset.better].tolist(),
            dataset.paper_ids[dataset.worse].tolist(),
        )
    )


def rankings_by_reviewer(dataset) -> dict[str, frozenset]:
    """{reviewer_id: frozenset of (better, worse)} over reviewers with rows."""
    out: dict[str, set] = {}
    for reviewer, better, worse in ranking_records(dataset):
        out.setdefault(reviewer, set()).add((better, worse))
    return {r: frozenset(pairs) for r, pairs in out.items()}


def papers_by_reviewer(dataset) -> dict[str, list[str]]:
    """{reviewer_id: the papers they scored, in id order}."""
    out: dict[str, list[str]] = {}
    for reviewer, paper in dataset.pairs():
        out.setdefault(reviewer, []).append(paper)
    return out


def reviewers_by_paper(dataset) -> dict[str, list[str]]:
    """{paper_id: the reviewers who scored it, in id order}."""
    out: dict[str, list[str]] = {}
    for reviewer, paper in sorted(dataset.pairs(), key=lambda pair: pair[::-1]):
        out.setdefault(paper, []).append(reviewer)
    return out


def incomplete_rankings(dataset) -> list[str]:
    """The reviewers, in id order, who leave some two of their papers
    unordered: no row puts either over the other."""
    ranked = rankings_by_reviewer(dataset)
    return [
        r
        for r, papers in papers_by_reviewer(dataset).items()
        if not all(
            (p, q) in ranked.get(r, ()) or (q, p) in ranked.get(r, ())
            for i, p in enumerate(papers)
            for q in papers[i + 1 :]
        )
    ]


def rankings_are_total(dataset) -> bool:
    """True when every reviewer orders every two of their papers, one way or
    the other."""
    return not incomplete_rankings(dataset)


@pytest.fixture
def one_reviewer_two_papers():
    return make_dataset(
        {("r1", "A"): 5, ("r1", "B"): 3},
        {"r1": [("A", "B")]},
    )


def likelihood_lattice_maximizer(dataset, sigma=1.0):
    """Zooming lattice search for the box-constrained joint-likelihood
    maximizer, profiling the paper qualities as each candidate's per-paper
    mean. Independent of the QP machinery; only usable for a handful of
    variables."""
    pairs = dataset.pairs()
    z = dataset.scores.astype(float)
    papers = sorted({p for _, p in pairs})
    membership = np.zeros((len(pairs), len(papers)))
    for row, (_, paper) in enumerate(pairs):
        membership[row, papers.index(paper)] = 1.0
    counts = membership.sum(axis=0)

    lo, hi = z - 0.5, z + 0.5
    window_lo, window_hi = lo.copy(), hi.copy()
    step = 0.05
    best = None
    for _ in range(7):
        axes = []
        for d in range(len(pairs)):
            pts = np.arange(window_lo[d], window_hi[d] + 1e-12, step)
            if pts.size == 0 or pts[-1] < window_hi[d] - 1e-12:
                pts = np.append(pts, window_hi[d])
            axes.append(pts)
        mesh = np.meshgrid(*axes, indexing="ij")
        points = np.stack([m.ravel() for m in mesh], axis=1)
        means = (points @ membership) / counts
        residuals = points - means @ membership.T
        loglik = -(residuals**2).sum(axis=1) / (2.0 * sigma**2)
        best = points[int(np.argmax(loglik))]
        window_lo = np.maximum(lo, best - 1.5 * step)
        window_hi = np.minimum(hi, best + 1.5 * step)
        step /= 4.0
    return {pair: float(v) for pair, v in zip(pairs, best)}
