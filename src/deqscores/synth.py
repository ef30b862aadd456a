"""Synthetic review data from a latent-quality model, with regular assignments.

Paper qualities are uniform on ``TRUTH_RANGE``; each review value is
Gaussian around its paper's quality, clipped to ``CLIP_RANGE``, and rounded
half-up to an integer score on ``SCORE_RANGE``. Rankings are derived from
the unrounded values by strict comparison, which makes them consistent with
the scores by construction (rounding is monotone).

All randomness flows through numpy's default PCG64 generator seeded from the
config, so (config, seed) fully determines the instance on any platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Pair, ReviewDataset, ScoreScale, derive_rankings_from_raw_scores


class AssignmentError(ValueError):
    """Raised when the duplicate-repair loop cannot produce a simple regular
    assignment (RETRY_EXHAUSTED)."""


def require_counts(**counts: int) -> None:
    """Raise ``ValueError`` naming the first count below 1."""
    for name, value in counts.items():
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value!r}")


TRUTH_RANGE = (1.0, 9.0)
CLIP_RANGE = (0.0, 10.0)
SCORE_RANGE = (0, 10)


@dataclass(frozen=True)
class SynthConfig:
    num_papers: int = 60
    sigma: float = 0.5
    reviews_per_paper: int = 4
    papers_per_reviewer: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError(f"sigma must be a nonnegative finite number, got {self.sigma!r}")
        require_counts(
            num_papers=self.num_papers,
            reviews_per_paper=self.reviews_per_paper,
            papers_per_reviewer=self.papers_per_reviewer,
        )
        if (self.num_papers * self.reviews_per_paper) % self.papers_per_reviewer:
            raise ValueError(
                "papers * reviews_per_paper must be divisible by papers_per_reviewer "
                f"({self.num_papers} * {self.reviews_per_paper} / {self.papers_per_reviewer})"
            )

    @property
    def num_reviewers(self) -> int:
        return self.num_papers * self.reviews_per_paper // self.papers_per_reviewer


@dataclass(frozen=True, eq=False)
class SynthInstance:
    """A generated dataset with its latent truth: each paper's quality by
    paper id, and each review's unrounded value ``truth_y``, aligned with the
    dataset's reviews."""

    dataset: ReviewDataset
    truth_x_star: dict[str, float]
    truth_y: np.ndarray


def _ids(prefix: str, count: int) -> list[str]:
    width = max(len(str(count - 1)), 1)
    return [f"{prefix}{i:0{width}d}" for i in range(count)]


def random_regular_assignment(
    num_papers: int,
    num_reviewers: int,
    papers_per_reviewer: int,
    reviews_per_paper: int,
    rng: np.random.Generator,
    paper_ids: list[str] | None = None,
) -> list[Pair]:
    """Sample an assignment where every reviewer gets exactly
    ``papers_per_reviewer`` papers and every paper ``reviews_per_paper``
    reviews, approximately uniformly over such bipartite graphs, as its
    sorted (reviewer_id, paper_id) pairs.

    Paper slots are shuffled and dealt to reviewers; duplicate pairs inside a
    hand are then repaired by random slot swaps that keep the degrees intact.
    """
    if num_papers * reviews_per_paper != num_reviewers * papers_per_reviewer:
        raise ValueError("slot counts disagree: papers*mu must equal reviewers*kappa")
    if papers_per_reviewer > num_papers:
        raise AssignmentError(
            f"cannot assign {papers_per_reviewer} distinct papers out of {num_papers}"
        )
    slots = np.repeat(np.arange(num_papers), reviews_per_paper)
    rng.shuffle(slots)
    hands = slots.reshape(num_reviewers, papers_per_reviewer)

    for _ in range(200):
        sets = [set() for _ in range(num_reviewers)]
        duplicates: list[tuple[int, int]] = []
        for r in range(num_reviewers):
            for k in range(papers_per_reviewer):
                p = int(hands[r, k])
                if p in sets[r]:
                    duplicates.append((r, k))
                else:
                    sets[r].add(p)
        if not duplicates:
            break
        for r, k in duplicates:
            p = int(hands[r, k])
            for _attempt in range(200):
                r2 = int(rng.integers(num_reviewers))
                k2 = int(rng.integers(papers_per_reviewer))
                p2 = int(hands[r2, k2])
                if r2 == r or p2 == p:
                    continue
                if p2 not in sets[r] and p not in sets[r2]:
                    hands[r, k], hands[r2, k2] = p2, p
                    sets[r2].discard(p2)
                    sets[r2].add(p)
                    sets[r].add(p2)
                    break
    else:
        raise AssignmentError("duplicate repair failed; assignment constraints too tight")

    reviewer_ids = _ids("r", num_reviewers)
    if paper_ids is None:
        paper_ids = _ids("p", num_papers)
    if len(paper_ids) != num_papers:
        raise ValueError(f"{len(paper_ids)} paper ids for {num_papers} papers")
    return sorted(
        (reviewer_ids[r], paper_ids[int(hands[r, k])])
        for r in range(num_reviewers)
        for k in range(papers_per_reviewer)
    )


def generate(config: SynthConfig) -> SynthInstance:
    """Draw one instance: qualities, assignment, review values, scores, rankings."""
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    paper_ids = _ids("p", config.num_papers)
    x_star = {
        paper_ids[i]: float(v)
        for i, v in enumerate(rng.uniform(*TRUTH_RANGE, config.num_papers))
    }
    pairs = random_regular_assignment(
        config.num_papers,
        config.num_reviewers,
        config.papers_per_reviewer,
        config.reviews_per_paper,
        rng,
    )
    draws = [
        rng.normal(x_star[p], config.sigma) if config.sigma > 0 else x_star[p] for _, p in pairs
    ]
    truth_y = np.clip(np.array(draws, dtype=float), *CLIP_RANGE)

    lo_z, hi_z = SCORE_RANGE
    scores = np.clip(np.floor(truth_y + 0.5), lo_z, hi_z).astype(np.int64).tolist()
    dataset = ReviewDataset.from_records(ScoreScale(lo_z, hi_z), dict(zip(pairs, scores)))
    # the records are in review order, so the truth values align with it
    dataset = derive_rankings_from_raw_scores(dataset, truth_y)
    return SynthInstance(dataset=dataset, truth_x_star=x_star, truth_y=truth_y)


def trial_seed(master_seed: int, trial_index: int) -> int:
    """Deterministic per-trial seed so parallel trials reproduce serial runs."""
    seq = np.random.SeedSequence([int(master_seed), int(trial_index)])
    return int(seq.generate_state(1, np.uint64)[0])
