import numpy as np
import pytest

from deqscores.metrics import trial_statistics
from deqscores.model import validate
from deqscores.synth import (
    AssignmentError,
    SynthConfig,
    generate,
    random_regular_assignment,
    trial_seed,
)

from conftest import by_pair, ranking_records, score_records


def loads(pairs):
    """(papers per reviewer, reviewers per paper) of assignment pairs."""
    reviewers, papers = zip(*pairs)
    return {reviewers.count(r) for r in reviewers}, {papers.count(p) for p in papers}


class TestAssignment:
    def test_degree_one_is_a_perfect_matching(self):
        rng = np.random.default_rng(0)
        a = random_regular_assignment(4, 4, 1, 1, rng)
        assert len(a) == 4 and a == sorted(a)
        assert [r for r, _ in a] == ["r0", "r1", "r2", "r3"]
        assert sorted(p for _, p in a) == ["p0", "p1", "p2", "p3"]

    def test_default_config_degrees(self):
        config = SynthConfig()
        rng = np.random.default_rng(1)
        a = random_regular_assignment(
            config.num_papers, config.num_reviewers,
            config.papers_per_reviewer, config.reviews_per_paper, rng,
        )
        assert config.num_reviewers == 60
        assert loads(a) == ({4}, {4})
        assert len(set(a)) == 240  # no duplicates survived repair

    def test_different_seeds_differ(self):
        collisions = 0
        for seed in range(100):
            a = random_regular_assignment(8, 8, 2, 2, np.random.default_rng(seed))
            b = random_regular_assignment(8, 8, 2, 2, np.random.default_rng(seed + 1000))
            collisions += a == b
        assert collisions <= 2

    def test_slot_mismatch_rejected(self):
        with pytest.raises(ValueError, match="slot counts"):
            random_regular_assignment(4, 4, 2, 1, np.random.default_rng(0))

    def test_impossible_load_rejected(self):
        # three distinct papers per reviewer cannot come out of two papers
        with pytest.raises(AssignmentError):
            random_regular_assignment(2, 2, 3, 3, np.random.default_rng(0))

    def test_full_load_still_simple(self):
        # every reviewer reads every paper; repair must remove all duplicates
        rng = np.random.default_rng(5)
        a = random_regular_assignment(4, 3, 4, 3, rng)
        assert len(set(a)) == 12 and loads(a) == ({4}, {3})


class TestGenerate:
    def test_deterministic_per_seed(self):
        a = generate(SynthConfig(seed=7))
        b = generate(SynthConfig(seed=7))
        assert score_records(a.dataset) == score_records(b.dataset)
        assert np.array_equal(a.truth_y, b.truth_y)
        assert ranking_records(a.dataset) == ranking_records(b.dataset)
        c = generate(SynthConfig(seed=8))
        assert not np.array_equal(c.truth_y, a.truth_y)

    def test_zero_noise_reproduces_qualities(self):
        instance = generate(SynthConfig(num_papers=12, sigma=0.0, seed=3))
        scores = score_records(instance.dataset)
        assert instance.truth_y.shape == (instance.dataset.num_reviews,)
        for (r, p), y in by_pair(instance.dataset, instance.truth_y).items():
            assert y == instance.truth_x_star[p]
            assert scores[(r, p)] == int(np.floor(y + 0.5))

    def test_scores_center_near_the_truth_mean(self):
        # qualities are uniform on [1, 9], so scores should average about 5
        means = []
        for trial in range(20):
            instance = generate(SynthConfig(seed=trial_seed(100, trial)))
            means.append(np.mean(instance.dataset.scores))
        mean, sem = trial_statistics(means)
        assert abs(mean - 5.0) <= 3 * max(sem, 1e-9)

    def test_generated_data_validates(self):
        for seed in range(5):
            instance = generate(SynthConfig(num_papers=10, sigma=1.5, seed=seed))
            assert validate(instance.dataset) == []

    def test_rounding_keeps_ranked_pairs_consistent(self):
        instance = generate(SynthConfig(num_papers=10, sigma=2.0, seed=11))
        scores = score_records(instance.dataset)
        truth = by_pair(instance.dataset, instance.truth_y)
        for r, better, worse in ranking_records(instance.dataset):
            assert truth[(r, better)] > truth[(r, worse)]
            assert scores[(r, better)] >= scores[(r, worse)]

    def test_clipping_respects_score_range(self):
        instance = generate(SynthConfig(num_papers=10, sigma=5.0, seed=2))
        values = instance.dataset.scores
        assert values.min() >= 0 and values.max() <= 10
        assert all(0.0 <= y <= 10.0 for y in instance.truth_y)

    def test_indivisible_load_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            SynthConfig(num_papers=10, reviews_per_paper=3, papers_per_reviewer=4)


class TestTrialSeeds:
    def test_deterministic_and_distinct(self):
        assert trial_seed(5, 0) == trial_seed(5, 0)
        seeds = {trial_seed(5, t) for t in range(100)}
        assert len(seeds) == 100
