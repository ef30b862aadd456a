import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deqscores.model import (
    OUT_OF_RANGE,
    RANK_CYCLE,
    RANK_SCORE_INCONSISTENT,
    UNASSIGNED_PAIR,
    Assignment,
    PartialRanking,
    ReviewDataset,
    ScoreScale,
    derive_rankings_from_raw_scores,
    validate,
)

from conftest import make_dataset
from oracles import ranking_cycles_reference

REVIEWERS = ("r0", "r1", "r2")
PAPERS = ("A", "B", "C", "D", "E")


@st.composite
def small_ranked_datasets(draw):
    """Random small datasets whose rankings hold self pairs, pairs on papers
    the reviewer has no score for, pairs against the scores, and cycles."""
    pair = st.tuples(st.sampled_from(REVIEWERS), st.sampled_from(PAPERS))
    assigned = sorted(draw(st.sets(pair, min_size=1)))
    unscored = draw(st.sets(st.sampled_from(assigned)))
    scores = {p: draw(st.integers(0, 3)) for p in assigned if p not in unscored}
    ranked = st.lists(st.tuples(st.sampled_from(PAPERS), st.sampled_from(PAPERS)), max_size=10)
    rankings = tuple(
        PartialRanking(r, frozenset(draw(ranked)))
        for r in sorted(draw(st.sets(st.sampled_from(REVIEWERS))))
    )
    return ReviewDataset(
        scale=ScoreScale(0, 3),
        assignment=Assignment.from_pairs(assigned),
        scores=scores,
        rankings=rankings,
    )


class TestValidate:
    def test_consistent_dataset_is_ok(self, one_reviewer_two_papers):
        assert validate(one_reviewer_two_papers) == []

    def test_ranking_against_scores_is_flagged(self):
        ds = make_dataset({("r1", "A"): 5, ("r1", "B"): 3}, {"r1": [("B", "A")]})
        codes = [v.code for v in validate(ds)]
        assert codes == [RANK_SCORE_INCONSISTENT]

    def test_cycle_with_equal_scores_is_flagged(self):
        ds = make_dataset(
            {("r1", "A"): 5, ("r1", "B"): 5, ("r1", "C"): 5},
            {"r1": [("A", "B"), ("B", "C"), ("C", "A")]},
        )
        codes = {v.code for v in validate(ds)}
        assert codes == {RANK_CYCLE}

    def test_out_of_range_score(self):
        ds = make_dataset({("r1", "A"): 11})
        assert [v.code for v in validate(ds)] == [OUT_OF_RANGE]

    def test_ranking_over_unassigned_paper(self):
        ds = make_dataset({("r1", "A"): 5, ("r1", "B"): 4}, {"r1": [("A", "Z")]})
        assert UNASSIGNED_PAIR in {v.code for v in validate(ds)}

    def test_missing_score_for_assigned_pair(self):
        ds = ReviewDataset(
            scale=ScoreScale(0, 10),
            assignment=Assignment.from_pairs({("r1", "A"), ("r1", "B")}),
            scores={("r1", "A"): 5},
            rankings=(),
        )
        assert [v.code for v in validate(ds)] == [UNASSIGNED_PAIR]

    def test_self_pair_is_a_cycle(self):
        ds = make_dataset({("r1", "A"): 5}, {"r1": [("A", "A")]})
        assert [v.code for v in validate(ds)] == [RANK_CYCLE]

    def test_cycles_follow_their_reviewers_pair_violations_in_member_order(self):
        ds = make_dataset(
            {**{("r1", p): 5 for p in "ABCD"}, ("r2", "A"): 3, ("r2", "B"): 4},
            {
                "r1": [("A", "B"), ("B", "A"), ("A", "C"), ("C", "D"), ("D", "C"), ("A", "Z")],
                "r2": [("A", "B")],
            },
        )
        assert [(v.code, v.reviewer_id, v.detail) for v in validate(ds)] == [
            (UNASSIGNED_PAIR, "r1", "ranking references unscored paper 'Z'"),
            (RANK_CYCLE, "r1", "cycle through A > B"),
            (RANK_CYCLE, "r1", "cycle through C > D"),
            (RANK_SCORE_INCONSISTENT, "r2", "('A', 'B') but scores are 3 < 4"),
        ]

    @settings(max_examples=300, deadline=None)
    @given(dataset=small_ranked_datasets())
    def test_cycles_match_transitive_closure_reference(self, dataset):
        named = [
            (v.reviewer_id, v.detail)
            for v in validate(dataset)
            if v.code == RANK_CYCLE and v.detail.startswith("cycle through")
        ]
        assert named == ranking_cycles_reference(dataset)

    def test_all_violations_reported_together(self):
        ds = make_dataset(
            {("r1", "A"): 12, ("r1", "B"): 3, ("r1", "C"): 3},
            {"r1": [("B", "C"), ("C", "B"), ("A", "Z")]},
        )
        codes = sorted(v.code for v in validate(ds))
        assert OUT_OF_RANGE in codes
        assert UNASSIGNED_PAIR in codes
        assert RANK_CYCLE in codes


class TestDeriveRankings:
    def test_ties_are_omitted(self):
        raw = {("r1", "A"): 8.0, ("r1", "B"): 8.0, ("r1", "C"): 4.0}
        (ranking,) = derive_rankings_from_raw_scores(raw)
        assert ranking.ordered_pairs == frozenset({("A", "C"), ("B", "C")})

    def test_single_paper_gives_empty_ranking(self):
        (ranking,) = derive_rankings_from_raw_scores({("r1", "A"): 8.0})
        assert ranking.is_empty

    def test_distinct_values_give_total_ranking(self):
        raw = {("r1", "A"): 7.0, ("r1", "B"): 6.0, ("r1", "C"): 5.0}
        (ranking,) = derive_rankings_from_raw_scores(raw)
        assert ranking.ordered_pairs == frozenset({("A", "B"), ("A", "C"), ("B", "C")})
        assert ranking.is_total_over(["A", "B", "C"])

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(st.floats(0, 10).map(lambda v: round(v, 3)), min_size=1, max_size=6),
        divisor=st.integers(1, 3),
    )
    def test_derived_rankings_validate_after_monotone_quantization(self, values, divisor):
        raw = {("r1", f"p{i}"): v for i, v in enumerate(values)}
        rankings = derive_rankings_from_raw_scores(raw)
        scores = {pair: int(v // divisor) for pair, v in raw.items()}
        ds = ReviewDataset(
            scale=ScoreScale(0, 11),
            assignment=Assignment.from_pairs(raw.keys()),
            scores=scores,
            rankings=tuple(rankings),
        )
        assert validate(ds) == []


class TestEqualScoreSubgraphIsAcyclic:
    def test_topological_order_exists_on_valid_data(self):
        ds = make_dataset(
            {("r1", "A"): 5, ("r1", "B"): 5, ("r1", "C"): 5, ("r1", "D"): 4},
            {"r1": [("A", "B"), ("B", "C"), ("A", "D")]},
        )
        assert validate(ds) == []
        ranking = ds.ranking_of["r1"]
        nodes = ["A", "B", "C"]
        edges = {
            (p, q)
            for p, q in ranking.ordered_pairs
            if ds.scores[("r1", p)] == ds.scores[("r1", q)]
        }
        order: list[str] = []
        remaining = set(nodes)
        while remaining:
            free = [n for n in remaining if not any((m, n) in edges for m in remaining)]
            assert free, "cycle among equal-score papers"
            order.extend(sorted(free))
            remaining -= set(free)
        assert set(order) == set(nodes)


class TestTypes:
    def test_scale_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            ScoreScale(5, 5)

    def test_assignment_from_pairs_collects_ids(self):
        a = Assignment.from_pairs({("r1", "A"), ("r2", "A"), ("r1", "B")})
        assert a.reviewer_ids == frozenset({"r1", "r2"})
        assert a.papers_of_reviewer["r1"] == ("A", "B")
        assert a.reviewers_of_paper["A"] == ("r1", "r2")

    def test_one_ranking_per_reviewer_enforced(self):
        with pytest.raises(ValueError, match="multiple rankings"):
            ReviewDataset(
                scale=ScoreScale(0, 10),
                assignment=Assignment.from_pairs({("r1", "A")}),
                scores={("r1", "A"): 5},
                rankings=(
                    PartialRanking("r1", frozenset()),
                    PartialRanking("r1", frozenset()),
                ),
            )

    def test_pair_index_is_lexicographic(self):
        ds = make_dataset({("r2", "A"): 5, ("r1", "B"): 4, ("r1", "A"): 3})
        assert ds.pair_index == {("r1", "A"): 0, ("r1", "B"): 1, ("r2", "A"): 2}
