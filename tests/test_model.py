import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deqscores.model import (
    OUT_OF_RANGE,
    RANK_CYCLE,
    RANK_SCORE_INCONSISTENT,
    UNASSIGNED_PAIR,
    ReviewDataset,
    ScoreScale,
    derive_rankings_from_raw_scores,
    validate,
)

from conftest import (
    dataset_layout,
    make_dataset,
    ranking_records,
    rankings_by_reviewer,
    score_records,
)
from oracles import (
    derive_rankings_reference,
    layout_reference,
    ranking_cycles_reference,
    validate_reference,
)

REVIEWERS = ("r0", "r1", "r2")
PAPERS = ("A", "B", "C", "D", "E")
SCALE = (0, 3)


@st.composite
def small_ranked_records(draw):
    """Random small datasets as records, (scores, ranking rows), whose
    scores leave the scale and whose rankings hold self pairs, repeated
    pairs, pairs on papers the reviewer has no score for (reviewers without
    any score among them), pairs against the scores, and cycles."""
    pair = st.tuples(st.sampled_from(REVIEWERS), st.sampled_from(PAPERS))
    scores = {p: draw(st.integers(-1, 4)) for p in sorted(draw(st.sets(pair, min_size=1)))}
    row = st.tuples(st.sampled_from(REVIEWERS), st.sampled_from(PAPERS), st.sampled_from(PAPERS))
    return scores, draw(st.lists(row, max_size=20))


@st.composite
def cyclic_records(draw):
    """Random datasets as records whose reviewers each hold several ranking
    cycles, some through unscored papers. Consecutive cycles are joined by
    a path through a paper on no cycle, which has in- and out-edges, so
    peeling leaves it for the component search; random rows add self pairs,
    pairs against the scores and tails into and out of the cycles."""
    papers = [f"p{k:02d}" for k in range(14)]
    scores, rows = {}, []
    for r in REVIEWERS[:2]:
        order = draw(st.permutations(papers))
        unscored = set(draw(st.lists(st.sampled_from(papers), max_size=3)))
        scores.update({(r, p): draw(st.integers(-1, 4)) for p in papers if p not in unscored})
        cycles, at = [], 0
        for size in draw(st.lists(st.integers(2, 4), max_size=3)):
            cycle = order[at : at + size]
            at += size
            rows += [(r, a, b) for a, b in zip(cycle, cycle[1:] + cycle[:1])]
            cycles.append(cycle)
        for first, second in zip(cycles, cycles[1:]):
            rows += [(r, first[-1], order[at]), (r, order[at], second[0])]
            at += 1
        row = st.tuples(st.just(r), st.sampled_from(papers), st.sampled_from(papers))
        rows += draw(st.lists(row, max_size=8))
    return scores, rows


def from_records(scores, rows):
    return ReviewDataset.from_records(ScoreScale(*SCALE), scores, rows)


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
            (RANK_CYCLE, "r1", "cycle through 'A' > 'B'"),
            (RANK_CYCLE, "r1", "cycle through 'C' > 'D'"),
            (RANK_SCORE_INCONSISTENT, "r2", "('A', 'B') but scores are 3 < 4"),
        ]

    def test_cycle_names_each_paper_by_its_repr(self):
        # an id holding the separator or a line break still reads as one paper
        papers = ["A > B", "C", "D\nE"]
        ds = make_dataset(
            {("r1", p): 5 for p in papers},
            {"r1": [(papers[0], papers[1]), (papers[1], papers[2]), (papers[2], papers[0])]},
        )
        assert [(v.code, v.detail) for v in validate(ds)] == [
            (RANK_CYCLE, "cycle through 'A > B' > 'C' > 'D\\nE'"),
        ]

    @settings(max_examples=300, deadline=None)
    @given(records=small_ranked_records())
    def test_cycles_match_transitive_closure_reference(self, records):
        named = [
            (v.reviewer_id, v.detail)
            for v in validate(from_records(*records))
            if v.code == RANK_CYCLE and v.detail.startswith("cycle through")
        ]
        assert named == ranking_cycles_reference(*records)

    @settings(max_examples=400, deadline=None)
    @given(records=small_ranked_records())
    def test_violations_match_the_record_walk_reference(self, records):
        found = [(v.code, v.reviewer_id, v.detail) for v in validate(from_records(*records))]
        assert found == validate_reference(SCALE, *records)

    @settings(max_examples=300, deadline=None)
    @given(records=cyclic_records())
    def test_several_cycles_per_reviewer_match_the_record_walk_reference(self, records):
        found = [(v.code, v.reviewer_id, v.detail) for v in validate(from_records(*records))]
        assert found == validate_reference(SCALE, *records)

    @staticmethod
    def _one_cycle(size: int) -> ReviewDataset:
        # one reviewer's papers 0 > 1 > ... > size - 1 > 0, all scored alike
        papers = [f"p{k:06d}" for k in range(size)]
        ids = np.arange(size)
        return ReviewDataset.from_columns(
            ScoreScale(0, 3), ["r"], papers, np.zeros(size), ids, np.full(size, 2),
            np.zeros(size), ids, np.roll(ids, -1),
        )

    def test_a_cycle_through_twenty_thousand_papers_is_one_cycle_in_linear_time(self):
        # the component search recurses nowhere, and its work grows with the
        # size, not its square: four times the papers make at most four
        # times the calls of built-in functions (12 per paper), counted by a
        # profile hook, which unlike a clock gives the same count every run
        calls = []
        for size in (5_000, 20_000):
            dataset = self._one_cycle(size)
            count = 0

            def profile(frame, event, arg):
                nonlocal count
                count += event == "c_call"

            sys.setprofile(profile)
            try:
                found = validate(dataset)
            finally:
                sys.setprofile(None)
            calls.append(count)
            papers = " > ".join(repr(p) for p in dataset.paper_ids.tolist())
            assert [(v.code, v.reviewer_id, v.detail) for v in found] == [
                (RANK_CYCLE, "r", "cycle through " + papers)
            ]
        assert calls[1] <= 4 * calls[0], calls

    def test_all_violations_reported_together(self):
        ds = make_dataset(
            {("r1", "A"): 12, ("r1", "B"): 3, ("r1", "C"): 3},
            {"r1": [("B", "C"), ("C", "B"), ("A", "Z")]},
        )
        codes = sorted(v.code for v in validate(ds))
        assert OUT_OF_RANGE in codes
        assert UNASSIGNED_PAIR in codes
        assert RANK_CYCLE in codes


def derived_rows(raw: dict) -> list[tuple[str, str, str]]:
    """The ranking rows ``derive_rankings_from_raw_scores`` gives a dataset
    of ``raw``'s reviews."""
    dataset = make_dataset({pair: 0 for pair in raw})
    values = [raw[pair] for pair in dataset.pairs()]
    return ranking_records(derive_rankings_from_raw_scores(dataset, values))


class TestDeriveRankings:
    def test_ties_are_omitted(self):
        raw = {("r1", "A"): 8.0, ("r1", "B"): 8.0, ("r1", "C"): 4.0}
        assert derived_rows(raw) == [("r1", "A", "C"), ("r1", "B", "C")]

    def test_single_paper_gives_empty_ranking(self):
        assert derived_rows({("r1", "A"): 8.0}) == []

    def test_distinct_values_give_total_ranking(self):
        raw = {("r1", "A"): 7.0, ("r1", "B"): 6.0, ("r1", "C"): 5.0}
        assert derived_rows(raw) == [("r1", "A", "B"), ("r1", "A", "C"), ("r1", "B", "C")]

    @settings(max_examples=300, deadline=None)
    @given(
        raw=st.dictionaries(
            st.tuples(st.sampled_from(REVIEWERS), st.sampled_from(PAPERS)),
            st.integers(0, 3) | st.floats(0, 3, allow_subnormal=False),
            min_size=1,
        )
    )
    def test_derived_rows_match_the_pairwise_reference(self, raw):
        assert derived_rows(raw) == derive_rankings_reference(raw)

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(st.floats(0, 10).map(lambda v: round(v, 3)), min_size=1, max_size=6),
        divisor=st.integers(1, 3),
    )
    def test_derived_rankings_validate_after_monotone_quantization(self, values, divisor):
        raw = {("r1", f"p{i}"): v for i, v in enumerate(values)}
        scores = {pair: int(v // divisor) for pair, v in raw.items()}
        ds = make_dataset(scores, scale=(0, 11))
        ds = derive_rankings_from_raw_scores(ds, [raw[pair] for pair in ds.pairs()])
        assert validate(ds) == []


class TestEqualScoreSubgraphIsAcyclic:
    def test_topological_order_exists_on_valid_data(self):
        ds = make_dataset(
            {("r1", "A"): 5, ("r1", "B"): 5, ("r1", "C"): 5, ("r1", "D"): 4},
            {"r1": [("A", "B"), ("B", "C"), ("A", "D")]},
        )
        assert validate(ds) == []
        scores = score_records(ds)
        nodes = ["A", "B", "C"]
        edges = {
            (p, q)
            for p, q in rankings_by_reviewer(ds)["r1"]
            if scores[("r1", p)] == scores[("r1", q)]
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

    def test_records_intern_into_id_tables_and_reviewer_slices(self):
        ds = make_dataset(
            {("r2", "A"): 5, ("r1", "B"): 4, ("r1", "A"): 3},
            {"r3": [("C", "A")], "r1": [("B", "A"), ("A", "B"), ("B", "A")]},
        )
        # the tables cover the ranking-only reviewer r3 and paper C
        assert ds.reviewer_ids.tolist() == ["r1", "r2", "r3"]
        assert ds.paper_ids.tolist() == ["A", "B", "C"]
        assert (ds.reviewer.tolist(), ds.paper.tolist()) == ([0, 0, 1], [0, 1, 0])
        assert ds.scores.dtype == np.int64 and ds.scores.tolist() == [3, 4, 5]
        # repeated rows count once
        assert ranking_records(ds) == [("r1", "A", "B"), ("r1", "B", "A"), ("r3", "C", "A")]
        better, worse = ds.ranked_reviews
        assert (better.tolist(), worse.tolist()) == ([0, 1, -1], [1, 0, -1])

    @settings(max_examples=200, deadline=None)
    @given(small_ranked_records(), st.randoms(use_true_random=False))
    def test_records_match_the_sorted_tuple_layout(self, records, rng):
        # rows in any order, named by reviewers and papers with no score too
        scores, rows = records
        shuffled = list(scores.items())
        rng.shuffle(shuffled)
        ds = from_records(dict(shuffled), rows)
        assert dataset_layout(ds) == layout_reference(scores, rows)
        assert all(getattr(ds, f).dtype == np.int64 for f in ("reviewer", "scores", "worse"))

    def test_columns_index_tables_in_any_order(self):
        ds = ReviewDataset.from_columns(
            ScoreScale(0, 9), ["r2", "r1"], ["B", "A"],
            [1, 0, 1], [0, 1, 1], [4, 5, 3], [1, 1, 1], [1, 0, 1], [0, 1, 0],
        )
        assert dataset_layout(ds) == layout_reference(
            {("r1", "B"): 4, ("r2", "A"): 5, ("r1", "A"): 3},
            [("r1", "A", "B"), ("r1", "B", "A"), ("r1", "A", "B")],
        )

    def test_pair_index_is_lexicographic(self):
        ds = make_dataset({("r2", "A"): 5, ("r1", "B"): 4, ("r1", "A"): 3})
        assert ds.pairs() == [("r1", "A"), ("r1", "B"), ("r2", "A")]
