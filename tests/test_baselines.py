from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deqscores.baselines import (
    GroupsInconsistent,
    NotTotalRanking,
    bre_adjusted_scores,
    partial_rankings_adjusted_scores,
    quantized_baseline,
)
from deqscores.metrics import kendall_tau_error, tie_fraction
from deqscores.model import RANK_CYCLE, derive_rankings_from_raw_scores, validate
from deqscores.synth import SynthConfig, generate

from conftest import (
    by_pair,
    incomplete_rankings,
    make_dataset,
    rankings_are_total,
    rankings_by_reviewer,
    score_records,
)
from oracles import (
    UnequalReviewCounts,
    pairwise_ranked_groups,
    partial_rankings_reference,
    rank_adjusted_reference,
    score_only_closed_form,
)
from test_model import from_records, small_ranked_records


def outcome(method, dataset):
    """A method's output bytes, or (class, message) of its ranking error."""
    try:
        return method(dataset).tobytes()
    except (NotTotalRanking, GroupsInconsistent) as exc:
        return type(exc), str(exc)


def total_ranking(papers_best_to_worst):
    order = list(papers_best_to_worst)
    return [
        (order[i], order[j]) for i in range(len(order)) for j in range(i + 1, len(order))
    ]


class TestQuantizedBaseline:
    def test_identity(self):
        ds = make_dataset({("r1", "A"): 7})
        assert by_pair(ds, quantized_baseline(ds)) == {("r1", "A"): 7.0}

    def test_zero_error_against_itself(self):
        ds = make_dataset({("r1", "A"): 7, ("r1", "B"): 5})
        out = quantized_baseline(ds)
        assert kendall_tau_error(out, out) == 0.0

    def test_tie_fraction_matches_scores(self):
        ds = make_dataset({("r1", "A"): 7, ("r1", "B"): 7, ("r2", "A"): 5})
        out = quantized_baseline(ds)
        scores = score_records(ds)
        assert tie_fraction(out) == tie_fraction([float(scores[k]) for k in ds.pairs()])


class TestRankAdjusted:
    def test_three_tied_papers(self):
        ds = make_dataset(
            {("r1", "A"): 5, ("r1", "B"): 5, ("r1", "C"): 5},
            {"r1": total_ranking(["A", "B", "C"])},
        )
        out = by_pair(ds, bre_adjusted_scores(ds, epsilon=0.05))
        assert out[("r1", "A")] == pytest.approx(5.05)
        assert out[("r1", "B")] == pytest.approx(5.00)
        assert out[("r1", "C")] == pytest.approx(4.95)

    def test_singleton_bin_unchanged(self):
        ds = make_dataset(
            {("r1", "A"): 6, ("r1", "B"): 4}, {"r1": total_ranking(["A", "B"])}
        )
        out = by_pair(ds, bre_adjusted_scores(ds))
        assert out[("r1", "A")] == pytest.approx(6.0)
        assert out[("r1", "B")] == pytest.approx(4.0)

    def test_two_tied_papers(self):
        ds = make_dataset(
            {("r1", "A"): 4, ("r1", "B"): 4}, {"r1": total_ranking(["A", "B"])}
        )
        out = by_pair(ds, bre_adjusted_scores(ds, epsilon=0.05))
        assert out[("r1", "A")] == pytest.approx(4.025)
        assert out[("r1", "B")] == pytest.approx(3.975)

    def test_partial_input_rejected(self):
        ds = make_dataset(
            {("r1", "A"): 5, ("r1", "B"): 5, ("r1", "C"): 5},
            {"r1": [("A", "B")]},
        )
        with pytest.raises(NotTotalRanking):
            bre_adjusted_scores(ds)

    def test_first_incomplete_reviewer_is_named(self):
        # r3 orders its pair once each way and names an unscored paper; r2
        # reports nothing, so r2 is the first whose pair stays unordered
        ds = make_dataset(
            {(r, p): 5 for r in ("r1", "r2", "r3") for p in ("A", "B")},
            {"r1": [("A", "B")], "r3": [("A", "B"), ("B", "A"), ("A", "Z")]},
        )
        with pytest.raises(NotTotalRanking, match="^reviewer 'r2' has an incomplete ranking$"):
            bre_adjusted_scores(ds)

    @settings(max_examples=300, deadline=None)
    @given(records=small_ranked_records(), derive=st.booleans(), data=st.data())
    def test_totality_is_the_pairwise_rule_on_acyclic_rankings(self, records, derive, data):
        # distinct levels mean "every pair ordered" wherever the rankings are
        # acyclic, as a valid dataset's are
        ds = from_records(*records)
        if derive:
            size = ds.num_reviews
            raw = data.draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
            ds = derive_rankings_from_raw_scores(ds, raw)
        incomplete = incomplete_rankings(ds)
        if incomplete:
            expected = NotTotalRanking, f"reviewer {incomplete[0]!r} has an incomplete ranking"
        else:
            expected = outcome(partial_rankings_adjusted_scores, ds)
        actual = outcome(bre_adjusted_scores, ds)
        if isinstance(expected, tuple) and RANK_CYCLE in {v.code for v in validate(ds)}:
            # a cycle orders no papers totally: both rules raise, maybe
            # naming different reviewers or classes
            assert actual[0] in (NotTotalRanking, GroupsInconsistent)
        else:
            assert actual == expected

    def test_bin_means_preserved_exactly(self):
        instance = generate(SynthConfig(num_papers=12, reviews_per_paper=3,
                                        papers_per_reviewer=3, seed=8))
        ds = instance.dataset
        out = bre_adjusted_scores(ds)
        bins: dict = {}
        for (reviewer, score), value in zip(zip(ds.reviewer, ds.scores.tolist()), out):
            bins.setdefault((reviewer, score), []).append(value)
        assert any(len(members) > 1 for members in bins.values())
        for (_reviewer, score), members in bins.items():
            assert sum(members) / len(members) == pytest.approx(score, abs=1e-12)

    def test_epsilon_never_changes_the_order(self):
        ds = make_dataset(
            {("r1", "A"): 5, ("r1", "B"): 5, ("r1", "C"): 5, ("r1", "D"): 3},
            {"r1": total_ranking(["B", "A", "C", "D"])},
        )
        orders = []
        for epsilon in (0.01, 0.05, 0.1):
            orders.append(np.argsort(bre_adjusted_scores(ds, epsilon)).tolist())
        assert orders[0] == orders[1] == orders[2]

    def test_adjustment_counts_preceding_minus_succeeding(self):
        epsilon = 0.05
        ds = make_dataset(
            {("r1", "A"): 5, ("r1", "B"): 5, ("r1", "C"): 5, ("r1", "D"): 5},
            {"r1": total_ranking(["A", "B", "C", "D"])},
        )
        out = by_pair(ds, bre_adjusted_scores(ds, epsilon))
        ranking = rankings_by_reviewer(ds)["r1"]
        for paper in "ABCD":
            bin_members = {"A", "B", "C", "D"} - {paper}
            preceding = sum(1 for q in bin_members if (paper, q) in ranking)
            succeeding = sum(1 for q in bin_members if (q, paper) in ranking)
            expected = 5 + (epsilon / 2.0) * (preceding - succeeding)
            assert out[("r1", paper)] == pytest.approx(expected, abs=1e-12)

    def test_matches_rank_wise_reference_bit_for_bit(self):
        for seed in range(10):
            ds = generate(SynthConfig(num_papers=60, sigma=0.5, seed=seed)).dataset
            expected = rank_adjusted_reference(ds, 0.05)
            assert np.array_equal(bre_adjusted_scores(ds, 0.05), expected), f"seed {seed}"


class TestGroupAdjusted:
    def test_two_groups_in_one_bin(self):
        ds = make_dataset(
            {("r1", "A"): 5, ("r1", "B"): 5, ("r1", "C"): 5},
            {"r1": [("A", "C"), ("B", "C")]},
        )
        out = by_pair(ds, partial_rankings_adjusted_scores(ds, epsilon=0.05))
        assert out[("r1", "A")] == pytest.approx(5.0 + 0.05 / 3.0)
        assert out[("r1", "B")] == pytest.approx(5.0 + 0.05 / 3.0)
        assert out[("r1", "C")] == pytest.approx(5.0 - 0.05 * 2.0 / 3.0)
        assert round(out[("r1", "A")], 4) == 5.0167
        assert round(out[("r1", "C")], 4) == 4.9667

    def test_single_group_bin_untouched(self):
        ds = make_dataset({("r1", "A"): 5, ("r1", "B"): 5}, {})
        out = by_pair(ds, partial_rankings_adjusted_scores(ds))
        assert out[("r1", "A")] == pytest.approx(5.0)
        assert out[("r1", "B")] == pytest.approx(5.0)

    def test_reduces_to_rank_adjusted_on_total_rankings(self):
        for seed in range(10):
            ds = generate(SynthConfig(num_papers=60, sigma=0.5, seed=seed)).dataset
            assert rankings_are_total(ds), "seed must give a tie-free instance"
            fine = bre_adjusted_scores(ds)
            grouped = partial_rankings_adjusted_scores(ds)
            assert np.array_equal(grouped, fine), f"seed {seed}"

    def test_inconsistent_pairs_rejected(self):
        # A beats B but neither is compared with C: no group-total order exists
        ds = make_dataset(
            {("r1", "A"): 5, ("r1", "B"): 5, ("r1", "C"): 5},
            {"r1": [("A", "B")]},
        )
        with pytest.raises(GroupsInconsistent):
            partial_rankings_adjusted_scores(ds)

    @pytest.mark.parametrize(
        "pairs, offending",
        [
            # A beats one paper, C none: A must be reported over C
            ([("A", "B")], ("A", "C")),
            # A and B each beat one paper, so they are tied yet ranked
            ([("A", "B"), ("B", "C")], ("A", "B")),
        ],
        ids=["unreported", "tied-but-ranked"],
    )
    def test_inconsistency_names_the_offending_pair(self, pairs, offending):
        ds = make_dataset(
            {("r1", "A"): 5, ("r1", "B"): 5, ("r1", "C"): 5}, {"r1": pairs}
        )
        with pytest.raises(GroupsInconsistent, match="'r1'") as err:
            partial_rankings_adjusted_scores(ds)
        assert repr(offending) in str(err.value)

    @pytest.mark.parametrize("method", [partial_rankings_adjusted_scores, bre_adjusted_scores])
    def test_unscored_better_paper_names_its_pair(self, method):
        # Z > A names a paper r1 did not score: the row is reported but not
        # implied, whichever of its papers is missing
        ds = make_dataset(
            {("r1", "A"): 3, ("r1", "B"): 3}, {"r1": [("A", "B"), ("Z", "A")]}
        )
        message = (
            "reviewer 'r1': the reported pairs are no total order over tie groups; "
            "first mismatch ('Z', 'A')"
        )
        with pytest.raises(GroupsInconsistent) as err:
            method(ds)
        assert str(err.value) == message

    @settings(max_examples=300, deadline=None)
    @given(
        records=small_ranked_records(),
        epsilon=st.sampled_from([0.05, 0.1, 0.3]),
        derive=st.booleans(),
        data=st.data(),
    )
    def test_matches_the_dict_reference(self, records, epsilon, derive, data):
        ds = from_records(*records)
        if derive:
            # rows derived from tied raw values are group-total, so bins
            # hold several groups
            size = ds.num_reviews
            raw = data.draw(st.lists(st.integers(0, 2), min_size=size, max_size=size))
            ds = derive_rankings_from_raw_scores(ds, raw)
        try:
            expected = partial_rankings_reference(ds, epsilon)
        except GroupsInconsistent as exc:
            with pytest.raises(GroupsInconsistent) as err:
                partial_rankings_adjusted_scores(ds, epsilon)
            assert str(err.value) == str(exc)
        else:
            assert np.array_equal(partial_rankings_adjusted_scores(ds, epsilon), expected)

    def test_matches_the_dict_reference_on_tied_rankings(self):
        # the rows of a raw-derived ranking tie equal raw values, so bins
        # hold several groups of several papers
        for seed in range(10):
            instance = generate(SynthConfig(num_papers=30, sigma=0.5, seed=seed))
            ds = replace(instance.dataset, scores=instance.dataset.scores // 3)
            ds = derive_rankings_from_raw_scores(ds, np.round(instance.truth_y))
            assert not rankings_are_total(ds)
            expected = partial_rankings_reference(ds, 0.05)
            assert np.array_equal(partial_rankings_adjusted_scores(ds, 0.05), expected)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 5).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.sets(
                    st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                        lambda pq: pq[0] != pq[1]
                    )
                ),
            )
        )
    )
    def test_matches_pairwise_oracle(self, case):
        n, index_pairs = case
        papers = [f"P{i}" for i in range(n)]
        pairs = {(papers[i], papers[j]) for i, j in index_pairs}
        ds = make_dataset({("r1", p): 5 for p in papers}, {"r1": pairs})
        expected = pairwise_ranked_groups(papers, pairs)
        if expected is None:
            with pytest.raises(GroupsInconsistent):
                partial_rankings_adjusted_scores(ds)
        else:
            # one bin: the t-th group gets 5 + t*epsilon before recentering
            out = by_pair(ds, partial_rankings_adjusted_scores(ds, epsilon=0.05))
            levels = sorted(set(out.values()))
            groups = [tuple(p for p in papers if out[("r1", p)] == v) for v in levels]
            assert groups == expected
            assert np.diff(levels) == pytest.approx([0.05] * (len(levels) - 1), abs=1e-12)

    def test_group_recovery_from_raw_derived_ranking(self):
        ds = make_dataset(
            {("r1", "A"): 5, ("r1", "B"): 5, ("r1", "C"): 4, ("r1", "D"): 4},
            {"r1": [("A", "C"), ("A", "D"), ("B", "C"), ("B", "D")]},
        )
        # each bin is spanned by one group, so it keeps its score exactly
        out = by_pair(ds, partial_rankings_adjusted_scores(ds))
        assert out == {pair: float(z) for pair, z in score_records(ds).items()}
        # in one bin, the recovered groups are its two levels
        ds = make_dataset({("r1", p): 5 for p in "ABCD"}, rankings_by_reviewer(ds))
        out = by_pair(ds, partial_rankings_adjusted_scores(ds, epsilon=0.05))
        assert out[("r1", "A")] == out[("r1", "B")] == pytest.approx(5.025, abs=1e-12)
        assert out[("r1", "C")] == out[("r1", "D")] == pytest.approx(4.975, abs=1e-12)


class TestScoreOnlyClosedForm:
    def test_two_reviewers_clip(self):
        ds = make_dataset({("r1", "A"): 7, ("r2", "A"): 4})
        out = by_pair(ds, score_only_closed_form(ds, lam=1.0))
        assert out[("r1", "A")] == pytest.approx(6.5)
        assert out[("r2", "A")] == pytest.approx(4.5)

    def test_unanimous_scores_unchanged(self):
        ds = make_dataset({("r1", "A"): 6, ("r2", "A"): 6, ("r3", "A"): 6})
        out = score_only_closed_form(ds, lam=2.0)
        assert all(v == pytest.approx(6.0) for v in out)

    def test_huge_weight_returns_scores(self):
        ds = make_dataset({("r1", "A"): 7, ("r2", "A"): 4})
        out = by_pair(ds, score_only_closed_form(ds, lam=1e6))
        assert out[("r1", "A")] == pytest.approx(7.0, abs=1e-5)
        assert out[("r2", "A")] == pytest.approx(4.0, abs=1e-5)

    def test_unequal_review_counts_rejected(self):
        ds = make_dataset({("r1", "A"): 7, ("r2", "A"): 4, ("r1", "B"): 5})
        with pytest.raises(UnequalReviewCounts):
            score_only_closed_form(ds, lam=1.0)

    @settings(max_examples=40, deadline=None)
    @given(
        z=st.lists(st.integers(0, 10), min_size=2, max_size=5),
        lam=st.floats(0.1, 50.0),
    )
    def test_pre_clip_value_is_a_convex_combination(self, z, lam):
        mu = len(z)
        own = (1.0 + mu * lam) / (mu * (1.0 + lam))
        other = 1.0 / (mu * (1.0 + lam))
        assert own > 0 and other > 0
        assert own + (mu - 1) * other == pytest.approx(1.0)
        ds = make_dataset({(f"r{i}", "A"): v for i, v in enumerate(z)})
        out = by_pair(ds, score_only_closed_form(ds, lam))
        # the pre-clip value is a convex combination of the reviewer's own
        # score and the paper's output mean m
        m = sum(out.values()) / mu
        for i, v in enumerate(z):
            tilde = (m + lam * v) / (1.0 + lam)
            expected = min(max(tilde, v - 0.5), v + 0.5)
            assert out[(f"r{i}", "A")] == pytest.approx(expected, abs=1e-12)
        # with no output on its box edge, m is the mean score and the
        # published weights apply
        if all(abs(out[(f"r{i}", "A")] - v) < 0.5 for i, v in enumerate(z)):
            for i, v in enumerate(z):
                tilde = own * v + other * (sum(z) - v)
                assert out[(f"r{i}", "A")] == pytest.approx(tilde, abs=1e-12)
